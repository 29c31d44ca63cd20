//! Blocked binary snapshot format.
//!
//! Mimics the layout the paper reads with MPI-IO (§IV-B): "data was written
//! to several files containing offsets within each file for an individual
//! process's particles … on disk the data block written by a process
//! represents a contiguous sub-volume". Here one file holds a header, a
//! per-rank offset table, and contiguous per-rank particle blocks; readers
//! can fetch any subset of blocks independently, which is what the
//! framework's "parallel read with arbitrary block assignment" simulates.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    u64  = 0x44_54_46_45_53_4E_50_32 ("DTFESNP2")
//! nranks   u64
//! total    u64
//! checksum u64  — FNV-1a 64 over the data section bytes
//! bounds   6 × f64 (lo.xyz, hi.xyz)
//! table    nranks × (offset u64, count u64)   — offset in particles, not bytes
//! data     total × 3 × f64
//! ```
//!
//! A truncated or bit-flipped file surfaces as a typed
//! [`SnapshotError::ChecksumMismatch`] instead of silently returning garbage
//! particles — the serving layer's registry depends on this to reject
//! corrupt uploads. The pre-checksum version 1 ("DTFESNP1", no checksum
//! word) had no way to be verified and is a [`SnapshotError::BadMagic`].

use dtfe_geometry::{Aabb3, Vec3};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// "DTFESNP2": the layout with the FNV-1a content checksum in the header.
const MAGIC: u64 = 0x4454_4645_534E_5032;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over the snapshot data section.
#[derive(Clone, Copy, Debug)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Typed snapshot IO failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file IO failed (includes unexpected EOF on short files).
    Io(io::Error),
    /// The file does not start with a known snapshot magic.
    BadMagic { found: u64 },
    /// The header's block table is inconsistent with `total` (overlapping,
    /// out-of-range, or non-contiguous offsets) — the file cannot have been
    /// produced by [`write_snapshot`].
    MalformedTable,
    /// The FNV-1a checksum of the data section does not match the header:
    /// the particle payload was truncated or corrupted after writing.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// The bounds are not a box: a coordinate is NaN or infinite, or
    /// `lo > hi` on some axis. The checksum does not cover the header, so
    /// this is the check that catches a flipped bit there.
    BadBounds { lo: Vec3, hi: Vec3 },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:#018x}")
            }
            SnapshotError::MalformedTable => write!(f, "snapshot block table is malformed"),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot data checksum mismatch: header says {expected:#018x}, \
                 data hashes to {actual:#018x} (file truncated or corrupted)"
            ),
            SnapshotError::BadBounds { lo, hi } => write!(
                f,
                "snapshot bounds ({}, {}, {}) .. ({}, {}, {}) are not a finite box",
                lo.x, lo.y, lo.z, hi.x, hi.y, hi.z
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        match e {
            SnapshotError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Snapshot header and block table.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    pub bounds: Aabb3,
    pub total: u64,
    /// Per-rank `(offset, count)` in particle units.
    pub blocks: Vec<(u64, u64)>,
    /// Header checksum (FNV-1a 64) of the data section.
    pub checksum: u64,
}

impl SnapshotInfo {
    pub fn num_ranks(&self) -> usize {
        self.blocks.len()
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Hash the particle payload exactly as it is laid out on disk.
fn checksum_blocks(blocks: &[Vec<Vec3>]) -> u64 {
    let mut h = Fnv1a::new();
    for b in blocks {
        for p in b {
            h.update(&p.x.to_le_bytes());
            h.update(&p.y.to_le_bytes());
            h.update(&p.z.to_le_bytes());
        }
    }
    h.finish()
}

/// The box `lo .. hi`, unless a coordinate is not finite or `lo > hi` on
/// some axis.
fn checked_bounds(lo: Vec3, hi: Vec3) -> Result<Aabb3, SnapshotError> {
    let axes = [(lo.x, hi.x), (lo.y, hi.y), (lo.z, hi.z)];
    if axes
        .iter()
        .all(|&(l, h)| l.is_finite() && h.is_finite() && l <= h)
    {
        Ok(Aabb3::new(lo, hi))
    } else {
        Err(SnapshotError::BadBounds { lo, hi })
    }
}

/// Write a snapshot with one contiguous block per writer rank. Bounds that
/// are not a finite box are refused before the file is created.
pub fn write_snapshot(
    path: &Path,
    blocks: &[Vec<Vec3>],
    bounds: Aabb3,
) -> Result<(), SnapshotError> {
    checked_bounds(bounds.lo, bounds.hi)?;
    let mut w = BufWriter::new(File::create(path)?);
    let total: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    write_u64(&mut w, MAGIC)?;
    write_u64(&mut w, blocks.len() as u64)?;
    write_u64(&mut w, total)?;
    write_u64(&mut w, checksum_blocks(blocks))?;
    for v in [bounds.lo, bounds.hi] {
        write_f64(&mut w, v.x)?;
        write_f64(&mut w, v.y)?;
        write_f64(&mut w, v.z)?;
    }
    let mut offset = 0u64;
    for b in blocks {
        write_u64(&mut w, offset)?;
        write_u64(&mut w, b.len() as u64)?;
        offset += b.len() as u64;
    }
    for b in blocks {
        for p in b {
            write_f64(&mut w, p.x)?;
            write_f64(&mut w, p.y)?;
            write_f64(&mut w, p.z)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Read only the header/table. Its claims are checked against the file's
/// length before anything is sized from them, so every reader that
/// allocates from a [`SnapshotInfo`] is bounded by the bytes on disk.
pub fn read_info(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    read_info_from(&mut BufReader::new(file), file_len)
}

fn read_info_from(r: &mut impl Read, file_len: u64) -> Result<SnapshotInfo, SnapshotError> {
    let magic = read_u64(r)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let nranks = read_u64(r)?;
    let total = read_u64(r)?;
    let checksum = read_u64(r)?;
    let lo = Vec3::new(read_f64(r)?, read_f64(r)?, read_f64(r)?);
    let hi = Vec3::new(read_f64(r)?, read_f64(r)?, read_f64(r)?);
    let bounds = checked_bounds(lo, hi)?;
    // `nranks` and `total` are untrusted: a table that cannot fit in the
    // file (or a size that overflows) is malformed; a data section cut
    // short is the unexpected EOF that reading it would hit.
    let table_end = nranks
        .checked_mul(16)
        .and_then(|table| table.checked_add(HEAD_BYTES))
        .filter(|&end| end <= file_len)
        .ok_or(SnapshotError::MalformedTable)?;
    let data_end = total
        .checked_mul(24)
        .and_then(|data| data.checked_add(table_end))
        .ok_or(SnapshotError::MalformedTable)?;
    if data_end > file_len {
        return Err(SnapshotError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("header claims {data_end} bytes, file has {file_len}"),
        )));
    }
    let mut blocks = Vec::with_capacity(nranks as usize);
    for _ in 0..nranks {
        blocks.push((read_u64(r)?, read_u64(r)?));
    }
    // The table must tile [0, total) contiguously, exactly as the writer
    // lays blocks out; anything else would make block reads alias.
    let mut expect = 0u64;
    for &(off, count) in &blocks {
        if off != expect {
            return Err(SnapshotError::MalformedTable);
        }
        expect = expect
            .checked_add(count)
            .ok_or(SnapshotError::MalformedTable)?;
    }
    if expect != total {
        return Err(SnapshotError::MalformedTable);
    }
    Ok(SnapshotInfo {
        bounds,
        total,
        blocks,
        checksum,
    })
}

/// magic + nranks + total + checksum + 6 bounds.
const HEAD_BYTES: u64 = (4 + 6) * 8;

fn data_start(info: &SnapshotInfo) -> u64 {
    HEAD_BYTES + 16 * info.blocks.len() as u64
}

/// Read one rank's block (the per-process read of the parallel ingest).
///
/// A partial read cannot verify the whole-file checksum; callers that need
/// integrity before fanning out block reads should [`verify`] once up front
/// (the serving layer's registry does).
pub fn read_block(
    path: &Path,
    info: &SnapshotInfo,
    rank: usize,
) -> Result<Vec<Vec3>, SnapshotError> {
    let (offset, count) = info.blocks[rank];
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(data_start(info) + offset * 24))?;
    let mut r = BufReader::new(f);
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(Vec3::new(
            read_f64(&mut r)?,
            read_f64(&mut r)?,
            read_f64(&mut r)?,
        ));
    }
    Ok(out)
}

/// Read the whole snapshot, verifying the data checksum.
pub fn read_all(path: &Path) -> Result<(SnapshotInfo, Vec<Vec3>), SnapshotError> {
    let info = read_info(path)?;
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(data_start(&info)))?;
    let mut r = BufReader::new(f);
    let mut hash = Fnv1a::new();
    let mut out = Vec::with_capacity(info.total as usize);
    let mut buf = [0u8; 24];
    for _ in 0..info.total {
        r.read_exact(&mut buf)?;
        hash.update(&buf);
        out.push(Vec3::new(
            f64::from_le_bytes(buf[0..8].try_into().unwrap()),
            f64::from_le_bytes(buf[8..16].try_into().unwrap()),
            f64::from_le_bytes(buf[16..24].try_into().unwrap()),
        ));
    }
    let (expected, actual) = (info.checksum, hash.finish());
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok((info, out))
}

/// Stream the data section and verify it against the header checksum
/// without materializing the particles.
pub fn verify(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let info = read_info(path)?;
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(data_start(&info)))?;
    let mut r = BufReader::new(f);
    let mut hash = Fnv1a::new();
    let mut remaining = info.total * 24;
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let want = remaining.min(buf.len() as u64) as usize;
        r.read_exact(&mut buf[..want])?;
        hash.update(&buf[..want]);
        remaining -= want as u64;
    }
    let (expected, actual) = (info.checksum, hash.finish());
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dtfe_snap_test_{}_{name}.bin", std::process::id()));
        p
    }

    fn sample_blocks() -> (Vec<Vec<Vec3>>, Aabb3) {
        let blocks = vec![
            vec![Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.25, 0.5, 0.75)],
            vec![Vec3::new(1.5, 0.5, 0.5)],
            vec![],
            vec![
                Vec3::new(1.5, 1.5, 0.5),
                Vec3::new(1.25, 1.75, 0.5),
                Vec3::new(1.0, 1.0, 1.0),
            ],
        ];
        (blocks, Aabb3::new(Vec3::ZERO, Vec3::splat(2.0)))
    }

    #[test]
    fn roundtrip_all() {
        let p = tmp("all");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let (info, pts) = read_all(&p).unwrap();
        assert_eq!(info.total, 6);
        assert_eq!(info.num_ranks(), 4);
        assert_eq!(info.bounds, bounds);
        let expect: Vec<Vec3> = blocks.concat();
        assert_eq!(pts, expect);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn per_block_reads() {
        let p = tmp("blocks");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let info = read_info(&p).unwrap();
        for (rank, expect) in blocks.iter().enumerate() {
            let got = read_block(&p, &info, rank).unwrap();
            assert_eq!(&got, expect, "rank {rank}");
        }
        // Arbitrary block assignment: read blocks out of order.
        assert_eq!(read_block(&p, &info, 3).unwrap().len(), 3);
        assert_eq!(read_block(&p, &info, 0).unwrap().len(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let p = tmp("bad");
        std::fs::write(&p, [0u8; 64]).unwrap();
        assert!(matches!(read_info(&p), Err(SnapshotError::BadMagic { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn block_table_offsets_contiguous() {
        let p = tmp("offsets");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let info = read_info(&p).unwrap();
        let mut expect = 0u64;
        for (i, &(off, count)) in info.blocks.iter().enumerate() {
            assert_eq!(off, expect, "rank {i}");
            expect += count;
        }
        assert_eq!(expect, info.total);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn detects_bit_flip_in_data() {
        let p = tmp("flip");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip one bit in the last particle's payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_all(&p),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            verify(&p),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn detects_truncation() {
        let p = tmp("trunc");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Drop the last 16 bytes of particle data: read_all hits EOF, which
        // surfaces as Io — still a typed failure, never garbage particles.
        std::fs::write(&p, &bytes[..bytes.len() - 16]).unwrap();
        match read_all(&p) {
            Err(SnapshotError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
        assert!(verify(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_malformed_table() {
        let p = tmp("table");
        let (blocks, bounds) = sample_blocks();
        write_snapshot(&p, &blocks, bounds).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Corrupt the first table offset (header is 4 u64 + 6 f64 = 80 B).
        bytes[80] = 7;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(read_info(&p), Err(SnapshotError::MalformedTable)));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bounds_that_are_not_a_finite_box_are_refused_both_ways() {
        // Header bounds: lo.xyz at 32, 40, 48; hi.xyz at 56, 64, 72.
        let p = tmp("bounds");
        let (blocks, bounds) = sample_blocks();
        let bad = |err: Option<SnapshotError>| matches!(err, Some(SnapshotError::BadBounds { .. }));
        for (at, v) in [
            (32, f64::NAN),
            (64, f64::NAN),
            (72, f64::INFINITY),
            (40, 3.0),
        ] {
            write_snapshot(&p, &blocks, bounds).unwrap();
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&p, &bytes).unwrap();
            assert!(bad(read_info(&p).err()), "{v} at {at}: read_info");
            assert!(bad(read_all(&p).err()), "{v} at {at}: read_all");
            assert!(bad(verify(&p).err()), "{v} at {at}: verify");
        }
        std::fs::remove_file(&p).ok();
        let inverted = Aabb3::new(Vec3::ZERO, Vec3::new(2.0, -1.0, 2.0));
        let nan = Aabb3::new(Vec3::ZERO, Vec3::splat(f64::NAN));
        for bounds in [inverted, nan] {
            assert!(bad(write_snapshot(&p, &blocks, bounds).err()), "{bounds:?}");
            assert!(!p.exists(), "a refused snapshot writes no file");
        }
        // A flat box is still a box.
        let flat = Aabb3::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 0.0));
        write_snapshot(&p, &blocks, flat).unwrap();
        assert_eq!(read_info(&p).unwrap().bounds, flat);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn header_claims_beyond_the_file_are_typed_errors_not_allocations() {
        // One particle is a 120-byte file: `nranks` at offset 8, `total` at
        // 16, the one block's count at 88. Sizing a `Vec` from 2^60 panics
        // with `capacity overflow`; from 10^12 it aborts in the allocator.
        let p = tmp("hostile");
        let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(1.0));
        let cases: [(&[usize], u64, bool); 3] = [
            (&[8], 1 << 60, false),
            (&[16, 88], 1 << 60, false),
            (&[16, 88], 1_000_000_000_000, true),
        ];
        for (offsets, claim, truncation) in cases {
            write_snapshot(&p, &[vec![Vec3::splat(0.5)]], bounds).unwrap();
            let mut bytes = std::fs::read(&p).unwrap();
            assert_eq!(bytes.len(), 120);
            for &at in offsets {
                bytes[at..at + 8].copy_from_slice(&claim.to_le_bytes());
            }
            std::fs::write(&p, &bytes).unwrap();
            for err in [read_info(&p).err(), read_all(&p).err(), verify(&p).err()] {
                match err {
                    Some(SnapshotError::Io(e)) if truncation => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
                    }
                    Some(SnapshotError::MalformedTable) if !truncation => {}
                    other => panic!("{offsets:?} = {claim}: {other:?}"),
                }
            }
        }
        std::fs::remove_file(&p).ok();
    }
}
