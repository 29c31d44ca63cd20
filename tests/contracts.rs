//! The batch framework's work-sharing contract on the reliable transport:
//! every requested field is rendered exactly once, whatever the rank count,
//! and bit-identical to the single-rank render; and a snapshot that cannot
//! be read is one typed error, not a panic or a deadlock.

use dtfe_repro::framework::{
    run_distributed_snapshot, Decomposition, FieldRequest, FrameworkConfig, FrameworkError,
    RunReport,
};
use dtfe_repro::geometry::{Aabb3, Vec3};
use dtfe_repro::nbody::datasets::galaxy_box;
use dtfe_repro::nbody::snapshot::write_snapshot;
use std::path::PathBuf;

fn temp_snapshot(tag: &str, blocks: &[Vec<Vec3>], bounds: Aabb3) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("dtfe_contracts_{tag}_{}.bin", std::process::id()));
    write_snapshot(&path, blocks, bounds).unwrap();
    path
}

/// `pts` dealt round-robin into `n` writer blocks.
fn blocks(pts: &[Vec3], n: usize) -> Vec<Vec<Vec3>> {
    let mut blocks: Vec<Vec<Vec3>> = vec![Vec::new(); n];
    for (i, &p) in pts.iter().enumerate() {
        blocks[i % n].push(p);
    }
    blocks
}

/// Rendered fields keyed by request centre, in a deterministic order.
fn sorted_fields(run: &RunReport) -> Vec<(Vec3, Vec<f64>)> {
    let mut fields: Vec<(Vec3, Vec<f64>)> = (run.ranks.iter())
        .flat_map(|r| r.fields.iter().map(|(c, f)| (*c, f.data.clone())))
        .collect();
    fields.sort_by(|a, b| {
        (a.0.x.total_cmp(&b.0.x))
            .then(a.0.y.total_cmp(&b.0.y))
            .then(a.0.z.total_cmp(&b.0.z))
    });
    fields
}

/// All requests lie in rank 0's sub-volume at four ranks (and so at two),
/// so rank 0 is overloaded and the schedule must move bundles across
/// ranks. Every field is computed once, every item sent is received, and
/// every field is the single-rank render bit for bit: an item is always
/// executed against its owner's particle set, wherever it runs.
#[test]
fn shared_work_renders_every_field_once_and_bit_identical() {
    let box_len = 16.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let (pts, halos) = galaxy_box(box_len, 6_000, 16, 42);
    // 5 writer blocks, read by 1, 2 and 4 ranks: the round-robin read is
    // exercised too.
    let path = temp_snapshot("shared", &blocks(&pts, 5), bounds);

    let decomp = Decomposition::new(bounds, 4);
    let requests: Vec<FieldRequest> = (halos.iter())
        .filter(|h| decomp.rank_of(h.center) == 0)
        .take(8)
        .map(|h| FieldRequest { center: h.center })
        .collect();
    assert!(requests.len() >= 3, "dataset left rank 0 underpopulated");

    let cfg = FrameworkConfig {
        keep_fields: true,
        ..FrameworkConfig::new(2.0, 8)
    };
    let mut reference = None;
    for nranks in [1usize, 2, 4] {
        let run = run_distributed_snapshot(nranks, &path, &requests, &cfg).unwrap();
        assert_eq!(run.computed, requests.len(), "{nranks} ranks");
        let sent: usize = run.ranks.iter().map(|r| r.sent_items).sum();
        let received: usize = run.ranks.iter().map(|r| r.received_items).sum();
        if nranks > 1 {
            assert!(sent > 0, "{nranks} ranks: the schedule moved no work");
        }
        assert_eq!(sent, received, "{nranks} ranks: sent != received");

        let fields = sorted_fields(&run);
        assert_eq!(fields.len(), requests.len(), "{nranks} ranks");
        let reference = reference.get_or_insert_with(|| fields.clone());
        for ((ca, fa), (cb, fb)) in fields.iter().zip(reference.iter()) {
            assert_eq!(ca, cb, "{nranks} ranks: centre mismatch");
            assert_eq!(
                fa, fb,
                "{nranks} ranks: field at {ca:?} differs from 1 rank"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A truncated snapshot surfaces as a typed IO error from
/// `run_distributed_snapshot` on every rank — no panic, no deadlock.
#[test]
fn truncated_snapshot_reports_typed_io_error() {
    let box_len = 8.0;
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(box_len));
    let (pts, halos) = galaxy_box(box_len, 2_000, 4, 5);
    let path = temp_snapshot("truncated", &blocks(&pts, 4), bounds);
    // Chop the tail off: headers survive, some block read must fail.
    let full = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full / 2).unwrap();
    drop(f);

    let requests: Vec<FieldRequest> = (halos.iter())
        .take(3)
        .map(|h| FieldRequest { center: h.center })
        .collect();
    let cfg = FrameworkConfig::new(2.0, 6);
    let err = run_distributed_snapshot(3, &path, &requests, &cfg).unwrap_err();
    assert!(
        matches!(err, FrameworkError::Io { .. }),
        "expected Io, got {err}"
    );
    std::fs::remove_file(&path).ok();
}
