//! Property tests of the wire protocol: every encodable message —
//! including every error variant — round-trips exactly, and malformed
//! frames (oversized announcements, truncations, trailing bytes, bad
//! tags) are rejected with typed errors instead of panics or garbage.

use dtfe_core::{EstimatorKind, GridSpec2};
use dtfe_geometry::{Vec2, Vec3};
use dtfe_service::{
    wire::{read_frame, write_frame},
    CacheCounters, RenderRequest, RenderResponse, Request, Response, ResponseMeta, ServiceError,
    ServingCounters, StatsDocument, TraceContext, WireError, MAX_FRAME, STATS_VERSION,
};
use proptest::prelude::*;

/// Trace contexts as they appear on the wire: absent, present-unsampled,
/// present-sampled.
fn trace_from(sel: u8, seed: u64) -> Option<TraceContext> {
    match sel % 3 {
        0 => None,
        s => {
            let mut id = [0u8; 16];
            id[..8].copy_from_slice(&seed.to_le_bytes());
            id[8..].copy_from_slice(&seed.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes());
            Some(TraceContext {
                id,
                sampled: s == 2,
            })
        }
    }
}

/// Snapshot-id-shaped strings (the wire allows any UTF-8 ≤ u16::MAX; ids
/// this shape keep the cases readable).
fn id_from(bytes: Vec<u8>) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.";
    bytes
        .into_iter()
        .map(|b| ALPHA[b as usize % ALPHA.len()] as char)
        .collect()
}

fn error_from(kind: u8, ms: u64, msg: String) -> ServiceError {
    match kind % 8 {
        0 => ServiceError::Overloaded { retry_after_ms: ms },
        1 => ServiceError::DeadlineExceeded,
        2 => ServiceError::UnknownSnapshot(msg),
        3 => ServiceError::InvalidRequest(msg),
        4 => ServiceError::CorruptSnapshot(msg),
        5 => ServiceError::ShuttingDown,
        6 => ServiceError::Quarantined { retry_after_ms: ms },
        _ => ServiceError::Internal(msg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn render_request_roundtrips(
        id_bytes in prop::collection::vec(0u8..255, 0..40),
        x in -1e9f64..1e9,
        y in -1e9f64..1e9,
        z in -1e9f64..1e9,
        resolution in 0u32..4096,
        samples in 0u32..256,
        deadline_ms in 0u64..1_000_000,
        est_sel in 0u8..4,
        realizations in 1u16..64,
        trace_sel in 0u8..3,
        trace_seed in 0u64..u64::MAX,
        forwarded in 0u8..2,
    ) {
        let estimator = match est_sel {
            0 => EstimatorKind::Dtfe,
            1 => EstimatorKind::PsDtfe,
            2 => EstimatorKind::VelocityDivergence,
            _ => EstimatorKind::Stochastic { realizations },
        };
        let req = Request::Render(RenderRequest {
            snapshot: id_from(id_bytes),
            center: Vec3::new(x, y, z),
            resolution,
            samples,
            deadline_ms,
            estimator,
            trace: trace_from(trace_sel, trace_seed),
            forwarded: forwarded == 1,
        });
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn error_response_roundtrips(
        kind in 0u8..14,
        ms in 0u64..u64::MAX,
        msg_bytes in prop::collection::vec(0u8..255, 0..60),
    ) {
        let resp = Response::Error(error_from(kind, ms, id_from(msg_bytes)));
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn field_response_roundtrips(
        ox in -1e6f64..1e6,
        oy in -1e6f64..1e6,
        cell in 1e-6f64..1e3,
        nx in 1usize..24,
        ny in 1usize..24,
        cache_hit in 0u8..2,
        degraded in 0u8..2,
        batch_size in 1u32..64,
        queue_us in 0u64..1_000_000,
        render_us in 0u64..1_000_000,
        admission_us in 0u64..1_000_000,
        build_us in 0u64..1_000_000,
        trace_sel in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic data values derived from the seed; bit-exactness
        // matters, so include negatives and wide magnitudes.
        let mut s = seed | 1;
        let data: Vec<f64> = (0..nx * ny)
            .map(|_| {
                s ^= s >> 12; s ^= s << 25; s ^= s >> 27;
                f64::from_bits((s.wrapping_mul(0x2545F4914F6CDD1D) >> 12) | 0x3FF0_0000_0000_0000)
                    - 1.5
            })
            .collect();
        let resp = Response::Field(RenderResponse {
            grid: GridSpec2 {
                origin: Vec2::new(ox, oy),
                cell: Vec2::new(cell, cell),
                nx,
                ny,
            },
            data,
            meta: ResponseMeta {
                cache_hit: cache_hit == 1,
                batch_size,
                admission_us,
                queue_us,
                build_us,
                render_us,
                degraded: degraded == 1,
                trace: trace_from(trace_sel, seed),
            },
        });
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn stats_and_control_roundtrip(
        msg_bytes in prop::collection::vec(0u8..255, 0..200),
        resident_tiles in 0u64..u64::MAX,
        queue_depth in 0u64..u64::MAX,
        // Counters stay below 2^53 so the JSON (f64) representation is
        // exact — the same invariant the server upholds.
        c in prop::collection::vec(0u64..(1u64 << 53), 25),
        flags in 0u8..4,
    ) {
        for req in [Request::Stats, Request::Health, Request::Shutdown, Request::Dump] {
            let bytes = req.encode();
            prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
        let resp = Response::Stats(Box::new(StatsDocument {
            version: STATS_VERSION,
            serving: ServingCounters {
                admitted: c[0],
                shed: c[1],
                rejected: c[2],
                completed: c[3],
                deadline_dropped: c[4],
                failed: c[5],
                hits: c[6],
                misses: c[7],
                coalesced: c[8],
                stale_served: c[9],
            },
            cache: CacheCounters {
                resident_bytes: c[10],
                budget_bytes: c[11],
                entries: c[12],
                evictions: c[13],
                uncacheable: c[14],
                singleflight_parks: c[15],
                stale_entries: c[16],
                quarantined: c[17],
                build_panics: c[18],
                ghost_bytes: c[19],
                header_bytes: c[20],
                mesh_bytes: c[21],
                dtfe_bytes: c[22],
                psdtfe_bytes: c[23],
                stochastic_bytes: c[24],
            },
            metrics: None,
        }));
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp.clone());
        let dump = Response::Dump(id_from(msg_bytes));
        prop_assert_eq!(Response::decode(&dump.encode()).unwrap(), dump);
        let health = Response::Health(dtfe_service::HealthStatus {
            ok: flags & 1 == 1,
            draining: flags & 2 == 2,
            resident_tiles,
            resident_bytes: resident_tiles.wrapping_mul(3),
            stale_tiles: resident_tiles / 2,
            quarantined_tiles: resident_tiles % 5,
            queue_depth,
            backlog_ms: queue_depth.wrapping_mul(7),
        });
        prop_assert_eq!(Response::decode(&health.encode()).unwrap(), health);
        let ack = Response::ShutdownAck;
        prop_assert_eq!(Response::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn truncated_payloads_never_panic_and_always_error(
        id_bytes in prop::collection::vec(0u8..255, 0..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request::Render(RenderRequest {
            snapshot: id_from(id_bytes),
            center: Vec3::new(1.0, 2.0, 3.0),
            resolution: 64,
            samples: 2,
            deadline_ms: 99,
            estimator: EstimatorKind::Stochastic { realizations: 3 },
            trace: trace_from(2, 0xDEADBEEF),
            forwarded: true,
        });
        let bytes = req.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn field_frames_whose_grid_disagrees_with_their_values_are_rejected(
        nx in 1u32..24,
        ny in 1u32..24,
        lie in 0u32..4096,
    ) {
        prop_assume!(lie != nx);
        let resp = Response::Field(RenderResponse {
            grid: GridSpec2 {
                origin: Vec2::new(0.0, 0.0),
                cell: Vec2::new(1.0, 1.0),
                nx: nx as usize,
                ny: ny as usize,
            },
            data: vec![1.0; (nx * ny) as usize],
            meta: ResponseMeta::default(),
        });
        // `nx` follows the tag byte and four f64s of origin and cell.
        let mut bytes = resp.encode();
        bytes[33..37].copy_from_slice(&lie.to_le_bytes());
        prop_assert!(matches!(Response::decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_always_rejected(
        extra in prop::collection::vec(0u8..255, 1..16),
    ) {
        let mut bytes = Request::Shutdown.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn oversized_frames_rejected_before_allocation(
        excess in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
    ) {
        let announced = MAX_FRAME as u64 + excess;
        let mut framed = Vec::new();
        framed.extend_from_slice(&(announced as u32).to_le_bytes());
        framed.extend_from_slice(&0u32.to_le_bytes()); // checksum word
        // No payload behind the announcement: if the length check did not
        // fire first, read would block/fail on a huge allocation instead.
        let mut cursor = std::io::Cursor::new(framed);
        match read_frame(&mut cursor) {
            Err(WireError::FrameTooLarge { len }) => prop_assert_eq!(len as u64, announced),
            other => prop_assert!(false, "expected FrameTooLarge, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn framing_roundtrips_through_a_byte_stream(
        payload in prop::collection::vec(0u8..255, 0..512),
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), payload);
    }

    #[test]
    fn corrupted_payload_bits_always_rejected(
        payload in prop::collection::vec(0u8..255, 1..256),
        flip_at_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Any single flipped payload bit must surface as ChecksumMismatch:
        // this is the property the chaos proxy's bit-flip fault relies on.
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        let header = stream.len() - payload.len();
        let at = header + ((payload.len() - 1) as f64 * flip_at_frac) as usize;
        stream[at] ^= 1 << bit;
        let mut cursor = std::io::Cursor::new(stream);
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::ChecksumMismatch)
        ));
    }
}

/// Every byte that is not a live tag — the five retired ones included —
/// is `BadTag`; every live tag gets past the tag check (a one-byte
/// payload is then complete or truncated, never a bad tag).
#[test]
fn exactly_the_live_tags_are_accepted() {
    const LIVE_REQUESTS: [u8; 6] = [2, 3, 5, 7, 8, 9];
    const LIVE_RESPONSES: [u8; 7] = [2, 3, 4, 6, 7, 8, 9];
    for tag in 0u8..=255 {
        assert_eq!(
            !matches!(Request::decode(&[tag]), Err(WireError::BadTag(_))),
            LIVE_REQUESTS.contains(&tag),
            "request tag {tag}"
        );
        assert_eq!(
            !matches!(Response::decode(&[tag]), Err(WireError::BadTag(_))),
            LIVE_RESPONSES.contains(&tag),
            "response tag {tag}"
        );
    }
}
