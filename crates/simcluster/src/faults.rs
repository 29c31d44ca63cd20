//! Deterministic fault-injection vocabulary.
//!
//! The simulated transport itself is reliable, as the paper's MPI is; the
//! socket-level chaos proxy in `dtfe-service::chaos` is the workspace's
//! injector, and it builds its seeded rules on the two primitives here.

/// Validate a fault probability, panicking on values outside `[0, 1]`.
/// Shared vocabulary with the socket-level injector in `dtfe-service`'s
/// `chaos` module, which builds its rules on the same primitive.
pub fn checked_p(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "fault probability {p} not in [0,1]"
    );
    p
}

/// One deterministic uniform draw in `[0, 1)` from an event identity
/// (splitmix64 finalizer over the four mixed-in fields).
///
/// The socket-level chaos proxy in `dtfe-service::chaos` keys it on
/// `(seed, connection, direction, kind, frame-seq)`. Identical inputs give
/// identical draws on every platform, which is what makes fault schedules
/// replayable from a seed alone.
pub fn unit_draw(seed: u64, a: u64, b: u64, c: u64, seq: u64) -> f64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_uniform_and_keyed() {
        let draws: Vec<f64> = (0..4096).map(|seq| unit_draw(42, 1, 2, 3, seq)).collect();
        let again: Vec<f64> = (0..4096).map(|seq| unit_draw(42, 1, 2, 3, seq)).collect();
        assert_eq!(draws, again, "same identity, same draw");
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // Every field of the identity moves the draw.
        let base = unit_draw(42, 1, 2, 3, 0);
        for other in [
            unit_draw(43, 1, 2, 3, 0),
            unit_draw(42, 9, 2, 3, 0),
            unit_draw(42, 1, 9, 3, 0),
            unit_draw(42, 1, 2, 9, 0),
            unit_draw(42, 1, 2, 3, 9),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn probabilities_outside_the_unit_interval_are_refused() {
        assert_eq!(checked_p(0.0), 0.0);
        assert_eq!(checked_p(1.0), 1.0);
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(
                std::panic::catch_unwind(|| checked_p(bad)).is_err(),
                "{bad}"
            );
        }
    }
}
