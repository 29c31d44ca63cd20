//! Process-wide monotonic epoch and per-thread CPU clocks.
//!
//! All span timestamps are microseconds since a lazily initialised
//! process-wide epoch so that events recorded by different ranks (threads)
//! of the cluster simulator share one timeline and can be merged into a
//! single Chrome trace. Thread-CPU time comes from
//! `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: the simulated ranks
//! oversubscribe physical cores, so wall clocks alone misattribute cost.

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide telemetry epoch.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// CPU time consumed by the calling thread, in microseconds.
pub fn thread_cpu_us() -> u64 {
    let mut ts = libc::timespec::default();
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_us_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn thread_cpu_advances_under_load() {
        let before = thread_cpu_us();
        let mut acc = 0u64;
        for i in 0..4_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_us() >= before);
    }
}
