//! Flight recorder: a bounded ring buffer of recent request traces.
//!
//! The serving tier records the span tree of *interesting* requests —
//! sampled trace ids, requests slower than the operator's threshold,
//! quarantine refusals, caught build panics — into this buffer. A wire
//! `Dump` request exports the whole ring as one Chrome-trace JSON
//! document (one trace per process row), so "why was request 9f3a… slow
//! five minutes ago" is answerable after the fact without having had
//! tracing enabled ahead of time.
//!
//! The ring is bounded: recording past capacity evicts the oldest trace
//! and bumps a `dropped` counter, so the recorder's memory is
//! `capacity × (spans per request)` regardless of uptime.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::export;
use crate::recorder::{SpanEvent, TelemetrySnapshot};

/// The span tree of one recorded request.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Hex trace id (empty for untraced requests recorded for slowness).
    pub trace_id: String,
    /// Why the request was recorded: `sampled`, `slow`, `quarantined`,
    /// `panic`, or `failed`.
    pub reason: String,
    /// Request start, microseconds since the process telemetry epoch.
    pub t0_us: u64,
    /// Stage spans (depth 0 is the request itself).
    pub spans: Vec<SpanEvent>,
}

/// A bounded ring of recent [`RequestTrace`]s. All methods are safe to
/// call concurrently from serving threads.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` traces (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one trace, evicting the oldest past capacity.
    pub fn record(&self, trace: RequestTrace) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }

    /// Traces evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Export the ring as one Chrome-trace JSON document: each request
    /// trace becomes its own process row (labelled `reason trace_id`), so
    /// Perfetto shows the recorded requests side by side on the shared
    /// process timeline. The output satisfies
    /// [`check_chrome_trace`](crate::check::check_chrome_trace).
    pub fn chrome_trace(&self) -> String {
        let snaps: Vec<TelemetrySnapshot> = self
            .snapshot()
            .into_iter()
            .map(|t| {
                let label = if t.trace_id.is_empty() {
                    t.reason.clone()
                } else {
                    format!("{} {}", t.reason, t.trace_id)
                };
                let mut spans = t.spans;
                spans.sort_by_key(|s| (s.t0_us, s.depth));
                TelemetrySnapshot {
                    label,
                    spans,
                    metrics: Default::default(),
                }
            })
            .collect();
        export::chrome_trace(&snaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_chrome_trace;

    fn span(name: &str, depth: u32, t0: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            tid: 0,
            depth,
            t0_us: t0,
            dur_us: dur,
            cpu_us: 0,
            args: Vec::new(),
        }
    }

    fn trace(id: &str, t0: u64) -> RequestTrace {
        RequestTrace {
            trace_id: id.to_string(),
            reason: "sampled".to_string(),
            t0_us: t0,
            spans: vec![
                span("request", 0, t0, 100),
                span("queue", 1, t0, 30),
                span("render", 1, t0 + 30, 60),
            ],
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(trace(&format!("{i:032x}"), i * 1000));
        }
        assert_eq!(fr.dropped(), 2);
        let ids: Vec<String> = fr.snapshot().into_iter().map(|t| t.trace_id).collect();
        assert_eq!(ids.len(), 3);
        // Oldest two evicted; insertion order preserved.
        assert_eq!(ids[0], format!("{:032x}", 2));
        assert_eq!(ids[2], format!("{:032x}", 4));
    }

    #[test]
    fn dump_is_valid_chrome_trace() {
        let fr = FlightRecorder::new(8);
        fr.record(trace("aa", 0));
        fr.record(trace("bb", 5_000));
        let doc = fr.chrome_trace();
        let stats = check_chrome_trace(&doc).expect("flight dump validates");
        assert_eq!(stats.processes, 2);
        assert_eq!(stats.spans, 6);
    }

    #[test]
    fn empty_ring_dumps_an_empty_valid_trace() {
        let fr = FlightRecorder::new(1);
        let stats = check_chrome_trace(&fr.chrome_trace()).unwrap();
        assert_eq!(stats.spans, 0);
    }
}
