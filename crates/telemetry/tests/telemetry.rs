//! Satellite test coverage for the telemetry crate: histogram quantile
//! edge cases, span nesting/reentrancy under 8 threads, Chrome-trace JSON
//! validity (balanced B/E, monotone timestamps), and per-thread shard
//! merging.

use std::sync::Barrier;
use std::time::Duration;

use dtfe_telemetry::check::{
    check_chrome_trace, check_metrics_json, check_stats_json, SERVING_COUNTER_KEYS,
};
use dtfe_telemetry::{
    chrome_trace, counter_add, gauge_set, hist_record, metrics_json, span, Histogram, Recorder,
};

// ---------------------------------------------------------------------------
// Histogram quantile edges
// ---------------------------------------------------------------------------

#[test]
fn empty_histogram_has_no_quantiles() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.mean(), 0.0);
}

#[test]
fn single_sample_answers_every_quantile_exactly() {
    for v in [0u64, 1, 15, 16, 17, 1000, 123_456_789] {
        let mut h = Histogram::new();
        h.record(v);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
        }
    }
}

#[test]
fn low_range_is_exact() {
    // Values below 16 each get their own bucket: quantiles are exact.
    let mut h = Histogram::new();
    for v in 0..16u64 {
        h.record(v);
    }
    assert_eq!(h.quantile(0.0), Some(0));
    assert_eq!(h.quantile(1.0), Some(15));
    assert_eq!(h.quantile(0.5), Some(7)); // rank 8 (1-based) = value 7
}

#[test]
fn bucket_boundary_values_stay_within_relative_error() {
    let mut h = Histogram::new();
    // Powers of two are exact bucket lower bounds.
    for v in [16u64, 32, 64, 128, 256, 512, 1024] {
        h.record(v);
    }
    for q in [0.1, 0.5, 0.9, 1.0] {
        let est = h.quantile(q).unwrap() as f64;
        // The true quantile is one of the recorded powers of two; allow the
        // documented 6.25% bucket error.
        let nearest = [16.0f64, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
            .iter()
            .copied()
            .min_by(|a, b| {
                ((a - est).abs() / a)
                    .partial_cmp(&((b - est).abs() / b))
                    .unwrap()
            })
            .unwrap();
        assert!(
            (est - nearest).abs() / nearest <= 1.0 / 16.0 + 1e-9,
            "q={q} est={est}"
        );
    }
}

#[test]
fn quantiles_are_clamped_to_observed_range() {
    let mut h = Histogram::new();
    h.record(1000);
    h.record(1001);
    assert!(h.quantile(0.0).unwrap() >= 1000);
    assert!(h.quantile(1.0).unwrap() <= 1001);
}

#[test]
fn merge_of_shards_equals_single_histogram() {
    let mut parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
    let mut whole = Histogram::new();
    let mut v = 1u64;
    for i in 0..1000u64 {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let sample = v % 100_000;
        parts[(i % 4) as usize].record(sample);
        whole.record(sample);
    }
    let mut merged = Histogram::new();
    for p in &parts {
        merged.merge(p);
    }
    assert_eq!(merged, whole);
    assert_eq!(merged.count(), 1000);
    assert_eq!(merged.quantile(0.5), whole.quantile(0.5));
    // Merging an empty histogram is a no-op.
    merged.merge(&Histogram::new());
    assert_eq!(merged, whole);
}

// ---------------------------------------------------------------------------
// Recorder + spans
// ---------------------------------------------------------------------------

#[test]
fn disabled_macros_record_nothing() {
    // No recorder installed on this thread (tests run on their own threads).
    counter_add!("test.disabled_counter", 7);
    hist_record!("test.disabled_hist", 7);
    let sp = span!("test.disabled_span");
    let times = sp.end();
    assert!(times.wall_s >= 0.0 && times.cpu_s >= 0.0);
}

#[test]
fn span_nesting_and_reentrancy_under_8_threads() {
    let rec = Recorder::new("stress");
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let rec = rec.clone();
            std::thread::spawn(move || {
                let _g = rec.install();
                for i in 0..50 {
                    let _outer = span!("outer", thread = t, iter = i);
                    counter_add!("test.iterations", 1);
                    {
                        let _mid = span!("mid");
                        hist_record!("test.iter_value", i as u64);
                        let _inner = span!("inner");
                        counter_add!("test.inner_visits", 1);
                    }
                    {
                        // Re-entering the same span name at the same depth.
                        let _mid = span!("mid");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let snap = rec.snapshot();
    assert_eq!(snap.metrics.counter("test.iterations"), 8 * 50);
    assert_eq!(snap.metrics.counter("test.inner_visits"), 8 * 50);
    let h = snap
        .metrics
        .histogram("test.iter_value")
        .expect("histogram exists");
    assert_eq!(h.count(), 8 * 50);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 49);

    // 8 threads x 50 iterations x (outer + 2x mid + inner) spans.
    assert_eq!(snap.spans.len(), 8 * 50 * 4);
    // Depths are truthful: outer=0, mid=1, inner=2.
    for s in &snap.spans {
        let expected = match s.name.as_str() {
            "outer" => 0,
            "mid" => 1,
            "inner" => 2,
            other => panic!("unexpected span {other}"),
        };
        assert_eq!(s.depth, expected, "span {}", s.name);
        // Children are contained in some same-thread parent window.
        if s.depth > 0 {
            let contained = snap.spans.iter().any(|p| {
                p.tid == s.tid
                    && p.depth == s.depth - 1
                    && p.t0_us <= s.t0_us
                    && s.end_us() <= p.end_us()
            });
            assert!(contained, "span {} at t0={} not contained", s.name, s.t0_us);
        }
    }
    // 8 distinct shards (one per thread).
    let tids: std::collections::BTreeSet<u64> = snap.spans.iter().map(|s| s.tid).collect();
    assert_eq!(tids.len(), 8);

    // The emitted trace must pass the checker: balanced B/E, monotone ts.
    let trace = chrome_trace(&[snap]);
    let stats = check_chrome_trace(&trace).expect("valid chrome trace");
    assert_eq!(stats.spans, 8 * 50 * 4);
    assert_eq!(stats.processes, 1);
}

#[test]
fn install_is_scoped_and_nestable() {
    let outer = Recorder::new("outer");
    let inner = Recorder::new("inner");
    {
        let _g1 = outer.install();
        counter_add!("test.scoped", 1);
        {
            let _g2 = inner.install();
            counter_add!("test.scoped", 10);
        }
        // Previous recorder restored after the nested guard drops.
        counter_add!("test.scoped", 100);
    }
    counter_add!("test.scoped", 1000); // no recorder: dropped
    assert_eq!(outer.snapshot().metrics.counter("test.scoped"), 101);
    assert_eq!(inner.snapshot().metrics.counter("test.scoped"), 10);
}

#[test]
fn gauges_take_last_write() {
    let rec = Recorder::new("g");
    {
        let _g = rec.install();
        gauge_set!("test.phase_seconds", 1.5);
        gauge_set!("test.phase_seconds", 2.5);
    }
    assert_eq!(
        rec.snapshot().metrics.gauge("test.phase_seconds"),
        Some(2.5)
    );
}

#[test]
fn eight_threads_cumulative_histogram_equals_one_histogram_of_every_sample() {
    // Each sample is stored once, in its thread's rotating window (10 × 1 s,
    // 1 × 1 ms rotating under the test, or none), and the snapshot's
    // cumulative histogram is one histogram of every sample.
    for (buckets, width_ms) in [(10, 1000), (1, 1), (0, 1000)] {
        let rec = Recorder::with_windows("mt", buckets, Duration::from_millis(width_ms));
        let samples: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=8u64)
                .map(|t| {
                    let rec = &rec;
                    s.spawn(move || {
                        let _g = rec.install();
                        let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (0..2_000u64)
                            .map(|i| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                if i % 500 == 0 {
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                hist_record!("test.mt_us", x >> (x % 64));
                                x >> (x % 64)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut whole = Histogram::new();
        samples.iter().flatten().for_each(|&v| whole.record(v));
        let m = rec.snapshot().metrics;
        assert_eq!(m.histogram("test.mt_us"), Some(&whole), "{buckets}");
        let window = m.windows.get("test.mt_us").map_or(0, Histogram::count);
        assert!(window <= whole.count() && (buckets > 0 || window == 0));
    }
}

#[test]
fn gauge_reads_the_latest_set_across_threads() {
    // Thread A sets 1, thread B sets 2, then A sets 3: the recorder reads
    // 3, not the value of whichever thread's shard it visits last.
    let rec = Recorder::new("gx");
    let turn = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _g = rec.install();
            gauge_set!("test.cross_thread", 1.0);
            turn.wait();
            turn.wait();
            std::thread::sleep(Duration::from_millis(2));
            gauge_set!("test.cross_thread", 3.0);
        });
        s.spawn(|| {
            let _g = rec.install();
            turn.wait();
            std::thread::sleep(Duration::from_millis(2));
            gauge_set!("test.cross_thread", 2.0);
            turn.wait();
        });
    });
    let m = rec.snapshot().metrics;
    assert_eq!(m.gauge("test.cross_thread"), Some(3.0));
    assert_eq!(m.window_gauges.get("test.cross_thread"), Some(&3.0));
}

#[test]
fn window_views_age_out_while_cumulative_ones_stay() {
    // 10 × 50 ms: a set or sample is inside the window for at least 450 ms
    // after it is made, and out of it 500 ms later.
    let rec = Recorder::with_windows("age", 10, Duration::from_millis(50));
    {
        let _g = rec.install();
        gauge_set!("test.aging_gauge", 7.0);
        hist_record!("test.aging_us", 40);
    }
    let m = rec.snapshot().metrics;
    assert_eq!(m.window_gauges.get("test.aging_gauge"), Some(&7.0));
    assert_eq!(
        m.windows.get("test.aging_us").map(Histogram::count),
        Some(1)
    );
    std::thread::sleep(Duration::from_millis(700));
    let m = rec.snapshot().metrics;
    assert_eq!(m.window_gauges.get("test.aging_gauge"), None);
    assert_eq!(m.windows.get("test.aging_us"), None);
    assert_eq!(m.gauge("test.aging_gauge"), Some(7.0));
    assert_eq!(m.histogram("test.aging_us").map(Histogram::count), Some(1));
    assert!(m.window_seconds > 0.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_of_zero_duration_spans_is_balanced() {
    let rec = Recorder::new("fast");
    {
        let _g = rec.install();
        for _ in 0..100 {
            let _sp = span!("blink"); // sub-microsecond: dur_us rounds to 0
        }
    }
    let trace = chrome_trace(&[rec.snapshot()]);
    let stats = check_chrome_trace(&trace).expect("valid trace with zero-duration spans");
    assert_eq!(stats.spans, 100);
}

#[test]
fn metrics_json_roundtrips_through_checker() {
    let a = Recorder::new("rank0");
    let b = Recorder::new("rank1");
    {
        let _g = a.install();
        counter_add!("test.widgets_built", 3);
        gauge_set!("test.busy_seconds", 0.25);
        hist_record!("test.widget_us", 40);
    }
    {
        let _g = b.install();
        counter_add!("test.widgets_built", 5);
        gauge_set!("test.busy_seconds", 0.75);
        hist_record!("test.widget_us", 60);
    }
    let snaps = [a.snapshot(), b.snapshot()];
    let doc = metrics_json(&snaps);
    let stats = check_metrics_json(&doc).expect("valid metrics json");
    assert_eq!(stats.ranks, 2);

    let merged = dtfe_telemetry::merged_metrics(&snaps);
    assert_eq!(merged.counter("test.widgets_built"), 8);
    assert_eq!(merged.gauge("test.busy_seconds"), Some(1.0)); // summed
    assert_eq!(merged.histogram("test.widget_us").unwrap().count(), 2);
}

/// The checker reads a trace in time linear in its size: a ~20k-span
/// document — the size of a traced 15 s `serve_warm` run — with non-ASCII
/// span names and escapes checks in well under a second in release, and
/// every name comes back as written.
#[test]
fn a_twenty_thousand_span_trace_checks_in_linear_time() {
    const NAMES: [&str; 4] = [
        "core.project_render",
        "Σ_T(ξ) 投影",
        "ρ̂ \"quoted\" \\ tab\t",
        "line\nbreak ✓",
    ];
    let spans = 20_000;
    let mut text = String::from("{\"traceEvents\":[\n");
    for i in 0..spans {
        let mut name = String::new();
        dtfe_telemetry::json::escape_into(&mut name, NAMES[i % NAMES.len()]);
        let (b, e) = (2 * i, 2 * i + 1);
        text.push_str(&format!(
            "{{\"name\":{name},\"ph\":\"B\",\"ts\":{b},\"pid\":0,\"tid\":{},\
             \"args\":{{\"cpu_us\":{i},\"note\":\"ω{i}\"}}}},\n\
             {{\"name\":{name},\"ph\":\"E\",\"ts\":{e},\"pid\":0,\"tid\":{}}}",
            i % 3,
            i % 3,
        ));
        text.push_str(if i + 1 < spans { ",\n" } else { "\n" });
    }
    text.push_str("]}");
    let start = std::time::Instant::now();
    let stats = check_chrome_trace(&text).expect("valid trace");
    let elapsed = start.elapsed();
    assert_eq!(stats.spans, spans);
    assert_eq!(stats.events, 2 * spans);
    // Minutes while the string reader re-validated the rest of the
    // document per character; milliseconds in release now, and a debug
    // build still far inside this bound.
    assert!(elapsed < Duration::from_secs(20), "checked in {elapsed:?}");
    let doc = dtfe_telemetry::json::Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    for (i, ev) in events.iter().enumerate() {
        let k = i / 2;
        assert_eq!(
            ev.get("name").and_then(|v| v.as_str()),
            Some(NAMES[k % NAMES.len()])
        );
        if i % 2 == 0 {
            let note = ev
                .get("args")
                .and_then(|a| a.get("note"))
                .and_then(|v| v.as_str());
            assert_eq!(note, Some(format!("ω{k}").as_str()));
        }
    }
}

#[test]
fn checker_rejects_broken_traces() {
    // Unbalanced: B without E.
    let bad = r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
    assert!(check_chrome_trace(bad).is_err());
    // Non-monotone timestamps.
    let bad = r#"{"traceEvents":[
        {"name":"x","ph":"B","ts":5,"pid":0,"tid":0},
        {"name":"x","ph":"E","ts":4,"pid":0,"tid":0}]}"#;
    assert!(check_chrome_trace(bad).is_err());
    // E without any open span.
    let bad = r#"{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":0,"tid":0}]}"#;
    assert!(check_chrome_trace(bad).is_err());
    // Valid empty trace.
    assert!(check_chrome_trace(r#"{"traceEvents":[]}"#).is_ok());
}

#[test]
fn checker_rejects_a_window_counting_more_than_its_cumulative_digest() {
    let digest = |n: u32| format!(r#"{{"count":{n},"p50":1,"p90":1,"p99":1}}"#);
    let metrics = |window: u32| {
        format!(
            r#"{{"counters":{{}},"gauges":{{}},"histograms":{{"x_us":{}}},"window_seconds":10,"windows":{{"x_us":{}}}}}"#,
            digest(3),
            digest(window)
        )
    };
    let metrics_doc = |window: u32| {
        let m = metrics(window);
        format!(r#"{{"ranks":[{{"label":"r0",{}],"merged":{m}}}"#, &m[1..])
    };
    let stats_doc = |window: u32| {
        let counters: Vec<String> = SERVING_COUNTER_KEYS
            .iter()
            .map(|k| format!(r#""{k}":0"#))
            .collect();
        format!(
            r#"{{"version":2,"serving":{{{}}},"cache":{{"resident_bytes":0,"budget_bytes":1,"entries":0}},"metrics":{}}}"#,
            counters.join(","),
            metrics(window)
        )
    };
    for window in [0, 3] {
        assert!(check_metrics_json(&metrics_doc(window)).is_ok(), "{window}");
        assert!(check_stats_json(&stats_doc(window)).is_ok(), "{window}");
    }
    let err = check_metrics_json(&metrics_doc(4)).unwrap_err();
    assert!(err.contains("window 'x_us' counts 4"), "{err}");
    let err = check_stats_json(&stats_doc(4)).unwrap_err();
    assert!(err.contains("window 'x_us' counts 4"), "{err}");
    // A window with no cumulative digest at all counts more than it.
    let orphan = metrics_doc(1).replace(r#""histograms":{"x_us""#, r#""histograms":{"y_us""#);
    assert!(check_metrics_json(&orphan).is_err());
}

#[test]
fn checker_rejects_a_projected_render_counter_without_its_partner() {
    let doc = |counters: &str| {
        let m = format!(r#"{{"counters":{{{counters}}},"gauges":{{}},"histograms":{{}}}}"#);
        format!(r#"{{"ranks":[{{"label":"r0",{}],"merged":{m}}}"#, &m[1..])
    };
    for counters in ["", r#""core.project_tets":3,"core.project_rows":7"#] {
        assert!(check_metrics_json(&doc(counters)).is_ok(), "{counters}");
    }
    for counters in [r#""core.project_tets":3"#, r#""core.project_rows":0"#] {
        let err = check_metrics_json(&doc(counters)).unwrap_err();
        assert!(err.contains("published together"), "{err}");
    }
}
