//! Validation for the emitted artifacts, shared by the `trace_check` binary
//! (CI) and the test-suite: Chrome-trace JSON must have balanced, correctly
//! nested B/E events with per-thread monotone timestamps, and the metrics
//! JSON must carry the `ranks`/`merged` structure.

use std::collections::BTreeMap;

use crate::json::Json;

/// What a valid trace contained, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub events: usize,
    pub spans: usize,
    pub processes: usize,
}

/// Validate a Chrome-trace JSON document.
pub fn check_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;

    let mut stats = TraceStats {
        events: events.len(),
        ..Default::default()
    };
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut pids: std::collections::BTreeSet<u64> = Default::default();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or(format!("event {i}: no ph"))?;
        let pid = ev.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        pids.insert(pid);
        if ph != "B" && ph != "E" {
            continue; // metadata and counter events are unchecked
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or(format!("event {i}: B/E without ts"))?;
        let key = (pid, tid);
        let prev = last_ts.entry(key).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i}: non-monotone ts on pid={pid} tid={tid}: {ts} < {prev}"
            ));
        }
        *prev = ts;
        let stack = stacks.entry(key).or_default();
        match ph {
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or(format!("event {i}: B without name"))?;
                stack.push(name.to_string());
                stats.spans += 1;
            }
            _ => {
                let open = stack.pop().ok_or(format!(
                    "event {i}: E without open span on pid={pid} tid={tid}"
                ))?;
                if let Some(name) = ev.get("name").and_then(|v| v.as_str()) {
                    if name != open {
                        return Err(format!(
                            "event {i}: E name '{name}' does not match open span '{open}'"
                        ));
                    }
                }
            }
        }
    }
    for ((pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced trace: {} span(s) never closed on pid={pid} tid={tid} (first: '{}')",
                stack.len(),
                stack[0]
            ));
        }
    }
    stats.processes = pids.len();
    Ok(stats)
}

/// What a valid metrics document contained, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsStats {
    pub ranks: usize,
    pub merged_counters: usize,
    pub merged_gauges: usize,
    pub merged_histograms: usize,
}

fn check_hist_digests(hists: &BTreeMap<String, Json>, what: &str) -> Result<(), String> {
    for (name, h) in hists {
        for key in ["count", "p50", "p90", "p99"] {
            h.get(key)
                .and_then(|v| v.as_f64())
                .ok_or(format!("{what}: histogram '{name}' missing {key}"))?;
        }
    }
    Ok(())
}

/// Counters one call publishes together, so a document carries all of
/// each group or none: a projected render's tetrahedra, the rows they set
/// up and the tetrahedra whose box reached no centre.
const PUBLISHED_TOGETHER: [[&str; 3]; 1] = [[
    "core.project_tets",
    "core.project_rows",
    "core.project_reach_rejects",
]];

fn check_metrics_obj(v: &Json, what: &str) -> Result<(usize, usize, usize), String> {
    let counters = v
        .get("counters")
        .and_then(|c| c.as_obj())
        .ok_or(format!("{what}: missing counters object"))?;
    let gauges = v
        .get("gauges")
        .and_then(|c| c.as_obj())
        .ok_or(format!("{what}: missing gauges object"))?;
    let hists = v
        .get("histograms")
        .and_then(|c| c.as_obj())
        .ok_or(format!("{what}: missing histograms object"))?;
    check_hist_digests(hists, what)?;
    for names in PUBLISHED_TOGETHER {
        if names.iter().any(|n| counters.contains_key(*n))
            && !names.iter().all(|n| counters.contains_key(*n))
        {
            return Err(format!("{what}: counters {names:?} are published together"));
        }
    }
    // Window sections are optional, but when present they must carry
    // quantile-bearing digests and a positive covered span. A window is
    // read from the same samples as its cumulative digest, so it never
    // counts more of them.
    if let Some(w) = v.get("windows") {
        let w = w
            .as_obj()
            .ok_or(format!("{what}: windows is not an object"))?;
        check_hist_digests(w, &format!("{what} (windows)"))?;
        v.get("window_seconds")
            .and_then(|s| s.as_f64())
            .filter(|s| *s > 0.0)
            .ok_or(format!("{what}: windows without positive window_seconds"))?;
        let count = |h: &Json| h.get("count").and_then(|c| c.as_f64()).unwrap_or(0.0);
        for (name, h) in w {
            let cumulative = hists.get(name).map_or(0.0, count);
            if count(h) > cumulative {
                return Err(format!(
                    "{what}: window '{name}' counts {} samples, its cumulative digest {cumulative}",
                    count(h)
                ));
            }
        }
    }
    Ok((counters.len(), gauges.len(), hists.len()))
}

/// Validate a metrics JSON document as written by
/// [`crate::export::metrics_json`].
pub fn check_metrics_json(text: &str) -> Result<MetricsStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("metrics not valid JSON: {e}"))?;
    let ranks = doc
        .get("ranks")
        .and_then(|v| v.as_arr())
        .ok_or("missing ranks array")?;
    for (i, r) in ranks.iter().enumerate() {
        r.get("label")
            .and_then(|v| v.as_str())
            .ok_or(format!("rank {i}: missing label"))?;
        check_metrics_obj(r, &format!("rank {i}"))?;
    }
    let merged = doc.get("merged").ok_or("missing merged object")?;
    let (c, g, h) = check_metrics_obj(merged, "merged")?;
    Ok(MetricsStats {
        ranks: ranks.len(),
        merged_counters: c,
        merged_gauges: g,
        merged_histograms: h,
    })
}

/// What a valid stats document contained, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsDocStats {
    pub version: u64,
    pub histograms: usize,
    pub windows: usize,
}

/// The serving counters every stats document must carry.
pub const SERVING_COUNTER_KEYS: [&str; 9] = [
    "admitted",
    "shed",
    "rejected",
    "completed",
    "deadline_dropped",
    "failed",
    "hits",
    "misses",
    "coalesced",
];

/// The cache section's resident bytes by component: when all five are
/// present they add up to `resident_bytes`.
const CACHE_BYTE_TERMS: [&str; 5] = [
    "header_bytes",
    "mesh_bytes",
    "dtfe_bytes",
    "psdtfe_bytes",
    "stochastic_bytes",
];

/// Validate a serving-tier stats document (the typed, versioned JSON the
/// wire `Stats` request answers): a `version`, the full set of serving
/// counters, a cache section whose byte terms (when present) add up to a
/// resident charge within the budget, and — when the server runs with
/// telemetry — a metrics object whose histogram/window digests carry
/// quantiles.
pub fn check_stats_json(text: &str) -> Result<StatsDocStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("stats not valid JSON: {e}"))?;
    let version = doc
        .get("version")
        .and_then(|v| v.as_f64())
        .filter(|v| *v >= 1.0)
        .ok_or("missing or non-positive version")? as u64;
    let serving = doc
        .get("serving")
        .and_then(|v| v.as_obj())
        .ok_or("missing serving object")?;
    for key in SERVING_COUNTER_KEYS {
        serving
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or(format!("serving: missing counter '{key}'"))?;
    }
    let cache = doc
        .get("cache")
        .and_then(|v| v.as_obj())
        .ok_or("missing cache object")?;
    let field = |key: &str| cache.get(key).and_then(|v| v.as_f64());
    for key in ["resident_bytes", "budget_bytes", "entries"] {
        field(key).ok_or(format!("cache: missing field '{key}'"))?;
    }
    // The byte terms, where the document carries them, are the resident
    // charge split by component, and the charge is held under the budget.
    let terms = CACHE_BYTE_TERMS.map(field);
    if terms.iter().all(Option::is_some) {
        let sum: f64 = terms.iter().flatten().sum();
        let (resident, budget) = (field("resident_bytes"), field("budget_bytes"));
        if Some(sum) != resident {
            return Err(format!(
                "cache: byte terms sum to {sum}, resident_bytes is {resident:?}"
            ));
        }
        if resident > budget {
            return Err(format!(
                "cache: resident_bytes {resident:?} over budget_bytes {budget:?}"
            ));
        }
    }
    let mut stats = StatsDocStats {
        version,
        ..Default::default()
    };
    if let Some(metrics) = doc.get("metrics") {
        let (_, _, h) = check_metrics_obj(metrics, "metrics")?;
        stats.histograms = h;
        stats.windows = metrics
            .get("windows")
            .and_then(|w| w.as_obj())
            .map_or(0, |w| w.len());
    }
    Ok(stats)
}
