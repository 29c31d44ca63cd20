//! The typed, versioned stats document answered by the wire `Stats`
//! request.
//!
//! Until PR 8 the `Stats` response carried an opaque JSON string whose
//! shape was whatever `Service::metrics_json` happened to emit; clients
//! and CI grepped it. [`StatsDocument`] makes the contract explicit: a
//! `version` field, the always-on serving counters, the cache counters,
//! and — when the server runs with telemetry — a metrics digest with
//! histogram/window quantiles. The document round-trips through JSON
//! (`to_json` / `parse`), and
//! [`check_stats_json`](dtfe_telemetry::check::check_stats_json)
//! validates the emitted text in CI.
//!
//! Counter values are `u64` but travel through JSON `f64` numbers, so
//! values must stay below 2⁵³ for bit-exact round-trips — far beyond any
//! real uptime's request counts.

use std::collections::BTreeMap;

use dtfe_telemetry::json::{escape_into, number, Json};
use dtfe_telemetry::{Histogram, MetricsSnapshot};

/// Current stats document schema version.
pub const STATS_VERSION: u32 = 2;

/// The always-on serving counters (see `ServiceStats`), snapshotted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingCounters {
    pub admitted: u64,
    pub shed: u64,
    pub rejected: u64,
    pub completed: u64,
    pub deadline_dropped: u64,
    pub failed: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
}

impl ServingCounters {
    fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("completed", self.completed),
            ("deadline_dropped", self.deadline_dropped),
            ("failed", self.failed),
            ("hits", self.hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
        ]
    }
}

/// Tile-cache counters and residency, snapshotted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub resident_bytes: u64,
    /// The slice of `resident_bytes` that is ghost padding: the points a
    /// tile holds beyond its own box, which its neighbours hold as their
    /// own.
    pub ghost_bytes: u64,
    pub budget_bytes: u64,
    pub entries: u64,
    pub evictions: u64,
    pub uncacheable: u64,
    pub singleflight_parks: u64,
    pub quarantined: u64,
    pub build_panics: u64,
    /// `resident_bytes` by component, each resident entry counted as it was
    /// charged, so the five add up to `resident_bytes`: entry headers with
    /// their ghost padding, meshes (with hull index and traversal cache),
    /// and the tables filled per estimator — `veldiv` renders from
    /// `psdtfe_bytes`, and every realization count is in
    /// `stochastic_bytes`.
    pub header_bytes: u64,
    pub mesh_bytes: u64,
    pub dtfe_bytes: u64,
    pub psdtfe_bytes: u64,
    pub stochastic_bytes: u64,
}

impl CacheCounters {
    fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("resident_bytes", self.resident_bytes),
            ("ghost_bytes", self.ghost_bytes),
            ("budget_bytes", self.budget_bytes),
            ("entries", self.entries),
            ("evictions", self.evictions),
            ("uncacheable", self.uncacheable),
            ("singleflight_parks", self.singleflight_parks),
            ("quarantined", self.quarantined),
            ("build_panics", self.build_panics),
            ("header_bytes", self.header_bytes),
            ("mesh_bytes", self.mesh_bytes),
            ("dtfe_bytes", self.dtfe_bytes),
            ("psdtfe_bytes", self.psdtfe_bytes),
            ("stochastic_bytes", self.stochastic_bytes),
        ]
    }
}

/// Quantile digest of one histogram — what travels instead of raw buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistDigest {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistDigest {
    pub fn of(h: &Histogram) -> HistDigest {
        HistDigest {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50).unwrap_or(0),
            p90: h.quantile(0.90).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Digest of a telemetry [`MetricsSnapshot`]: counters and gauges travel
/// whole, histograms (cumulative and windowed) as quantile digests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsDigest {
    /// Every registry counter by name. Both render kernels publish
    /// `core.los_marched` and `core.tets_crossed`. A served render is
    /// z-windowed: with one centre sample per cell on a dense grid it
    /// projects and adds `core.project_tets` (tetrahedra the window's box
    /// meets), `core.project_rows` (the footprint rows those tetrahedra set
    /// up) and `core.project_scan_fallback`; otherwise it marches and
    /// bridges its per-render `MarchStats` here: `core.degenerate_restarts`,
    /// `core.march_failures`, `core.plucker_edge_evals`,
    /// `core.entry_hint_miss` (hull-index queries: lines with no window
    /// entry), `core.window_entry_hit`, `core.window_entry_fallback` and
    /// `core.window_walk_steps`. The tile cache counts what it built:
    /// `service.tile_mesh_builds` (one triangulation each, under the
    /// `service.tile_build` span, after `service.tile_extract` cut the
    /// padded set) and `service.tile_table_builds` (one estimator table
    /// over a resident mesh each, under `service.table_build`). Every
    /// triangulation publishes the cost model's primitives once, when it is
    /// built: `delaunay.walk_steps` (tetrahedra visited by point location),
    /// `delaunay.conflict_tets` (tetrahedra deleted) and
    /// `delaunay.cavity_facets` (boundary facets starred, i.e. tetrahedra
    /// created) — divide by `delaunay.points_inserted` for the per-insert
    /// figures.
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistDigest>,
    /// Rotating-window digests — same names as `histograms`, covering only
    /// the last `window_seconds`.
    pub windows: BTreeMap<String, HistDigest>,
    pub window_gauges: BTreeMap<String, f64>,
    /// Span the window sections cover, in seconds (0 when unwindowed).
    pub window_seconds: f64,
}

impl MetricsDigest {
    pub fn of(m: &MetricsSnapshot) -> MetricsDigest {
        MetricsDigest {
            counters: m.counters.clone(),
            gauges: m.gauges.clone(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistDigest::of(h)))
                .collect(),
            windows: m
                .windows
                .iter()
                .map(|(k, h)| (k.clone(), HistDigest::of(h)))
                .collect(),
            window_gauges: m.window_gauges.clone(),
            window_seconds: m.window_seconds,
        }
    }
}

/// The versioned stats document a server answers `Stats` with.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsDocument {
    /// Schema version ([`STATS_VERSION`]); readers must accept unknown
    /// *additional* fields but may refuse unknown major versions.
    pub version: u32,
    pub serving: ServingCounters,
    pub cache: CacheCounters,
    /// Present only when the server owns a telemetry recorder.
    pub metrics: Option<MetricsDigest>,
}

fn obj_u64(out: &mut String, fields: &[(&str, u64)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push('}');
}

fn hist_digest_json(out: &mut String, d: &HistDigest) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        d.count,
        d.sum,
        d.min,
        d.max,
        number(d.mean),
        d.p50,
        d.p90,
        d.p99,
    ));
}

fn map_json<V>(out: &mut String, map: &BTreeMap<String, V>, mut emit: impl FnMut(&mut String, &V)) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, k);
        out.push(':');
        emit(out, v);
    }
    out.push('}');
}

impl StatsDocument {
    /// Render as compact JSON. The layout matches what
    /// [`check_stats_json`](dtfe_telemetry::check::check_stats_json)
    /// validates.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"version\":{},\"serving\":", self.version);
        obj_u64(&mut out, &self.serving.fields());
        out.push_str(",\"cache\":");
        obj_u64(&mut out, &self.cache.fields());
        if let Some(m) = &self.metrics {
            out.push_str(",\"metrics\":{\"counters\":");
            map_json(&mut out, &m.counters, |o, v| o.push_str(&v.to_string()));
            out.push_str(",\"gauges\":");
            map_json(&mut out, &m.gauges, |o, v| o.push_str(&number(*v)));
            out.push_str(",\"histograms\":");
            map_json(&mut out, &m.histograms, hist_digest_json);
            if m.window_seconds > 0.0 || !m.windows.is_empty() {
                out.push_str(&format!(
                    ",\"window_seconds\":{},\"windows\":",
                    number(m.window_seconds)
                ));
                map_json(&mut out, &m.windows, hist_digest_json);
                out.push_str(",\"window_gauges\":");
                map_json(&mut out, &m.window_gauges, |o, v| o.push_str(&number(*v)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parse a document previously rendered by [`StatsDocument::to_json`].
    pub fn parse(text: &str) -> Result<StatsDocument, String> {
        let doc = Json::parse(text).map_err(|e| format!("stats not valid JSON: {e}"))?;
        let get_u64 = |obj: &Json, section: &str, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(|v| v.as_f64())
                .map(|v| v as u64)
                .ok_or(format!("{section}: missing numeric field '{key}'"))
        };
        let version = get_u64(&doc, "stats", "version")? as u32;
        let serving = doc.get("serving").ok_or("missing serving object")?;
        let serving = ServingCounters {
            admitted: get_u64(serving, "serving", "admitted")?,
            shed: get_u64(serving, "serving", "shed")?,
            rejected: get_u64(serving, "serving", "rejected")?,
            completed: get_u64(serving, "serving", "completed")?,
            deadline_dropped: get_u64(serving, "serving", "deadline_dropped")?,
            failed: get_u64(serving, "serving", "failed")?,
            hits: get_u64(serving, "serving", "hits")?,
            misses: get_u64(serving, "serving", "misses")?,
            coalesced: get_u64(serving, "serving", "coalesced")?,
        };
        let cache = doc.get("cache").ok_or("missing cache object")?;
        // Absent from older documents (ghost bytes came with the cluster,
        // the byte terms later); 0 keeps old artifacts parseable.
        let optional = |key: &str| cache.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let cache = CacheCounters {
            resident_bytes: get_u64(cache, "cache", "resident_bytes")?,
            ghost_bytes: optional("ghost_bytes"),
            budget_bytes: get_u64(cache, "cache", "budget_bytes")?,
            entries: get_u64(cache, "cache", "entries")?,
            evictions: get_u64(cache, "cache", "evictions")?,
            uncacheable: get_u64(cache, "cache", "uncacheable")?,
            singleflight_parks: get_u64(cache, "cache", "singleflight_parks")?,
            quarantined: get_u64(cache, "cache", "quarantined")?,
            build_panics: get_u64(cache, "cache", "build_panics")?,
            header_bytes: optional("header_bytes"),
            mesh_bytes: optional("mesh_bytes"),
            dtfe_bytes: optional("dtfe_bytes"),
            psdtfe_bytes: optional("psdtfe_bytes"),
            stochastic_bytes: optional("stochastic_bytes"),
        };
        let metrics = match doc.get("metrics") {
            None => None,
            Some(m) => Some(parse_metrics(m)?),
        };
        Ok(StatsDocument {
            version,
            serving,
            cache,
            metrics,
        })
    }
}

fn parse_u64_map(v: &Json, what: &str) -> Result<BTreeMap<String, u64>, String> {
    let obj = v.as_obj().ok_or(format!("{what} is not an object"))?;
    obj.iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|v| (k.clone(), v as u64))
                .ok_or(format!("{what}: '{k}' is not a number"))
        })
        .collect()
}

fn parse_f64_map(v: &Json, what: &str) -> Result<BTreeMap<String, f64>, String> {
    let obj = v.as_obj().ok_or(format!("{what} is not an object"))?;
    obj.iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|v| (k.clone(), v))
                .ok_or(format!("{what}: '{k}' is not a number"))
        })
        .collect()
}

fn parse_digest_map(v: &Json, what: &str) -> Result<BTreeMap<String, HistDigest>, String> {
    let obj = v.as_obj().ok_or(format!("{what} is not an object"))?;
    let field = |h: &Json, name: &str, key: &str| -> Result<f64, String> {
        h.get(key)
            .and_then(|v| v.as_f64())
            .ok_or(format!("{what}: digest '{name}' missing {key}"))
    };
    obj.iter()
        .map(|(k, h)| {
            Ok((
                k.clone(),
                HistDigest {
                    count: field(h, k, "count")? as u64,
                    sum: field(h, k, "sum")? as u64,
                    min: field(h, k, "min")? as u64,
                    max: field(h, k, "max")? as u64,
                    mean: field(h, k, "mean")?,
                    p50: field(h, k, "p50")? as u64,
                    p90: field(h, k, "p90")? as u64,
                    p99: field(h, k, "p99")? as u64,
                },
            ))
        })
        .collect()
}

fn parse_metrics(m: &Json) -> Result<MetricsDigest, String> {
    Ok(MetricsDigest {
        counters: parse_u64_map(
            m.get("counters").ok_or("metrics: missing counters")?,
            "metrics counters",
        )?,
        gauges: parse_f64_map(
            m.get("gauges").ok_or("metrics: missing gauges")?,
            "metrics gauges",
        )?,
        histograms: parse_digest_map(
            m.get("histograms").ok_or("metrics: missing histograms")?,
            "metrics histograms",
        )?,
        windows: match m.get("windows") {
            Some(w) => parse_digest_map(w, "metrics windows")?,
            None => BTreeMap::new(),
        },
        window_gauges: match m.get("window_gauges") {
            Some(w) => parse_f64_map(w, "metrics window_gauges")?,
            None => BTreeMap::new(),
        },
        window_seconds: m
            .get("window_seconds")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_telemetry::check::check_stats_json;

    fn sample_doc() -> StatsDocument {
        let mut h = Histogram::new();
        for v in [100u64, 200, 5000] {
            h.record(v);
        }
        let mut metrics = MetricsDigest {
            window_seconds: 10.0,
            ..Default::default()
        };
        metrics.counters.insert("service.requests".into(), 42);
        metrics.gauges.insert("service.queue_depth".into(), 3.5);
        metrics
            .histograms
            .insert("service.render_us".into(), HistDigest::of(&h));
        metrics
            .windows
            .insert("service.render_us".into(), HistDigest::of(&h));
        metrics
            .window_gauges
            .insert("service.queue_depth".into(), 2.0);
        StatsDocument {
            version: STATS_VERSION,
            serving: ServingCounters {
                admitted: 10,
                completed: 9,
                hits: 6,
                misses: 3,
                coalesced: 1,
                ..Default::default()
            },
            cache: CacheCounters {
                resident_bytes: 1 << 20,
                budget_bytes: 1 << 24,
                entries: 4,
                header_bytes: 1 << 10,
                mesh_bytes: (1 << 19) + (1 << 18),
                dtfe_bytes: (1 << 18) - (1 << 10),
                ..Default::default()
            },
            metrics: Some(metrics),
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = sample_doc();
        let text = doc.to_json();
        let parsed = StatsDocument::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn document_without_metrics_round_trips() {
        let doc = StatsDocument {
            version: STATS_VERSION,
            ..Default::default()
        };
        let parsed = StatsDocument::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert!(parsed.metrics.is_none());
    }

    #[test]
    fn emitted_json_passes_the_checker() {
        let stats = check_stats_json(&sample_doc().to_json()).expect("validates");
        assert_eq!(stats.version, u64::from(STATS_VERSION));
        assert_eq!(stats.histograms, 1);
        assert_eq!(stats.windows, 1);
    }

    #[test]
    fn missing_serving_counter_is_an_error() {
        let text = sample_doc().to_json().replace("\"shed\"", "\"sched\"");
        assert!(StatsDocument::parse(&text).is_err());
        assert!(check_stats_json(&text).is_err());
    }

    #[test]
    fn byte_terms_must_add_up_within_the_budget() {
        let mut doc = sample_doc();
        doc.cache.mesh_bytes += 8;
        let err = check_stats_json(&doc.to_json()).unwrap_err();
        assert!(err.contains("sum to"), "{err}");
        let mut doc = sample_doc();
        doc.cache.budget_bytes = doc.cache.resident_bytes - 1;
        let err = check_stats_json(&doc.to_json()).unwrap_err();
        assert!(err.contains("over budget"), "{err}");
    }
}
