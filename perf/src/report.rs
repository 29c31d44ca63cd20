//! What one run prints: a table of every metric it measured, by name and
//! unit, and as the last line of standard output the result object the
//! driver reads.

use crate::table::{self, MetricDecl};
use dtfe_telemetry::json::{escape_into, number};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record a metric. An undeclared name is a bug in the harness: the
    /// benchmark prints only what [`table::METRICS`] declares.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = table::metric(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in table::METRICS"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(decl.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: every metric that was measured, in the
    /// order of the declaration.
    pub fn print_table(&self, workload: &str) {
        println!(
            "# {workload}: {} operations attempted, {} succeeded, {} failed, {} timed",
            self.attempted,
            self.attempted.saturating_sub(self.failed),
            self.failed,
            self.get("client.samples").unwrap_or(0.0)
        );
        for m in table::METRICS {
            if let Some(v) = self.get(m.name) {
                println!("  {:<36} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }

    /// The result object. With `traced` the metrics are every per-layer
    /// metric (0 where the workload does not run the layer), otherwise every
    /// end-to-end metric, which must all have been measured.
    pub fn result_line(&self, traced: bool) -> String {
        let decls: Vec<&MetricDecl> = if traced {
            table::per_layer().collect()
        } else {
            table::end_to_end().collect()
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in decls.iter().enumerate() {
            let value = match self.get(m.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, m.name);
            out.push_str(":{\"value\":");
            out.push_str(&number(value));
            out.push_str(",\"unit\":");
            escape_into(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_telemetry::json::Json;

    #[test]
    fn result_line_parses_and_carries_every_declared_metric() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        for (i, m) in table::end_to_end().enumerate() {
            r.set(m.name, 1.25 + i as f64);
        }
        r.set("core.tets_per_los", 42.5);
        for traced in [false, true] {
            let line = r.result_line(traced);
            assert!(!line.contains('\n'));
            let json = Json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = json.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(12.0));
            let metrics = json.get("metrics").and_then(Json::as_obj).unwrap();
            let want: Vec<&str> = if traced {
                table::per_layer().map(|m| m.name).collect()
            } else {
                table::end_to_end().map(|m| m.name).collect()
            };
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                want_sorted
            );
            for name in want {
                let m = &metrics[name];
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(table::metric(name).unwrap().unit)
                );
            }
        }
        let layers = Json::parse(&r.result_line(true)).unwrap();
        let tets = &layers.get("metrics").unwrap().as_obj().unwrap()["core.tets_per_los"];
        assert_eq!(tets.get("value").and_then(Json::as_f64), Some(42.5));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_name_is_refused() {
        Report::default().set("core.made_up", 1.0);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        assert!(r.correct());
    }
}
