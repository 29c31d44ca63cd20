//! Shared machinery for the experiment harnesses (one binary per paper
//! figure).
//!
//! # Emulated wall clock
//!
//! The paper's scaling figures plot wall-clock time over MPI ranks /
//! OpenMP threads on multi-node hardware. This reproduction commonly runs
//! on few (or single!) cores, so harnesses measure **per-rank / per-thread
//! busy time** with real workloads and report the *emulated* wall clock —
//! the maximum busy time over ranks (plus measured communication waits).
//! Load distributions, schedules, and work content are all real; only the
//! physical simultaneity is emulated. Shapes (who wins, crossovers,
//! imbalance trends) are therefore comparable to the paper even on one
//! core.

use std::io::Write;

/// Experiment scale selector, from the harness command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure: CI-sized.
    Small,
    /// Tens of seconds: the default for producing EXPERIMENTS.md numbers.
    Medium,
    /// Minutes: closest to the paper's problem sizes that fits one node.
    Paper,
}

impl Scale {
    /// Parse from `std::env::args()`: `--scale small|medium|paper`
    /// (default `medium`).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "paper" => Scale::Paper,
                    other => panic!("unknown scale {other:?} (small|medium|paper)"),
                };
            }
        }
        Scale::Medium
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, small: T, medium: T, paper: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Medium => medium,
            Scale::Paper => paper,
        }
    }
}

/// Per-thread totals when distributing per-item costs over `nthreads` with
/// OpenMP-style *static* block scheduling (contiguous equal-count blocks —
/// the DTFE public software's per-thread sub-volumes).
pub fn static_schedule(costs: &[f64], nthreads: usize) -> Vec<f64> {
    assert!(nthreads > 0);
    let mut out = vec![0.0; nthreads];
    let chunk = costs.len().div_ceil(nthreads);
    for (t, block) in costs.chunks(chunk.max(1)).enumerate() {
        out[t.min(nthreads - 1)] += block.iter().sum::<f64>();
    }
    out
}

/// Per-thread totals under OpenMP-style *dynamic* scheduling: each item
/// goes to the earliest-finishing thread (the steady state of a work
/// queue). This is how the paper's kernel loop is scheduled.
pub fn dynamic_schedule(costs: &[f64], nthreads: usize) -> Vec<f64> {
    assert!(nthreads > 0);
    let mut out = vec![0.0; nthreads];
    for &c in costs {
        // Next free thread = argmin of accumulated time.
        let (t, _) = out
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        out[t] += c;
    }
    out
}

/// Emulated wall clock of a schedule: the max per-thread total.
pub fn wall_of(schedule: &[f64]) -> f64 {
    schedule.iter().cloned().fold(0.0, f64::max)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A CSV writer into `target/experiments/<name>.csv` that echoes rows to
/// stdout, so every harness both prints the figure's series and archives
/// it. On drop it also writes a JSON sibling `<name>.json` — the same
/// series as an array of row objects keyed by the header columns, with
/// numeric cells emitted as JSON numbers — so downstream tooling never
/// has to re-parse the CSV.
pub struct SeriesWriter {
    file: std::io::BufWriter<std::fs::File>,
    json_path: std::path::PathBuf,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl SeriesWriter {
    pub fn create(name: &str, header: &str) -> SeriesWriter {
        let dir = dtfe_core::io::experiments_dir();
        let path = dir.join(format!("{name}.csv"));
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(&path).expect("create experiment csv"));
        writeln!(file, "{header}").unwrap();
        println!("# {name} -> {}", path.display());
        println!("{header}");
        SeriesWriter {
            file,
            json_path: dir.join(format!("{name}.json")),
            columns: header.split(',').map(|c| c.trim().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, row: &str) {
        writeln!(self.file, "{row}").unwrap();
        println!("{row}");
        self.rows
            .push(row.split(',').map(|c| c.trim().to_string()).collect());
    }
}

/// Render the series rows as a JSON array of objects keyed by `columns`.
/// Cells that parse as finite floats become numbers, everything else a
/// string; short rows just omit the trailing columns.
pub fn series_json(columns: &[String], rows: &[Vec<String>]) -> String {
    use dtfe_telemetry::json::{escape_into, number};
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        for (j, cell) in row.iter().enumerate().take(columns.len()) {
            if j > 0 {
                out.push(',');
            }
            escape_into(&mut out, &columns[j]);
            out.push(':');
            match cell.parse::<f64>() {
                Ok(v) if v.is_finite() => out.push_str(&number(v)),
                _ => escape_into(&mut out, cell),
            }
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

impl Drop for SeriesWriter {
    fn drop(&mut self) {
        self.file.flush().ok();
        std::fs::write(&self.json_path, series_json(&self.columns, &self.rows)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_preserve_total() {
        let costs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let s = static_schedule(&costs, 3);
        assert_eq!(s.len(), 3);
        assert!((s.iter().sum::<f64>() - 21.0).abs() < 1e-12);
        assert_eq!(s, vec![3.0, 7.0, 11.0]);
    }

    #[test]
    fn dynamic_balances_better_than_static() {
        // Skewed costs at the front: static loads thread 0, dynamic spreads.
        let mut costs = vec![10.0, 10.0, 10.0];
        costs.extend(vec![1.0; 27]);
        let st = static_schedule(&costs, 3);
        let dy = dynamic_schedule(&costs, 3);
        assert!(wall_of(&dy) < wall_of(&st));
        assert!((dy.iter().sum::<f64>() - costs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn dynamic_is_lpt_like() {
        let costs = vec![5.0, 4.0, 3.0, 2.0];
        let dy = dynamic_schedule(&costs, 2);
        // 5 -> t0, 4 -> t1, 3 -> t1(4<5), wait: after 4, t1=4 < t0=5, so 3 -> t1 => t1=7; 2 -> t0 => 7.
        assert_eq!(wall_of(&dy), 7.0);
    }

    #[test]
    fn more_threads_never_worse() {
        let costs: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
        let w4 = wall_of(&dynamic_schedule(&costs, 4));
        let w8 = wall_of(&dynamic_schedule(&costs, 8));
        assert!(w8 <= w4 + 1e-12);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Small.pick(1, 2, 3), 1);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn series_json_types_cells() {
        let cols: Vec<String> = ["n", "label", "wall_s"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows = vec![
            vec!["8".to_string(), "static".to_string(), "0.25".to_string()],
            vec!["16".to_string(), "dynamic".to_string()],
        ];
        let json = series_json(&cols, &rows);
        assert_eq!(
            json,
            "[\n{\"n\":8,\"label\":\"static\",\"wall_s\":0.25},\n{\"n\":16,\"label\":\"dynamic\"}\n]\n"
        );
        // Must be accepted by the telemetry JSON parser.
        dtfe_telemetry::json::Json::parse(&json).expect("valid JSON");
    }
}

pub mod experiments;
