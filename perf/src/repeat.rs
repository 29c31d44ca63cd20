//! `perf --repeat K`: run every workload K times, each time with another
//! seed and in alternating order, and hold the spread of each end-to-end
//! metric against its bound — the same judgement the driver makes before it
//! accepts the benchmark. The last line is the set as one JSON object;
//! `BASELINE.json` keeps two of them.

use crate::measure::quartiles;
use crate::run::Args;
use crate::table;
use dtfe_telemetry::json::{escape_into, number, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// This binary again, for one workload and one seed.
pub fn child(workload: &str, args: &Args, seed: u64) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// The metrics of a result line, by name. `None` unless the line says the
/// run was correct.
fn parse_result(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let json = Json::parse(stdout.lines().last()?).ok()?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    json.get("metrics")?
        .as_obj()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

pub fn run(workloads: &[&str], args: &Args, k: usize) -> ExitCode {
    if k < 2 {
        eprintln!("--repeat needs at least 2 runs to have a spread");
        return ExitCode::from(2);
    }
    // values[workload][metric] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for i in 0..k {
        let mut order = workloads.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + i as u64;
            let out = child(w, args, seed)
                .stdout(Stdio::piped())
                .output()
                .expect("spawn child run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let Some(metrics) = parse_result(&stdout).filter(|_| out.status.success()) else {
                eprintln!("{w} --seed {seed} failed:\n{stdout}");
                return ExitCode::FAILURE;
            };
            eprintln!("# run {}/{k} {w} --seed {seed} ok", i + 1);
            for (name, v) in metrics {
                values
                    .entry(w)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(v);
            }
        }
    }

    let host = format!(
        "\"nproc\":{},\"kernel\":{:?},\"seed\":{},\"seconds\":{},\"runs\":{k}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
        args.seed,
        number(args.seconds),
    );
    let mut json = format!("{{{host},\"workloads\":{{");
    let mut within = true;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "maxdev", "bound"
    );
    for (wi, (w, metrics)) in values.iter().enumerate() {
        if wi > 0 {
            json.push(',');
        }
        escape_into(&mut json, w);
        json.push_str(":{");
        let mut first = true;
        for decl in table::METRICS {
            let Some(v) = metrics.get(decl.name) else {
                continue;
            };
            let [q1, median, q3] = quartiles(v);
            let spread = (q3 - q1) / median;
            let maxdev = v
                .iter()
                .map(|x| (x / median - 1.0).abs())
                .fold(0.0, f64::max);
            // The set-up time's spread is shown but, as in the driver's
            // rule, only its median is held to the bound between sets.
            let gates = decl.bound.filter(|_| decl.name != "setup_s");
            let verdict = match gates {
                Some(b) if spread > b => {
                    within = false;
                    "OVER"
                }
                Some(b) if spread > b / 3.0 => "wide",
                _ => "",
            };
            println!(
                "{:<16} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>6} {verdict}",
                w,
                decl.name,
                q1,
                median,
                q3,
                spread * 100.0,
                maxdev * 100.0,
                decl.bound.map_or("-".into(), |b| format!("{}%", b * 100.0)),
            );
            if !first {
                json.push(',');
            }
            first = false;
            escape_into(&mut json, decl.name);
            json.push_str(&format!(
                ":{{\"unit\":{:?},\"q1\":{},\"median\":{},\"q3\":{},\"spread\":{},\"values\":[{}]}}",
                decl.unit,
                number(q1),
                number(median),
                number(q3),
                number(spread),
                v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(","),
            ));
        }
        json.push('}');
    }
    json.push_str("}}");
    println!("{json}");
    if within {
        ExitCode::SUCCESS
    } else {
        eprintln!("a spread exceeds its bound: lengthen the run, do not widen the bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_result_reads_the_last_line_only_when_correct() {
        let ok = "# table\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}";
        let metrics = parse_result(ok).expect("parses");
        assert_eq!(metrics["op_p50_ms"], 1.5);
        assert!(parse_result(&ok.replace("true", "false")).is_none());
        assert!(parse_result("no json here").is_none());
    }
}
