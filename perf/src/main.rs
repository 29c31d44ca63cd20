//! `perf`: the repository's benchmark. See `README.md` beside `Cargo.toml`
//! for why each workload exists and how the metrics interact.
//!
//! ```text
//! perf --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perf --repeat <k> [--workload <name|all>] [--seed <n>] [--seconds <s>]
//! perf --list
//! ```

mod batch;
mod kernel;
mod measure;
mod repeat;
mod report;
mod run;
mod serve;
mod table;

use run::Args;
use std::process::ExitCode;

struct Cli {
    workload: String,
    args: Args,
    repeat: usize,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      perf --repeat K [--workload <name|all>] [--seed N] [--seconds S]\n\
         \x20      perf --list"
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: "all".into(),
        args: Args {
            seed: 1,
            seconds: 15.0,
            traced: false,
            smoke: false,
        },
        repeat: 0,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = value(),
            "--seed" => cli.args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => cli.args.traced = true,
            "--smoke" => cli.args.smoke = true,
            "--repeat" => cli.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--list" => cli.list = true,
            _ => usage(),
        }
    }
    if !(cli.args.seconds.is_finite() && cli.args.seconds >= 0.0) {
        usage();
    }
    cli
}

fn measure_one(workload: &str, args: &Args) -> Option<report::Report> {
    let Args { seed, smoke, .. } = *args;
    Some(match workload {
        "kernel_march" => run::run(workload, args, |d| kernel::Kernel::prepare(seed, smoke, d)),
        "batch_pipeline" => run::run(workload, args, |d| batch::Batch::prepare(seed, smoke, d)),
        "serve_warm" => run::run(workload, args, |d| serve::Serve::warm(seed, smoke, d)),
        "serve_churn" => run::run(workload, args, |d| serve::Serve::churn(seed, smoke, d)),
        _ => return None,
    })
}

/// Run one workload in this process and print its table and result line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let Some(report) = measure_one(workload, args) else {
        eprintln!("unknown workload {workload:?}; `perf --list` names them");
        return ExitCode::from(2);
    };
    report.print_table(workload);
    println!("{}", report.result_line(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if cli.list {
        table::print_list();
        return ExitCode::SUCCESS;
    }
    let workloads: Vec<&str> = match cli.workload.as_str() {
        "all" => table::WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    if cli.repeat > 0 {
        return repeat::run(&workloads, &cli.args, cli.repeat);
    }
    if let [one] = workloads[..] {
        return run_one(one, &cli.args);
    }
    // One process per workload, so each has its own memory high-water mark.
    let mut code = ExitCode::SUCCESS;
    for w in workloads {
        let ok = repeat::child(w, &cli.args, cli.args.seed)
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            code = ExitCode::FAILURE;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_telemetry::json::Json;

    /// `BENCHMARK.json` is the contract later changes are judged by; the
    /// table in code is what the harness prints. They must say the same.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");

        let names = |key: &str| -> Vec<Vec<(String, String)>> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|entry| {
                    entry
                        .as_obj()
                        .expect("entry is an object")
                        .iter()
                        .map(|(k, v)| {
                            let v = match v {
                                Json::Str(s) => s.clone(),
                                Json::Num(n) => format!("{n}"),
                                other => panic!("unexpected value {other:?}"),
                            };
                            (k.clone(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());

        let workloads: Vec<_> = table::WORKLOADS
            .iter()
            .map(|w| vec![pair("name", w.name), pair("why", w.why)])
            .collect();
        assert_eq!(names("workloads"), workloads);

        let end_to_end: Vec<_> = table::end_to_end()
            .map(|m| {
                vec![
                    pair("better", m.better.label()),
                    pair("bound", &format!("{}", m.bound.unwrap())),
                    pair("name", m.name),
                    pair("unit", m.unit),
                ]
            })
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);

        let per_layer: Vec<_> = table::per_layer()
            .map(|m| {
                vec![
                    pair("better", m.better.label()),
                    pair("name", m.name),
                    pair("unit", m.unit),
                ]
            })
            .collect();
        assert_eq!(names("per_layer"), per_layer);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in table::WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for m in table::METRICS {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = table::metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", table::Better::Lower));
        let widest = table::end_to_end()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!((2..=8).contains(&table::WORKLOADS.len()));
        assert!((1..=16).contains(&table::end_to_end().count()));
        assert!((1..=128).contains(&table::per_layer().count()));
    }

    /// Every workload end to end at tiny fixed sizes: zero failed operations,
    /// every end-to-end metric measured, and the traced run's extra metrics.
    #[test]
    fn smoke_run_of_each_workload() {
        for (workload, traced) in [
            ("kernel_march", true),
            ("batch_pipeline", false),
            ("serve_warm", false),
            ("serve_churn", true),
        ] {
            let args = Args {
                seed: 3,
                seconds: 0.0,
                traced,
                smoke: true,
            };
            let report = measure_one(workload, &args).expect("a declared workload");
            assert!(report.attempted > 0, "{workload}");
            assert_eq!(report.failed, 0, "{workload}");
            let line = report.result_line(traced);
            let json = Json::parse(&line).expect("result line parses");
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{workload}");
            for name in ["fields_per_s", "op_p50_ms", "cpu_ms_per_field"] {
                assert!(
                    report.get(name).is_some_and(|v| v > 0.0),
                    "{workload}: {name}"
                );
            }
            if traced {
                assert!(report.get("trace.overhead_pct").is_some(), "{workload}");
                assert!(
                    report.get("core.tets_per_los").is_some_and(|v| v > 0.0),
                    "{workload}"
                );
            }
        }
    }
}
