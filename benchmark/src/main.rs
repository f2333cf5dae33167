//! `spca-benchmark`: the repo's one benchmark. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use spca_benchmark::compare::{compare, parse_results, spreads, Results};
use spca_benchmark::run::{run, setup_probe, RunArgs};

const USAGE: &str = "\
usage:
  spca-benchmark run [--seed N] [--workload NAME] [--out DIR] [--seconds S] [--trace 0|1]
      Run one workload in this process, or all six (one child process each)
      when --workload is absent. Prints `workload metric value unit` lines and,
      last, one JSON object per workload; writes DIR/results.json (all six) and
      DIR/trace-<workload>.json (traced runs). --trace 0 reports the end-to-end
      metrics, --trace 1 the per-layer ones, neither flag reports both.
      Defaults: seed 2015, out benchmark/out, seconds 0 (five operations).
  spca-benchmark compare A B [--spec BENCHMARK.json]
      Compare result file B against its base A under the bounds of BENCHMARK.json;
      exits 1 when a bound is exceeded or an exact metric differs.
  spca-benchmark spread FILE FILE... [--spec BENCHMARK.json]
      Interquartile spread of every end-to-end metric across result files
      (one per seed); exits 1 when a spread exceeds its bound.";

/// `--flag value` pairs, in command-line order.
type Flags = Vec<(String, String)>;

/// Splits `args` into `--flag value` pairs and positional arguments.
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) => {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((flags, positional))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn load(path: &str) -> Result<Results, String> {
    parse_results(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    let (flags, positional) = parse_flags(rest)?;
    let flag = |name: &str| {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let known = |names: &[&str]| match flags.iter().find(|(n, _)| !names.contains(&n.as_str())) {
        Some((n, _)) => Err(format!("unknown flag --{n}")),
        None => Ok(()),
    };
    let seed = || {
        flag("seed").map_or(Ok(2015), |s| {
            s.parse::<u64>().map_err(|e| format!("--seed: {e}"))
        })
    };
    let spec = || read(flag("spec").unwrap_or("BENCHMARK.json"));
    match command.as_str() {
        "run" => {
            known(&["seed", "workload", "out", "seconds", "trace"])?;
            let seconds = flag("seconds").map_or(Ok(0.0), |s| s.parse::<f64>());
            run(&RunArgs {
                seed: seed()?,
                workload: flag("workload").map(str::to_string),
                out: PathBuf::from(flag("out").unwrap_or("benchmark/out")),
                seconds: seconds.map_err(|e| format!("--seconds: {e}"))?,
                trace: match flag("trace") {
                    None => None,
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                },
            })
        }
        // Internal: one cold set-up in a fresh process, for `setup_s`.
        "setup" => {
            known(&["seed", "workload"])?;
            setup_probe(flag("workload").ok_or("setup needs --workload")?, seed()?)?;
            Ok(true)
        }
        "compare" => {
            known(&["spec"])?;
            let [a, b] = positional.as_slice() else {
                return Err("compare takes exactly two result files".into());
            };
            let rows = compare(&spec()?, &load(a)?, &load(b)?)?;
            println!(
                "{:<20} {:<28} {:>18} {:>18} {:>9}",
                "workload", "metric", "A", "B", "B/A"
            );
            for r in &rows {
                let note = r
                    .failure
                    .as_ref()
                    .map_or(String::new(), |f| format!("  FAIL {f}"));
                println!(
                    "{:<20} {:<28} {:>18} {:>18} {:>8.4}x{note}",
                    r.workload,
                    r.metric,
                    r.a,
                    r.b,
                    r.ratio()
                );
            }
            let failures = rows.iter().filter(|r| r.failure.is_some()).count();
            println!("# {} rows, {failures} failed", rows.len());
            Ok(failures == 0)
        }
        "spread" => {
            known(&["spec"])?;
            let runs = positional
                .iter()
                .map(|p| load(p))
                .collect::<Result<Vec<_>, _>>()?;
            let rows = spreads(&spec()?, &runs)?;
            println!(
                "{:<20} {:<20} {:>18} {:>9} {:>7}",
                "workload", "metric", "median", "spread", "bound"
            );
            for r in &rows {
                let note = if r.too_wide() {
                    "  FAIL wider than the bound"
                } else if r.metric != "setup_s" && r.spread > r.bound / 3.0 {
                    "  above a third of the bound"
                } else {
                    ""
                };
                println!(
                    "{:<20} {:<20} {:>18} {:>9.5} {:>7}{note}",
                    r.workload, r.metric, r.median, r.spread, r.bound
                );
            }
            Ok(!rows.iter().any(|r| r.too_wide()))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spca-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
