//! CI performance regression gate.
//!
//! Diffs freshly produced run ledgers / benchmark JSON against committed
//! baselines with per-metric tolerance rules (see `spca_bench::gate`):
//! bit-exact for hashes, byte counts and integrity counters; a relative
//! band for virtual-time metrics; host wall-clock noise ignored. Exits
//! non-zero and prints a delta table when anything regressed.
//!
//! Usage:
//!   perf_gate --baselines DIR --fresh DIR [--time-band FRACTION]
//!             [--rebaseline GLOB]...
//!
//! With `--rebaseline`, the baselines are rewritten instead: every gated
//! leaf whose dotted path matches a GLOB (`*` any run, `?` one character)
//! takes the fresh value (or, when the fresh artifact has no such leaf, is
//! removed), every other byte stays, and nothing is written if
//! any file has a leaf outside the globs that fails its rule — a hash or
//! byte move is spliced only where a PR names it — or if a GLOB matches no
//! gated leaf (leaves the gate ignores are never spliced).
//!
//! Every `*.json` in the baselines directory must have a same-named
//! counterpart in the fresh directory; a missing counterpart is itself a
//! regression (a bench silently dropping its artifact is exactly what the
//! gate exists to catch).

use std::path::{Path, PathBuf};

use spca_bench::gate;

struct Args {
    baselines: PathBuf,
    fresh: PathBuf,
    time_band: f64,
    rebaseline: Vec<String>,
}

fn parse_args() -> Args {
    let cli = spca_bench::cli::Args::parse(
        "perf_gate",
        "CI performance regression gate: diff fresh run ledgers / bench JSON\n\
         against committed baselines with per-metric tolerance rules.",
        &[
            ("--baselines DIR", "Directory of committed baseline *.json files"),
            ("--fresh DIR", "Directory of freshly produced artifacts"),
            ("--time-band FRAC", "Virtual-time tolerance (default 0.25; CI: wide, fixtures: 0.05)"),
            ("--rebaseline GLOB", "Splice matching leaves from fresh (repeatable; all or nothing)"),
        ],
    );
    let time_band = match cli.value("--time-band").map_or(Ok(0.25), str::parse) {
        Ok(v) if v >= 0.0 => v,
        _ => {
            eprintln!("error: --time-band needs a non-negative number");
            std::process::exit(2);
        }
    };
    let (Some(baselines), Some(fresh)) = (cli.value("--baselines"), cli.value("--fresh")) else {
        eprintln!("error: perf_gate needs --baselines DIR and --fresh DIR (see --help)");
        std::process::exit(2);
    };
    let rebaseline = cli.values("--rebaseline").map(String::from).collect();
    Args { baselines: baselines.into(), fresh: fresh.into(), time_band, rebaseline }
}

fn load(path: &Path) -> Result<obs::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

fn main() {
    let args = parse_args();
    let mut names: Vec<String> = match std::fs::read_dir(&args.baselines) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("perf_gate: cannot read baselines dir {:?}: {e}", args.baselines);
            std::process::exit(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("perf_gate: no *.json baselines in {:?}", args.baselines);
        std::process::exit(2);
    }

    if !args.rebaseline.is_empty() {
        splice(&args, &names);
        return;
    }
    let mut failed = 0usize;
    for name in &names {
        let base_path = args.baselines.join(name);
        let fresh_path = args.fresh.join(name);
        let base = match load(&base_path) {
            Ok(doc) => doc,
            Err(e) => {
                println!("FAIL {name}: baseline unreadable: {e}");
                failed += 1;
                continue;
            }
        };
        if !fresh_path.exists() {
            println!(
                "FAIL {name}: no fresh artifact at {fresh_path:?} — did the bench forget \
                 to write its ledger?"
            );
            failed += 1;
            continue;
        }
        let fresh = match load(&fresh_path) {
            Ok(doc) => doc,
            Err(e) => {
                println!("FAIL {name}: fresh artifact unreadable: {e}");
                failed += 1;
                continue;
            }
        };
        let report = gate::compare(&base, &fresh, args.time_band);
        if report.passed() {
            println!(
                "PASS {name}: {} metrics compared, {} ignored, {} fresh-only",
                report.compared, report.ignored, report.fresh_only
            );
        } else {
            println!(
                "FAIL {name}: {} of {} metrics regressed (time band ±{:.0}%):",
                report.regressions.len(),
                report.compared,
                args.time_band * 100.0
            );
            for line in report.render().lines() {
                println!("  {line}");
            }
            failed += 1;
        }
    }
    if failed > 0 {
        println!("perf_gate: {failed} of {} artifacts FAILED", names.len());
        std::process::exit(1);
    }
    println!("perf_gate: all {} artifacts within tolerance", names.len());
}

/// `--rebaseline`: splices every baseline, or writes none of them.
fn splice(args: &Args, names: &[String]) {
    let globs: Vec<&str> = args.rebaseline.iter().map(String::as_str).collect();
    let mut rewritten = Vec::new();
    let mut failed = 0usize;
    // Globs that match no leaf of any baseline so far.
    let mut unmatched = globs.clone();
    for name in names {
        let (base_path, fresh_path) = (args.baselines.join(name), args.fresh.join(name));
        let texts = std::fs::read_to_string(&base_path)
            .and_then(|base| Ok((base, std::fs::read_to_string(&fresh_path)?)))
            .map_err(|e| format!("read {base_path:?} / {fresh_path:?}: {e}"));
        let spliced = texts.and_then(|(base, fresh)| {
            let leaves = gate::flatten(&obs::json::parse(&base)?);
            unmatched.retain(|g| !leaves.iter().any(|(path, _)| gate::glob_match(g, path)));
            gate::rebaseline(&base, &fresh, &globs, args.time_band)
        });
        match spliced {
            Ok((_, paths)) if paths.is_empty() => println!("SAME {name}"),
            Ok((text, paths)) => {
                println!("SPLICE {name}: {} leaves", paths.len());
                for path in &paths {
                    println!("  {path}");
                }
                rewritten.push((base_path, text));
            }
            Err(e) => {
                println!("REFUSE {name} (globs {globs:?}):");
                for line in e.lines() {
                    println!("  {line}");
                }
                failed += 1;
            }
        }
    }
    for glob in &unmatched {
        println!("REFUSE {glob}: matches no leaf of any baseline");
        failed += 1;
    }
    if failed > 0 {
        println!("perf_gate: {failed} refusals; nothing written");
        std::process::exit(1);
    }
    for (path, text) in rewritten {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perf_gate: write {path:?}: {e}");
            std::process::exit(2);
        }
    }
}
