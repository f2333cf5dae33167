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
//! With `--rebaseline`, the baselines are rewritten instead: every leaf
//! whose dotted path matches a GLOB (`*` any run, `?` one character) takes
//! the fresh value, every other byte stays, and nothing is written if any
//! file has a leaf outside the globs that fails its rule — a hash or byte
//! move is spliced only where a PR names it.
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

fn usage() -> ! {
    eprintln!(
        "Usage: perf_gate --baselines DIR --fresh DIR [--time-band FRACTION] [--rebaseline GLOB]..."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("CI performance regression gate: diff fresh run ledgers / bench JSON");
        println!("against committed baselines with per-metric tolerance rules.\n");
        println!(
            "Usage: perf_gate --baselines DIR --fresh DIR [--time-band FRACTION] \
             [--rebaseline GLOB]...\n"
        );
        println!("Options:");
        println!("  --baselines DIR    Directory of committed baseline *.json files");
        println!("  --fresh DIR        Directory of freshly produced artifacts");
        println!("  --time-band FRAC   Relative tolerance for virtual-time metrics");
        println!("                     (default 0.25; CI uses a wide band, fixtures 0.05)");
        println!("  --rebaseline GLOB  Rewrite the baseline leaves matching GLOB from the");
        println!("                     fresh artifacts (repeatable); refuses, writing");
        println!("                     nothing, if any other leaf fails its rule");
        std::process::exit(0);
    }
    let mut baselines = None;
    let mut fresh = None;
    let mut time_band = 0.25_f64;
    let mut rebaseline = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baselines" => baselines = it.next().map(PathBuf::from),
            "--fresh" => fresh = it.next().map(PathBuf::from),
            "--rebaseline" => rebaseline.extend(it.next().cloned()),
            "--time-band" => {
                time_band = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v >= 0.0 => v,
                    _ => {
                        eprintln!("error: --time-band needs a non-negative number");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("error: unknown argument {other}");
                usage();
            }
        }
    }
    match (baselines, fresh) {
        (Some(baselines), Some(fresh)) => Args { baselines, fresh, time_band, rebaseline },
        _ => usage(),
    }
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
    for name in names {
        let (base_path, fresh_path) = (args.baselines.join(name), args.fresh.join(name));
        let texts = std::fs::read_to_string(&base_path)
            .and_then(|base| Ok((base, std::fs::read_to_string(&fresh_path)?)))
            .map_err(|e| format!("read {base_path:?} / {fresh_path:?}: {e}"));
        let spliced = texts.and_then(|(base, fresh)| {
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
    if failed > 0 {
        println!("perf_gate: {failed} of {} artifacts refused; nothing written", names.len());
        std::process::exit(1);
    }
    for (path, text) in rewritten {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perf_gate: write {path:?}: {e}");
            std::process::exit(2);
        }
    }
}
