//! Regenerates the paper's evaluation (`spca_bench::paper`): prints each
//! experiment's table and claims at full shape, with `--out DIR` also to
//! `DIR/<id>.txt`. Exits 1 when an asserted claim fails.

use spca_bench::paper::{Inputs, EXPERIMENTS};

fn main() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let about = format!("The paper's evaluation, with its claims checked.\nIds: {}", ids.join(", "));
    let flags = [
        ("--only ID", "Run experiment ID only (repeatable; default: all)"),
        ("--out DIR", "Also write DIR/<id>.txt for each experiment run"),
    ];
    let trace = spca_bench::cli::trace_args("paper", &about, &flags);
    let only: Vec<String> = trace.args.values("--only").map(String::from).collect();
    if let Some(unknown) = only.iter().find(|id| !ids.contains(&id.as_str())) {
        eprintln!("error: unknown experiment {unknown} (one of: {})", ids.join(", "));
        std::process::exit(2);
    }
    let out = trace.args.value("--out").map(String::from);
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    }

    let (mut inputs, mut failed) = (Inputs::default(), 0);
    for e in EXPERIMENTS.iter().filter(|e| only.is_empty() || only.iter().any(|id| id == e.id)) {
        let start = std::time::Instant::now();
        let report = e.run_at(e.full, &mut inputs);
        let text = report.render();
        println!("{text}");
        if let Some(dir) = &out {
            let path = format!("{dir}/{}.txt", e.id);
            std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        }
        failed += report.failures().count();
        eprintln!("paper: {} took {:.0} s", e.id, start.elapsed().as_secs_f64());
    }
    if failed > 0 {
        eprintln!("paper: {failed} asserted claims FAIL");
        drop(trace);
        std::process::exit(1);
    }
}
