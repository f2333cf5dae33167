//! Shared command-line handling for the experiment binaries.
//!
//! Every bench binary accepts `--trace FILE` (write a Chrome
//! `trace_event` JSON of the run, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>), `--ledger FILE` (write a versioned
//! machine-readable run ledger, the input to `perf_gate`) and `--help`.
//! Binaries with extra flags pass them in for the help text and parse
//! them themselves.

use std::sync::Arc;

/// Installs a trace collector when `--trace FILE` was given and a run-
/// ledger sink when `--ledger FILE` was given; on drop, exports the
/// collected events / ledger to those files and prints a short summary.
pub struct TraceGuard {
    path: Option<String>,
    ledger_path: Option<String>,
    tool: String,
    collector: Option<Arc<obs::Collector>>,
}

impl TraceGuard {
    /// The installed collector, if tracing.
    pub fn collector(&self) -> Option<&Arc<obs::Collector>> {
        self.collector.as_ref()
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        // Ledger first: it snapshots collector integrity counters, and the
        // trace export below uninstalls the collector.
        if let Some(path) = &self.ledger_path {
            let runs = obs::ledger::drain_sink();
            let n = runs.len();
            let ledger = obs::ledger::RunLedger {
                tool: self.tool.clone(),
                runs,
                dropped_events: self.collector.as_ref().map_or(0, |c| c.dropped()),
                nesting_violations: self
                    .collector
                    .as_ref()
                    .map_or(0, |c| c.nesting_violations()),
                collector_registry: self
                    .collector
                    .as_ref()
                    .map(|c| c.registry().snapshot())
                    .unwrap_or_default(),
            };
            match std::fs::write(path, ledger.to_json()) {
                Ok(()) => eprintln!("wrote run ledger ({n} runs) to {path}"),
                Err(e) => eprintln!("failed to write ledger to {path}: {e}"),
            }
        }
        if self.collector.is_some() {
            let _ = obs::uninstall();
        }
        let (Some(path), Some(c)) = (&self.path, &self.collector) else {
            return;
        };
        let json = obs::export::export_collector(c);
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!(
                "wrote {} trace events to {path} (open in chrome://tracing or ui.perfetto.dev)",
                c.len()
            ),
            Err(e) => eprintln!("failed to write trace to {path}: {e}"),
        }
        if let Some(warning) = obs::report::dropped_warning(c.dropped()) {
            eprint!("{warning}");
        }
        if c.nesting_violations() > 0 {
            eprintln!("warning: {} span-nesting violations", c.nesting_violations());
        }
        let metrics = c.registry().render();
        if !metrics.is_empty() {
            eprintln!("collector metrics:\n{metrics}");
        }
    }
}

/// Parses the shared flags. Prints help (listing `extra_flags` too) and
/// exits on `--help`/`-h`; exits with an error if `--trace`/`--ledger` is
/// missing its argument. Returns a guard that must stay alive for the
/// whole run.
pub fn trace_args(binary: &str, about: &str, extra_flags: &[(&str, &str)]) -> TraceGuard {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{about}\n");
        println!("Usage: {binary} [OPTIONS]\n");
        println!("Options:");
        for (flag, help) in extra_flags {
            println!("  {flag:<18} {help}");
        }
        println!("  {:<18} {}", "--trace FILE", "Write a Chrome trace_event JSON trace of the run");
        println!("  {:<18} {}", "", "(open in chrome://tracing or https://ui.perfetto.dev)");
        println!("  {:<18} {}", "--ledger FILE", "Write a versioned run-ledger JSON (perf_gate input)");
        println!("  {:<18} {}", "--help", "Show this help");
        std::process::exit(0);
    }
    let flag_value = |flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(p) => Some(p.clone()),
            None => {
                eprintln!("error: {flag} requires a file path");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let path = flag_value("--trace");
    let ledger_path = flag_value("--ledger");
    // The ledger producers live inside the fit driver and only run with a
    // trace collector enabled, so --ledger implies a collector even
    // without --trace.
    let collector = if path.is_some() || ledger_path.is_some() {
        Some(obs::install_new())
    } else {
        None
    };
    if ledger_path.is_some() {
        obs::ledger::install_sink();
    }
    TraceGuard { path, ledger_path, tool: binary.to_string(), collector }
}
