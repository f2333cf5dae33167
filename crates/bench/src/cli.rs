//! Shared command-line handling for the experiment binaries.
//!
//! Every bench binary accepts `--trace FILE` (write a Chrome
//! `trace_event` JSON of the run, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>), `--ledger FILE` (write a versioned
//! machine-readable run ledger, the input to `perf_gate`) and `--help`.
//! Binaries with extra flags declare them; any other argument exits 2, and
//! [`Args`] answers [`Args::flag`] and [`Args::value`] for the declared
//! ones. `perf_gate`, which records nothing, parses with [`Args::parse`]
//! alone and takes no `--trace`/`--ledger`.

use std::sync::Arc;

/// The flags a binary was given, each with the argument after it when it
/// takes one.
pub struct Args(Vec<Given>);

type Given = (String, Option<String>);

impl Args {
    /// Parses the command line against `flags` and `--help`/`-h` (see
    /// [`check`]): prints help and exits 0 on `--help`/`-h`, exits 2 on an
    /// error.
    pub fn parse(binary: &str, about: &str, flags: &[(&str, &str)]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let args = Args(check(binary, &argv, flags).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }));
        if args.flag("--help") || args.flag("-h") {
            println!("{about}\n");
            println!("Usage: {binary} [OPTIONS]\n");
            println!("Options:");
            for (flag, help) in flags.iter().chain(&HELP[..1]) {
                println!("  {flag:<18} {help}");
            }
            std::process::exit(0);
        }
        args
    }

    /// Whether `name` (a declared flag) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| flag == name)
    }

    /// The value given to `name` (a declared `--x VALUE` flag), if any.
    pub fn value<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.values(name).next()
    }

    /// Every value given to a repeatable `--x VALUE` flag, in order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.0.iter().filter(move |(flag, _)| flag == name).filter_map(|(_, v)| v.as_deref())
    }
}

/// Installs a trace collector when `--trace FILE` was given and a run-
/// ledger sink when `--ledger FILE` was given; on drop, exports the
/// collected events / ledger to those files and prints a short summary.
pub struct TraceGuard {
    tool: String,
    collector: Option<Arc<obs::Collector>>,
    /// The command line, shared and declared flags alike.
    pub args: Args,
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
        if let Some(path) = self.args.value("--ledger") {
            let runs = obs::ledger::drain_sink();
            let n = runs.len();
            let c = self.collector.as_ref();
            let ledger = obs::ledger::RunLedger {
                tool: self.tool.clone(),
                runs,
                dropped_events: c.map_or(0, |c| c.dropped()),
                nesting_violations: c.map_or(0, |c| c.nesting_violations()),
                collector_registry: c.map(|c| c.registry().snapshot()).unwrap_or_default(),
            };
            match std::fs::write(path, ledger.to_json()) {
                Ok(()) => eprintln!("wrote run ledger ({n} runs) to {path}"),
                Err(e) => eprintln!("failed to write ledger to {path}: {e}"),
            }
        }
        if self.collector.is_some() {
            let _ = obs::uninstall();
        }
        let (Some(path), Some(c)) = (self.args.value("--trace"), &self.collector) else {
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

/// The flags every binary takes besides `--help`.
const TRACE: &[(&str, &str)] = &[
    ("--trace FILE", "Write a Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev)"),
    ("--ledger FILE", "Write a versioned run-ledger JSON (perf_gate input)"),
];

const HELP: &[(&str, &str)] = &[("--help", "Show this help"), ("-h", "")];

/// Checks `args` (without the program name) against `flags` and [`HELP`].
/// A flag's first word is the flag; its second, if any, names the value
/// the next argument carries. Any other argument is an error, as is a
/// value flag with nothing after it.
fn check(binary: &str, args: &[String], flags: &[(&str, &str)]) -> Result<Vec<Given>, String> {
    let mut given = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut words = flags.iter().chain(HELP).map(|(decl, _)| decl.split(' '));
        let Some(mut decl) = words.find(|w| w.clone().next() == Some(arg.as_str())) else {
            return Err(format!("unknown flag {arg} for {binary}"));
        };
        let value = match decl.nth(1) {
            Some(name) => match args.next() {
                Some(v) => Some(v.clone()),
                None => return Err(format!("{arg} requires a value ({name})")),
            },
            None => None,
        };
        given.push((arg.clone(), value));
    }
    Ok(given)
}

/// Parses the command line against `extra_flags`, `--trace` and `--ledger`
/// (see [`Args::parse`]). Returns a guard that must stay alive for the
/// whole run.
pub fn trace_args(binary: &str, about: &str, extra_flags: &[(&str, &str)]) -> TraceGuard {
    let args = Args::parse(binary, about, &[extra_flags, TRACE].concat());
    // A fit's ledger record takes its label from the trace process, which
    // is named only with a collector installed, so --ledger implies a
    // collector even without --trace.
    let collector = (args.flag("--trace") || args.flag("--ledger")).then(obs::install_new);
    if args.flag("--ledger") {
        obs::ledger::install_sink();
    }
    TraceGuard { tool: binary.into(), collector, args }
}

/// [`trace_args`] for a `bench_*` binary: `--smoke` (described by
/// `smoke`) and `--out FILE` (default `BENCH_<name>.json`) come before
/// `extra_flags`. Returns the guard, whether `--smoke` was given and the
/// results path.
pub fn bench_args(
    binary: &str,
    about: &str,
    smoke: &str,
    extra_flags: &[(&str, &str)],
) -> (TraceGuard, bool, String) {
    let default_out = format!("{}.json", binary.replace("bench_", "BENCH_"));
    let out_help = format!("Results JSON path (default {default_out})");
    let bench_flags = [("--smoke", smoke), ("--out FILE", out_help.as_str())];
    let trace = trace_args(binary, about, &[&bench_flags, extra_flags].concat());
    let (smoke, out) = (trace.args.flag("--smoke"), trace.args.value("--out"));
    let out = out.map_or(default_out, String::from);
    (trace, smoke, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXTRA: &[(&str, &str)] = &[("--smoke", "small"), ("--out FILE", "results path")];

    fn check_with(args: &[&str], flags: &[(&str, &str)]) -> Result<Vec<Given>, String> {
        check("bench_x", &args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), flags)
    }

    /// A bench binary's flags: its own plus the trace flags.
    fn bench_x(args: &[&str]) -> Result<Vec<Given>, String> {
        check_with(args, &[EXTRA, TRACE].concat())
    }

    #[test]
    fn declared_flags_parse_and_value_flags_take_the_next_argument() {
        let given = bench_x(&["--smoke", "--out", "r.json", "--trace", "t.json", "-h"]).unwrap();
        let want = [
            ("--smoke", None),
            ("--out", Some("r.json")),
            ("--trace", Some("t.json")),
            ("-h", None),
        ];
        let want: Vec<Given> =
            want.iter().map(|(f, v)| (f.to_string(), v.map(String::from))).collect();
        assert_eq!(given, want);
        assert_eq!(bench_x(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn undeclared_arguments_and_missing_values_are_refused() {
        for (args, err) in [
            (&["--smoke", "--precision", "f32"][..], "unknown flag --precision for bench_x"),
            (&["stray"][..], "unknown flag stray for bench_x"),
            (&["--smok"][..], "unknown flag --smok for bench_x"),
            (&["--out"][..], "--out requires a value (FILE)"),
            (&["--smoke", "--ledger"][..], "--ledger requires a value (FILE)"),
        ] {
            assert_eq!(bench_x(args), Err(err.to_string()), "{args:?}");
        }
    }

    #[test]
    fn a_binary_without_the_trace_flags_refuses_them() {
        let err = |flag: &str| Err(format!("unknown flag {flag} for bench_x"));
        assert_eq!(check_with(&["--trace", "t.json"], EXTRA), err("--trace"));
        assert_eq!(check_with(&["--ledger", "l.json"], EXTRA), err("--ledger"));
        assert_eq!(check_with(&["--out", "r.json", "--help"], EXTRA).unwrap().len(), 2);
    }
}
