//! Shared plumbing for the experiment binaries.
//!
//! The paper's evaluation is one table of experiments in [`paper`], which
//! the `paper` binary regenerates (see DESIGN.md's per-experiment index).
//! This library also holds what the binaries share: scaled dataset
//! constructors, the "ideal error" reference runs, time/byte formatting,
//! and a tiny fixed-width table printer.
//!
//! Scale note: the paper's datasets are up to 1.26 B rows on a 64-core
//! cluster; the reproduction runs laptop-scale replicas (documented in
//! DESIGN.md §1) on the simulated cluster, sweeping sizes over the same
//! axes. Absolute numbers differ; the comparisons are about *shape*.

pub mod cli;
pub mod gate;
pub mod paper;
pub mod plot;

use dcluster::{ClusterConfig, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::{Spca, SpcaConfig};

/// Default principal-component count (the paper uses 50 everywhere).
pub const D_COMPONENTS: usize = 50;

/// Scaled stand-ins for the paper's four datasets.
pub mod data {
    use super::*;

    /// Tweets-like sparse binary matrix.
    pub fn tweets(rows: usize, cols: usize, seed: u64) -> SparseMat {
        datasets::tweets::generate(rows, cols, &mut Prng::seed_from_u64(seed))
    }

    /// Bio-Text-like sparse binary matrix (denser rows).
    pub fn biotext(rows: usize, cols: usize, seed: u64) -> SparseMat {
        datasets::biotext::generate(rows, cols, &mut Prng::seed_from_u64(seed))
    }

    /// Diabetes-like dense real-valued spectra, stored sparse.
    pub fn diabetes(rows: usize, cols: usize, seed: u64) -> SparseMat {
        datasets::diabetes::generate_sparse(rows, cols, &mut Prng::seed_from_u64(seed))
    }

    /// Images-like dense SIFT descriptors, stored sparse.
    pub fn images(rows: usize, cols: usize, seed: u64) -> SparseMat {
        datasets::images::generate_sparse(rows, cols, &mut Prng::seed_from_u64(seed))
    }
}

/// A fresh paper-shaped cluster (8 nodes × 8 cores) with laptop-scaled
/// memory so the paper's memory walls appear at the scaled dimensions.
pub fn fresh_cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::scaled_cluster())
}

/// Ideal reconstruction error for a dataset: a long sPCA-Spark reference
/// run (the paper: "the ideal accuracy that can be achieved with 50
/// principal components after a large number of iterations").
pub fn ideal_error(y: &SparseMat, d: usize, seed: u64) -> f64 {
    let cluster = fresh_cluster();
    let config = SpcaConfig::new(d)
        .with_max_iters(25)
        .with_rel_tolerance(Some(1e-5))
        .with_seed(seed)
        .with_partitions(16);
    Spca::new(config)
        .fit_spark(&cluster, y)
        .expect("reference run must succeed")
        .final_error()
}

/// Formats seconds the way the paper's tables do (whole seconds), with
/// millisecond precision below one second.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{secs:.3}")
    } else if secs < 10.0 {
        format!("{secs:.1}")
    } else {
        format!("{:.0}", secs.round())
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders as text, one line per row.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out
        };
        let sep = {
            let mut out = String::from("|");
            for w in &widths {
                out.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            out
        };
        let mut out = format!("{}\n{sep}\n", line(&self.headers));
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MB");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.0123), "0.012");
        assert_eq!(fmt_secs(3.04), "3.0");
        assert_eq!(fmt_secs(123.7), "124");
    }

    #[test]
    fn table_renders_without_panic() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.render(), "| a | bb |\n|---|----|\n| 1 | 2  |\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn ideal_error_is_finite_and_reachable() {
        let y = data::tweets(400, 200, 1);
        let ideal = ideal_error(&y, 5, 1);
        assert!(ideal.is_finite() && ideal > 0.0);
        let target = spca_core::accuracy::target_error_for(ideal, 95.0);
        assert!(target > ideal);
    }
}
