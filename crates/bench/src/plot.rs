//! Terminal scatter plots for the accuracy-vs-time figures.
//!
//! The paper's Figures 4–5 are line charts; `paper` prints both the raw
//! series (for regeneration elsewhere) and this quick ASCII rendering so the
//! shape is visible straight from the terminal.

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from a name and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

const MARKERS: [char; 6] = ['o', 'x', '+', '*', '#', '@'];

/// Renders the series into a `width`×`height` character grid with axis
/// ranges derived from the data. `log_x` plots x on a log₁₀ scale (the
/// paper's Figures 5 and 6 use log axes).
pub fn render_xy(series: &[Series], width: usize, height: usize, log_x: bool) -> String {
    assert!(width >= 16 && height >= 4, "plot area too small");
    let xform = |x: f64| if log_x { x.max(1e-12).log10() } else { x };

    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, y)| (xform(x), y)))
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for &(x, y) in &s.points {
            let xr = (xform(x) - x_min) / (x_max - x_min);
            let yr = (y - y_min) / (y_max - y_min);
            let col = (xr * (width - 1) as f64).round() as usize;
            let row = height - 1 - (yr * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = marker;
        }
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{y_max:>9.1} |")
        } else if r == height - 1 {
            format!("{y_min:>9.1} |")
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10}+{}\n", "", "-".repeat(width)));
    let x_lo = if log_x { 10f64.powf(x_min) } else { x_min };
    let x_hi = if log_x { 10f64.powf(x_max) } else { x_max };
    out.push_str(&format!(
        "{:>11}{:<.1}{}{:>.1}{}\n",
        "",
        x_lo,
        " ".repeat(width.saturating_sub(16)),
        x_hi,
        if log_x { "  (log x)" } else { "" }
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", MARKERS[si % MARKERS.len()], s.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markers_and_legend() {
        let s = vec![
            Series::new("first", vec![(0.0, 0.0), (10.0, 100.0)]),
            Series::new("second", vec![(5.0, 50.0)]),
        ];
        let out = render_xy(&s, 40, 10, false);
        assert!(out.contains('o'));
        assert!(out.contains('x'));
        assert!(out.contains("first"));
        assert!(out.contains("second"));
        assert_eq!(out.lines().count(), 10 + 2 + 2);
    }

    #[test]
    fn log_axis_compresses_decades() {
        let s = vec![Series::new("wide", vec![(1.0, 1.0), (10.0, 2.0), (10_000.0, 3.0)])];
        let out = render_xy(&s, 60, 8, true);
        assert!(out.contains("(log x)"));
    }

    #[test]
    fn empty_series_do_not_panic() {
        let out = render_xy(&[Series::new("empty", vec![])], 30, 6, false);
        assert!(out.contains("no data"));
    }

    #[test]
    fn constant_series_do_not_divide_by_zero() {
        let s = vec![Series::new("flat", vec![(1.0, 5.0), (2.0, 5.0)])];
        let out = render_xy(&s, 30, 6, false);
        assert!(out.contains('o'));
    }
}
