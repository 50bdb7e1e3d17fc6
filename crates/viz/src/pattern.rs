//! ASCII renderings of pattern diagrams (the paper's Figures 1 and 2).

use limba_analysis::patterns::PatternGrid;

/// Legend line explaining the glyphs.
pub(crate) const LEGEND: &str =
    "legend: M = maximum, + = upper 15%, . = middle, - = lower 15%, m = minimum";

/// Renders one pattern grid: one line per region, one glyph per
/// processor, mirroring the row-per-loop layout of the paper's figures.
///
/// # Example
///
/// ```
/// use limba_analysis::patterns::pattern_grid;
/// use limba_model::{ActivityKind, MeasurementsBuilder};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = MeasurementsBuilder::new(3);
/// let r = b.add_region("solve");
/// for (p, t) in [(0, 1.0), (1, 2.0), (2, 3.0)] {
///     b.record(r, ActivityKind::Computation, p, t)?;
/// }
/// let grid = pattern_grid(&b.build()?, ActivityKind::Computation);
/// let text = limba_viz::pattern::render(&grid);
/// assert!(text.contains("m.M"));
/// # Ok(())
/// # }
/// ```
pub fn render(grid: &PatternGrid) -> String {
    let name_width = grid
        .rows
        .iter()
        .map(|r| r.name.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = format!("{} patterns\n{LEGEND}\n", grid.activity);
    for row in &grid.rows {
        out.push_str(&format!("{:<name_width$}  ", row.name));
        for &bin in &row.bins {
            out.push(bin.glyph());
        }
        out.push('\n');
    }
    out
}

/// Renders a one-line summary of tail occupancy per region, e.g.
/// `"loop 4: 5/16 upper, 11/16 lower"` — the counts the paper reads off
/// its figures.
pub fn tail_summary(grid: &PatternGrid) -> String {
    let mut out = String::new();
    for row in &grid.rows {
        let n = row.bins.len();
        out.push_str(&format!(
            "{}: {}/{} upper, {}/{} lower\n",
            row.name,
            row.upper_tail_count(),
            n,
            row.lower_tail_count(),
            n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_analysis::patterns::pattern_grid;
    use limba_model::{ActivityKind, MeasurementsBuilder};

    fn grid() -> PatternGrid {
        let mut b = MeasurementsBuilder::new(4);
        let r0 = b.add_region("loop 1");
        let r1 = b.add_region("much longer name");
        for (p, t) in [(0, 1.0), (1, 5.0), (2, 2.0), (3, 4.6)] {
            b.record(r0, ActivityKind::Computation, p, t).unwrap();
        }
        for p in 0..4 {
            b.record(r1, ActivityKind::Computation, p, 2.0).unwrap();
        }
        pattern_grid(&b.build().unwrap(), ActivityKind::Computation)
    }

    #[test]
    fn render_contains_legend_and_rows() {
        let text = render(&grid());
        assert!(text.contains(LEGEND));
        assert!(text.contains("loop 1"));
        // Row 0: min, max, lower-ish?, upper tail: 1→m, 5→M, 2→.(range 4,
        // 2 is 0.25 into range → mid), 4.6 → + (0.9 into range).
        assert!(text.contains("mM.+"));
        // Balanced row renders all Mid.
        assert!(text.contains("...."));
    }

    #[test]
    fn tail_summary_counts() {
        let s = tail_summary(&grid());
        assert!(s.contains("loop 1: 2/4 upper, 1/4 lower"));
        assert!(s.contains("much longer name: 0/4 upper, 0/4 lower"));
    }

    #[test]
    fn empty_grid_renders_header() {
        let g = PatternGrid {
            activity: ActivityKind::Io,
            rows: vec![],
        };
        let text = render(&g);
        assert!(text.contains("io patterns"));
    }
}
