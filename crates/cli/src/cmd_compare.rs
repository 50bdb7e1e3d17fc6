//! `limba compare`: verify a tuning change by comparing two tracefiles.

use limba_analysis::compare::compare_runs;
use limba_stats::dispersion::DispersionKind;

use crate::args::{parse, Flags};
use crate::tracefile::fold_trace;

/// Folds one tracefile into its strict reduction's measurements.
fn measurements(path: &str) -> Result<limba_model::Measurements, String> {
    let fold = limba_trace::ReduceSink::new(limba_model::ActivitySet::standard());
    let reduce = limba_trace::reduce;
    let reduced = fold_trace(path, "auto", fold, None, |f| f.into_reduced(), reduce)?;
    Ok(reduced.measurements)
}

/// The flags `compare` accepts.
const FLAGS: Flags = Flags {
    command: "compare",
    options: &[&["tolerance"]],
    switches: &[],
};

/// Runs `limba compare <before.trace> <after.trace> [--tolerance F]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed = parse(argv, &FLAGS)?;
    let [before_path, after_path] = parsed.positional.as_slice() else {
        return Err("compare needs exactly two tracefile paths".into());
    };
    let tolerance: f64 = parsed.get_or("tolerance", 0.02)?;

    let before = measurements(before_path)?;
    let after = measurements(after_path)?;
    let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, tolerance)
        .map_err(|e| e.to_string())?;

    outln!("whole-program speedup: {:.3}x", cmp.total_speedup);
    outln!(
        "\n{:<20} {:>10} {:>10} {:>8} {:>9} {:>9}  verdict",
        "region",
        "before",
        "after",
        "speedup",
        "ID before",
        "ID after"
    );
    for d in &cmp.regions {
        outln!(
            "{:<20} {:>9.3}s {:>9.3}s {:>7.2}x {:>9.4} {:>9.4}  {:?}",
            d.name,
            d.before_seconds,
            d.after_seconds,
            d.speedup,
            d.before_id,
            d.after_id,
            d.verdict
        );
    }
    outln!("\nactivity dispersion (weighted ID_A):");
    for (kind, b, a) in &cmp.activity_ids {
        outln!("  {kind:<16} {b:.5} -> {a:.5}");
    }
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        outln!("\nno regressions.");
    } else {
        outln!("\nREGRESSIONS:");
        for d in regressions {
            outln!("  {} ({:.2}x)", d.name, d.speedup);
        }
    }
    Ok(crate::CmdOutcome::Complete)
}
