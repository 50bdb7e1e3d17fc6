//! `limba compare`: verify a tuning change by comparing two tracefiles.

use limba_analysis::compare::compare_runs;
use limba_stats::dispersion::DispersionKind;

use crate::args::parse;
use crate::cmd_analyze::load_trace_auto;

/// Runs `limba compare <before.trace> <after.trace> [--tolerance F]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed = parse(argv)?;
    let [before_path, after_path] = parsed.positional.as_slice() else {
        return Err("compare needs exactly two tracefile paths".into());
    };
    let tolerance: f64 = parsed.get_or("tolerance", 0.02)?;

    let before = limba_trace::reduce(&load_trace_auto(before_path)?)
        .map_err(|e| e.to_string())?
        .measurements;
    let after = limba_trace::reduce(&load_trace_auto(after_path)?)
        .map_err(|e| e.to_string())?
        .measurements;
    let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, tolerance)
        .map_err(|e| e.to_string())?;

    println!("whole-program speedup: {:.3}x", cmp.total_speedup);
    println!(
        "\n{:<20} {:>10} {:>10} {:>8} {:>9} {:>9}  verdict",
        "region", "before", "after", "speedup", "ID before", "ID after"
    );
    for d in &cmp.regions {
        println!(
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
    println!("\nactivity dispersion (weighted ID_A):");
    for (kind, b, a) in &cmp.activity_ids {
        println!("  {kind:<16} {b:.5} -> {a:.5}");
    }
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        println!("\nno regressions.");
    } else {
        println!("\nREGRESSIONS:");
        for d in regressions {
            println!("  {} ({:.2}x)", d.name, d.speedup);
        }
    }
    Ok(crate::CmdOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::{MachineConfig, Simulator};
    use limba_workloads::{cfd::CfdConfig, Imbalance};

    fn write_run(imbalance: Imbalance, name: &str) -> std::path::PathBuf {
        let program = CfdConfig::new(4)
            .with_imbalance(imbalance)
            .build_program()
            .unwrap();
        let out = Simulator::new(MachineConfig::new(4)).run(&program).unwrap();
        let path = std::env::temp_dir().join(name);
        limba_trace::binary::write(&out.trace, std::fs::File::create(&path).unwrap()).unwrap();
        path
    }

    #[test]
    fn compares_two_traces() {
        let before = write_run(
            Imbalance::Hotspot {
                rank: 1,
                factor: 3.0,
            },
            "limba-cmp-b.trace",
        );
        let after = write_run(Imbalance::None, "limba-cmp-a.trace");
        run(&[
            before.to_str().unwrap().to_string(),
            after.to_str().unwrap().to_string(),
        ])
        .unwrap();
        std::fs::remove_file(before).ok();
        std::fs::remove_file(after).ok();
    }

    #[test]
    fn wrong_arity_rejected() {
        assert!(run(&["only-one.trace".to_string()]).is_err());
    }
}
