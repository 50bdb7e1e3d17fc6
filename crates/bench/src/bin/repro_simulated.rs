//! End-to-end "organic" reproduction: run the CFD proxy on the simulated
//! machine, reduce the trace, analyze it, and check that the paper's
//! qualitative story re-emerges from first principles (no calibration).
//! Exits 1 when any qualitative check fails.

#[macro_use]
extern crate limba_viz;

use limba_analysis::Analyzer;
use limba_bench::simulated_cfd;
use limba_model::ActivityKind;

fn main() -> std::process::ExitCode {
    outln!("=== End-to-end: CFD proxy on the simulated machine ===\n");
    let out = simulated_cfd(2);
    outln!(
        "simulated run: makespan {:.3} s, {} p2p messages, {} collectives",
        out.stats.makespan,
        out.stats.messages,
        out.stats.collectives
    );
    let reduced = out.reduce().expect("trace reduces");
    let report = Analyzer::new()
        .analyze(&reduced.measurements)
        .expect("analysis succeeds");

    let checks: Vec<(&str, bool)> = vec![
        (
            "loop 1 is the heaviest region",
            report.coarse.heaviest_region_name == "loop 1",
        ),
        (
            "computation is the dominant activity",
            report.coarse.dominant_activity == ActivityKind::Computation,
        ),
        (
            "loop 3 spends the longest in point-to-point",
            report
                .coarse
                .extremes
                .iter()
                .find(|e| e.kind == ActivityKind::PointToPoint)
                .map(|e| e.worst.1 == "loop 3")
                .unwrap_or(false),
        ),
        (
            "synchronization is the most imbalanced activity (raw ID_A)",
            report
                .findings
                .most_imbalanced_activity
                .map(|x| x.0 == ActivityKind::Synchronization)
                .unwrap_or(false),
        ),
        (
            "scaling by time share demotes synchronization",
            report
                .findings
                .most_imbalanced_activity_scaled
                .map(|x| x.0 != ActivityKind::Synchronization)
                .unwrap_or(false),
        ),
        (
            "the top tuning candidate is the heaviest loop",
            report
                .findings
                .tuning_candidates
                .first()
                .map(|c| c.is_heaviest)
                .unwrap_or(false),
        ),
    ];
    outln!();
    let mut pass = 0;
    for (label, ok) in &checks {
        outln!("[{}] {label}", if *ok { "PASS" } else { "FAIL" });
        if *ok {
            pass += 1;
        }
    }
    outln!("\n{pass}/{} qualitative checks hold", checks.len());
    outln!("\nfull report:\n");
    out!("{}", limba_viz::report::render(&report));
    limba_bench::exit_status(pass == checks.len())
}
