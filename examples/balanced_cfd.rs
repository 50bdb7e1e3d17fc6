//! In-loop dynamic load balancing: run the skewed CFD proxy under each
//! of the three policies, compare against the unbalanced run, and
//! render the migration ledger — the workflow behind
//! `limba simulate cfd --balance preset:stealing`.
//!
//! ```sh
//! cargo run --example balanced_cfd
//! ```

use limba::analysis::Analyzer;
use limba::mpisim::{BalancePlan, MachineConfig, Simulator};
use limba::workloads::cfd::CfdConfig;
use limba::workloads::Imbalance;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The CFD proxy with a strong linear skew: the last rank gets 25%
    // more work than nominal, the first 25% less. Exactly the shape
    // in-loop balancing exists for.
    let ranks = 8;
    let program = CfdConfig::new(ranks)
        .with_iterations(3)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.5 })
        .build_program()?;
    let sim = Simulator::new(MachineConfig::new(ranks));

    let base = sim.run(&program)?;
    println!("unbalanced makespan: {:.4} s", base.stats.makespan);

    // Three policies, one contract: at every compute boundary the
    // policy sees the shared load view and proposes migrations; the
    // executor accepts only strictly profitable ones, so a balanced
    // run is never slower than the unbalanced one. Decisions are pure
    // functions of (policy state, load view, SplitMix64 seed) — both
    // engines replay them bit-identically, and `run_polling_configured`
    // would produce the same trace byte for byte.
    let plans = [
        BalancePlan::stealing(2003, 1.15),
        BalancePlan::diffusion(2003, 0.5),
        BalancePlan::anticipatory(2003, 8, 0.25),
    ];
    let mut best: Option<(BalancePlan, f64)> = None;
    for plan in plans {
        let out = sim.run_configured(&program, None, Some(&plan), None)?;
        println!(
            "{:<32} makespan {:.4} s  ({} migrations, {:.3} nominal s moved, {} declined)",
            plan.summary(),
            out.stats.makespan,
            out.balance.migrations,
            out.balance.moved_seconds,
            out.balance.declined
        );
        if best.as_ref().is_none_or(|(_, m)| out.stats.makespan < *m) {
            best = Some((plan, out.stats.makespan));
        }
    }

    // Re-run the winner and show the full report: the standard
    // methodology plus the "rebalancing actions" section with the
    // per-rank local/donated/received ledger. The ledger conserves
    // work exactly — donated == received == moved.
    let (winner, makespan) = best.expect("three plans ran");
    println!(
        "\nbest policy: {} ({:+.2}% vs unbalanced)\n",
        winner.summary(),
        (base.stats.makespan - makespan) / base.stats.makespan * 100.0
    );
    let out = sim.run_configured(&program, None, Some(&winner), None)?;
    let salvaged = out.reduce_checked()?;
    let report = Analyzer::new()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)?;
    print!(
        "{}",
        limba::viz::report::render_with_balance(&report, &out.balance, &salvaged.coverage)
    );
    Ok(())
}
