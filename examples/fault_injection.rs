//! Fault injection: perturb a run with stragglers, a lossy network,
//! and a crashed rank, then analyze what is left of the trace.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use limba::analysis::Analyzer;
use limba::mpisim::{FaultPlan, MachineConfig, Simulator};
use limba::workloads::cfd::CfdConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's CFD proxy on a 16-rank machine.
    let ranks = 16;
    let program = CfdConfig::new(ranks).with_iterations(3).build_program()?;
    let sim = Simulator::new(MachineConfig::new(ranks));

    // A clean run first: its makespan anchors the fault windows.
    let clean = sim.run(&program)?;
    let horizon = clean.stats.makespan;
    println!("clean makespan:   {horizon:.4} s");

    // The fault plan. Plans can also be parsed from TOML files
    // (`FaultPlan::parse_toml`, or `limba simulate --faults plan.toml`)
    // or taken from canned presets (`--faults preset:chaos`); this one
    // is built in code:
    //  * rank 8 computes at half speed through the first half of the
    //    run (an OS-jitter straggler);
    //  * every channel loses 5% of transmission attempts, retried with
    //    exponential backoff;
    //  * rank 15 fail-stops at 85% of the clean makespan.
    let plan = FaultPlan::new(2003)
        .with_slowdown(8, 0.0, horizon * 0.5, 2.0)
        .with_message_loss(0.05, 4, horizon * 0.01, 2.0)
        .with_crash(15, horizon * 0.85);

    // Same program, same machine, faulted run. Both engines honor the
    // plan bit-identically — `run_polling_configured` would produce
    // the same trace byte for byte.
    let faulted = sim.run_configured(&program, Some(&plan), None, None)?;
    println!("faulted makespan: {:.4} s", faulted.stats.makespan);
    let report = &faulted.faults;
    for &(rank, time) in &report.crashes {
        println!("rank {rank} crashed at {time:.4} s");
    }
    println!(
        "{} ranks interrupted, {} attempts dropped, {} messages retried",
        report.interrupted.len(),
        report.dropped_attempts,
        report.retried_messages
    );

    // The crash truncated rank 15's trace (and everyone blocked on it).
    // `reduce_checked` salvages the partial streams instead of erroring:
    // open regions are closed at each rank's last recorded event, and
    // the coverage table says whose measurements are lower bounds.
    let salvaged = faulted.reduce_checked()?;
    println!("truncated ranks:  {:?}", salvaged.incomplete_ranks());

    // The usual methodology runs unchanged on the salvaged matrix; the
    // rendered report gains a "data coverage" section.
    let analysis = Analyzer::new()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)?;
    println!(
        "\n{}",
        limba::viz::report::render_with_coverage(&analysis, &salvaged.coverage)
    );
    Ok(())
}
