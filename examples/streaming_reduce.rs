//! The streaming pipeline end to end: simulate → event batches →
//! windowed reduce → analyze, with no tracefile and no materialized
//! trace anywhere in between — then the same run through the classic
//! materializing path, to show the results are identical.
//!
//! ```sh
//! cargo run --example streaming_reduce
//! ```

use limba::analysis::Analyzer;
use limba::mpisim::{MachineConfig, Simulator};
use limba::stream::{stream_reduce, StreamConfig};
use limba::trace::{reduce_checked, reduce_windows};
use limba::workloads::{stencil::StencilConfig, Imbalance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ranks = 64;
    let windows = 8;
    let program = StencilConfig::new(8, 8)
        .with_iterations(6)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.6 })
        .build_program()?;
    let sim = Simulator::new(MachineConfig::new(ranks));

    // Streamed: the simulator hands its events, one batch of
    // `frame_events` at a time, straight to the reducing folds as rounds
    // retire. Memory stays O(frame + windows × ranks) no matter how
    // long the run is.
    let cfg = StreamConfig {
        frame_events: 1024,
        windows: Some(windows),
        ..StreamConfig::default()
    };
    let streamed = stream_reduce(&sim, &program, None, None, None, &cfg)?;
    println!(
        "streamed {} events ({} ranks) through frames of {}: makespan {:.4} s",
        streamed.scan.events, ranks, cfg.frame_events, streamed.output.stats.makespan
    );

    // Materialized: the reference path builds the full trace in memory,
    // then reduces it.
    let reference = sim.run(&program)?;
    let salvaged = reduce_checked(&reference.trace)?;
    let sliced = reduce_windows(&reference.trace, windows)?;

    // Same numbers, bit for bit.
    assert_eq!(streamed.output.stats, reference.stats);
    assert_eq!(
        streamed.salvaged.reduced.measurements,
        salvaged.reduced.measurements
    );
    assert_eq!(streamed.salvaged.reduced.counts, salvaged.reduced.counts);
    let windowed = streamed.windows.as_deref().expect("windows requested");
    assert_eq!(windowed.len(), sliced.len());
    for (s, m) in windowed.iter().zip(&sliced) {
        assert_eq!(s.measurements, m.measurements);
        assert_eq!(s.counts, m.counts);
    }
    println!("streamed reductions match the materialized path exactly");

    // The report comes out of the streamed fold alone.
    let report = Analyzer::new().with_cluster_k(0).analyze_with_counts(
        &streamed.salvaged.reduced.measurements,
        &streamed.salvaged.reduced.counts,
    )?;
    println!(
        "\ntotal time {:.2} s, heaviest region {:?}, dominant activity {}",
        report.coarse.total_seconds,
        report.coarse.heaviest_region_name,
        report.coarse.dominant_activity
    );
    for candidate in report.findings.tuning_candidates.iter().take(3) {
        println!("tuning candidate: {}", candidate.name);
    }

    // And the materialized analysis agrees with it.
    let reference_report = Analyzer::new()
        .with_cluster_k(0)
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)?;
    assert_eq!(
        limba::analysis::snapshot::canonical(&report),
        limba::analysis::snapshot::canonical(&reference_report)
    );
    println!("analysis report matches the materialized path exactly");
    Ok(())
}
