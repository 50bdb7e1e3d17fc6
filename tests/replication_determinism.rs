//! Determinism lock of the simulator replication sweeps: a seed-sweep is
//! the same set of runs no matter how many threads execute it and no
//! matter in which order the replications complete.

use std::sync::atomic::{AtomicUsize, Ordering};

use limba::mpisim::{MachineConfig, Program, Replication, SimError, Simulator};
use limba::par;
use limba::workloads::{cfd::CfdConfig, Imbalance};
use proptest::prelude::*;

fn cfd_program(ranks: usize, seed: u64) -> Result<Program, SimError> {
    CfdConfig::new(ranks)
        .with_iterations(1)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.3 })
        .with_seed(seed)
        .build_program()
        .map_err(|e| SimError::BuildFailed {
            detail: e.to_string(),
        })
}

/// Everything observable about a sweep, in replication order: seeds,
/// full traces, and summary statistics.
fn fingerprint(sweep: &[Result<Replication, SimError>]) -> Vec<String> {
    sweep
        .iter()
        .map(|r| {
            let r = r.as_ref().unwrap();
            format!(
                "{} {} {:?} {:?}",
                r.index, r.seed, r.output.stats, r.output.trace
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seed_sweep_is_bit_identical_across_thread_counts(
        root_seed in 0u64..1_000_000,
        replications in 1usize..6,
    ) {
        let sim = Simulator::new(MachineConfig::new(4));
        let reference = fingerprint(
            &sim.run_replications(replications, root_seed, 1, None, None, |_, seed| cfd_program(4, seed)),
        );
        for jobs in [2, 8] {
            let sweep = fingerprint(
                &sim.run_replications(replications, root_seed, jobs, None, None, |_, seed| cfd_program(4, seed)),
            );
            prop_assert_eq!(&sweep, &reference, "jobs={}", jobs);
        }
    }
}

#[test]
fn sweep_results_are_independent_of_completion_order() {
    // Stall whichever worker claims replication 0 until every other
    // replication has been built, forcing a completion order that is the
    // reverse of the index order.
    let sim = Simulator::new(MachineConfig::new(4));
    let reference =
        fingerprint(&sim.run_replications(6, 99, 1, None, None, |_, seed| cfd_program(4, seed)));
    let built = AtomicUsize::new(0);
    let skewed = sim.run_replications(6, 99, 6, None, None, |index, seed| {
        if index == 0 {
            while built.load(Ordering::SeqCst) < 5 {
                std::thread::yield_now();
            }
        }
        let program = cfd_program(4, seed);
        built.fetch_add(1, Ordering::SeqCst);
        program
    });
    assert_eq!(fingerprint(&skewed), reference);
}

#[test]
fn replication_seeds_match_derive_seed_exactly() {
    let sim = Simulator::new(MachineConfig::new(4));
    let sweep = sim.run_replications(5, 2003, 3, None, None, |_, seed| cfd_program(4, seed));
    for (i, r) in sweep.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap().seed, par::derive_seed(2003, i as u64));
    }
}

#[test]
fn sweep_analysis_is_jobs_invariant_end_to_end() {
    // Full pipeline: replicate → reduce → batch-analyze, locked
    // byte-for-byte. The sweep's measurement matrices feed the
    // BatchAnalyzer directly.
    use limba::analysis::snapshot::canonical;
    use limba::analysis::{Analyzer, BatchAnalyzer};
    use limba::model::Measurements;
    let sim = Simulator::new(MachineConfig::new(4));
    let render = |jobs: usize| -> Vec<String> {
        let matrices: Vec<Measurements> = sim
            .run_replications(4, 7, jobs, None, None, |_, seed| cfd_program(4, seed))
            .iter()
            .map(|r| r.as_ref().unwrap().output.reduce().unwrap().measurements)
            .collect();
        BatchAnalyzer::new(Analyzer::new())
            .with_jobs(jobs)
            .analyze_batch(&matrices)
            .iter()
            .map(|r| canonical(r.as_ref().unwrap()))
            .collect()
    };
    let reference = render(1);
    assert_eq!(render(4), reference);
}
