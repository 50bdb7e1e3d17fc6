//! Ready-made fault plans for chaos experiments on the workloads.
//!
//! A preset is a [`FaultPlan`] template scaled to a rank count and a
//! time *horizon* — normally the makespan of a fault-free run of the
//! same program, so windows and crash times land inside the execution
//! instead of depending on absolute workload-specific timings. The CLI
//! (`limba simulate --faults preset:<name>`) measures the horizon with
//! a clean run first; both runs are deterministic, so the whole recipe
//! reproduces bit-identically.

use limba_mpisim::FaultPlan;

/// Names accepted by [`preset`].
pub const PRESETS: &[&str] = &[
    "straggler",
    "degraded-link",
    "flaky-network",
    "crash",
    "chaos",
];

/// One-line summary per preset, in [`PRESETS`] order — what the CLI
/// prints for `--faults list`.
pub const PRESET_SUMMARIES: &[(&str, &str)] = &[
    (
        "straggler",
        "the middle rank computes at 1/3 speed all run long",
    ),
    (
        "degraded-link",
        "the 0 -> 1 link suffers 8x latency and 1/4 bandwidth through the middle half",
    ),
    (
        "flaky-network",
        "every channel loses 5% of transmission attempts (up to 4 retries)",
    ),
    (
        "crash",
        "the last rank fail-stops halfway through, interrupting its peers",
    ),
    ("chaos", "all of the above at once"),
];

/// Builds the named fault-plan preset for a machine of `ranks` ranks
/// and a run expected to span roughly `[0, horizon]` seconds. Returns
/// `None` for unknown names (see [`PRESETS`]).
///
/// * `straggler` — the middle rank computes at 1/3 speed all run long,
///   the paper's slow-node scenario;
/// * `degraded-link` — the `0 → 1` link suffers 8× latency and 1/4
///   bandwidth through the middle half of the run;
/// * `flaky-network` — every channel loses 5% of transmission attempts
///   (up to 4 retries, exponential backoff);
/// * `crash` — the last rank fail-stops halfway through, truncating its
///   trace and interrupting everyone waiting on it;
/// * `chaos` — all of the above at once.
pub fn preset(name: &str, ranks: usize, horizon: f64) -> Option<FaultPlan> {
    let horizon = if horizon.is_finite() && horizon > 0.0 {
        horizon
    } else {
        1.0
    };
    let mid = ranks / 2;
    let last = ranks.saturating_sub(1);
    let straggler = |p: FaultPlan| p.with_slowdown(mid, 0.0, horizon, 3.0);
    let degraded = |p: FaultPlan| {
        if ranks > 1 {
            p.with_link_fault(0, 1, horizon * 0.25, horizon * 0.75, 8.0, 4.0)
        } else {
            p
        }
    };
    let flaky = |p: FaultPlan| p.with_message_loss(0.05, 4, horizon * 0.01, 2.0);
    let crash = |p: FaultPlan| p.with_crash(last, horizon * 0.5);
    Some(match name {
        "straggler" => straggler(FaultPlan::new(1)),
        "degraded-link" => degraded(FaultPlan::new(2)),
        "flaky-network" => flaky(FaultPlan::new(3)),
        "crash" => crash(FaultPlan::new(4)),
        "chaos" => crash(flaky(degraded(straggler(FaultPlan::new(5))))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_validates() {
        for &name in PRESETS {
            for ranks in [1, 2, 16] {
                let plan =
                    preset(name, ranks, 2.0).unwrap_or_else(|| panic!("preset {name} missing"));
                plan.validate(ranks)
                    .unwrap_or_else(|e| panic!("preset {name} on {ranks} ranks: {e}"));
                // A single-rank machine has no links to degrade.
                if ranks > 1 {
                    assert!(!plan.is_empty(), "preset {name} injects nothing");
                }
            }
        }
        assert!(preset("hurricane", 4, 1.0).is_none());
    }

    #[test]
    fn summaries_cover_every_preset_in_order() {
        let summarized: Vec<&str> = PRESET_SUMMARIES.iter().map(|&(name, _)| name).collect();
        assert_eq!(summarized, PRESETS);
        for &(_, summary) in PRESET_SUMMARIES {
            assert!(!summary.is_empty());
        }
    }

    #[test]
    fn degenerate_horizons_fall_back_to_a_unit_window() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = preset("chaos", 8, bad).unwrap();
            plan.validate(8).unwrap();
        }
    }

    #[test]
    fn presets_perturb_a_real_workload_run() {
        use crate::cfd::CfdConfig;
        use limba_mpisim::{MachineConfig, Simulator};
        let program = CfdConfig::new(8)
            .with_iterations(1)
            .build_program()
            .unwrap();
        let sim = Simulator::new(MachineConfig::new(8));
        let clean = sim.run(&program).unwrap();
        let horizon = clean.stats.makespan;
        let plan = preset("straggler", 8, horizon).unwrap();
        let faulted = sim
            .run_configured(&program, Some(&plan), None, None)
            .unwrap();
        assert!(faulted.stats.makespan > clean.stats.makespan);
        assert!(faulted.faults.crashes.is_empty());
        let crash = preset("crash", 8, horizon).unwrap();
        let crashed = sim
            .run_configured(&program, Some(&crash), None, None)
            .unwrap();
        assert_eq!(crashed.faults.crashes.len(), 1);
        assert_eq!(crashed.faults.crashes[0].0, 7);
    }
}
