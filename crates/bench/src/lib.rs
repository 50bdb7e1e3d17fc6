//! Shared helpers for the `repro_*` binaries: `repro_all` checks every
//! table, figure and in-text claim of the paper, the others run the
//! studies beyond it.

use limba_analysis::{Analyzer, Report};
use limba_model::Measurements;
use limba_mpisim::{MachineConfig, SimOutput, Simulator};
use limba_workloads::{cfd::CfdConfig, Imbalance};

/// Analysis report of the calibrated paper reconstruction (loops only).
pub fn paper_report() -> Report {
    let m = limba_calibrate::paper::paper_measurements().expect("paper data calibrates");
    Analyzer::new().analyze(&m).expect("paper data analyzes")
}

/// Analysis report of the reconstruction including the unmeasured
/// remainder region (for the scaled indices of Tables 3–4).
pub fn paper_report_with_tail() -> Report {
    let m = limba_calibrate::paper::paper_measurements_with_tail().expect("paper data calibrates");
    Analyzer::new().analyze(&m).expect("paper data analyzes")
}

/// Simulates the CFD proxy on the default 16-rank machine with a mild
/// stochastic imbalance — the "organic" counterpart of the calibrated
/// reconstruction.
pub fn simulated_cfd(iterations: usize) -> SimOutput {
    let program = CfdConfig::new(16)
        .with_iterations(iterations)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.25 })
        .with_seed(2003)
        .build_program()
        .expect("cfd proxy builds");
    Simulator::new(MachineConfig::new(16))
        .run(&program)
        .expect("cfd proxy runs")
}

/// Measurements of the simulated CFD proxy.
pub fn simulated_cfd_measurements(iterations: usize) -> Measurements {
    simulated_cfd(iterations)
        .reduce()
        .expect("cfd trace reduces")
        .measurements
}

/// Formats a paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: f64, measured: f64) -> String {
    let delta = measured - paper;
    format!("{label:<28} paper {paper:>9.5}   measured {measured:>9.5}   delta {delta:>+9.5}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_report_has_the_seven_loops() {
        let r = paper_report();
        assert_eq!(r.profile.regions.len(), 7);
    }

    #[test]
    fn simulated_cfd_has_paper_structure() {
        let m = simulated_cfd_measurements(1);
        assert_eq!(m.regions(), 7);
        assert_eq!(m.processors(), 16);
    }

    #[test]
    fn compare_line_formats() {
        let line = compare_line("x", 1.0, 1.5);
        assert!(line.contains("+0.5"));
    }
}
