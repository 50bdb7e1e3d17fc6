//! End-to-end pipeline tests across crates: every workload simulates,
//! traces validate, reductions conserve time, and analyses recover the
//! injected imbalance.

use limba::analysis::Analyzer;
use limba::model::{ActivityKind, Measurements, ProcessorId};
use limba::mpisim::{MachineConfig, Program, SimOutput, Simulator};
use limba::workloads::{
    cfd::CfdConfig, irregular::IrregularConfig, master_worker::MasterWorkerConfig,
    pipeline::PipelineConfig, stencil::StencilConfig, Imbalance,
};

fn simulate(program: &Program, ranks: usize) -> SimOutput {
    Simulator::new(MachineConfig::new(ranks))
        .run(program)
        .unwrap()
}

fn all_programs(imbalance: Imbalance) -> Vec<(&'static str, Program, usize)> {
    vec![
        (
            "cfd",
            CfdConfig::new(8)
                .with_iterations(2)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
            8,
        ),
        (
            "stencil",
            StencilConfig::new(4, 2)
                .with_iterations(4)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
            8,
        ),
        (
            "master-worker",
            MasterWorkerConfig::new(8)
                .with_tasks(21)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
            8,
        ),
        (
            "pipeline",
            PipelineConfig::new(8)
                .with_items(10)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
            8,
        ),
        (
            "irregular",
            IrregularConfig::new(8)
                .with_steps(3)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
            8,
        ),
    ]
}

#[test]
fn every_workload_traces_validate_and_analyze() {
    for (name, program, ranks) in all_programs(Imbalance::RandomJitter { amplitude: 0.2 }) {
        let out = simulate(&program, ranks);
        out.trace
            .validate()
            .unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        let reduced = out
            .reduce()
            .unwrap_or_else(|e| panic!("{name}: reduce failed: {e}"));
        let report = Analyzer::new()
            .with_cluster_k(0)
            .analyze(&reduced.measurements)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert!(report.coarse.total_seconds > 0.0, "{name}: empty profile");
        assert!(
            !report.findings.tuning_candidates.is_empty(),
            "{name}: no tuning candidate"
        );
    }
}

#[test]
fn event_par_engine_runs_the_whole_pipeline_end_to_end() {
    // The parallel event engine through the same full pipeline the
    // sequential engines get: simulate → validate → reduce → analyze,
    // at multiple worker counts, bit-identical to the sequential run.
    for (name, program, ranks) in all_programs(Imbalance::RandomJitter { amplitude: 0.2 }) {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let seq = sim.run(&program).unwrap();
        for jobs in [2usize, 4] {
            let par = sim
                .run_parallel_configured(&program, None, None, None, jobs)
                .unwrap_or_else(|e| panic!("{name}: event-par({jobs}) failed: {e}"));
            par.trace
                .validate()
                .unwrap_or_else(|e| panic!("{name}: event-par({jobs}) invalid trace: {e}"));
            assert_eq!(
                par.trace, seq.trace,
                "{name}: event-par({jobs}) trace diverges"
            );
            assert_eq!(
                par.stats, seq.stats,
                "{name}: event-par({jobs}) stats diverge"
            );
            let reduced = par
                .reduce()
                .unwrap_or_else(|e| panic!("{name}: event-par({jobs}) reduce failed: {e}"));
            let report = Analyzer::new()
                .with_cluster_k(0)
                .analyze(&reduced.measurements)
                .unwrap_or_else(|e| panic!("{name}: event-par({jobs}) analysis failed: {e}"));
            assert!(
                report.coarse.total_seconds > 0.0,
                "{name}: event-par({jobs}) empty profile"
            );
            assert!(
                !report.findings.tuning_candidates.is_empty(),
                "{name}: event-par({jobs}) no tuning candidate"
            );
        }
    }
}

#[test]
fn per_processor_time_is_bounded_by_makespan() {
    for (name, program, ranks) in all_programs(Imbalance::LinearSkew { spread: 0.5 }) {
        let out = simulate(&program, ranks);
        let m = out.reduce().unwrap().measurements;
        for p in m.processor_ids() {
            let t = m.processor_time(p);
            assert!(
                t <= out.stats.makespan + 1e-9,
                "{name}: {p} accumulated {t} > makespan {}",
                out.stats.makespan
            );
        }
    }
}

#[test]
fn reduction_conserves_rank_end_times() {
    // A processor's total attributed time equals its end time when it is
    // never idle outside regions — true for cfd, whose ranks enter a
    // region immediately and only idle inside blocking ops.
    let program = CfdConfig::new(4).build_program().unwrap();
    let out = simulate(&program, 4);
    let m = out.reduce().unwrap().measurements;
    for (p, &end) in out.stats.rank_end_times.iter().enumerate() {
        let attributed = m.processor_time(ProcessorId::new(p));
        assert!(
            (attributed - end).abs() < 1e-9,
            "rank {p}: attributed {attributed} vs end {end}"
        );
    }
}

fn computation_slice(m: &Measurements) -> &[f64] {
    m.processor_slice(limba::model::RegionId::new(0), ActivityKind::Computation)
        .expect("region 0 computes")
}

#[test]
fn injected_imbalance_raises_every_index() {
    use limba::stats::dispersion::{DispersionIndex, DispersionKind};
    let balanced = CfdConfig::new(8).build_program().unwrap();
    let skewed = CfdConfig::new(8)
        .with_imbalance(Imbalance::BlockSkew {
            heavy: 2,
            factor: 3.0,
        })
        .build_program()
        .unwrap();
    let mb = simulate(&balanced, 8).reduce().unwrap().measurements;
    let ms = simulate(&skewed, 8).reduce().unwrap().measurements;
    for kind in DispersionKind::ALL {
        let b = kind.index(computation_slice(&mb)).unwrap();
        let s = kind.index(computation_slice(&ms)).unwrap();
        assert!(s > b, "{kind}: skewed {s} not above balanced {b}");
    }
}

#[test]
fn analysis_recovers_the_hotspot_rank() {
    // A hotspot subdomain should make its processor the one with the
    // largest computation time, and the region containing the compute
    // the top tuning candidate.
    let program = StencilConfig::new(3, 3)
        .with_iterations(4)
        .with_imbalance(Imbalance::Hotspot {
            rank: 4,
            factor: 4.0,
        })
        .build_program()
        .unwrap();
    let out = simulate(&program, 9);
    let m = out.reduce().unwrap().measurements;
    let report = Analyzer::new().with_cluster_k(0).analyze(&m).unwrap();
    let compute_region = limba::model::RegionId::new(1); // "stencil update"
    let slice = m
        .processor_slice(compute_region, ActivityKind::Computation)
        .unwrap();
    let hottest = slice
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    assert_eq!(hottest, 4);
    assert_eq!(report.findings.tuning_candidates[0].name, "stencil update");
}

#[test]
fn deeper_runs_scale_but_preserve_relative_shape() {
    let short = simulate(
        &CfdConfig::new(4)
            .with_iterations(1)
            .build_program()
            .unwrap(),
        4,
    );
    let long = simulate(
        &CfdConfig::new(4)
            .with_iterations(4)
            .build_program()
            .unwrap(),
        4,
    );
    let ms = short.reduce().unwrap().measurements;
    let ml = long.reduce().unwrap().measurements;
    let rs = Analyzer::new().with_cluster_k(0).analyze(&ms).unwrap();
    let rl = Analyzer::new().with_cluster_k(0).analyze(&ml).unwrap();
    // Same heaviest region and dominant activity at any depth.
    assert_eq!(
        rs.coarse.heaviest_region_name,
        rl.coarse.heaviest_region_name
    );
    assert_eq!(rs.coarse.dominant_activity, rl.coarse.dominant_activity);
    // Time scales ~linearly with iterations.
    assert!(rl.coarse.total_seconds > 3.5 * rs.coarse.total_seconds);
}
