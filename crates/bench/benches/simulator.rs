//! Benchmarks of the message-passing simulator: ops-per-second on the
//! workload suite and scaling with rank count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use limba_mpisim::{MachineConfig, Simulator};
use limba_workloads::{
    cfd::CfdConfig, irregular::IrregularConfig, master_worker::MasterWorkerConfig,
    pipeline::PipelineConfig, stencil::StencilConfig, Imbalance,
};

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_workloads");
    let jitter = Imbalance::RandomJitter { amplitude: 0.2 };
    let programs = vec![
        (
            "cfd_16r_2it",
            CfdConfig::new(16)
                .with_iterations(2)
                .with_imbalance(jitter)
                .build_program()
                .unwrap(),
            16usize,
        ),
        (
            "stencil_4x4_10it",
            StencilConfig::new(4, 4)
                .with_imbalance(jitter)
                .build_program()
                .unwrap(),
            16,
        ),
        (
            "master_worker_16r",
            MasterWorkerConfig::new(16)
                .with_tasks(64)
                .with_imbalance(jitter)
                .build_program()
                .unwrap(),
            16,
        ),
        (
            "pipeline_16s_32i",
            PipelineConfig::new(16)
                .with_items(32)
                .with_imbalance(jitter)
                .build_program()
                .unwrap(),
            16,
        ),
        (
            "irregular_16r_8s",
            IrregularConfig::new(16)
                .with_steps(8)
                .with_imbalance(jitter)
                .build_program()
                .unwrap(),
            16,
        ),
    ];
    for (name, program, ranks) in programs {
        group.throughput(Throughput::Elements(program.total_ops() as u64));
        let sim = Simulator::new(MachineConfig::new(ranks));
        group.bench_with_input(BenchmarkId::from_parameter(name), &program, |b, p| {
            b.iter(|| sim.run(std::hint::black_box(p)).unwrap());
        });
    }
    group.finish();
}

fn bench_rank_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_rank_scaling");
    for &ranks in &[16usize, 64, 256] {
        let program = CfdConfig::new(ranks).build_program().unwrap();
        let sim = Simulator::new(MachineConfig::new(ranks));
        group.throughput(Throughput::Elements(program.total_ops() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &program, |b, p| {
            b.iter(|| sim.run(std::hint::black_box(p)).unwrap());
        });
    }
    group.finish();
}

/// Event-driven wakeup-list scheduler vs the reference polling scheduler
/// on the CFD proxy at growing rank counts. Both cores share the op
/// semantics and produce bit-identical traces, so the delta isolates the
/// scheduling cost: polling rescans all ranks every round, the event
/// engine only touches runnable ones.
fn bench_engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_engine");
    for &ranks in &[16usize, 64, 256] {
        let program = CfdConfig::new(ranks).build_program().unwrap();
        let sim = Simulator::new(MachineConfig::new(ranks));
        group.throughput(Throughput::Elements(program.total_ops() as u64));
        group.bench_with_input(BenchmarkId::new("event", ranks), &program, |b, p| {
            b.iter(|| sim.run(std::hint::black_box(p)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("polling", ranks), &program, |b, p| {
            b.iter(|| {
                sim.run_polling_configured(std::hint::black_box(p), None, None, None)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_workloads,
    bench_rank_scaling,
    bench_engine_comparison
);
criterion_main!(benches);
