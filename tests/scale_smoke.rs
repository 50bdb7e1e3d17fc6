//! Scale smoke test: the simulator's hot state is arena-backed and its
//! channel routing is sparse, so memory must grow sub-quadratically in
//! the rank count, and the engine triple must stay bit-identical at
//! thousands of ranks — not just at the 8–64 ranks the rest of the
//! suite exercises — and on every communication pattern at 64 ranks.
//!
//! The peak-footprint check uses a counting `GlobalAlloc` shim over the
//! system allocator. Everything runs inside one `#[test]` so the
//! bookkeeping is never interleaved with unrelated allocations from a
//! concurrent test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use limba::analysis::snapshot::canonical;
use limba::analysis::Analyzer;
use limba::mpisim::{MachineConfig, Program, SimOutput, Simulator};
use limba::workloads::{
    cfd::CfdConfig, fft::FftConfig, irregular::IrregularConfig, master_worker::MasterWorkerConfig,
    pipeline::PipelineConfig, stencil::StencilConfig, sweep::SweepConfig, Imbalance,
};

/// Tracks live bytes and the high-water mark across every allocation in
/// the test binary. `realloc`/`alloc_zeroed` use the default trait
/// implementations, which route through `alloc`/`dealloc`, so they are
/// tracked too.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result plus the peak number of bytes live
/// at any point during the call, net of what was already live before.
fn with_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (result, peak.saturating_sub(before))
}

fn cfd_program(ranks: usize) -> Program {
    CfdConfig::new(ranks)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 })
        .with_seed(2003)
        .build_program()
        .expect("cfd builds")
}

fn cfd_event_run(ranks: usize) -> SimOutput {
    Simulator::new(MachineConfig::new(ranks))
        .run(&cfd_program(ranks))
        .expect("event run")
}

fn canonical_digest(output: &SimOutput) -> String {
    let reduced = output.reduce().expect("reduce");
    let report = Analyzer::new()
        .analyze(&reduced.measurements)
        .expect("analyze");
    canonical(&report)
}

#[test]
fn thousands_of_ranks_stay_sub_quadratic_and_engine_identical() {
    // Memory scaling: quadruple the ranks and require the peak
    // footprint to grow by strictly less than 8x. Linear structures
    // (rank arenas, per-rank ops, trace events) grow ~4x; any dense
    // rank-pair table — the old channel index or fault sequence-number
    // matrix — would grow 16x and trip this immediately.
    let (out_1k, peak_1k) = with_peak(|| cfd_event_run(1024));
    drop(out_1k);
    let (out_4k, peak_4k) = with_peak(|| cfd_event_run(4096));
    assert!(peak_1k > 0, "allocator shim is not counting");
    let growth = peak_4k as f64 / peak_1k as f64;
    assert!(
        growth < 8.0,
        "peak footprint grew {growth:.1}x from 1k to 4k ranks \
         (peak_1k = {peak_1k} B, peak_4k = {peak_4k} B); \
         hot state is no longer sub-quadratic in the rank count"
    );

    // Engine triple: event, polling, and parallel event must agree byte
    // for byte, down to the canonical analysis digest — on the CFD proxy
    // from 16 to 4k ranks, one program of each communication pattern at
    // 64 ranks, and the stencil at 4k ranks.
    let jitter = Imbalance::RandomJitter { amplitude: 0.2 };
    let cases: Vec<(&str, Program)> = vec![
        ("cfd 16", cfd_program(16)),
        ("cfd 64", cfd_program(64)),
        ("cfd 256", cfd_program(256)),
        ("cfd 1k", cfd_program(1024)),
        (
            "stencil 8x8",
            StencilConfig::new(8, 8)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "master-worker 64",
            MasterWorkerConfig::new(64)
                .with_tasks(256)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "pipeline 64",
            PipelineConfig::new(64)
                .with_items(32)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "irregular 64",
            IrregularConfig::new(64)
                .with_steps(8)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "fft 64",
            FftConfig::new(64)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "sweep 64",
            SweepConfig::new(64)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
        (
            "stencil 64x64",
            StencilConfig::new(64, 64)
                .with_imbalance(jitter)
                .build_program()
                .expect("workload builds"),
        ),
    ];
    assert_engines_agree("cfd 4k", &cfd_program(4096), &out_4k);
    for (label, program) in &cases {
        let event = Simulator::new(MachineConfig::new(program.ranks()))
            .run(program)
            .expect("event run");
        assert_engines_agree(label, program, &event);
    }
}

/// Asserts that the polling and the parallel event engine (4 worker
/// threads) reproduce `event`, the event engine's run of `program`.
fn assert_engines_agree(label: &str, program: &Program, event: &SimOutput) {
    let sim = Simulator::new(MachineConfig::new(program.ranks()));
    let polling = sim
        .run_polling_configured(program, None, None, None)
        .expect("polling run");
    assert_eq!(
        event.trace, polling.trace,
        "{label}: polling trace diverges"
    );
    assert_eq!(event.stats, polling.stats, "{label}: polling stats diverge");
    let par = sim
        .run_parallel_configured(program, None, None, None, 4)
        .expect("parallel event run");
    assert_eq!(event.trace, par.trace, "{label}: event-par trace diverges");
    assert_eq!(event.stats, par.stats, "{label}: event-par stats diverge");
    assert_eq!(
        canonical_digest(event),
        canonical_digest(&polling),
        "{label}: canonical snapshot digest diverges between engines"
    );
}
