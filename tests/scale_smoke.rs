//! Scale smoke test: the simulator's hot state is arena-backed and its
//! channel routing is sparse, so memory must grow sub-quadratically in
//! the rank count, and the engine triple must stay bit-identical at
//! thousands of ranks — not just at the 8–64 ranks the rest of the
//! suite exercises.
//!
//! The peak-footprint check uses a counting `GlobalAlloc` shim over the
//! system allocator. Everything runs inside one `#[test]` so the
//! bookkeeping is never interleaved with unrelated allocations from a
//! concurrent test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use limba::analysis::snapshot::canonical;
use limba::analysis::Analyzer;
use limba::mpisim::{MachineConfig, SimOutput, Simulator};
use limba::workloads::{cfd::CfdConfig, Imbalance};

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

fn cfd_event_run(ranks: usize) -> SimOutput {
    let program = CfdConfig::new(ranks)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 })
        .with_seed(2003)
        .build_program()
        .expect("cfd builds");
    Simulator::new(MachineConfig::new(ranks))
        .run(&program)
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

    // Engine triple at 4k ranks: event, polling, and parallel event
    // must agree byte for byte, down to the canonical analysis digest.
    let ranks = 4096usize;
    let program = CfdConfig::new(ranks)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 })
        .with_seed(2003)
        .build_program()
        .expect("cfd builds");
    let sim = Simulator::new(MachineConfig::new(ranks));
    let polling = sim
        .run_polling_configured(&program, None, None, None)
        .expect("polling run");
    assert_eq!(out_4k.trace, polling.trace, "4k: polling trace diverges");
    assert_eq!(out_4k.stats, polling.stats, "4k: polling stats diverge");
    let par = sim
        .run_parallel_configured(&program, None, None, None, 4)
        .expect("parallel event run");
    assert_eq!(out_4k.trace, par.trace, "4k: event-par trace diverges");
    assert_eq!(out_4k.stats, par.stats, "4k: event-par stats diverge");
    assert_eq!(
        canonical_digest(&out_4k),
        canonical_digest(&polling),
        "4k: canonical snapshot digest diverges between engines"
    );
}
