//! Allocation guard for the event engine's one recorder: a
//! materializing run records into a `MaterializeSink`, which the engine
//! sizes through `TraceSink::reserve` with the program's event-count
//! hint right after `begin`. A crash-free 256-rank CFD run must
//! therefore allocate its event buffer once, at full size, and never
//! grow it; a run with a planned crash must make no full-run
//! reservation at all (its truncation point is unknown, so the buffer
//! grows on demand).
//!
//! The counting `GlobalAlloc` records, while armed, the largest block
//! requested and every reallocation of a block of at least
//! [`LARGE`] bytes. Nothing else a 256-rank run allocates reaches that
//! size and grows, so a large reallocation is the event buffer
//! growing. Everything runs inside one `#[test]` so no concurrent test
//! allocates while a run is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use limba::mpisim::{FaultPlan, MachineConfig, Program, SimOutput, Simulator};
use limba::trace::Event;
use limba::workloads::{cfd::CfdConfig, Imbalance};

/// Blocks at least this large that get reallocated are a growing
/// event buffer: above one 4,096-event frame (96 KiB).
const LARGE: usize = 128 * 1024;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LARGE_GROWTHS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        if ARMED.load(Ordering::Relaxed) && layout.size() >= LARGE && new_size > layout.size() {
            LARGE_GROWTHS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `program` materialized with the counters armed; returns the
/// output, the largest block requested and the large growths.
fn counted(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
) -> (SimOutput, usize, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    LARGE_GROWTHS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = sim.run_configured(program, faults, None, None);
    ARMED.store(false, Ordering::Relaxed);
    let out = out.expect("run");
    (
        out,
        LARGEST.load(Ordering::Relaxed),
        LARGE_GROWTHS.load(Ordering::Relaxed),
    )
}

#[test]
fn materialized_runs_reserve_once_and_only_without_a_planned_crash() {
    const RANKS: usize = 256;
    let program = CfdConfig::new(RANKS)
        .with_iterations(4)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .build_program()
        .expect("program");
    let sim = Simulator::new(MachineConfig::new(RANKS));
    let hint = program.event_capacity_hint();
    let reservation = hint * std::mem::size_of::<Event>();
    assert!(
        reservation >= 4 * LARGE,
        "the run must be large enough to show growth"
    );
    // Warm the engine's thread-local scratch so its setup is not counted.
    let warm = sim.run(&program).expect("warm-up run");

    let (out, largest, growths) = counted(&sim, &program, None);
    assert_eq!(out.trace, warm.trace);
    assert!(out.trace.events().len() <= hint);
    assert_eq!(
        largest, reservation,
        "the event buffer is reserved at full size"
    );
    assert_eq!(growths, 0, "the reserved event buffer never grows");

    // Rank 0 dies a third of the way in; the rest stop where they
    // wait on it.
    let plan = FaultPlan::new(7).with_crash(0, 0.3 * warm.stats.makespan);
    let (crashed, largest, growths) = counted(&sim, &program, Some(&plan));
    assert_eq!(crashed.faults.crashes.len(), 1);
    assert!(
        2 * crashed.trace.events().len() < hint,
        "the crash must truncate the run"
    );
    assert!(
        largest < reservation,
        "no full-run reservation with a crash planned"
    );
    assert!(growths > 0, "the truncated run's buffer grows on demand");
}
