//! Allocation guard for the analysis core: the views walk each region's
//! per-processor columns in place and `Measurements` computes its
//! marginals once, so a whole `analyze_with_counts` run allocates per
//! region and per activity, never per processor. The same 7-region ×
//! 4-activity program at 1,024 and at 65,536 processors must allocate
//! the same number of times, give or take one per region (a region's
//! most imbalanced processor opens its entry in the findings' per-
//! processor region lists).
//!
//! The count comes from a counting `GlobalAlloc` over the system
//! allocator and is exact, so the check needs no timing. Everything
//! runs inside one `#[test]` so no concurrent test allocates while the
//! analysis is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use limba::analysis::Analyzer;
use limba::model::{
    ActivityKind, CountKind, CountMatrix, CountMatrixBuilder, Measurements, MeasurementsBuilder,
    RegionId, STANDARD_ACTIVITIES,
};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` in the test
/// binary.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const REGIONS: usize = 7;

/// A 7-region program on `processors` processors (a multiple of 4).
/// Times repeat with period 4 across processors and are multiples of
/// 1/4, so every sum is exact and every marginal — hence the
/// clustering's input — is the same at any processor count. Regions
/// differ in which activities they perform.
fn program(processors: usize) -> (Measurements, CountMatrix) {
    let mut b = MeasurementsBuilder::new(processors);
    let mut counts = CountMatrixBuilder::new(processors);
    for i in 0..REGIONS {
        let r = b.add_region(format!("loop {}", i + 1));
        for (j, kind) in STANDARD_ACTIVITIES.into_iter().enumerate() {
            if kind == ActivityKind::Synchronization && i % 3 != 0 {
                continue;
            }
            for p in 0..processors {
                let quarters = 1 + (i + j + p % 4) % 4 + i;
                b.record(r, kind, p, quarters as f64 / 4.0).expect("record");
            }
        }
        for p in 0..processors {
            let bytes = (1 + (i + p) % 4) as f64 * 1024.0;
            counts
                .record(RegionId::new(i), CountKind::BytesSent, p, bytes)
                .expect("count");
        }
    }
    (b.build().expect("build"), counts.build())
}

/// Allocations made by one default `analyze_with_counts` run.
fn analysis_allocations(processors: usize) -> u64 {
    let (measurements, counts) = program(processors);
    let analyzer = Analyzer::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = analyzer
        .analyze_with_counts(&measurements, &counts)
        .expect("analyze");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.processor_view.id[0].len(), processors);
    allocations
}

#[test]
fn analysis_allocations_do_not_grow_with_the_processor_count() {
    let small = analysis_allocations(1024);
    let large = analysis_allocations(65_536);
    assert!(
        large.abs_diff(small) <= REGIONS as u64,
        "analyze_with_counts allocated {small} times at P = 1024 and {large} times at P = 65536"
    );
}
