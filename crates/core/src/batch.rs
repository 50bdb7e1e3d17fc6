//! Batch analysis: fan a fleet of measurement matrices across a thread
//! pool, with per-item error isolation and a shared memoization cache.
//!
//! The paper's methodology is embarrassingly parallel across runs: each
//! trace's `t_ijp` matrix is analyzed independently, so a suite sweep or
//! a simulator seed-sweep is a textbook batch. [`BatchAnalyzer`] owns
//! that shape:
//!
//! * **bounded work-stealing** — items are distributed over up to
//!   `jobs` workers via an atomic claim counter ([`limba_par::par_map`]);
//!   results land in input-order slots, so the output `Vec` is
//!   bit-identical for every thread count;
//! * **error isolation** — one degenerate matrix yields an `Err` entry
//!   in its slot and never aborts the rest of the batch;
//! * **memoization** — results are cached under
//!   `(measurements digest, analyzer fingerprint)`, so re-analyzing an
//!   unchanged trace (e.g. repeated suite runs) is a lookup. The cache
//!   can be shared across batches and across threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use limba_model::Measurements;

use crate::{AnalysisError, Analyzer, Report};
use limba_par::fnv1a;

/// A content digest of a measurement matrix: region names, activity
/// set, processor count, and every cell's exact bit pattern.
///
/// Two matrices digest equal iff they would analyze identically (modulo
/// 64-bit collisions, acceptable for a cache key).
pub fn measurements_digest(measurements: &Measurements) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(&(measurements.regions() as u64).to_le_bytes());
    bytes.extend_from_slice(&(measurements.processors() as u64).to_le_bytes());
    for kind in measurements.activities().iter() {
        bytes.extend_from_slice(&(kind.index() as u64).to_le_bytes());
    }
    for region in measurements.region_ids() {
        let name = measurements.region_info(region).name();
        bytes.extend_from_slice(&(name.len() as u64).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        for kind in measurements.activities().iter() {
            for proc in measurements.processor_ids() {
                bytes.extend_from_slice(
                    &measurements
                        .time(region, kind, proc)
                        .to_bits()
                        .to_le_bytes(),
                );
            }
        }
    }
    fnv1a(&bytes)
}

/// A cache key: `(measurements digest, analyzer fingerprint)`.
type CacheKey = (u64, u64);

/// The shared memoization cache: `CacheKey` → report. Cheap to clone
/// (it is an [`Arc`]).
#[derive(Debug, Clone, Default)]
pub struct ReportCache {
    entries: Arc<Mutex<HashMap<CacheKey, Arc<Report>>>>,
}

impl ReportCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ReportCache::default()
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: (u64, u64)) -> Option<Arc<Report>> {
        self.entries.lock().expect("cache lock").get(&key).cloned()
    }

    fn insert(&self, key: (u64, u64), report: Arc<Report>) {
        self.entries.lock().expect("cache lock").insert(key, report);
    }
}

/// Analyzes batches of measurement matrices in parallel.
///
/// # Example
///
/// ```
/// use limba_analysis::batch::BatchAnalyzer;
/// use limba_analysis::Analyzer;
/// use limba_model::{ActivityKind, MeasurementsBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut items = Vec::new();
/// for run in 0..4u32 {
///     let mut b = MeasurementsBuilder::new(2);
///     let r = b.add_region("solver");
///     for p in 0..2 {
///         b.record(r, ActivityKind::Computation, p, 1.0 + run as f64 + p as f64)?;
///     }
///     items.push(b.build()?);
/// }
/// let batch = BatchAnalyzer::new(Analyzer::new().with_cluster_k(1)).with_jobs(2);
/// let reports = batch.analyze_batch(&items);
/// assert_eq!(reports.len(), 4);
/// assert!(reports.iter().all(|r| r.is_ok()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchAnalyzer {
    analyzer: Analyzer,
    jobs: usize,
    cache: Option<ReportCache>,
    cancel: Option<limba_par::CancelToken>,
}

impl BatchAnalyzer {
    /// Creates a batch analyzer running `analyzer` on every item,
    /// sequentially until [`with_jobs`](Self::with_jobs) raises the
    /// worker count.
    pub fn new(analyzer: Analyzer) -> Self {
        BatchAnalyzer {
            analyzer,
            jobs: 1,
            cache: None,
            cancel: None,
        }
    }

    /// Sets the number of batch worker threads. `0` uses one job per
    /// available CPU. Output is bit-identical for every setting.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Attaches a memoization cache. Reports for already-seen
    /// `(measurements, config)` pairs are cloned from the cache instead
    /// of recomputed; the cache may be shared between batch analyzers.
    pub fn with_cache(mut self, cache: ReportCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a cooperative cancellation token. When the token trips,
    /// items not yet started come back as
    /// [`AnalysisError::Interrupted`]; items already analyzed keep their
    /// normal results, which stay bit-identical to an uncancelled run —
    /// cancellation changes *which* items ran, never *what* an item
    /// produced.
    pub fn with_cancel(mut self, cancel: limba_par::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The configured per-item analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Analyzes every item, in input order, isolating failures to their
    /// own slot: a degenerate matrix yields `Err` at its index while all
    /// other items still produce reports.
    pub fn analyze_batch(&self, items: &[Measurements]) -> Vec<Result<Report, AnalysisError>> {
        let fingerprint = self.analyzer.config_fingerprint();
        let analyze_one = |measurements: &Measurements| {
            let key = self
                .cache
                .as_ref()
                .map(|_| (measurements_digest(measurements), fingerprint));
            if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
                if let Some(hit) = cache.get(key) {
                    return Ok(Report::clone(&hit));
                }
            }
            let report = self.analyzer.analyze(measurements)?;
            if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
                cache.insert(key, Arc::new(report.clone()));
            }
            Ok(report)
        };
        match &self.cancel {
            None => limba_par::par_map(self.jobs, items, |_, m| analyze_one(m)),
            Some(cancel) => {
                limba_par::par_map_cancellable(self.jobs, items, cancel, |_, m| analyze_one(m))
                    .into_iter()
                    .map(|slot| slot.unwrap_or(Err(AnalysisError::Interrupted)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_model::{ActivityKind, MeasurementsBuilder};

    fn sample(scale: f64) -> Measurements {
        let mut b = MeasurementsBuilder::new(4);
        let heavy = b.add_region("heavy");
        let light = b.add_region("light");
        for p in 0..4 {
            b.record(
                heavy,
                ActivityKind::Computation,
                p,
                scale * (4.0 + p as f64),
            )
            .unwrap();
            b.record(light, ActivityKind::PointToPoint, p, scale * 0.5)
                .unwrap();
        }
        b.build().unwrap()
    }

    fn empty() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        b.add_region("silent");
        b.build().unwrap()
    }

    #[test]
    fn batch_matches_individual_analysis() {
        let items = vec![sample(1.0), sample(2.0), sample(3.0)];
        let batch = BatchAnalyzer::new(Analyzer::new()).with_jobs(2);
        let reports = batch.analyze_batch(&items);
        for (item, report) in items.iter().zip(&reports) {
            let solo = Analyzer::new().analyze(item).unwrap();
            assert_eq!(report.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn one_bad_item_does_not_poison_the_batch() {
        let items = vec![sample(1.0), empty(), sample(2.0)];
        let reports = BatchAnalyzer::new(Analyzer::new())
            .with_jobs(3)
            .analyze_batch(&items);
        assert!(reports[0].is_ok());
        assert!(matches!(reports[1], Err(AnalysisError::EmptyProgram)));
        assert!(reports[2].is_ok());
    }

    #[test]
    fn cache_hits_skip_recomputation_and_preserve_results() {
        let cache = ReportCache::new();
        let items = vec![sample(1.0), sample(1.0), sample(2.0)];
        let batch = BatchAnalyzer::new(Analyzer::new())
            .with_jobs(1)
            .with_cache(cache.clone());
        let first = batch.analyze_batch(&items);
        // Two distinct matrices → two cache entries, not three.
        assert_eq!(cache.len(), 2);
        let second = batch.analyze_batch(&items);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn cache_distinguishes_analyzer_configs() {
        use limba_stats::dispersion::DispersionKind;
        let cache = ReportCache::new();
        let items = vec![sample(1.0)];
        BatchAnalyzer::new(Analyzer::new())
            .with_cache(cache.clone())
            .analyze_batch(&items);
        BatchAnalyzer::new(Analyzer::new().with_dispersion(DispersionKind::Gini))
            .with_cache(cache.clone())
            .analyze_batch(&items);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cancelled_batch_marks_unstarted_items_interrupted() {
        let items = vec![sample(1.0), sample(2.0), sample(3.0), sample(4.0)];
        let token = limba_par::CancelToken::new();
        token.cancel();
        let reports = BatchAnalyzer::new(Analyzer::new())
            .with_jobs(1)
            .with_cancel(token)
            .analyze_batch(&items);
        assert_eq!(reports.len(), items.len());
        assert!(reports
            .iter()
            .all(|r| matches!(r, Err(AnalysisError::Interrupted))));

        // An untripped token changes nothing.
        let reports = BatchAnalyzer::new(Analyzer::new())
            .with_jobs(2)
            .with_cancel(limba_par::CancelToken::new())
            .analyze_batch(&items);
        let plain = BatchAnalyzer::new(Analyzer::new())
            .with_jobs(2)
            .analyze_batch(&items);
        for (a, b) in reports.iter().zip(&plain) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn digest_is_content_sensitive() {
        assert_eq!(
            measurements_digest(&sample(1.0)),
            measurements_digest(&sample(1.0))
        );
        assert_ne!(
            measurements_digest(&sample(1.0)),
            measurements_digest(&sample(2.0))
        );
    }
}
