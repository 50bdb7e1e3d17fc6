//! The end-to-end analysis pipeline.

use limba_model::{ActivityKind, CountMatrix, Measurements, ProgramProfile};
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;

use crate::cluster_regions::{cluster_regions, FeatureScaling, RegionClustering};
use crate::coarse::{coarse_analysis, CoarseAnalysis};
use crate::count_views::{count_view, CountView};
use crate::findings::{derive_findings, Findings};
use crate::patterns::{pattern_grid, PatternGrid};
use crate::views::{
    activity_view, processor_view, region_view, ActivityView, ProcessorView, RegionView,
};
use crate::AnalysisError;

/// The complete result of one analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Table-1-style profile (regions × activities breakdown).
    pub profile: ProgramProfile,
    /// Coarse-grain characterization.
    pub coarse: CoarseAnalysis,
    /// Region clustering (`None` when clustering was disabled or
    /// impossible, e.g. fewer regions than clusters).
    pub clustering: Option<RegionClustering>,
    /// The activity view (Tables 2 and 3).
    pub activity_view: ActivityView,
    /// The code-region view (Table 4).
    pub region_view: RegionView,
    /// The processor view.
    pub processor_view: ProcessorView,
    /// Pattern diagrams (Figures 1 and 2), one per performed activity.
    pub patterns: Vec<PatternGrid>,
    /// Counting-parameter dissimilarities, when counting data was given
    /// (see [`Analyzer::analyze_with_counts`]).
    pub counts: Option<CountView>,
    /// The derived findings.
    pub findings: Findings,
}

/// Feature scaling applied before clustering regions: z-scored
/// activity columns, under which k-means reproduces the paper's
/// partition (see [`FeatureScaling`]).
const SCALING: FeatureScaling = FeatureScaling::ZScore;

/// Configurable analysis pipeline implementing the paper's methodology.
///
/// Defaults follow the paper: Euclidean index of dispersion, maximum
/// ranking criterion, k-means with `k = 2`.
///
/// # Example
///
/// ```
/// use limba_analysis::Analyzer;
/// use limba_stats::dispersion::DispersionKind;
/// use limba_stats::rank::RankingCriterion;
///
/// let analyzer = Analyzer::new()
///     .with_dispersion(DispersionKind::Cv)
///     .with_criterion(RankingCriterion::TopK(3))
///     .with_cluster_k(2)
///     .with_seed(7);
/// # let _ = analyzer;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Analyzer {
    dispersion: DispersionKind,
    criterion: RankingCriterion,
    cluster_k: usize,
    seed: u64,
    jobs: usize,
}

impl Analyzer {
    /// Creates an analyzer with the paper's defaults.
    pub fn new() -> Self {
        Analyzer {
            dispersion: DispersionKind::Euclidean,
            criterion: RankingCriterion::Maximum,
            cluster_k: 2,
            seed: 0,
            jobs: 1,
        }
    }

    /// Sets the index of dispersion.
    pub fn with_dispersion(mut self, kind: DispersionKind) -> Self {
        self.dispersion = kind;
        self
    }

    /// Sets the severity-ranking criterion for tuning candidates.
    pub fn with_criterion(mut self, criterion: RankingCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Sets the number of region clusters (`0` disables clustering).
    pub fn with_cluster_k(mut self, k: usize) -> Self {
        self.cluster_k = k;
        self
    }

    /// Sets the clustering seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads used *inside* one analysis run:
    /// the independent report components (views, clustering, pattern
    /// grids) are computed concurrently. `1` (the default) runs strictly
    /// sequentially; `0` uses one job per available CPU.
    ///
    /// The produced [`Report`] is bit-identical for every job count —
    /// components are pure functions of the measurements, each lands in
    /// a fixed slot, and no reduction order depends on scheduling. The
    /// workspace test-suite locks this guarantee.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// A stable fingerprint of everything that influences analysis
    /// *results*: dispersion, criterion, cluster count, scaling, and
    /// seed. The job count is deliberately excluded — thread count never
    /// changes the report, so cached results remain valid across
    /// `--jobs` settings.
    pub(crate) fn config_fingerprint(&self) -> u64 {
        limba_par::fnv1a(
            format!(
                "{:?}|{:?}|{}|{:?}|{}",
                self.dispersion, self.criterion, self.cluster_k, SCALING, self.seed
            )
            .as_bytes(),
        )
    }

    /// Runs the full methodology on `measurements`.
    ///
    /// With [`with_jobs`](Self::with_jobs) above one, the independent
    /// report components are computed concurrently; the result is
    /// bit-identical to the sequential run because every component is a
    /// pure function of the measurements, results land in fixed slots,
    /// and errors are selected in the fixed sequential order rather than
    /// completion order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyProgram`] for all-zero measurements
    /// and propagates statistical or clustering failures.
    pub fn analyze(&self, measurements: &Measurements) -> Result<Report, AnalysisError> {
        let parallel = limba_par::effective_jobs(self.jobs) > 1;
        let ((profile, coarse), clustering, views, pv) = limba_par::join4(
            parallel,
            || {
                let profile = ProgramProfile::from_measurements(measurements);
                let coarse = coarse_analysis(measurements, &profile);
                (profile, coarse)
            },
            || {
                if self.cluster_k >= 1 && self.cluster_k <= measurements.regions() {
                    cluster_regions(measurements, self.cluster_k, self.seed, SCALING).map(Some)
                } else {
                    Ok(None)
                }
            },
            || {
                let av = activity_view(measurements, self.dispersion)?;
                let rv = region_view(measurements, &av)?;
                Ok::<_, AnalysisError>((av, rv))
            },
            || processor_view(measurements),
        );
        // Deterministic error selection: the same component wins no
        // matter which thread failed first.
        let coarse = coarse?;
        let clustering = clustering?;
        let (av, rv) = views?;
        let pv = pv?;
        let performed: Vec<ActivityKind> = measurements
            .activities()
            .iter()
            .filter(|&kind| {
                measurements
                    .region_ids()
                    .any(|r| measurements.performs(r, kind))
            })
            .collect();
        let patterns: Vec<PatternGrid> = limba_par::par_map(
            if parallel { self.jobs } else { 1 },
            &performed,
            |_, &kind| pattern_grid(measurements, kind),
        );
        let findings = derive_findings(measurements, &pv, &av, &rv, self.criterion)?;
        Ok(Report {
            profile,
            coarse,
            clustering,
            activity_view: av,
            region_view: rv,
            processor_view: pv,
            patterns,
            counts: None,
            findings,
        })
    }

    /// Runs the full methodology plus the counting-parameter analysis
    /// (message counts, byte volumes, …) over the matching
    /// [`CountMatrix`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_with_counts(
        &self,
        measurements: &Measurements,
        counts: &CountMatrix,
    ) -> Result<Report, AnalysisError> {
        let mut report = self.analyze(measurements)?;
        report.counts = Some(count_view(counts, self.dispersion)?);
        Ok(report)
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Report {
    /// Convenience: the pattern grid of one activity, if any region
    /// performs it.
    pub fn pattern_for(&self, kind: ActivityKind) -> Option<&PatternGrid> {
        self.patterns.iter().find(|g| g.activity == kind)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(4);
        let heavy = b.add_region("heavy");
        let light = b.add_region("light");
        for p in 0..4 {
            b.record(heavy, ActivityKind::Computation, p, 4.0 + p as f64)
                .unwrap();
            b.record(heavy, ActivityKind::Collective, p, 1.0).unwrap();
            b.record(light, ActivityKind::PointToPoint, p, 0.5).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn full_pipeline_produces_consistent_report() {
        let report = Analyzer::new().analyze(&sample()).unwrap();
        assert_eq!(report.coarse.heaviest_region_name, "heavy");
        assert_eq!(report.coarse.dominant_activity, ActivityKind::Computation);
        assert_eq!(report.profile.regions.len(), 2);
        let c = report.clustering.as_ref().unwrap();
        assert_eq!(c.k, 2);
        assert_ne!(c.assignments[0], c.assignments[1]);
        // Three performed activities → three pattern grids.
        assert_eq!(report.patterns.len(), 3);
        assert!(report.pattern_for(ActivityKind::Computation).is_some());
        assert!(report.pattern_for(ActivityKind::Synchronization).is_none());
        assert_eq!(report.findings.tuning_candidates.len(), 1);
    }

    #[test]
    fn cluster_k_zero_disables_clustering() {
        let report = Analyzer::new()
            .with_cluster_k(0)
            .analyze(&sample())
            .unwrap();
        assert!(report.clustering.is_none());
    }

    #[test]
    fn oversized_cluster_k_disables_clustering() {
        let report = Analyzer::new()
            .with_cluster_k(99)
            .analyze(&sample())
            .unwrap();
        assert!(report.clustering.is_none());
    }

    #[test]
    fn alternative_dispersion_changes_values_not_structure() {
        let a = Analyzer::new().analyze(&sample()).unwrap();
        let b = Analyzer::new()
            .with_dispersion(DispersionKind::Gini)
            .analyze(&sample())
            .unwrap();
        assert_eq!(a.region_view.summaries.len(), b.region_view.summaries.len());
        assert_ne!(a.region_view.summaries[0].id, b.region_view.summaries[0].id);
    }

    #[test]
    fn empty_program_rejected() {
        let mut b = MeasurementsBuilder::new(1);
        b.add_region("r");
        let m = b.build().unwrap();
        assert!(matches!(
            Analyzer::new().analyze(&m),
            Err(AnalysisError::EmptyProgram)
        ));
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Analyzer::default(), Analyzer::new());
    }

    #[test]
    fn analyze_with_counts_populates_the_count_view() {
        use limba_model::{CountKind, CountMatrixBuilder, RegionId};
        let m = sample();
        let mut cb = CountMatrixBuilder::new(4);
        cb.record(RegionId::new(1), CountKind::BytesSent, 0, 1024.0)
            .unwrap();
        let counts = cb.build();
        let plain = Analyzer::new().analyze(&m).unwrap();
        assert!(plain.counts.is_none());
        let with = Analyzer::new().analyze_with_counts(&m, &counts).unwrap();
        let view = with.counts.as_ref().unwrap();
        assert_eq!(view.cells.len(), 1);
        assert_eq!(view.cells[0].kind, CountKind::BytesSent);
    }
}
