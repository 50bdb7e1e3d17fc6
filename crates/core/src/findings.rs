//! Findings: the answers the methodology hands to the user.
//!
//! "tools should do what expert programmers do when tuning their
//! programs, that is, detect the presence of inefficiencies, localize
//! them and assess their severity."

use limba_model::{ActivityKind, Measurements, ProcessorId, RegionId};
use limba_stats::rank::RankingCriterion;

use crate::views::{ActivityView, ProcessorView, RegionView};
use crate::AnalysisError;

/// Processor-level findings.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorFindings {
    /// The processor that is the most imbalanced on the largest number of
    /// regions, with that count.
    pub most_frequently_imbalanced: Option<(ProcessorId, usize)>,
    /// The processor whose "most imbalanced" regions account for the most
    /// wall-clock time, with that time.
    pub longest_imbalanced: Option<(ProcessorId, f64)>,
    /// Regions on which each processor is the most imbalanced.
    pub regions_per_processor: Vec<Vec<RegionId>>,
}

/// A region recommended for tuning, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningCandidate {
    /// The region.
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// `ID_C_i`.
    pub id: f64,
    /// `SID_C_i` — the ranking key.
    pub sid: f64,
    /// `t_i / T`.
    pub fraction_of_program: f64,
    /// Whether this region is also the heaviest of the program (the
    /// paper's "core" argument for loop 1).
    pub is_heaviest: bool,
}

/// All findings of one analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Findings {
    /// Processor-level findings.
    pub processors: ProcessorFindings,
    /// The most imbalanced activity by raw `ID_A_j`, with the value.
    pub most_imbalanced_activity: Option<(ActivityKind, f64)>,
    /// The most imbalanced activity by scaled `SID_A_j`, with the value.
    pub most_imbalanced_activity_scaled: Option<(ActivityKind, f64)>,
    /// The most imbalanced region by raw `ID_C_i`, with the value.
    pub most_imbalanced_region: Option<(RegionId, f64)>,
    /// Tuning candidates selected by the ranking criterion over `SID_C`,
    /// most severe first.
    pub tuning_candidates: Vec<TuningCandidate>,
}

/// Derives the findings from the three computed views.
///
/// `criterion` selects the tuning candidates from the scaled region
/// indices `SID_C_i`.
///
/// # Errors
///
/// Propagates ranking errors (an empty region view).
pub fn derive_findings(
    measurements: &Measurements,
    processor_view: &ProcessorView,
    activity_view: &ActivityView,
    region_view: &RegionView,
    criterion: RankingCriterion,
) -> Result<Findings, AnalysisError> {
    let p = measurements.processors();
    let counts = processor_view.imbalance_counts(p);
    let durations = processor_view.imbalance_durations(p);
    let mut regions_per_processor = vec![Vec::new(); p];
    for (r, entry) in processor_view.most_imbalanced_per_region.iter().enumerate() {
        if let Some((proc, _, _)) = entry {
            regions_per_processor[proc.index()].push(RegionId::new(r));
        }
    }
    let most_frequently_imbalanced = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (ProcessorId::new(i), c));
    let longest_imbalanced = durations
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .filter(|&(_, &d)| d > 0.0)
        .map(|(i, &d)| (ProcessorId::new(i), d));

    let heaviest_region = measurements.region_ids().max_by(|&a, &b| {
        measurements
            .region_time(a)
            .total_cmp(&measurements.region_time(b))
    });

    let sids: Vec<f64> = region_view.summaries.iter().map(|s| s.sid).collect();
    let selected = if sids.is_empty() {
        Vec::new()
    } else {
        criterion.select(&sids)?
    };
    let tuning_candidates = selected
        .into_iter()
        .map(|i| {
            let s = &region_view.summaries[i];
            TuningCandidate {
                region: s.region,
                name: s.name.clone(),
                id: s.id,
                sid: s.sid,
                fraction_of_program: s.fraction_of_program,
                is_heaviest: Some(s.region) == heaviest_region,
            }
        })
        .collect();

    Ok(Findings {
        processors: ProcessorFindings {
            most_frequently_imbalanced,
            longest_imbalanced,
            regions_per_processor,
        },
        most_imbalanced_activity: activity_view.most_imbalanced().map(|s| (s.kind, s.id)),
        most_imbalanced_activity_scaled: activity_view
            .most_imbalanced_scaled()
            .map(|s| (s.kind, s.sid)),
        most_imbalanced_region: region_view.most_imbalanced().map(|s| (s.region, s.id)),
        tuning_candidates,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::views::{activity_view, processor_view, region_view};
    use limba_model::MeasurementsBuilder;
    use limba_stats::dispersion::DispersionKind;

    /// Region 0 (heavy): processor 0 has an outlier mix. Region 1
    /// (light): heavy computation imbalance.
    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(3);
        let r0 = b.add_region("heavy");
        let r1 = b.add_region("light");
        b.record(r0, ActivityKind::Computation, 0, 8.0).unwrap();
        b.record(r0, ActivityKind::PointToPoint, 0, 2.0).unwrap();
        for p in 1..3 {
            b.record(r0, ActivityKind::Computation, p, 5.0).unwrap();
            b.record(r0, ActivityKind::PointToPoint, p, 5.0).unwrap();
        }
        b.record(r1, ActivityKind::Computation, 0, 0.1).unwrap();
        b.record(r1, ActivityKind::Computation, 1, 0.1).unwrap();
        b.record(r1, ActivityKind::Computation, 2, 0.8).unwrap();
        b.build().unwrap()
    }

    fn findings_of(m: &Measurements, criterion: RankingCriterion) -> Findings {
        let av = activity_view(m, DispersionKind::Euclidean).unwrap();
        let rv = region_view(m, &av).unwrap();
        let pv = processor_view(m).unwrap();
        derive_findings(m, &pv, &av, &rv, criterion).unwrap()
    }

    #[test]
    fn processor_findings_identify_outlier() {
        let f = findings_of(&sample(), RankingCriterion::Maximum);
        // Processor 0 is the mix outlier on region 0; region 1 is all
        // computation so every mix is identical there (tie → proc 0).
        let (proc, count) = f.processors.most_frequently_imbalanced.unwrap();
        assert_eq!(proc, ProcessorId::new(0));
        assert_eq!(count, 2);
        let (proc, dur) = f.processors.longest_imbalanced.unwrap();
        assert_eq!(proc, ProcessorId::new(0));
        assert!(dur > 10.0);
        assert_eq!(f.processors.regions_per_processor[0].len(), 2);
    }

    #[test]
    fn activity_and_region_findings() {
        let f = findings_of(&sample(), RankingCriterion::Maximum);
        // Computation in region 1 is hugely spread but tiny; raw ID picks
        // it up through the weighted average anyway (p2p is also spread
        // in region 0 through the mix difference).
        assert!(f.most_imbalanced_activity.is_some());
        let (region, id) = f.most_imbalanced_region.unwrap();
        // Region 1 has [0.1, 0.1, 0.8] computation → very imbalanced.
        assert_eq!(region, RegionId::new(1));
        assert!(id > 0.3);
    }

    #[test]
    fn tuning_candidates_respect_criterion() {
        let max = findings_of(&sample(), RankingCriterion::Maximum);
        assert_eq!(max.tuning_candidates.len(), 1);
        let all = findings_of(&sample(), RankingCriterion::TopK(10));
        assert_eq!(all.tuning_candidates.len(), 2);
        // Candidates are ordered by decreasing SID.
        assert!(all.tuning_candidates[0].sid >= all.tuning_candidates[1].sid);
        // The heavy region is flagged as the program's heaviest.
        let heavy = all
            .tuning_candidates
            .iter()
            .find(|c| c.name == "heavy")
            .unwrap();
        assert!(heavy.is_heaviest);
    }

    #[test]
    fn balanced_program_has_zero_indices_but_still_reports() {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2 {
            b.record(r, ActivityKind::Computation, p, 1.0).unwrap();
        }
        let m = b.build().unwrap();
        let f = findings_of(&m, RankingCriterion::Maximum);
        let (_, id) = f.most_imbalanced_region.unwrap();
        assert_eq!(id, 0.0);
    }
}
