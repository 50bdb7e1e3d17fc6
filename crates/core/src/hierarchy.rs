//! Hierarchical region analysis and automated drill-down.
//!
//! The paper's code regions span granularities — "loops, routines, code
//! statements" — and its related work (Paradyn's Performance Consultant,
//! Deep Start) searches such hierarchies automatically. This module
//! provides both pieces on the limba substrate:
//!
//! * [`RegionTree`] — the static nesting of regions (recovered from a
//!   trace by `limba_trace::region_parents` or declared directly);
//! * `inclusive_times` — roll-up of the innermost-attributed
//!   measurements so each region also carries its descendants' time;
//! * [`drilldown`] — a top-down search that starts at the program level,
//!   repeatedly descends into the child with the largest scaled index of
//!   dispersion, and stops when further refinement no longer localizes
//!   the imbalance.

use limba_model::{Measurements, RegionId};
use limba_stats::dispersion::DispersionKind;

use crate::views::{activity_view, region_view};
use crate::AnalysisError;

/// The static nesting of code regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTree {
    parents: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl RegionTree {
    /// Builds a tree from per-region parents (as returned by
    /// `limba_trace::region_parents`).
    ///
    /// # Errors
    ///
    /// Returns an error when a parent index is out of range or the
    /// structure contains a cycle.
    pub fn from_parents(parents: Vec<Option<usize>>) -> Result<Self, AnalysisError> {
        let n = parents.len();
        let mut children = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (r, parent) in parents.iter().enumerate() {
            match parent {
                Some(p) => {
                    if *p >= n {
                        return Err(AnalysisError::Stats(
                            limba_stats::StatsError::InvalidValue { value: *p as f64 },
                        ));
                    }
                    children[*p].push(r);
                }
                None => roots.push(r),
            }
        }
        // Cycle check: every region must reach a root.
        for start in 0..n {
            let mut hops = 0;
            let mut cur = start;
            while let Some(p) = parents[cur] {
                cur = p;
                hops += 1;
                if hops > n {
                    return Err(AnalysisError::Stats(
                        limba_stats::StatsError::InvalidValue {
                            value: start as f64,
                        },
                    ));
                }
            }
        }
        Ok(RegionTree {
            parents,
            children,
            roots,
        })
    }

    /// Number of regions.
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// Direct children of `region`.
    pub fn children(&self, region: RegionId) -> Vec<RegionId> {
        self.children[region.index()]
            .iter()
            .map(|&r| RegionId::new(r))
            .collect()
    }

    /// Top-level regions.
    pub fn roots(&self) -> Vec<RegionId> {
        self.roots.iter().map(|&r| RegionId::new(r)).collect()
    }

    /// All regions of the subtree rooted at `region` (including it), in
    /// depth-first order.
    pub(crate) fn subtree(&self, region: RegionId) -> Vec<RegionId> {
        let mut out = Vec::new();
        let mut stack = vec![region.index()];
        while let Some(r) = stack.pop() {
            out.push(RegionId::new(r));
            stack.extend(self.children[r].iter().copied());
        }
        out
    }
}

/// Rolls the innermost-attributed (exclusive) measurements up the tree:
/// the returned matrix has, for every region, the time of its whole
/// subtree — the *inclusive* time a profiler would report for the region.
///
/// # Errors
///
/// Propagates model errors; the tree must describe the same region set.
pub(crate) fn inclusive_times(
    measurements: &Measurements,
    tree: &RegionTree,
) -> Result<Measurements, AnalysisError> {
    assert_eq!(
        measurements.regions(),
        tree.len(),
        "tree and measurements disagree on the region count"
    );
    let mut b = limba_model::MeasurementsBuilder::with_activities(
        measurements.processors(),
        measurements.activities().clone(),
    );
    for r in measurements.region_ids() {
        b.add_region(measurements.region_info(r).name().to_string());
    }
    for r in measurements.region_ids() {
        for member in tree.subtree(r) {
            for kind in measurements.activities().iter() {
                for p in measurements.processor_ids() {
                    let t = measurements.time(member, kind, p);
                    if t > 0.0 {
                        b.record(r, kind, p.index(), t).map_err(trace_model_error)?;
                    }
                }
            }
        }
    }
    b.build().map_err(trace_model_error)
}

fn trace_model_error(_e: limba_model::ModelError) -> AnalysisError {
    // Model errors here can only arise from invalid values already
    // rejected upstream; map them to a stats error for simplicity.
    AnalysisError::Stats(limba_stats::StatsError::InvalidValue { value: f64::NAN })
}

/// One step of the drill-down search.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillStep {
    /// The region examined at this depth.
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// Inclusive scaled index `SID_C` of the region.
    pub sid: f64,
    /// Inclusive raw index `ID_C`.
    pub id: f64,
    /// Inclusive fraction of the program's wall-clock time.
    pub fraction_of_program: f64,
}

/// Result of the automated drill-down.
#[derive(Debug, Clone, PartialEq)]
pub struct Drilldown {
    /// The path from the top-level culprit down to the most specific
    /// region that still concentrates the imbalance.
    pub path: Vec<DrillStep>,
}

impl Drilldown {
    /// The final (most specific) localization, if the search found any
    /// imbalanced region at all.
    pub fn culprit(&self) -> Option<&DrillStep> {
        self.path.last()
    }
}

/// Automated top-down localization: compute inclusive scaled indices,
/// start from the worst top-level region, and keep descending into the
/// worst child while it still accounts for at least `keep_fraction` of
/// its parent's scaled index (Paradyn-style refinement with a simple
/// pruning rule).
///
/// # Errors
///
/// Propagates view computation errors ([`AnalysisError::EmptyProgram`]
/// for all-zero measurements).
pub fn drilldown(
    measurements: &Measurements,
    tree: &RegionTree,
    dispersion: DispersionKind,
    keep_fraction: f64,
) -> Result<Drilldown, AnalysisError> {
    let inclusive = inclusive_times(measurements, tree)?;
    let av = activity_view(&inclusive, dispersion)?;
    let rv = region_view(&inclusive, &av)?;
    // The inclusive matrix double-counts nested time in its grand total,
    // so fractions and scaled indices are taken against the *exclusive*
    // program time: a root's inclusive fraction is then ~1, as expected.
    let program_total = measurements.total_time();
    let score = |r: RegionId| {
        rv.summary_of(r).map(|s| {
            let fraction = if program_total > 0.0 {
                s.seconds / program_total
            } else {
                0.0
            };
            (fraction * s.id, s.id, fraction)
        })
    };

    let mut path = Vec::new();
    let mut candidates = tree.roots();
    loop {
        let best = candidates
            .iter()
            .filter_map(|&r| score(r).map(|s| (r, s)))
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0));
        let Some((region, (sid, id, fraction))) = best else {
            break;
        };
        if let Some(last) = path.last() {
            let last: &DrillStep = last;
            // Stop when the child no longer concentrates the parent's
            // imbalance.
            if sid < keep_fraction * last.sid {
                break;
            }
        } else if sid <= 0.0 {
            break;
        }
        path.push(DrillStep {
            region,
            name: inclusive.region_info(region).name().to_string(),
            sid,
            id,
            fraction_of_program: fraction,
        });
        candidates = tree.children(region);
        if candidates.is_empty() {
            break;
        }
    }
    Ok(Drilldown { path })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::{ActivityKind, MeasurementsBuilder, ProcessorId};

    /// step → {solve → {flux, update}, io}; the imbalance hides in flux.
    fn nested_case() -> (Measurements, RegionTree) {
        let mut b = MeasurementsBuilder::new(4);
        let step = b.add_region("step");
        let solve = b.add_region("solve");
        let flux = b.add_region("flux");
        let update = b.add_region("update");
        let io = b.add_region("io");
        for p in 0..4 {
            // Exclusive times: parents carry a little glue time.
            b.record(step, ActivityKind::Computation, p, 0.1).unwrap();
            b.record(solve, ActivityKind::Computation, p, 0.2).unwrap();
            // flux: heavily imbalanced; update/io balanced.
            b.record(
                flux,
                ActivityKind::Computation,
                p,
                if p == 3 { 4.0 } else { 1.0 },
            )
            .unwrap();
            b.record(update, ActivityKind::Computation, p, 1.0).unwrap();
            b.record(io, ActivityKind::Io, p, 0.5).ok(); // Io not in standard set
            b.record(io, ActivityKind::Computation, p, 0.5).unwrap();
        }
        let tree = RegionTree::from_parents(vec![
            None,
            Some(step.index()),
            Some(solve.index()),
            Some(solve.index()),
            Some(step.index()),
        ])
        .unwrap();
        (b.build().unwrap(), tree)
    }

    #[test]
    fn tree_navigation() {
        let (_, tree) = nested_case();
        assert_eq!(tree.roots(), vec![RegionId::new(0)]);
        assert_eq!(tree.children(RegionId::new(0)).len(), 2);
        let mut subtree = tree.subtree(RegionId::new(1));
        subtree.sort();
        assert_eq!(
            subtree,
            vec![RegionId::new(1), RegionId::new(2), RegionId::new(3)]
        );
        assert_eq!(tree.len(), 5);
    }

    #[test]
    fn invalid_trees_rejected() {
        assert!(RegionTree::from_parents(vec![Some(5)]).is_err());
        // Cycle: 0 → 1 → 0.
        assert!(RegionTree::from_parents(vec![Some(1), Some(0)]).is_err());
        // Self-loop.
        assert!(RegionTree::from_parents(vec![Some(0)]).is_err());
    }

    #[test]
    fn inclusive_roll_up_sums_subtrees() {
        let (m, tree) = nested_case();
        let inc = inclusive_times(&m, &tree).unwrap();
        let p0 = ProcessorId::new(0);
        // flux is a leaf: unchanged.
        assert_eq!(
            inc.time(RegionId::new(2), ActivityKind::Computation, p0),
            1.0
        );
        // solve = own 0.2 + flux 1.0 + update 1.0.
        assert!((inc.time(RegionId::new(1), ActivityKind::Computation, p0) - 2.2).abs() < 1e-12);
        // step = everything.
        assert!((inc.time(RegionId::new(0), ActivityKind::Computation, p0) - 2.8).abs() < 1e-12);
        // The roll-up preserves the per-processor skew.
        let p3 = ProcessorId::new(3);
        assert!((inc.time(RegionId::new(0), ActivityKind::Computation, p3) - 5.8).abs() < 1e-12);
    }

    #[test]
    fn drilldown_finds_the_buried_leaf() {
        let (m, tree) = nested_case();
        let dd = drilldown(&m, &tree, DispersionKind::Euclidean, 0.5).unwrap();
        let names: Vec<&str> = dd.path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["step", "solve", "flux"]);
        let culprit = dd.culprit().unwrap();
        assert_eq!(culprit.name, "flux");
        assert!(culprit.sid > 0.0);
        // Scores grow sharper (or at worst comparable) while descending.
        assert!(dd.path[2].id >= dd.path[0].id);
    }

    #[test]
    fn drilldown_stops_at_balanced_programs() {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2 {
            b.record(r, ActivityKind::Computation, p, 1.0).unwrap();
        }
        let m = b.build().unwrap();
        let tree = RegionTree::from_parents(vec![None]).unwrap();
        let dd = drilldown(&m, &tree, DispersionKind::Euclidean, 0.5).unwrap();
        assert!(dd.path.is_empty());
        assert!(dd.culprit().is_none());
    }

    #[test]
    fn drilldown_does_not_descend_into_diluted_children() {
        // Parent imbalanced through its own exclusive time; children
        // balanced → the path stops at the parent.
        let mut b = MeasurementsBuilder::new(2);
        let parent = b.add_region("parent");
        let child = b.add_region("child");
        b.record(parent, ActivityKind::Computation, 0, 5.0).unwrap();
        b.record(parent, ActivityKind::Computation, 1, 1.0).unwrap();
        for p in 0..2 {
            b.record(child, ActivityKind::Computation, p, 1.0).unwrap();
        }
        let m = b.build().unwrap();
        let tree = RegionTree::from_parents(vec![None, Some(0)]).unwrap();
        let dd = drilldown(&m, &tree, DispersionKind::Euclidean, 0.5).unwrap();
        let names: Vec<&str> = dd.path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["parent"]);
    }
}
