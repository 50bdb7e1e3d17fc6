//! The central `N × K × P` wall-clock time matrix.

use crate::{ActivityKind, ActivitySet, ModelError, ProcessorId, RegionId, RegionInfo};

/// Wall-clock measurements `t_ijp` of a parallel program.
///
/// `Measurements` stores, for each of `N` code regions, `K` activities and
/// `P` processors, the wall-clock time `t_ijp` that processor `p` spent in
/// activity `j` of region `i`, plus the marginals the methodology is built
/// on:
///
/// * `t_ij` — [`region_activity_time`](Self::region_activity_time), the
///   (per-processor mean) time of activity `j` within region `i`;
/// * `t_i` — [`region_time`](Self::region_time), the time of region `i`;
/// * `T_j` — [`activity_time`](Self::activity_time), the time of activity `j`
///   over the whole program;
/// * `T` — [`total_time`](Self::total_time), the program wall-clock time.
///
/// Marginals use the *mean over processors* convention (see DESIGN.md);
/// because every index of dispersion is scale invariant and every weight is
/// a ratio of marginals, analyses are identical under the sum convention.
///
/// Instances are created through [`MeasurementsBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Measurements {
    activities: ActivitySet,
    processors: usize,
    regions: Vec<RegionInfo>,
    /// Row-major `[region][activity][processor]`.
    data: Vec<f64>,
}

impl Measurements {
    /// Creates measurements directly from a dense `N × K × P` buffer laid
    /// out row-major as `[region][activity][processor]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the buffer length does not match
    /// `regions.len() * activities.len() * processors`, when `regions` or
    /// `processors` is empty, or when any value is negative or non-finite.
    pub(crate) fn from_dense(
        regions: Vec<RegionInfo>,
        activities: ActivitySet,
        processors: usize,
        data: Vec<f64>,
    ) -> Result<Self, ModelError> {
        if processors == 0 {
            return Err(ModelError::NoProcessors);
        }
        if regions.is_empty() {
            return Err(ModelError::NoRegions);
        }
        let expected = regions.len() * activities.len() * processors;
        if data.len() != expected {
            // Treat a mis-sized buffer as a region range error against the
            // implied shape: it is always a caller bug.
            return Err(ModelError::RegionOutOfRange {
                index: data.len() / (activities.len() * processors).max(1),
                regions: regions.len(),
            });
        }
        for &v in &data {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidTime { value: v });
            }
        }
        Ok(Measurements {
            activities,
            processors,
            regions,
            data,
        })
    }

    fn offset(&self, region: usize, column: usize, proc: usize) -> usize {
        (region * self.activities.len() + column) * self.processors + proc
    }

    /// Number of code regions `N`.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of processors `P`.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The ordered activity set (the `K` axis).
    pub fn activities(&self) -> &ActivitySet {
        &self.activities
    }

    /// Metadata of region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn region_info(&self, region: RegionId) -> &RegionInfo {
        &self.regions[region.index()]
    }

    /// Iterates over all region ids in index order.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> {
        (0..self.regions()).map(RegionId::new)
    }

    /// Iterates over all processor ids in index order.
    pub fn processor_ids(&self) -> impl Iterator<Item = ProcessorId> {
        (0..self.processors).map(ProcessorId::new)
    }

    /// `t_ijp`: wall-clock time of processor `proc` in activity `kind` of
    /// `region`. Returns `0.0` when `kind` is not part of the activity set.
    ///
    /// # Panics
    ///
    /// Panics if `region` or `proc` is out of range.
    pub fn time(&self, region: RegionId, kind: ActivityKind, proc: ProcessorId) -> f64 {
        assert!(region.index() < self.regions(), "region out of range");
        assert!(proc.index() < self.processors, "processor out of range");
        match self.activities.column(kind) {
            Some(col) => self.data[self.offset(region.index(), col, proc.index())],
            None => 0.0,
        }
    }

    /// The per-processor times of one `(region, activity)` cell as a slice
    /// of length `P` — the data set whose spread the indices of dispersion
    /// measure. Returns `None` when `kind` is not part of the activity set.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn processor_slice(&self, region: RegionId, kind: ActivityKind) -> Option<&[f64]> {
        assert!(region.index() < self.regions(), "region out of range");
        let col = self.activities.column(kind)?;
        let start = self.offset(region.index(), col, 0);
        Some(&self.data[start..start + self.processors])
    }

    /// `t_ij`: time of activity `kind` within `region` (mean over processors).
    pub fn region_activity_time(&self, region: RegionId, kind: ActivityKind) -> f64 {
        match self.processor_slice(region, kind) {
            Some(s) => s.iter().sum::<f64>() / self.processors as f64,
            None => 0.0,
        }
    }

    /// `t_i`: time of `region` summed over its activities.
    pub fn region_time(&self, region: RegionId) -> f64 {
        self.activities
            .iter()
            .map(|k| self.region_activity_time(region, k))
            .sum()
    }

    /// `T_j`: time of activity `kind` summed over all regions.
    pub fn activity_time(&self, kind: ActivityKind) -> f64 {
        self.region_ids()
            .map(|r| self.region_activity_time(r, kind))
            .sum()
    }

    /// `T`: wall-clock time of the whole program.
    pub fn total_time(&self) -> f64 {
        self.region_ids().map(|r| self.region_time(r)).sum()
    }

    /// Wall-clock time processor `proc` spent in `region`, summed over
    /// activities — the quantity behind "processor 2 … a wall clock time
    /// equal to 15.93 seconds" in the paper's processor view.
    pub fn processor_region_time(&self, region: RegionId, proc: ProcessorId) -> f64 {
        self.activities
            .iter()
            .map(|k| self.time(region, k, proc))
            .sum()
    }

    /// Total wall-clock time of processor `proc` over the whole program.
    pub fn processor_time(&self, proc: ProcessorId) -> f64 {
        self.region_ids()
            .map(|r| self.processor_region_time(r, proc))
            .sum()
    }

    /// Returns `true` when `region` performs `kind` at all (any processor
    /// spent a positive time in it). The paper's tables print "-" for cells
    /// where an activity is not performed.
    pub fn performs(&self, region: RegionId, kind: ActivityKind) -> bool {
        self.processor_slice(region, kind)
            .map(|s| s.iter().any(|&v| v > 0.0))
            .unwrap_or(false)
    }

    /// The region's times across activities for one processor, in activity
    /// column order — the vector standardized by the processor view.
    pub fn activity_vector(&self, region: RegionId, proc: ProcessorId) -> Vec<f64> {
        self.activities
            .iter()
            .map(|k| self.time(region, k, proc))
            .collect()
    }
}

/// Incremental builder of [`Measurements`].
///
/// Times recorded for the same `(region, activity, processor)` cell
/// accumulate, which matches how instrumentation attributes many intervals
/// to the same cell.
///
/// # Example
///
/// ```
/// use limba_model::{ActivityKind, MeasurementsBuilder};
/// # fn main() -> Result<(), limba_model::ModelError> {
/// let mut b = MeasurementsBuilder::new(4);
/// let r = b.add_region("loop 1");
/// for p in 0..4 {
///     b.record(r, ActivityKind::Computation, p, 1.0 + p as f64 * 0.1)?;
/// }
/// let m = b.build()?;
/// assert_eq!(m.processors(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementsBuilder {
    activities: ActivitySet,
    processors: usize,
    regions: Vec<RegionInfo>,
    data: Vec<f64>,
}

impl MeasurementsBuilder {
    /// Creates a builder for `processors` processors with the paper's
    /// standard four activities.
    pub fn new(processors: usize) -> Self {
        MeasurementsBuilder::with_activities(processors, ActivitySet::standard())
    }

    /// Creates a builder with an explicit activity set.
    pub fn with_activities(processors: usize, activities: ActivitySet) -> Self {
        MeasurementsBuilder {
            activities,
            processors,
            regions: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Registers a new code region and returns its id.
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        self.add_region_info(RegionInfo::new(name))
    }

    /// Registers a new code region with full metadata and returns its id.
    pub(crate) fn add_region_info(&mut self, info: RegionInfo) -> RegionId {
        let id = RegionId::new(self.regions.len());
        self.regions.push(info);
        self.data.extend(std::iter::repeat_n(
            0.0,
            self.activities.len() * self.processors,
        ));
        id
    }

    /// Returns the column of `kind`, first appending it as the last
    /// column when the builder's set does not have it yet.
    ///
    /// Appending re-lays out the recorded cells: each region's block
    /// gains `P` zeros for the new column, and every recorded value
    /// keeps its bits. A streaming fold calls this when an activity
    /// first appears, so its columns come out in first-appearance order
    /// without a scan of the whole trace up front.
    pub fn add_activity(&mut self, kind: ActivityKind) -> usize {
        if let Some(col) = self.activities.column(kind) {
            return col;
        }
        let block = self.activities.len() * self.processors;
        let mut data = Vec::with_capacity(self.data.len() + self.regions.len() * self.processors);
        for region in 0..self.regions.len() {
            data.extend_from_slice(&self.data[region * block..(region + 1) * block]);
            data.extend(std::iter::repeat_n(0.0, self.processors));
        }
        self.data = data;
        let col = self.activities.len();
        self.activities = ActivitySet::new(self.activities.iter().chain([kind]));
        col
    }

    /// Adds `seconds` to the `(region, kind, proc)` cell.
    ///
    /// # Errors
    ///
    /// Returns an error when the region or processor is out of range, the
    /// activity is not in the builder's set, or `seconds` is negative or
    /// non-finite.
    pub fn record(
        &mut self,
        region: RegionId,
        kind: ActivityKind,
        proc: usize,
        seconds: f64,
    ) -> Result<(), ModelError> {
        let idx = self.cell_index(region, kind, proc, seconds)?;
        self.data[idx] += seconds;
        Ok(())
    }

    /// Overwrites the `(region, kind, proc)` cell with `seconds`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`record`](Self::record).
    pub fn set(
        &mut self,
        region: RegionId,
        kind: ActivityKind,
        proc: usize,
        seconds: f64,
    ) -> Result<(), ModelError> {
        let idx = self.cell_index(region, kind, proc, seconds)?;
        self.data[idx] = seconds;
        Ok(())
    }

    fn cell_index(
        &self,
        region: RegionId,
        kind: ActivityKind,
        proc: usize,
        seconds: f64,
    ) -> Result<usize, ModelError> {
        if region.index() >= self.regions.len() {
            return Err(ModelError::RegionOutOfRange {
                index: region.index(),
                regions: self.regions.len(),
            });
        }
        if proc >= self.processors {
            return Err(ModelError::ProcessorOutOfRange {
                index: proc,
                processors: self.processors,
            });
        }
        let col = self
            .activities
            .column(kind)
            .ok_or(ModelError::UnknownActivity { kind })?;
        if !seconds.is_finite() || seconds < 0.0 {
            return Err(ModelError::InvalidTime { value: seconds });
        }
        Ok((region.index() * self.activities.len() + col) * self.processors + proc)
    }

    /// Finalizes the builder into a [`Measurements`] matrix.
    ///
    /// # Errors
    ///
    /// Returns an error when no regions were registered or the builder was
    /// created with zero processors.
    pub fn build(self) -> Result<Measurements, ModelError> {
        Measurements::from_dense(self.regions, self.activities, self.processors, self.data)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::STANDARD_ACTIVITIES;

    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("loop 1");
        let r1 = b.add_region("loop 2");
        b.record(r0, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::Computation, 1, 3.0).unwrap();
        b.record(r0, ActivityKind::Collective, 0, 0.5).unwrap();
        b.record(r0, ActivityKind::Collective, 1, 0.5).unwrap();
        b.record(r1, ActivityKind::PointToPoint, 0, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn marginals_follow_mean_convention() {
        let m = sample();
        let r0 = RegionId::new(0);
        let r1 = RegionId::new(1);
        assert_eq!(m.region_activity_time(r0, ActivityKind::Computation), 2.0);
        assert_eq!(m.region_activity_time(r0, ActivityKind::Collective), 0.5);
        assert_eq!(m.region_time(r0), 2.5);
        assert_eq!(m.region_time(r1), 1.0);
        assert_eq!(m.activity_time(ActivityKind::Computation), 2.0);
        assert_eq!(m.total_time(), 3.5);
    }

    #[test]
    fn per_processor_accessors() {
        let m = sample();
        let r0 = RegionId::new(0);
        assert_eq!(
            m.time(r0, ActivityKind::Computation, ProcessorId::new(1)),
            3.0
        );
        assert_eq!(m.processor_region_time(r0, ProcessorId::new(0)), 1.5);
        assert_eq!(m.processor_region_time(r0, ProcessorId::new(1)), 3.5);
        assert_eq!(m.processor_time(ProcessorId::new(0)), 3.5);
        assert_eq!(
            m.processor_slice(r0, ActivityKind::Computation).unwrap(),
            &[1.0, 3.0]
        );
    }

    #[test]
    fn performs_matches_table_dashes() {
        let m = sample();
        let r0 = RegionId::new(0);
        let r1 = RegionId::new(1);
        assert!(m.performs(r0, ActivityKind::Computation));
        assert!(!m.performs(r0, ActivityKind::PointToPoint));
        assert!(m.performs(r1, ActivityKind::PointToPoint));
        assert!(!m.performs(r1, ActivityKind::Synchronization));
    }

    #[test]
    fn record_accumulates_and_set_overwrites() {
        let mut b = MeasurementsBuilder::new(1);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Io, 0, 1.0).unwrap_err(); // Io not in standard set
        b.record(r, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r, ActivityKind::Computation, 0, 2.0).unwrap();
        b.set(r, ActivityKind::Synchronization, 0, 9.0).unwrap();
        b.set(r, ActivityKind::Synchronization, 0, 4.0).unwrap();
        let m = b.build().unwrap();
        let r = RegionId::new(0);
        assert_eq!(
            m.time(r, ActivityKind::Computation, ProcessorId::new(0)),
            3.0
        );
        assert_eq!(
            m.time(r, ActivityKind::Synchronization, ProcessorId::new(0)),
            4.0
        );
    }

    #[test]
    fn add_activity_keeps_cells_bit_for_bit() {
        let mut grown = MeasurementsBuilder::new(3);
        let mut fixed = MeasurementsBuilder::with_activities(
            3,
            ActivitySet::new(
                STANDARD_ACTIVITIES
                    .into_iter()
                    .chain([ActivityKind::MemoryAccess, ActivityKind::Io]),
            ),
        );
        for b in [&mut grown, &mut fixed] {
            b.add_region("a");
            b.add_region("b");
        }
        let (a, r1) = (RegionId::new(0), RegionId::new(1));
        // Values whose bits a stray add or copy would disturb.
        let cells = [
            (a, ActivityKind::Computation, 0, 0.1 + 0.2),
            (a, ActivityKind::Synchronization, 2, f64::MIN_POSITIVE),
            (r1, ActivityKind::Collective, 1, 1e300),
            (r1, ActivityKind::Synchronization, 2, 1.0 / 3.0),
        ];
        for (r, k, p, v) in cells {
            grown.record(r, k, p, v).unwrap();
            fixed.record(r, k, p, v).unwrap();
        }
        assert_eq!(grown.add_activity(ActivityKind::MemoryAccess), 4);
        grown.record(a, ActivityKind::MemoryAccess, 1, 2.5).unwrap();
        fixed.record(a, ActivityKind::MemoryAccess, 1, 2.5).unwrap();
        assert_eq!(grown.add_activity(ActivityKind::Io), 5);
        grown.record(r1, ActivityKind::Io, 0, 0.75).unwrap();
        fixed.record(r1, ActivityKind::Io, 0, 0.75).unwrap();

        let (grown, fixed) = (grown.build().unwrap(), fixed.build().unwrap());
        assert_eq!(grown, fixed);
        for (r, k, p, v) in cells {
            let got = grown.time(r, k, ProcessorId::new(p));
            assert_eq!(got.to_bits(), v.to_bits(), "{k} on p{p}");
        }
    }

    #[test]
    fn add_activity_of_a_present_kind_is_a_no_op() {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Collective, 1, 4.0).unwrap();
        assert_eq!(b.add_activity(ActivityKind::Collective), 2);
        assert_eq!(b.add_activity(ActivityKind::Io), 4);
        assert_eq!(b.add_activity(ActivityKind::Io), 4);
        let m = b.build().unwrap();
        assert_eq!(m.activities().len(), 5);
        assert_eq!(
            m.time(r, ActivityKind::Collective, ProcessorId::new(1)),
            4.0
        );
    }

    #[test]
    fn add_activity_handles_degenerate_shapes() {
        // No regions yet: growth only changes the set, and regions
        // added afterwards get the wider block.
        let mut b = MeasurementsBuilder::new(2);
        assert_eq!(b.add_activity(ActivityKind::Io), 4);
        let r = b.add_region("late");
        b.record(r, ActivityKind::Io, 1, 3.0).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.time(r, ActivityKind::Io, ProcessorId::new(1)), 3.0);

        // One processor.
        let mut b = MeasurementsBuilder::new(1);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Synchronization, 0, 1.5).unwrap();
        b.add_activity(ActivityKind::MemoryAccess);
        b.record(r, ActivityKind::MemoryAccess, 0, 0.5).unwrap();
        let m = b.build().unwrap();
        assert_eq!(
            m.activity_vector(r, ProcessorId::new(0)),
            vec![0.0, 0.0, 0.0, 1.5, 0.5]
        );
    }

    #[test]
    fn builder_validates_inputs() {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        assert!(matches!(
            b.record(RegionId::new(5), ActivityKind::Computation, 0, 1.0),
            Err(ModelError::RegionOutOfRange { .. })
        ));
        assert!(matches!(
            b.record(r, ActivityKind::Computation, 2, 1.0),
            Err(ModelError::ProcessorOutOfRange { .. })
        ));
        assert!(matches!(
            b.record(r, ActivityKind::Computation, 0, -1.0),
            Err(ModelError::InvalidTime { .. })
        ));
        assert!(matches!(
            b.record(r, ActivityKind::Computation, 0, f64::NAN),
            Err(ModelError::InvalidTime { .. })
        ));
    }

    #[test]
    fn build_requires_regions_and_processors() {
        assert!(matches!(
            MeasurementsBuilder::new(2).build(),
            Err(ModelError::NoRegions)
        ));
        let mut b = MeasurementsBuilder::new(0);
        b.add_region("r");
        assert!(matches!(b.build(), Err(ModelError::NoProcessors)));
    }

    #[test]
    fn from_dense_validates_shape_and_values() {
        let regions = vec![RegionInfo::new("r")];
        let acts = ActivitySet::standard();
        assert!(Measurements::from_dense(regions.clone(), acts.clone(), 2, vec![0.0; 7]).is_err());
        let mut good = vec![0.0; 8];
        good[0] = -1.0;
        assert!(matches!(
            Measurements::from_dense(regions.clone(), acts.clone(), 2, good),
            Err(ModelError::InvalidTime { .. })
        ));
        assert!(Measurements::from_dense(regions, acts, 2, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn activity_vector_is_in_column_order() {
        let m = sample();
        let v = m.activity_vector(RegionId::new(0), ProcessorId::new(0));
        assert_eq!(v, vec![1.0, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn unknown_activity_reads_as_zero() {
        let m = sample();
        assert_eq!(
            m.time(RegionId::new(0), ActivityKind::Io, ProcessorId::new(0)),
            0.0
        );
        assert!(m
            .processor_slice(RegionId::new(0), ActivityKind::Io)
            .is_none());
        assert_eq!(
            m.region_activity_time(RegionId::new(0), ActivityKind::Io),
            0.0
        );
    }

    #[test]
    fn clone_round_trip() {
        // Wire round-trips are covered by the trace codec tests; here we
        // only pin that a deep clone compares equal.
        let m = sample();
        let m2 = m.clone();
        assert_eq!(m, m2);
    }
}
