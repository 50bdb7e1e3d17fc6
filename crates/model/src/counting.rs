//! Counting parameters: message counts, bytes, I/O operations, cache misses.
//!
//! The paper's model covers "counting parameters, such as, number of I/O
//! operations, number of bytes read/written, number of memory accesses,
//! number of cache misses" alongside the timing parameters. Counts share
//! the `N × K × P` shape of [`Measurements`](crate::Measurements) but are
//! keyed by [`CountKind`] instead of being wall-clock times, and the same
//! dissimilarity machinery applies to them unchanged.

use std::collections::BTreeMap;
use std::fmt;

use crate::{ModelError, ProcessorId, RegionId};

/// Kind of event being counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CountKind {
    /// Messages sent.
    MessagesSent,
    /// Messages received.
    MessagesReceived,
    /// Bytes sent.
    BytesSent,
    /// Bytes received.
    BytesReceived,
    /// I/O operations issued.
    IoOperations,
    /// Bytes read or written by I/O.
    IoBytes,
    /// Memory accesses.
    MemoryAccesses,
    /// Cache misses.
    CacheMisses,
}

impl CountKind {
    /// Short, stable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CountKind::MessagesSent => "msgs-sent",
            CountKind::MessagesReceived => "msgs-recv",
            CountKind::BytesSent => "bytes-sent",
            CountKind::BytesReceived => "bytes-recv",
            CountKind::IoOperations => "io-ops",
            CountKind::IoBytes => "io-bytes",
            CountKind::MemoryAccesses => "mem-accesses",
            CountKind::CacheMisses => "cache-misses",
        }
    }
}

impl fmt::Display for CountKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sparse `region × kind × processor` matrix of event counts.
///
/// # Example
///
/// ```
/// use limba_model::{CountKind, CountMatrixBuilder, ProcessorId, RegionId};
/// # fn main() -> Result<(), limba_model::ModelError> {
/// let mut b = CountMatrixBuilder::new(2);
/// b.record(RegionId::new(0), CountKind::BytesSent, 0, 4096.0)?;
/// b.record(RegionId::new(0), CountKind::BytesSent, 1, 8192.0)?;
/// let counts = b.build();
/// assert_eq!(counts.count(RegionId::new(0), CountKind::BytesSent, ProcessorId::new(1)), 8192.0);
/// assert_eq!(counts.total(CountKind::BytesSent), 12288.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CountMatrix {
    processors: usize,
    cells: BTreeMap<(usize, CountKind), Vec<f64>>,
}

impl CountMatrix {
    /// Count in one cell; `0.0` for never-recorded cells.
    pub fn count(&self, region: RegionId, kind: CountKind, proc: ProcessorId) -> f64 {
        self.cells
            .get(&(region.index(), kind))
            .and_then(|v| v.get(proc.index()).copied())
            .unwrap_or(0.0)
    }

    /// Per-processor counts of one `(region, kind)` cell, if recorded.
    pub(crate) fn processor_slice(&self, region: RegionId, kind: CountKind) -> Option<&[f64]> {
        self.cells
            .get(&(region.index(), kind))
            .map(|v| v.as_slice())
    }

    /// Total count of `kind` in `region` over all processors.
    pub fn region_total(&self, region: RegionId, kind: CountKind) -> f64 {
        self.processor_slice(region, kind)
            .map(|s| s.iter().sum())
            .unwrap_or(0.0)
    }

    /// Total count of `kind` over the whole program.
    pub fn total(&self, kind: CountKind) -> f64 {
        self.cells
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    }

    /// Iterates over all recorded `(region, kind)` cells.
    pub fn cells(&self) -> impl Iterator<Item = (RegionId, CountKind, &[f64])> {
        self.cells
            .iter()
            .map(|(&(r, k), v)| (RegionId::new(r), k, v.as_slice()))
    }
}

/// Builder for [`CountMatrix`].
#[derive(Debug, Clone)]
pub struct CountMatrixBuilder {
    processors: usize,
    cells: BTreeMap<(usize, CountKind), Vec<f64>>,
}

impl CountMatrixBuilder {
    /// Creates a builder for `processors` processors.
    pub fn new(processors: usize) -> Self {
        CountMatrixBuilder {
            processors,
            cells: BTreeMap::new(),
        }
    }

    /// Adds `amount` to the `(region, kind, proc)` cell.
    ///
    /// # Errors
    ///
    /// Returns an error when `proc` is out of range or `amount` is negative
    /// or non-finite.
    pub fn record(
        &mut self,
        region: RegionId,
        kind: CountKind,
        proc: usize,
        amount: f64,
    ) -> Result<(), ModelError> {
        if proc >= self.processors {
            return Err(ModelError::ProcessorOutOfRange {
                index: proc,
                processors: self.processors,
            });
        }
        if !amount.is_finite() || amount < 0.0 {
            return Err(ModelError::InvalidCount { value: amount });
        }
        let slot = self
            .cells
            .entry((region.index(), kind))
            .or_insert_with(|| vec![0.0; self.processors]);
        slot[proc] += amount;
        Ok(())
    }

    /// Finalizes the builder.
    pub fn build(self) -> CountMatrix {
        CountMatrix {
            processors: self.processors,
            cells: self.cells,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn record_and_query() {
        let mut b = CountMatrixBuilder::new(3);
        let r = RegionId::new(0);
        b.record(r, CountKind::MessagesSent, 0, 2.0).unwrap();
        b.record(r, CountKind::MessagesSent, 0, 3.0).unwrap();
        b.record(r, CountKind::MessagesSent, 2, 1.0).unwrap();
        let m = b.build();
        assert_eq!(
            m.count(r, CountKind::MessagesSent, ProcessorId::new(0)),
            5.0
        );
        assert_eq!(
            m.count(r, CountKind::MessagesSent, ProcessorId::new(1)),
            0.0
        );
        assert_eq!(m.region_total(r, CountKind::MessagesSent), 6.0);
        assert_eq!(m.total(CountKind::MessagesSent), 6.0);
        assert_eq!(m.total(CountKind::CacheMisses), 0.0);
    }

    #[test]
    fn unrecorded_cells_read_zero() {
        let m = CountMatrixBuilder::new(2).build();
        assert_eq!(
            m.count(RegionId::new(4), CountKind::IoBytes, ProcessorId::new(1)),
            0.0
        );
        assert!(m
            .processor_slice(RegionId::new(4), CountKind::IoBytes)
            .is_none());
    }

    #[test]
    fn validation() {
        let mut b = CountMatrixBuilder::new(1);
        assert!(matches!(
            b.record(RegionId::new(0), CountKind::IoOperations, 1, 1.0),
            Err(ModelError::ProcessorOutOfRange { .. })
        ));
        assert!(matches!(
            b.record(RegionId::new(0), CountKind::IoOperations, 0, -4.0),
            Err(ModelError::InvalidCount { .. })
        ));
    }

    #[test]
    fn cells_iterates_in_region_order() {
        let mut b = CountMatrixBuilder::new(1);
        b.record(RegionId::new(1), CountKind::BytesSent, 0, 1.0)
            .unwrap();
        b.record(RegionId::new(0), CountKind::BytesSent, 0, 2.0)
            .unwrap();
        let m = b.build();
        let regions: Vec<usize> = m.cells().map(|(r, _, _)| r.index()).collect();
        assert_eq!(regions, vec![0, 1]);
    }
}
