//! Position-to-processor placements.

/// Decides which processor takes which position of a solved (ascending)
/// weight profile.
///
/// [`solve_weights`](crate::solve_weights) returns weights in ascending
/// position order; a placement scatters them to processors. Placements
/// drive *who* the imbalanced processors are without touching the
/// dispersion (which is permutation invariant).
///
/// # Example
///
/// ```
/// use limba_calibrate::Placement;
/// let placed = Placement::outlier_high(4, 1).apply(&[1.0, 2.0, 3.0, 9.0]);
/// assert_eq!(placed[1], 9.0); // processor 1 got the heaviest position
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pos_to_proc: Vec<usize>,
}

impl Placement {
    /// Position `k` goes to processor `k`.
    pub fn identity(n: usize) -> Self {
        Placement {
            pos_to_proc: (0..n).collect(),
        }
    }

    /// Position `k` goes to processor `(k + offset) % n`.
    pub fn rotated(n: usize, offset: usize) -> Self {
        Placement {
            pos_to_proc: (0..n).map(|k| (k + offset) % n).collect(),
        }
    }

    /// `proc` takes the lightest position; everyone else keeps index
    /// order over the remaining positions.
    ///
    /// # Panics
    ///
    /// Panics when `proc >= n`.
    pub fn outlier_low(n: usize, proc: usize) -> Self {
        assert!(proc < n, "outlier processor out of range");
        let mut pos_to_proc = vec![proc];
        pos_to_proc.extend((0..n).filter(|&p| p != proc));
        Placement { pos_to_proc }
    }

    /// `proc` takes the heaviest position.
    ///
    /// # Panics
    ///
    /// Panics when `proc >= n`.
    pub fn outlier_high(n: usize, proc: usize) -> Self {
        assert!(proc < n, "outlier processor out of range");
        let mut pos_to_proc: Vec<usize> = (0..n).filter(|&p| p != proc).collect();
        pos_to_proc.push(proc);
        Placement { pos_to_proc }
    }

    /// Number of positions.
    pub(crate) fn len(&self) -> usize {
        self.pos_to_proc.len()
    }

    /// Scatters ascending weights to processors.
    ///
    /// # Panics
    ///
    /// Panics when `weights.len()` differs from the placement length.
    pub fn apply(&self, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.pos_to_proc.len(), "length mismatch");
        let mut out = vec![0.0; weights.len()];
        for (k, &w) in weights.iter().enumerate() {
            out[self.pos_to_proc[k]] = w;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_rotation() {
        let w = [1.0, 2.0, 3.0];
        assert_eq!(Placement::identity(3).apply(&w), vec![1.0, 2.0, 3.0]);
        // rotated(1): position k → proc k+1; proc 0 gets position 2.
        assert_eq!(Placement::rotated(3, 1).apply(&w), vec![3.0, 1.0, 2.0]);
        assert_eq!(Placement::rotated(3, 3).apply(&w), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn outliers_take_extremes() {
        let w = [1.0, 2.0, 3.0, 9.0];
        let low = Placement::outlier_low(4, 2).apply(&w);
        assert_eq!(low[2], 1.0);
        let high = Placement::outlier_high(4, 0).apply(&w);
        assert_eq!(high[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outlier_out_of_range_panics() {
        Placement::outlier_low(4, 9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_length_mismatch_panics() {
        Placement::identity(2).apply(&[1.0]);
    }
}
