//! Condensed pairwise distance matrix.

use std::fmt;

/// A symmetric pairwise distance matrix over `n` items, stored in condensed
/// (upper-triangle) form: `n * (n - 1) / 2` entries.
///
/// Distances may be `f64::INFINITY` for unrelated pairs (correlation zero);
/// the clustering treats such pairs as never-mergeable below any finite
/// threshold.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::DistanceMatrix;
///
/// let mut m = DistanceMatrix::new_filled(3, f64::INFINITY);
/// m.set(0, 2, 0.5);
/// assert_eq!(m.get(2, 0), 0.5);
/// assert!(m.get(0, 1).is_infinite());
/// ```
#[derive(Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix with every off-diagonal distance set to
    /// `fill`.
    ///
    /// # Panics
    ///
    /// Panics if the condensed size `n * (n - 1) / 2` would overflow `usize`.
    pub fn new_filled(n: usize, fill: f64) -> Self {
        let len = n
            .checked_mul(n.saturating_sub(1))
            .map(|x| x / 2)
            .expect("distance matrix size overflows usize");
        DistanceMatrix {
            n,
            data: vec![fill; len],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix covers no items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j, "diagonal is not stored");
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        debug_assert!(j < self.n, "index out of bounds");
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The distance between items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `i == j` or either index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.index(i, j)]
    }

    /// Sets the distance between items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `i == j` or either index is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// The smallest off-diagonal distance, with its pair, or `None` for
    /// matrices over fewer than two items.
    pub fn min_pair(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let d = self.get(i, j);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        best
    }
}

impl fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DistanceMatrix(n={}, {} entries)",
            self.n,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensed_indexing_is_symmetric() {
        let mut m = DistanceMatrix::new_filled(4, 0.0);
        let mut v = 1.0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                m.set(i, j, v);
                v += 1.0;
            }
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 3), 6.0);
    }

    #[test]
    fn min_pair_finds_global_minimum() {
        let mut m = DistanceMatrix::new_filled(3, f64::INFINITY);
        m.set(1, 2, 0.75);
        m.set(0, 1, 2.0);
        assert_eq!(m.min_pair(), Some((1, 2, 0.75)));
    }

    #[test]
    fn degenerate_sizes() {
        assert!(DistanceMatrix::new_filled(0, 0.0).min_pair().is_none());
        assert!(DistanceMatrix::new_filled(1, 0.0).min_pair().is_none());
        assert!(DistanceMatrix::new_filled(0, 0.0).is_empty());
    }
}
