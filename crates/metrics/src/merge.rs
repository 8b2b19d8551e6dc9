//! Mergeable metric accumulation for multi-trial experiments.
//!
//! The parallel trial driver (`octopus-core::TrialRunner`) runs many
//! independent seeded simulations and needs to combine their reports
//! into one. [`Merge`] is the contract a combinable metric implements;
//! [`Accumulator`] folds a stream of them. Merging must be associative
//! and deterministic — the driver always folds in trial-index order, so
//! T trials merged on 1 thread and on N threads yield identical results.

use crate::summary::Summary;

/// A metric that can absorb another instance of itself.
///
/// Implementations must be associative (`(a·b)·c == a·(b·c)`) so that a
/// fold over any grouping of sub-results agrees with the sequential
/// fold; determinism then only requires folding in a fixed order.
///
/// ```
/// use octopus_metrics::{Merge, Summary};
///
/// let mut a = Summary::new();
/// a.extend([1.0, 2.0]);
/// let mut b = Summary::new();
/// b.extend([3.0, 4.0]);
/// a.merge(b); // the summary of the concatenated samples
/// assert_eq!(a.count(), 4);
/// assert_eq!(a.mean(), 2.5);
/// ```
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Folds a sequence of mergeable values, tracking how many were merged.
///
/// The trial driver collects per-trial reports through this — always in
/// submission order, so any worker count merges identically.
///
/// ```
/// use octopus_metrics::{Accumulator, Summary};
///
/// let acc: Accumulator<Summary> = (1..=3)
///     .map(|t| {
///         let mut s = Summary::new();
///         s.extend([f64::from(t)]); // one "trial result" each
///         s
///     })
///     .collect();
/// assert_eq!(acc.count(), 3);
/// let pooled = acc.into_inner().expect("three summaries folded");
/// assert_eq!(pooled.mean(), 2.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Accumulator<T> {
    value: Option<T>,
    count: usize,
}

impl<T: Merge> Accumulator<T> {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Accumulator {
            value: None,
            count: 0,
        }
    }

    /// Fold one value in.
    pub fn push(&mut self, value: T) {
        self.count += 1;
        match &mut self.value {
            Some(acc) => acc.merge(value),
            none => *none = Some(value),
        }
    }

    /// Number of values folded so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The merged result (`None` when nothing was pushed).
    pub fn into_inner(self) -> Option<T> {
        self.value
    }

    /// Borrow the merged result so far.
    #[must_use]
    pub fn current(&self) -> Option<&T> {
        self.value.as_ref()
    }
}

impl<T: Merge> FromIterator<T> for Accumulator<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut acc = Accumulator::new();
        for v in iter {
            acc.push(v);
        }
        acc
    }
}

/// Element-wise sum of `(t, value)` point series, in place.
///
/// Series produced by equal-duration runs align index-by-index (the
/// driver schedules measurements on a fixed grid); when lengths differ
/// (a run drained its queue early) the sum truncates to the common
/// prefix so no phantom zeros dilute later bins.
pub fn merge_point_series(acc: &mut Vec<(f64, f64)>, other: &[(f64, f64)]) {
    if acc.is_empty() {
        acc.extend_from_slice(other);
        return;
    }
    if other.is_empty() {
        return;
    }
    let common = acc.len().min(other.len());
    acc.truncate(common);
    for (a, b) in acc.iter_mut().zip(other) {
        a.1 += b.1; // octolint: allow(OCT-LINT-007) -- the driver merges trial series in fixed trial-index order (TrialRunner collects in submission order), so the float sum sees one canonical operand order
    }
}

impl Merge for Summary {
    /// Pools the sample sets (the merged summary is the summary of the
    /// concatenated samples).
    fn merge(&mut self, other: Self) {
        self.absorb(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Count(u64);
    impl Merge for Count {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
    }

    #[test]
    fn accumulator_folds_in_order() {
        let mut acc = Accumulator::new();
        assert!(acc.current().is_none());
        for i in 1..=4 {
            acc.push(Count(i));
        }
        assert_eq!(acc.count(), 4);
        assert_eq!(acc.into_inner(), Some(Count(10)));
    }

    #[test]
    fn accumulator_from_iter() {
        let acc: Accumulator<Count> = (1..=3).map(Count).collect();
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.into_inner(), Some(Count(6)));
    }

    #[test]
    fn empty_accumulator_yields_none() {
        let acc: Accumulator<Count> = Accumulator::new();
        assert_eq!(acc.into_inner(), None);
    }

    #[test]
    fn point_series_sum() {
        let mut a = vec![(0.0, 1.0), (5.0, 2.0)];
        merge_point_series(&mut a, &[(0.0, 10.0), (5.0, 20.0)]);
        assert_eq!(a, vec![(0.0, 11.0), (5.0, 22.0)]);
    }

    #[test]
    fn point_series_handles_empty_and_ragged() {
        let mut a: Vec<(f64, f64)> = Vec::new();
        merge_point_series(&mut a, &[(0.0, 1.0)]);
        assert_eq!(a, vec![(0.0, 1.0)]);
        merge_point_series(&mut a, &[]);
        assert_eq!(a, vec![(0.0, 1.0)]);
        // ragged: truncates to the common prefix
        let mut b = vec![(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)];
        merge_point_series(&mut b, &[(0.0, 1.0), (5.0, 1.0)]);
        assert_eq!(b, vec![(0.0, 2.0), (5.0, 2.0)]);
    }

    #[test]
    fn summary_merge_pools_samples() {
        let mut a = Summary::new();
        a.extend([1.0, 2.0]);
        let mut b = Summary::new();
        b.extend([3.0, 4.0]);
        a.merge(b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.median(), 2.5);
    }
}
