//! Summary statistics.

/// Accumulates samples and reports mean/median/percentiles.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary::default()
    }

    /// Add one sample.
    pub fn add(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Add many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        self.samples.extend(it);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Pool another summary's samples into this one (the basis of the
    /// [`Merge`](crate::Merge) impl used when combining trial reports).
    pub fn absorb(&mut self, other: Summary) {
        self.samples.extend(other.samples);
        self.sorted = false;
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// p-th percentile by linear interpolation, p ∈ [0, 100].
    #[must_use]
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Median.
    #[must_use]
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.median(), 2.5);
        s.add(100.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = Summary::new();
        s.extend([0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(25.0), 2.5);
    }

    #[test]
    fn empty_is_zero() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.add(7.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.percentile(99.0), 7.0);
    }
}
