//! Simulated time.
//!
//! Time is kept in integer microseconds to make event ordering exact and
//! platform-independent (floating-point clocks accumulate rounding that
//! breaks determinism across optimization levels).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (microseconds since sim start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Instant at `s` seconds.
    #[must_use]
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Instant at `ms` milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1000)
    }

    /// Seconds as a float (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Milliseconds as a float (for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating difference `self - earlier`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Span of `s` seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Span of `ms` milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1000)
    }

    /// Span of `s` (float) seconds, rounded to the microsecond.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * 1e6).round().max(0.0) as u64)
    }

    /// Span of `ms` (float) milliseconds, rounded to the microsecond.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration((ms * 1e3).round().max(0.0) as u64)
    }

    /// Seconds as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Milliseconds as a float.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Scale by an integer factor.
    #[must_use]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000);
        assert_eq!(SimTime::from_millis(2).0, 2000);
        assert_eq!(Duration::from_secs_f64(0.5).0, 500_000);
        assert_eq!(Duration::from_millis_f64(1.5).0, 1500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.0, 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_millis_f64(), 500.0);
        assert_eq!(t.since(SimTime::from_secs(2)), Duration::ZERO);
    }

    #[test]
    fn negative_float_clamped() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(Duration::from_secs(1) > Duration::from_millis(999));
    }
}
