//! Statistics helpers shared by the Octopus evaluation harness.
//!
//! The tables and figures reduce to a few summary shapes: means, medians
//! and percentiles (Table 3), per-trial point series summed across trials
//! (Figs. 3, 4, 7b, 9), and entropies (Figs. 5, 6). This crate implements
//! those reductions once, with text tables that mirror the paper's rows.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod merge;
pub mod summary;
pub mod table;

pub use merge::{merge_point_series, Accumulator, Merge};
pub use summary::Summary;
pub use table::TextTable;

/// Shannon entropy (bits) of a discrete distribution given as
/// probabilities. Zero-probability entries contribute nothing; the input
/// need not be normalized (it is normalized internally).
#[must_use]
pub fn entropy_bits(probs: &[f64]) -> f64 {
    let total: f64 = probs.iter().filter(|p| **p > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &p in probs {
        if p > 0.0 {
            let q = p / total;
            h -= q * q.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_matches() {
        let p = vec![0.25; 4];
        assert!((entropy_bits(&p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_unnormalized_input() {
        let p = vec![1.0, 1.0, 1.0, 1.0];
        assert!((entropy_bits(&p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_degenerate() {
        assert_eq!(entropy_bits(&[1.0]), 0.0);
        assert_eq!(entropy_bits(&[]), 0.0);
        assert_eq!(entropy_bits(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_ignores_zeros() {
        let h = entropy_bits(&[0.5, 0.5, 0.0, 0.0]);
        assert!((h - 1.0).abs() < 1e-12);
    }
}
