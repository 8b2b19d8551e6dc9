//! Order statistics for the timings this benchmark reports.
//!
//! The host this benchmark was written on is a shared two-core VM whose
//! speed drifts by 15–35 % for seconds at a time (a fixed spin loop
//! shows it), always towards *slower*. A median over a handful of
//! repetitions inherits that drift; [`quiet_sum`] does not: work is cut
//! into short steps, every repetition times the same steps, and each
//! step contributes its fastest repetition.

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100) of `values`, nearest-rank.
///
/// # Panics
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark's acceptance check uses.
///
/// # Panics
/// With fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the spread the
/// acceptance check compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Time of each step on an undisturbed host: the fastest of the
/// repetitions.
///
/// # Panics
/// If there are no repetitions or they differ in step count — the same
/// seed must cut the same work into the same steps.
pub fn quiet_steps<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let reps: Vec<&[f64]> = reps.into_iter().collect();
    let steps = reps.first().expect("at least one repetition").len();
    assert!(
        reps.iter().all(|r| r.len() == steps),
        "repetitions differ in step count"
    );
    (0..steps)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Time of one repetition on an undisturbed host: the sum of its
/// [`quiet_steps`].
pub fn quiet_sum<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    quiet_steps(reps).iter().sum()
}

/// Seconds one event of each of two kinds adds to a step, fitted from
/// outside: `steps[i]` is the time of step `i`, during which `a[i]`
/// events of the first kind and `b[i]` of the second happened beside
/// everything else the step did. The rest of a step's work drifts
/// slowly, so the series are cut into windows of `window` steps, every
/// value is taken relative to its window's mean, and the two costs are
/// the least-squares fit of time on counts over all windows. Returns
/// `(0, 0)` when the counts do not vary (nothing to fit).
pub fn event_costs(steps: &[f64], a: &[f64], b: &[f64], window: usize) -> (f64, f64) {
    assert!(steps.len() == a.len() && steps.len() == b.len() && window >= 2);
    let (mut saa, mut sab, mut sbb, mut say, mut sby) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for start in (0..steps.len()).step_by(window) {
        let end = (start + window).min(steps.len());
        let mean = |v: &[f64]| v[start..end].iter().sum::<f64>() / (end - start) as f64;
        let (my, ma, mb) = (mean(steps), mean(a), mean(b));
        for i in start..end {
            let (y, xa, xb) = (steps[i] - my, a[i] - ma, b[i] - mb);
            saa += xa * xa;
            sab += xa * xb;
            sbb += xb * xb;
            say += xa * y;
            sby += xb * y;
        }
    }
    let det = saa * sbb - sab * sab;
    if det.abs() < 1e-9 {
        return (0.0, 0.0);
    }
    ((say * sbb - sby * sab) / det, (sby * saa - say * sab) / det)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_costs_recovers_planted_costs_under_a_drifting_base() {
        // base work falls from 10 to 5 over the run; an `a` costs 0.3, a `b` 0.1
        let n = 400;
        let a: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 4) as f64).collect();
        let steps: Vec<f64> = (0..n)
            .map(|i| 10.0 - 5.0 * i as f64 / n as f64 + 0.3 * a[i] + 0.1 * b[i])
            .collect();
        let (ca, cb) = event_costs(&steps, &a, &b, 10);
        assert!(
            (ca - 0.3).abs() < 0.01 && (cb - 0.1).abs() < 0.01,
            "{ca} {cb}"
        );
        let none = vec![0.0; n];
        assert_eq!(event_costs(&steps, &none, &none, 10), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn quiet_sum_takes_the_fastest_repetition_of_each_step() {
        let reps = [[1.0, 9.0, 3.0], [2.0, 2.0, 8.0]];
        assert_eq!(quiet_sum(reps.iter().map(|r| r.as_slice())), 6.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }
}
