//! The benchmark's own arithmetic: medians and the derived end-to-end
//! figures.

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)` (including its linear extrapolation
/// for very small samples), so spreads printed here match the ones
/// computed over a set of runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len() as i64;
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Operations completed per wall second.
pub fn ops_per_s(ops: u64, wall_s: f64) -> f64 {
    assert!(wall_s > 0.0, "a campaign takes time");
    ops as f64 / wall_s
}

/// Thread-seconds the campaign's thread budget left unused: `threads`
/// workers could have burnt `threads × wall` CPU seconds and burnt `cpu`.
/// Straggler tails and serial sections show up here.
pub fn worker_idle_s(threads: usize, wall_s: f64, cpu_s: f64) -> f64 {
    threads as f64 * wall_s - cpu_s
}

/// Share of `part` in `whole` (0 when `whole` is 0).
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn ops_per_second() {
        assert_eq!(ops_per_s(36, 9.0), 4.0);
        assert_eq!(ops_per_s(2180, 4.0), 545.0);
    }

    #[test]
    #[should_panic(expected = "takes time")]
    fn ops_per_second_rejects_zero_wall() {
        ops_per_s(1, 0.0);
    }

    #[test]
    fn idle_is_budget_minus_burnt() {
        // Two workers for 36 s that burnt 67.4 CPU seconds left 4.6 idle.
        assert!((worker_idle_s(2, 36.0, 67.4) - 4.6).abs() < 1e-9);
        // A fully busy budget idles for nothing.
        assert_eq!(worker_idle_s(2, 5.0, 10.0), 0.0);
        // A serial campaign on two threads idles for one wall.
        assert_eq!(worker_idle_s(2, 3.0, 3.0), 3.0);
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
