//! Estimators over a run's timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Index of the smallest sample (the fastest iteration).
pub fn argmin(samples: &[f64]) -> usize {
    assert!(!samples.is_empty(), "at least one sample");
    let mut best = 0;
    for (i, s) in samples.iter().enumerate() {
        if *s < samples[best] {
            best = i;
        }
    }
    best
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "at least one sample");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of the ladder 99 / 95 / 90 / 75 / 50 that still
/// has at least ten samples beyond it, as `(percentile, value)`; `None` when
/// even the median does not (fewer than 20 samples).
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    let n = v.len();
    [99u32, 95, 90, 75, 50].into_iter().find_map(|p| {
        // Samples strictly beyond the p-th percentile's position.
        let idx = (n * p as usize).div_ceil(100);
        let beyond = n.saturating_sub(idx);
        (idx >= 1 && beyond >= 10).then(|| (p, v[idx - 1]))
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the estimator the acceptance rule for
/// this benchmark is written in.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let v = sorted(samples);
    let len = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        let s = [3.0, 1.5, 2.0, 9.0];
        assert_eq!(argmin(&s), 1);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&few), None, "too few samples");
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&twenty), Some((50, 10.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&forty), Some((75, 30.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&thousand), Some((99, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2.0, 2.1, 2.05, 2.4, 2.2], n=4) == [2.025, 2.1, 2.3]
        let q = quartiles(&[2.0, 2.1, 2.05, 2.4, 2.2]);
        for (got, want) in q.iter().zip([2.025, 2.1, 2.3]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
