//! Order statistics over measured samples.

/// The `q`-quantile (`0 <= q <= 1`) of `values`, interpolating linearly
/// between the two closest ranks (`(n - 1) * q`, the inclusive method).
/// An empty sample has no quantile and yields 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// [`quantile`] of integer nanosecond samples, in nanoseconds.
pub fn quantile_ns(values: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    quantile(&v, q)
}

/// A quantile that resists stalls of the whole machine: cut `[0, end)`
/// into `slices` equal time slices, take the `q`-quantile of the samples
/// `(time, value)` in each, and return the `across`-quantile of those
/// per-slice values (0.5: the median slice; 0.25: the best quarter for a
/// lower-is-better value). A stall that spoils fewer than `1 - across` of
/// the slices does not move it. Samples at or after `end` and empty slices
/// are ignored.
pub fn sliced_quantile(
    samples: &[(u64, f64)],
    end: u64,
    slices: usize,
    q: f64,
    across: f64,
) -> f64 {
    let width = (end / slices.max(1) as u64).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices.max(1)];
    for &(t, v) in samples {
        if let Some(b) = buckets.get_mut((t / width) as usize) {
            b.push(v);
        }
    }
    let per_slice: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(b, q))
        .collect();
    quantile(&per_slice, across)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quantile_of_nothing_is_zero_and_ignores_order() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile_ns(&[30, 10, 20], 0.5), 20.0);
        let up: Vec<f64> = (0..100).map(f64::from).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        assert_eq!(quantile(&up, 0.99), quantile(&down, 0.99));
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn sliced_quantile_ignores_a_stall_in_a_minority_of_slices() {
        // Four slices of 100 ns; slice 2 is stalled (values 1000).
        let mut samples: Vec<(u64, f64)> = (0..400).map(|t| (t, 10.0 + (t % 7) as f64)).collect();
        for s in samples.iter_mut().filter(|s| (200..300).contains(&s.0)) {
            s.1 = 1000.0;
        }
        let sliced = sliced_quantile(&samples, 400, 4, 0.9, 0.5);
        assert!(sliced < 20.0, "{sliced}");
        let whole: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&whole, 0.9), 1000.0);
        assert_eq!(sliced_quantile(&[], 400, 4, 0.5, 0.5), 0.0);
        assert_eq!(sliced_quantile(&[(500, 1.0)], 400, 4, 0.5, 0.5), 0.0);
        // The best quarter ignores a stall in three slices of four.
        let mut three: Vec<(u64, f64)> = (0..400)
            .map(|t| (t, if t < 300 { 1000.0 } else { 10.0 }))
            .collect();
        three.push((399, 12.0));
        assert!(sliced_quantile(&three, 400, 4, 0.5, 0.0) < 20.0);
    }
}
