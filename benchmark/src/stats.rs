//! Medians, quartiles and tail percentiles.
//!
//! Every function rejects NaN: a NaN timing is a bug in the benchmark, and a
//! median that silently sorted it to one end would hide it.

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    Empty,
    Nan,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StatsError::Empty => "no samples",
            StatsError::Nan => "a sample is NaN",
        })
    }
}

fn sorted(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    if values.is_empty() {
        return Err(StatsError::Empty);
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::Nan);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected above"));
    Ok(v)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(values)?;
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The smallest sample: the fastest repeat of work that is the same every
/// time. Interference from the machine only ever adds time, so the fastest
/// repeat is the program's cost and the rest is the neighbours'.
pub fn fastest(values: &[f64]) -> Result<f64, StatsError> {
    Ok(sorted(values)?[0])
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of the samples.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    assert!(q > 0.0 && q <= 1.0, "percentile: q must be in (0, 1]");
    let v = sorted(values)?;
    let rank = (q * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `q`-quantile.
pub fn supports(n: usize, q: f64) -> bool {
    n - ((q * n as f64).ceil() as usize).min(n) >= MIN_BEYOND
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50, no higher than
/// `at_most`, that has at least ten samples beyond it, with its value; `None`
/// below twenty samples.
pub fn tail(values: &[f64], at_most: f64) -> Result<Option<(f64, f64)>, StatsError> {
    let v = sorted(values)?;
    for q in [0.999, 0.99, 0.95, 0.9, 0.75, 0.5] {
        if q <= at_most && supports(v.len(), q) {
            let rank = (q * v.len() as f64).ceil() as usize;
            return Ok(Some((q, v[rank.clamp(1, v.len()) - 1])));
        }
    }
    Ok(None)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), which
/// is what the acceptance check of the benchmark uses. Needs two samples.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], StatsError> {
    let v = sorted(values)?;
    let m = v.len();
    if m < 2 {
        return Err(StatsError::Empty);
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Ok(out)
}

/// Interquartile range over the median: the spread the acceptance check
/// compares with a metric's bound.
pub fn spread(values: &[f64]) -> Result<f64, StatsError> {
    let [q1, q2, q3] = quartiles(values)?;
    Ok(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert_eq!(median(&[7.5]), Ok(7.5));
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), Ok(1.0));
    }

    #[test]
    fn nan_and_empty_inputs_are_rejected() {
        assert_eq!(median(&[]), Err(StatsError::Empty));
        assert_eq!(median(&[1.0, f64::NAN]), Err(StatsError::Nan));
        assert_eq!(fastest(&[]), Err(StatsError::Empty));
        assert_eq!(fastest(&[f64::NAN, 1.0]), Err(StatsError::Nan));
        assert_eq!(percentile(&[f64::NAN], 0.5), Err(StatsError::Nan));
        assert_eq!(tail(&[1.0, f64::NAN], 1.0), Err(StatsError::Nan));
        assert_eq!(quartiles(&[f64::NAN, 1.0]), Err(StatsError::Nan));
        assert_eq!(quartiles(&[1.0]), Err(StatsError::Empty));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.99), Ok(99.0));
        assert_eq!(percentile(&v, 1.0), Ok(100.0));
        assert_eq!(percentile(&[5.0], 0.99), Ok(5.0));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        // 1 000 samples: p99 leaves exactly ten beyond, p99.9 leaves one.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(supports(1000, 0.99));
        assert!(!supports(1000, 0.999));
        assert_eq!(tail(&v, 1.0), Ok(Some((0.99, 990.0))));
        // 999 samples: p99 leaves only nine beyond, so p95 is reported.
        assert!(!supports(999, 0.99));
        assert_eq!(tail(&v[..999], 1.0).unwrap().unwrap().0, 0.95);
        // 10 000 samples reach p99.9.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big, 1.0), Ok(Some((0.999, 9990.0))));
        // ... unless the caller wants nothing above p99.
        assert_eq!(tail(&big, 0.99), Ok(Some((0.99, 9900.0))));
        // Twenty samples support the median only; nineteen support nothing.
        assert_eq!(tail(&v[..20], 1.0).unwrap().unwrap().0, 0.5);
        assert_eq!(tail(&v[..19], 1.0), Ok(None));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Ok([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Ok([1.5, 4.0, 12.0]));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Ok([2.5, 4.0, 5.5]));
        assert_eq!(spread(&v), Ok(1.0));
    }
}
