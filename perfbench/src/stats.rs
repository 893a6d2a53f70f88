//! Order statistics: percentiles that carry their sample count, and the
//! median and quartiles of repeated measurements.

/// A nearest-rank percentile together with the sample it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile's rank, e.g. `99.0`.
    pub p: f64,
    /// The sample value at that rank (same unit as the input).
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
    /// How many samples lie strictly above the percentile's rank. A
    /// percentile is only reported as trustworthy with at least ten.
    pub beyond: usize,
}

/// The nearest-rank percentile of `sorted` (ascending): the sample at rank
/// `⌈p/100 · n⌉`, clamped to `1..=n` — the rank rule the simulator's
/// streaming histogram uses, so exact and histogram values are
/// comparable. `None` for an empty input.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { p, value: sorted[rank - 1] as f64, samples: n, beyond: n - rank })
}

/// Median and quartiles of repeated measurements, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method) does, so spreads printed here match an external check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Quartiles {
    /// Summarizes `values` (any order). With fewer than two values every
    /// field is the single value (or 0 for none).
    pub fn of(values: &[f64]) -> Quartiles {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let ld = data.len();
        if ld < 2 {
            let v = data.first().copied().unwrap_or(0.0);
            return Quartiles { q1: v, median: v, q3: v, n: ld };
        }
        let m = ld + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles { q1: cut(1), median: cut(2), q3: cut(3), n: ld }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_sample_count() {
        let samples: Vec<u64> = (1..=1000).collect();
        let p50 = percentile(&samples, 50.0).expect("non-empty");
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.samples, 1000);
        assert_eq!(p50.beyond, 500);
        let p99 = percentile(&samples, 99.0).expect("non-empty");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn small_samples_do_not_support_a_tail_percentile() {
        let samples: Vec<u64> = (1..=100).collect();
        let p99 = percentile(&samples, 99.0).expect("non-empty");
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7], 99.0).expect("non-empty");
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]: with two
        // values Python extrapolates, and so does this.
        let q = Quartiles::of(&[4.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.25, 2.5, 4.75));
        assert_eq!(Quartiles::of(&[2.0]).median, 2.0);
    }
}
