//! Exact order statistics over raw client-side samples.
//!
//! No histogram buckets: every percentile is read from the sorted
//! samples themselves, so it is exact rather than a bucket edge.

/// A tail percentile must have at least this many samples beyond it;
/// otherwise the highest percentile that has is reported instead.
pub const TAIL_MIN: usize = 10;

/// A percentile read from raw samples, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the reported rank (0 when there are no samples).
    pub value: f64,
    /// The percentile actually reported, in percent.
    pub pct: f64,
    /// Number of samples it was read from.
    pub samples: usize,
}

/// Sort samples ascending (they are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`; 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of ascending `sorted`; 0 when empty.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// The `q`-quantile when at least [`TAIL_MIN`] samples lie beyond its
/// rank, else the highest rank that still has [`TAIL_MIN`] beyond it
/// (never below the median).
pub fn tail(sorted: &[f64], q: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            pct: q * 100.0,
            samples: 0,
        };
    }
    let want = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = if n - want >= TAIL_MIN {
        want
    } else {
        (n.saturating_sub(TAIL_MIN)).max(n.div_ceil(2)).max(1)
    };
    Percentile {
        value: sorted[rank - 1],
        pct: rank as f64 * 100.0 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_falls_back_when_too_few_samples_lie_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p = tail(&v, 0.99);
        assert_eq!((p.value, p.pct, p.samples), (1980.0, 99.0, 2000));
        // 100 samples: p99 has one beyond it, so report rank 90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail(&v, 0.99);
        assert_eq!((p.value, p.pct), (90.0, 90.0));
        // Fewer than 2 * TAIL_MIN: never below the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).value, 6.0);
    }
}
