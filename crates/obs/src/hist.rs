//! The one log₂ histogram behind every reported latency.
//!
//! Server round-trip, queue-wait and execute distributions, telemetry
//! windows (and so SLO checks and the wire `Telemetry` export), and
//! `ks-top`'s group-commit panel all bucket the same way: 64 buckets,
//! bucket `i` holding `[2^i, 2^(i+1))`, with 0 going into bucket 0.
//! A quantile reports the **exclusive upper edge** `2^(i+1)` of the
//! bucket holding the q-th observation; only bucket 63, whose edge
//! `2^64` is unrepresentable, saturates to `u64::MAX`. Relative error is
//! therefore bounded by 2×.
//!
//! [`Log2Histogram`] is the plain, mergeable value; the lock-free
//! [`AtomicLog2Histogram`] records with one relaxed `fetch_add` and
//! [snapshots](AtomicLog2Histogram::snapshot) into a plain one.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets (bucket `i` holds `[2^i, 2^(i+1))`).
pub const LOG2_BUCKETS: usize = 64;

/// The bucket a value lands in (0 shares bucket 0 with 1).
#[inline]
fn bucket_of(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

/// The value a quantile reports for bucket `i`: its exclusive upper edge.
fn upper_edge(i: usize) -> u64 {
    if i + 1 >= LOG2_BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// A plain log₂ histogram of `u64` observations (nanoseconds, or counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; LOG2_BUCKETS],
        }
    }
}

impl Log2Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
    }

    /// Add `n` observations to bucket `index` (how a sparse encoding is
    /// rebuilt). Returns `Err(index)` when `index` names no bucket.
    ///
    /// Counts saturate here and in [`merge`](Self::merge) and
    /// [`total`](Self::total): decoded counts come from outside the
    /// process and must not overflow.
    pub fn add(&mut self, index: usize, n: u64) -> Result<(), usize> {
        let c = self.counts.get_mut(index).ok_or(index)?;
        *c = c.saturating_add(n);
        Ok(())
    }

    /// Fold `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a = a.saturating_add(b);
        }
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0, |t, &n| t.saturating_add(n))
    }

    /// The non-empty buckets as `(index, count)`, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(i, &n)| (i, n))
    }

    /// Quantile `q ∈ [0, 1]`: the upper edge of the bucket holding the
    /// `⌈q·total⌉`-th observation (at least the first). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        self.nonzero().find_map(|(i, n)| {
            seen = seen.saturating_add(n);
            (seen >= rank).then(|| upper_edge(i))
        })
    }
}

/// A lock-free [`Log2Histogram`] for hot paths shared across threads.
#[derive(Debug)]
pub struct AtomicLog2Histogram {
    counts: [AtomicU64; LOG2_BUCKETS],
}

impl Default for AtomicLog2Histogram {
    fn default() -> Self {
        AtomicLog2Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicLog2Histogram {
    /// Record one observation: a single relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain copy of the current counts (each bucket read once; the
    /// copy is not atomic across buckets).
    pub fn snapshot(&self) -> Log2Histogram {
        Log2Histogram {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_octaves_and_zero_joins_bucket_zero() {
        for (v, i) in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (100, 6), (127, 6)] {
            assert_eq!(bucket_of(v), i, "{v}");
        }
        assert_eq!(bucket_of(1 << 62), 62);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn counts_bucket_like_latencies() {
        // Count-valued observations (batch sizes) share the bucketing.
        let mut h = Log2Histogram::default();
        for n in [0, 1, 6, 32] {
            h.record(n);
        }
        let buckets: Vec<_> = h.nonzero().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 1), (5, 1)]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.quantile(1.0), Some(64));
        assert_eq!(h.quantile(0.0), Some(2), "rank clamps to the first");
        assert_eq!(Log2Histogram::default().quantile(0.5), None);
    }

    /// Bucket 62's upper edge `2^63` is representable; only bucket 63
    /// saturates.
    #[test]
    fn only_the_last_bucket_saturates() {
        let mut h = Log2Histogram::default();
        h.record(1 << 62);
        assert_eq!(h.quantile(1.0), Some(1 << 63));
        let mut h = Log2Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn checked_add_rejects_out_of_range_buckets() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.add(LOG2_BUCKETS - 1, 3), Ok(()));
        assert_eq!(h.add(LOG2_BUCKETS, 1), Err(LOG2_BUCKETS));
        assert_eq!(h.nonzero().collect::<Vec<_>>(), vec![(63, 3)]);
    }

    #[test]
    fn huge_counts_saturate_instead_of_overflowing() {
        let mut h = Log2Histogram::default();
        h.add(3, u64::MAX).unwrap();
        h.add(3, 1).unwrap();
        h.add(9, u64::MAX).unwrap();
        let copy = h.clone();
        h.merge(&copy);
        assert_eq!(h.total(), u64::MAX);
        assert_eq!(h.quantile(0.5), Some(16));
        assert_eq!(h.quantile(1.0), Some(16), "saturated rank");
    }

    #[test]
    fn merge_and_snapshot_agree_with_direct_recording() {
        let samples = [5u64, 90, 90, 4_000, 1 << 40];
        let atomic = AtomicLog2Histogram::default();
        let mut direct = Log2Histogram::default();
        let (mut left, mut right) = (Log2Histogram::default(), Log2Histogram::default());
        for (k, &v) in samples.iter().enumerate() {
            atomic.record(v);
            direct.record(v);
            if k % 2 == 0 { &mut left } else { &mut right }.record(v);
        }
        left.merge(&right);
        assert_eq!(left, direct);
        assert_eq!(atomic.snapshot(), direct);
    }
}
