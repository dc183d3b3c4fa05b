//! Mergeable fixed-bucket log-scale latency histogram.
//!
//! The bucket layout is HdrHistogram-style with 3 sub-bucket bits: values
//! `0..8` get exact unit buckets, and every power-of-two magnitude above
//! that is split into 8 equal sub-buckets. A `u64` value therefore lands in
//! one of [`BUCKETS`] = 496 buckets, found with two shifts and a
//! `leading_zeros` — no floats anywhere, so bucket placement is trivially
//! deterministic across platforms.
//!
//! Quantile estimates report a bucket's *midpoint*. A bucket covering
//! `[lo, lo + width)` with `width = lo / 8` rounded to a power of two has
//! `width/2 ≤ lo/16`, so every estimate is within **6.25 %** of the true
//! value — the documented relative-error bound the property tests pin down.
//!
//! Merging is element-wise counter addition, which makes it associative and
//! commutative by construction; the parallel Pareto sweep relies on that to
//! produce byte-identical reports for any `--jobs N`.

use maestro_machine::snap::{Codec, SnapError, SnapWriter};

/// Number of buckets: 8 unit buckets + 61 magnitudes × 8 sub-buckets.
pub const BUCKETS: usize = 496;

/// Maximum relative error of a quantile estimate, as documented above.
pub const MAX_RELATIVE_ERROR: f64 = 0.0625;

/// A latency histogram over `u64` nanosecond values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist { counts: Box::new([0; BUCKETS]), total: 0 }
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(v: u64) -> usize {
        if v < 8 {
            v as usize
        } else {
            let b = 63 - v.leading_zeros() as usize; // floor(log2 v), ≥ 3
            8 * (b - 2) + ((v >> (b - 3)) & 7) as usize
        }
    }

    /// The half-open value range `[lo, hi)` bucket `idx` covers.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < BUCKETS, "bucket index out of range");
        if idx < 8 {
            (idx as u64, idx as u64 + 1)
        } else {
            let b = idx / 8 + 2;
            let s = (idx % 8) as u64;
            let width = 1u64 << (b - 3);
            let lo = (8 + s) << (b - 3);
            (lo, lo.saturating_add(width))
        }
    }

    /// The deterministic representative value reported for bucket `idx`
    /// (its midpoint, in integer arithmetic).
    pub fn bucket_midpoint(idx: usize) -> u64 {
        let (lo, hi) = Self::bucket_bounds(idx);
        lo + (hi - lo) / 2
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Element-wise merge of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Forget everything (the governor's per-epoch window reset).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile estimate (`0 < q ≤ 1`), or `None` when empty.
    /// Deterministic: rank `⌈q·total⌉` clamped to `[1, total]`, then the
    /// midpoint of the bucket holding that rank.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_midpoint(idx));
            }
        }
        None
    }

    /// The snapshot codec (see [`Codec`]), sparse: total, then
    /// `(index, count)` for occupied buckets.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        let total = c.u64(self.total)?;
        let occupied: Vec<(u64, u64)> = (0u64..)
            .zip(self.counts.iter())
            .filter(|&(_, &n)| n > 0)
            .map(|(idx, &n)| (idx, n))
            .collect();
        let mut h = LatencyHist::new();
        let mut sum = 0u64;
        c.seq(&occupied, |c, &(idx, n)| {
            let idx = c.u64(idx)? as usize;
            if idx >= BUCKETS {
                return Err(SnapError::Corrupt("histogram bucket index out of range"));
            }
            let n = c.u64(n)?;
            if h.counts[idx] != 0 || n == 0 {
                return Err(SnapError::Corrupt("histogram bucket entry invalid"));
            }
            h.counts[idx] = n;
            sum = sum.checked_add(n).ok_or(SnapError::Corrupt("histogram count overflow"))?;
            Ok(())
        })?;
        if sum != total {
            return Err(SnapError::Corrupt("histogram total does not match buckets"));
        }
        h.total = total;
        Ok(h)
    }

    /// Encode into `w` through [`LatencyHist::codec`].
    pub fn snap_state(&self, w: &mut SnapWriter) {
        self.codec(w).expect("live state encodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..8u64 {
            assert_eq!(LatencyHist::bucket_index(v), v as usize);
            assert_eq!(LatencyHist::bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bounds_partition_the_u64_line() {
        // Consecutive buckets tile values with no gap or overlap.
        for idx in 0..BUCKETS - 1 {
            let (_, hi) = LatencyHist::bucket_bounds(idx);
            let (lo_next, _) = LatencyHist::bucket_bounds(idx + 1);
            assert_eq!(hi, lo_next, "gap/overlap between buckets {idx} and {}", idx + 1);
        }
        assert_eq!(LatencyHist::bucket_bounds(0).0, 0);
        let (lo, hi) = LatencyHist::bucket_bounds(BUCKETS - 1);
        assert_eq!(hi, u64::MAX, "top bucket saturates: {lo}..{hi}");
    }

    #[test]
    fn index_and_bounds_agree() {
        for idx in 0..BUCKETS {
            let (lo, hi) = LatencyHist::bucket_bounds(idx);
            assert_eq!(LatencyHist::bucket_index(lo), idx);
            if hi > lo + 1 && hi != u64::MAX {
                assert_eq!(LatencyHist::bucket_index(hi - 1), idx);
            }
        }
    }

    #[test]
    fn quantile_hits_documented_error_bound() {
        let mut h = LatencyHist::new();
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        for (q, true_v) in [(0.2, 100u64), (0.5, 10_000), (1.0, 1_000_000)] {
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - true_v as f64).abs() / true_v as f64;
            assert!(rel <= MAX_RELATIVE_ERROR, "q={q}: est {est} vs {true_v}, rel {rel}");
        }
    }

    #[test]
    fn snap_roundtrip_is_identity() {
        let mut h = LatencyHist::new();
        for v in 0..5000u64 {
            h.record(v * v % 777_777);
        }
        let mut w = SnapWriter::new();
        h.snap_state(&mut w);
        let bytes = w.finish();
        let fresh = LatencyHist::new();
        let mut r = SnapReader::new(&bytes);
        let back = fresh.codec(&mut r).unwrap();
        assert_eq!(h, back);
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            fresh.codec(&mut r)?;
            r.finish()
        });
    }
}
