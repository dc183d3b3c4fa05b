//! Small numeric helpers: order statistics, the output digest, host-speed
//! sampling, and the process's peak resident memory.

use std::time::{Duration, Instant};

/// Median of `values` (the mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Incremental 64-bit FNV-1a over everything a pass produced that is meant
/// to be bit-stable: report text, float bits, histogram and snapshot bytes.
/// Two commits with equal digests simulated identically.
#[derive(Copy, Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a large length-prefixed blob eight bytes at a time (snapshot
    /// captures run to ~100 MB per pass; byte-wise FNV would dominate).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
            self.0 = (self.0 ^ word)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
        }
        self.bytes(chunks.remainder());
    }

    /// Fold a length-prefixed string, so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Host nanoseconds per reference iteration on the nominal host that host
/// times are scaled to: a quiet 2-vCPU x86-64 VM, the host the benchmark
/// was defined on.
pub const NOMINAL_NS_PER_ITER: f64 = 12.0;

/// Reference iterations per burst (about a millisecond).
const BURST_ITERS: u64 = 100_000;

/// Minimum host time between two bursts taken between units.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Samples host speed with short bursts of a fixed reference loop that is
/// independent of every repository crate: xorshift hashing driving
/// pseudo-random read-modify-writes over a 4 MiB table (pointer-heavy like
/// the simulator, and sized like a share of the last-level cache, so it
/// tracks neighbours' cache contention as well as core speed; a table that
/// fits the core's own caches tracked the workloads less well). On a
/// shared host whose speed swings with its neighbours' load, scaling a
/// pass's times by the speed measured during that pass removes most of the
/// swing.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    x: u64,
    last: Option<Instant>,
    bursts_ns: Vec<f64>,
    spent_ns: u64,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: vec![1; 1 << 19],
            x: 0x9e37_79b9_7f4a_7c15,
            last: None,
            bursts_ns: Vec::new(),
            spent_ns: 0,
        }
    }
}

impl HostSpeed {
    /// Run one burst now.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = self.x;
        for i in 0..BURST_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (self.table.len() - 1);
            self.table[slot] = self.table[slot].wrapping_add(i ^ x);
        }
        self.x = std::hint::black_box(x);
        let ns = start.elapsed().as_nanos() as u64;
        self.bursts_ns.push(ns as f64);
        self.spent_ns += ns;
        self.last = Some(Instant::now());
    }

    /// Run one burst unless one ran within the last [`SAMPLE_EVERY`].
    pub fn maybe_sample(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            self.sample();
        }
    }

    /// Host time spent in bursts so far, ns.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// The speed over the bursts since the last call, as the factor that
    /// scales a host time to the nominal host: `nominal / measured`.
    pub fn take_scale(&mut self) -> f64 {
        let per_iter =
            self.bursts_ns.iter().sum::<f64>() / (self.bursts_ns.len() as u64 * BURST_ITERS) as f64;
        self.bursts_ns.clear();
        NOMINAL_NS_PER_ITER / per_iter
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`); `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_strings() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.str("ab");
        a.str("c");
        b.str("a");
        b.str("bc");
        assert_ne!(a.value(), b.value());
    }
}
