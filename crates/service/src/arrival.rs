//! Seeded open-loop arrival process: Poisson thinning under a diurnal
//! profile with scheduled burst windows.
//!
//! The process is a non-homogeneous Poisson stream with rate
//! `λ(t) = base · diurnal(t) · burst(t)`, sampled by thinning against the
//! envelope `λ_max = base · (1 + amp) · max(1, burst_mult)`: draw
//! exponential gaps at `λ_max`, accept each candidate with probability
//! `λ(t)/λ_max`. The diurnal profile is a triangle wave (piecewise linear —
//! no transcendental calls whose libm bits could differ between builds),
//! and burst windows are a fixed schedule, so the whole stream is a pure
//! function of the seed.
//!
//! Every draw advances a [`SplitMix64`] cursor, and the next arrival time is
//! precomputed and serialized; a resumed run therefore continues the exact
//! stream the suspended run would have produced.

use maestro_machine::snap::{Codec, SnapError};

/// The splitmix64 generator — tiny, seedable, and a single `u64` of state,
/// which is all a snapshot has to carry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in the open interval `(0, 1)` with 53 significant bits.
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Raw state, for snapshots.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild from a snapshotted state.
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }
}

/// Shape of the arrival rate over virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalConfig {
    /// RNG seed for the stream.
    pub seed: u64,
    /// Base arrival rate, requests per virtual second.
    pub base_rate_rps: f64,
    /// Diurnal amplitude in `[0, 1)`: the rate swings between
    /// `base·(1−amp)` and `base·(1+amp)` over one period.
    pub diurnal_amp: f64,
    /// Diurnal period, ns (ignored when `diurnal_amp == 0`).
    pub diurnal_period_ns: u64,
    /// Burst window spacing, ns; `0` disables bursts.
    pub burst_every_ns: u64,
    /// Burst window length, ns.
    pub burst_len_ns: u64,
    /// Rate multiplier inside a burst window.
    pub burst_mult: f64,
    /// Total first arrivals the stream emits before exhausting.
    pub total_requests: u64,
}

impl ArrivalConfig {
    /// A steady stream: no diurnal swing, no bursts.
    pub fn steady(seed: u64, base_rate_rps: f64, total_requests: u64) -> Self {
        ArrivalConfig {
            seed,
            base_rate_rps,
            diurnal_amp: 0.0,
            diurnal_period_ns: 1,
            burst_every_ns: 0,
            burst_len_ns: 0,
            burst_mult: 1.0,
            total_requests,
        }
    }

    /// True while `t_ns` falls inside a burst window.
    pub fn in_burst(&self, t_ns: u64) -> bool {
        self.burst_every_ns > 0 && t_ns % self.burst_every_ns < self.burst_len_ns
    }

    /// Instantaneous rate λ(t), requests per second.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        let diurnal = if self.diurnal_amp > 0.0 {
            // Triangle wave in [-1, 1]: rises over the first half period,
            // falls over the second.
            let phase = (t_ns % self.diurnal_period_ns) as f64 / self.diurnal_period_ns as f64;
            let tri = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
            1.0 + self.diurnal_amp * tri
        } else {
            1.0
        };
        let burst = if self.in_burst(t_ns) { self.burst_mult } else { 1.0 };
        self.base_rate_rps * diurnal * burst
    }

    /// The thinning envelope `λ_max ≥ λ(t)` for all `t`.
    fn rate_max(&self) -> f64 {
        self.base_rate_rps * (1.0 + self.diurnal_amp) * self.burst_mult.max(1.0)
    }
}

/// The sampled stream: RNG cursor plus the precomputed next arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalStream {
    cfg: ArrivalConfig,
    rng: SplitMix64,
    /// Absolute time of the next arrival; `None` once exhausted.
    next_ns: Option<u64>,
    /// First arrivals emitted so far.
    emitted: u64,
}

impl ArrivalStream {
    /// Start a stream at virtual time `start_ns`.
    pub fn new(cfg: ArrivalConfig, start_ns: u64) -> Self {
        let mut s = ArrivalStream { cfg, rng: SplitMix64::new(0), next_ns: None, emitted: 0 };
        s.rng = SplitMix64::new(s.cfg.seed);
        s.next_ns = if s.cfg.total_requests == 0 { None } else { Some(s.draw_after(start_ns)) };
        s
    }

    /// Sample the first accepted arrival strictly after `t_ns` by thinning.
    fn draw_after(&mut self, t_ns: u64) -> u64 {
        let lam_max = self.cfg.rate_max();
        let mut t = t_ns;
        loop {
            let u = self.rng.next_open01();
            let gap_s = -u.ln() / lam_max;
            t = t.saturating_add(((gap_s * 1e9) as u64).max(1));
            let accept = self.rng.next_open01() * lam_max < self.cfg.rate_at(t);
            if accept {
                return t;
            }
        }
    }

    /// The next arrival time, or `None` when the stream is exhausted.
    pub fn next_ns(&self) -> Option<u64> {
        self.next_ns
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Consume the arrival due at or before `now_ns`, advancing the stream.
    /// Returns the arrival's timestamp, or `None` when nothing is due.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let t = self.next_ns.filter(|&t| t <= now_ns)?;
        self.emitted += 1;
        self.next_ns =
            if self.emitted >= self.cfg.total_requests { None } else { Some(self.draw_after(t)) };
        Some(t)
    }

    /// The snapshot codec for the dynamic cursor (see [`Codec`]); the
    /// config is reconstruction input, carried over from `self`.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        let rng = SplitMix64::from_state(c.u64(self.rng.state())?);
        let next_ns = c.opt_u64(self.next_ns)?;
        let emitted = c.u64(self.emitted)?;
        if emitted > self.cfg.total_requests {
            return Err(SnapError::Corrupt("arrival stream emitted more than its total"));
        }
        Ok(ArrivalStream { cfg: self.cfg.clone(), rng, next_ns, emitted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let cfg = ArrivalConfig {
            seed: 42,
            base_rate_rps: 50_000.0,
            diurnal_amp: 0.4,
            diurnal_period_ns: 2_000_000_000,
            burst_every_ns: 500_000_000,
            burst_len_ns: 50_000_000,
            burst_mult: 4.0,
            total_requests: 2_000,
        };
        let drain = || {
            let mut s = ArrivalStream::new(cfg.clone(), 0);
            let mut ts = Vec::new();
            while let Some(t) = s.pop_due(u64::MAX) {
                ts.push(t);
            }
            ts
        };
        let a = drain();
        let b = drain();
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn burst_windows_concentrate_arrivals() {
        let cfg = ArrivalConfig {
            seed: 7,
            base_rate_rps: 20_000.0,
            diurnal_amp: 0.0,
            diurnal_period_ns: 1,
            burst_every_ns: 1_000_000_000,
            burst_len_ns: 100_000_000, // 10 % of the time...
            burst_mult: 8.0,
            total_requests: 10_000,
        };
        let mut s = ArrivalStream::new(cfg.clone(), 0);
        let mut in_burst = 0u64;
        while let Some(t) = s.pop_due(u64::MAX) {
            if cfg.in_burst(t) {
                in_burst += 1;
            }
        }
        // ...but the 8× multiplier draws ~47 % of arrivals into them.
        assert!(in_burst > 3_000, "bursts must dominate: {in_burst}/10000 inside windows");
    }

    #[test]
    fn snapshot_resumes_the_exact_stream() {
        let cfg = ArrivalConfig::steady(11, 100_000.0, 500);
        let mut full = ArrivalStream::new(cfg.clone(), 0);
        let mut reference = Vec::new();
        while let Some(t) = full.pop_due(u64::MAX) {
            reference.push(t);
        }

        let mut s = ArrivalStream::new(cfg.clone(), 0);
        let mut got = Vec::new();
        for _ in 0..200 {
            got.push(s.pop_due(u64::MAX).unwrap());
        }
        let mut w = SnapWriter::new();
        s.codec(&mut w).unwrap();
        let bytes = w.finish();
        let fresh = ArrivalStream::new(cfg, 0);
        let mut r = SnapReader::new(&bytes);
        let mut resumed = fresh.codec(&mut r).unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            fresh.codec(&mut r)?;
            r.finish()
        });
        while let Some(t) = resumed.pop_due(u64::MAX) {
            got.push(t);
        }
        assert_eq!(got, reference, "resume continues the exact stream");
    }
}
