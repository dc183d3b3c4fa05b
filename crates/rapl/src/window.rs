//! Sliding-window power smoothing.
//!
//! The paper notes the energy counter "is frequently updated but should be
//! accessed less often to smooth jitter in the power usage", and the RCR
//! daemon's 0.1 s granularity "was chosen to allow fluctuations in the energy
//! counters to dissipate". [`PowerWindow`] averages (time, Joules) samples
//! over a configurable horizon and reports Watts.
//!
//! The window is also the last line of defense against corrupt meter data:
//! non-finite energies, clock or energy regressions, and samples implying an
//! absurd instantaneous power are rejected (counted, not stored), and a
//! stuck-counter heuristic tracks how many consecutive samples advanced time
//! without advancing energy — physically impossible on a powered package.

use std::collections::VecDeque;

use maestro_machine::snap::{Codec, SnapError};

/// Default bound on believable instantaneous power between two samples,
/// Watts. The modeled node peaks below 200 W; 10 kW is unambiguously a
/// corrupt reading rather than a workload.
pub const DEFAULT_MAX_STEP_WATTS: f64 = 10_000.0;

/// Average power over a sliding time window of energy samples.
#[derive(Clone, Debug)]
pub struct PowerWindow {
    horizon_ns: u64,
    max_step_watts: f64,
    samples: VecDeque<(u64, f64)>, // (virtual time ns, cumulative joules)
    rejected: u64,
    flat_run: u32,
}

impl PowerWindow {
    /// A window covering the last `horizon_ns` of samples (at least two
    /// samples are always retained regardless of age, so power is defined as
    /// soon as two readings exist).
    pub fn new(horizon_ns: u64) -> Self {
        assert!(horizon_ns > 0, "window horizon must be positive");
        PowerWindow {
            horizon_ns,
            max_step_watts: DEFAULT_MAX_STEP_WATTS,
            samples: VecDeque::new(),
            rejected: 0,
            flat_run: 0,
        }
    }

    /// Override the outlier bound: samples implying more than `watts` of
    /// instantaneous power since the previous sample are rejected. Use
    /// `f64::INFINITY` to disable outlier rejection.
    pub fn with_max_step_watts(mut self, watts: f64) -> Self {
        assert!(watts > 0.0, "power bound must be positive");
        self.max_step_watts = watts;
        self
    }

    /// Record one cumulative-energy sample at virtual time `t_ns`.
    ///
    /// Returns `false` — counting but not storing the sample — when it is
    /// corrupt: non-finite energy, time or energy regression, or an energy
    /// step implying more than the configured maximum power (a zero-duration
    /// step with an energy increase implies infinite power and is likewise
    /// rejected). Callers in this codebase only produce such samples under
    /// fault injection, but a defensive daemon must not corrupt its window
    /// when one appears.
    pub fn push(&mut self, t_ns: u64, joules: f64) -> bool {
        if !joules.is_finite() {
            self.rejected += 1;
            return false;
        }
        if let Some(&(last_t, last_j)) = self.samples.back() {
            if t_ns < last_t || joules < last_j {
                self.rejected += 1;
                return false;
            }
            let dj = joules - last_j;
            if t_ns == last_t {
                if dj > 0.0 {
                    self.rejected += 1;
                    return false;
                }
            } else if dj / ((t_ns - last_t) as f64 * 1e-9) > self.max_step_watts {
                self.rejected += 1;
                return false;
            }
            // Stuck-counter heuristic: time moved, energy did not. Even an
            // idle package burns watts, so a flat cumulative counter across
            // whole sample periods means the meter is stuck, not the load.
            if t_ns > last_t && dj == 0.0 {
                self.flat_run += 1;
            } else if dj > 0.0 {
                self.flat_run = 0;
            }
        }
        self.samples.push_back((t_ns, joules));
        self.evict(t_ns);
        true
    }

    fn evict(&mut self, now_ns: u64) {
        let cutoff = now_ns.saturating_sub(self.horizon_ns);
        while self.samples.len() > 2 && self.samples[1].0 <= cutoff {
            self.samples.pop_front();
        }
    }

    /// Average power in Watts over the retained window, or `None` until two
    /// distinct-time samples exist.
    pub fn average_watts(&self) -> Option<f64> {
        let (&(t0, j0), &(t1, j1)) = (self.samples.front()?, self.samples.back()?);
        if t1 == t0 {
            return None;
        }
        let watts = (j1 - j0) / ((t1 - t0) as f64 * 1e-9);
        watts.is_finite().then_some(watts)
    }

    /// Samples rejected as corrupt since construction (or [`Self::clear`]).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Consecutive accepted samples that advanced time without advancing
    /// energy. A run of ≥ 2 across real sample periods indicates a stuck
    /// counter (an idle package still accumulates millijoules per period).
    pub fn flat_run(&self) -> u32 {
        self.flat_run
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The snapshot codec for the window's dynamic state: retained samples,
    /// rejection and stuck counters (see [`Codec`]). The horizon and outlier
    /// bound are configuration and are carried over from `self`.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<PowerWindow, SnapError> {
        Ok(PowerWindow {
            horizon_ns: self.horizon_ns,
            max_step_watts: self.max_step_watts,
            samples: c
                .seq(&self.samples, |c, &(t_ns, joules)| Ok((c.u64(t_ns)?, c.f64(joules)?)))?
                .into(),
            rejected: c.u64(self.rejected)?,
            flat_run: c.u32(self.flat_run)?,
        })
    }

    /// Drop all samples and reset the rejection and stuck counters.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.rejected = 0;
        self.flat_run = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn needs_two_samples() {
        let mut w = PowerWindow::new(S);
        assert_eq!(w.average_watts(), None);
        w.push(0, 0.0);
        assert_eq!(w.average_watts(), None);
        w.push(S, 100.0);
        assert_eq!(w.average_watts(), Some(100.0));
    }

    #[test]
    fn constant_power_is_flat() {
        let mut w = PowerWindow::new(10 * S);
        for i in 0..100u64 {
            w.push(i * S / 10, i as f64 * 5.0); // 50 W
        }
        let p = w.average_watts().unwrap();
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn window_follows_power_change() {
        let mut w = PowerWindow::new(S); // 1 s horizon
        // 10 s at 50 W...
        for i in 0..=100u64 {
            w.push(i * S / 10, i as f64 * 5.0);
        }
        // ...then 5 s at 150 W.
        let j0 = 500.0;
        for i in 1..=50u64 {
            w.push((100 + i) * S / 10, j0 + i as f64 * 15.0);
        }
        let p = w.average_watts().unwrap();
        assert!((p - 150.0).abs() < 1.0, "window should have forgotten the 50 W era: {p}");
    }

    #[test]
    fn smooths_jitter() {
        let mut w = PowerWindow::new(2 * S);
        // Alternating 10 W / 90 W per 0.1 s step around a 50 W mean.
        let mut joules = 0.0;
        for i in 0..40u64 {
            let p = if i % 2 == 0 { 10.0 } else { 90.0 };
            joules += p * 0.1;
            w.push((i + 1) * S / 10, joules);
        }
        let p = w.average_watts().unwrap();
        assert!((p - 50.0).abs() < 3.0, "smoothed {p}");
    }

    #[test]
    fn rejects_time_or_energy_regression() {
        let mut w = PowerWindow::new(S);
        assert!(w.push(100, 1.0));
        assert!(!w.push(50, 2.0));
        assert!(!w.push(200, 0.5));
        assert_eq!(w.len(), 1);
        assert_eq!(w.rejected(), 2);
    }

    #[test]
    fn rejects_non_finite_energy() {
        let mut w = PowerWindow::new(S);
        assert!(!w.push(0, f64::NAN));
        assert!(!w.push(0, f64::INFINITY));
        assert!(w.is_empty());
        assert!(w.push(0, 1.0));
        assert!(!w.push(S, f64::NAN));
        assert_eq!(w.len(), 1);
        assert_eq!(w.rejected(), 3);
        assert_eq!(w.average_watts(), None);
    }

    #[test]
    fn rejects_zero_duration_energy_jump() {
        let mut w = PowerWindow::new(S);
        assert!(w.push(100, 1.0));
        assert!(!w.push(100, 2.0), "energy in zero time is infinite power");
        assert!(w.push(100, 1.0), "a same-time duplicate is harmless");
        assert_eq!(w.average_watts(), None, "no distinct-time pair yet");
    }

    #[test]
    fn rejects_outlier_power_step() {
        let mut w = PowerWindow::new(10 * S);
        w.push(0, 0.0);
        w.push(S / 10, 7.5); // 75 W: plausible
        // A spurious 33 kJ wrap over 0.1 s would read as 330 kW.
        assert!(!w.push(2 * S / 10, 7.5 + 33_000.0));
        assert_eq!(w.rejected(), 1);
        assert!(w.push(2 * S / 10, 15.0), "the clean re-read is accepted");
        let p = w.average_watts().unwrap();
        assert!((p - 75.0).abs() < 1e-9, "outlier left no trace: {p}");
    }

    #[test]
    fn outlier_bound_is_configurable() {
        let mut strict = PowerWindow::new(S).with_max_step_watts(100.0);
        strict.push(0, 0.0);
        assert!(!strict.push(S, 150.0), "150 W step over a 100 W bound");
        let mut lax = PowerWindow::new(S).with_max_step_watts(f64::INFINITY);
        lax.push(0, 0.0);
        assert!(lax.push(S, 1e9), "disabled bound accepts anything finite");
    }

    #[test]
    fn flat_run_counts_stuck_counter() {
        let mut w = PowerWindow::new(10 * S);
        w.push(0, 5.0);
        assert_eq!(w.flat_run(), 0);
        w.push(S / 10, 5.0);
        w.push(2 * S / 10, 5.0);
        w.push(3 * S / 10, 5.0);
        assert_eq!(w.flat_run(), 3, "three flat periods");
        w.push(4 * S / 10, 6.0);
        assert_eq!(w.flat_run(), 0, "energy moved, counter is live again");
    }

    #[test]
    fn clear_empties() {
        let mut w = PowerWindow::new(S);
        w.push(0, 0.0);
        w.push(S, 1.0);
        w.push(S, 5.0); // rejected
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.average_watts(), None);
        assert_eq!(w.rejected(), 0);
        assert_eq!(w.flat_run(), 0);
    }
}
