//! Wraparound accounting for narrow energy counters.
//!
//! `MSR_PKG_ENERGY_STATUS` is 32 bits of 15.3 µJ units — about 65.7 kJ, which
//! a ~75 W package burns through in under 15 minutes. The paper's measurement
//! tools "monitor the number of wraps to obtain valid application energy
//! consumption numbers"; [`WrapTracker`] is that monitor.
//!
//! The tracker assumes it is polled at least once per wrap period (the RCR
//! daemon samples every 0.1 s, four orders of magnitude faster than the wrap
//! period, so a missed wrap would require the daemon to stall for minutes).

/// Accumulates a wrapping counter into a monotone 128-bit total.
#[derive(Clone, Debug)]
pub struct WrapTracker {
    modulus: u64,
    last_raw: Option<u64>,
    total: u128,
    wraps: u64,
}

impl WrapTracker {
    /// Track a counter that wraps modulo `modulus` (must be ≥ 2).
    pub fn new(modulus: u64) -> Self {
        assert!(modulus >= 2, "wrap modulus must be at least 2");
        WrapTracker { modulus, last_raw: None, total: 0, wraps: 0 }
    }

    /// Feed one raw reading; returns the monotone total in raw units since
    /// the first reading.
    ///
    /// Raw values at or above the modulus are clamped into range (defensive:
    /// real hardware cannot produce them, a buggy backend could).
    pub fn update(&mut self, raw: u64) -> u128 {
        let raw = raw % self.modulus;
        match self.last_raw {
            None => {
                self.last_raw = Some(raw);
                self.total = 0;
            }
            Some(prev) => {
                let delta = if raw >= prev {
                    raw - prev
                } else {
                    self.wraps += 1;
                    self.modulus - prev + raw
                };
                self.total += u128::from(delta);
                self.last_raw = Some(raw);
            }
        }
        self.total
    }

    /// The delta (in raw units) that [`WrapTracker::update`] *would* add for
    /// `raw`, without committing it.
    ///
    /// Lets a caller sanity-check a reading before it poisons the cumulative
    /// total — e.g. a spurious back-jump that would be misread as a full
    /// counter wrap shows up here as an implausibly large delta. Returns 0
    /// before the first committed reading (the first reading only sets the
    /// baseline).
    pub fn peek(&self, raw: u64) -> u128 {
        let raw = raw % self.modulus;
        match self.last_raw {
            None => 0,
            Some(prev) => {
                u128::from(if raw >= prev { raw - prev } else { self.modulus - prev + raw })
            }
        }
    }

    /// The monotone total in raw units accumulated so far.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// How many wraparounds have been observed.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Forget all history (the next `update` becomes the new zero).
    pub fn reset(&mut self) {
        self.last_raw = None;
        self.total = 0;
        self.wraps = 0;
    }

    /// Snapshot the tracker for checkpoint/restore across a sampler restart.
    pub fn checkpoint(&self) -> WrapCheckpoint {
        WrapCheckpoint { last_raw: self.last_raw, total: self.total, wraps: self.wraps }
    }

    /// Restore a snapshot taken with [`WrapTracker::checkpoint`].
    ///
    /// The next `update` computes its delta against the checkpointed
    /// `last_raw`, so energy that accrued between the checkpoint and the
    /// restart is still booked — the counter is cumulative hardware state
    /// that keeps running while the sampler is down. The only loss window is
    /// an outage longer than one wrap period (~15 min under load), the same
    /// bound the live sampler already operates under.
    pub fn restore(&mut self, cp: WrapCheckpoint) {
        self.last_raw = cp.last_raw.map(|r| r % self.modulus);
        self.total = cp.total;
        self.wraps = cp.wraps;
    }
}

/// Saved [`WrapTracker`] state (see [`WrapTracker::checkpoint`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WrapCheckpoint {
    /// The last committed raw counter reading.
    pub last_raw: Option<u64>,
    /// The monotone total in raw units at checkpoint time.
    pub total: u128,
    /// Wraparounds observed at checkpoint time.
    pub wraps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reading_is_zero_total() {
        let mut t = WrapTracker::new(1 << 32);
        assert_eq!(t.update(12345), 0);
    }

    #[test]
    fn monotone_readings_accumulate() {
        let mut t = WrapTracker::new(1 << 32);
        t.update(100);
        assert_eq!(t.update(150), 50);
        assert_eq!(t.update(400), 300);
        assert_eq!(t.wraps(), 0);
    }

    #[test]
    fn wrap_detected_and_counted() {
        let m = 1u64 << 32;
        let mut t = WrapTracker::new(m);
        t.update(m - 10);
        assert_eq!(t.update(5), 15); // 10 to the edge + 5 past it
        assert_eq!(t.wraps(), 1);
    }

    #[test]
    fn many_wraps() {
        let mut t = WrapTracker::new(1000);
        t.update(0);
        let mut expected = 0u128;
        for i in 1..5000u64 {
            let raw = (i * 37) % 1000;
            let prev = ((i - 1) * 37) % 1000;
            expected += u128::from(if raw >= prev { raw - prev } else { 1000 - prev + raw });
            assert_eq!(t.update(raw), expected);
        }
        assert!(t.wraps() > 0);
    }

    #[test]
    fn equal_reading_adds_nothing() {
        let mut t = WrapTracker::new(1 << 32);
        t.update(777);
        assert_eq!(t.update(777), 0);
        assert_eq!(t.wraps(), 0);
    }

    #[test]
    fn out_of_range_raw_clamped() {
        let mut t = WrapTracker::new(100);
        t.update(250); // ≡ 50
        assert_eq!(t.update(60), 10);
    }

    #[test]
    fn reset_forgets() {
        let mut t = WrapTracker::new(1 << 32);
        t.update(5);
        t.update(100);
        t.reset();
        assert_eq!(t.update(42), 0);
        assert_eq!(t.wraps(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_modulus_rejected() {
        WrapTracker::new(1);
    }

    #[test]
    fn checkpoint_restore_preserves_accounting_across_a_gap() {
        let m = 1u64 << 32;
        let mut t = WrapTracker::new(m);
        t.update(100);
        t.update(500);
        let cp = t.checkpoint();
        // Tracker dies; a fresh one restores the checkpoint. The counter kept
        // running meanwhile: the next reading books the whole gap.
        let mut fresh = WrapTracker::new(m);
        fresh.restore(cp);
        assert_eq!(fresh.total(), 400);
        assert_eq!(fresh.update(900), 800, "gap 500→900 is not lost");
        // Restore across a wrap still books the wrapped delta.
        let mut late = WrapTracker::new(m);
        late.restore(cp);
        assert_eq!(late.update(400), 400 + (u128::from(m) - 500 + 400));
        assert_eq!(late.wraps(), 1);
    }

    #[test]
    fn peek_matches_update_without_committing() {
        let m = 1u64 << 32;
        let mut t = WrapTracker::new(m);
        assert_eq!(t.peek(999), 0, "no baseline yet");
        t.update(m - 10);
        assert_eq!(t.peek(5), 15, "peek sees the wrap delta");
        assert_eq!(t.wraps(), 0, "but does not count the wrap");
        assert_eq!(t.total(), 0, "and does not accumulate");
        assert_eq!(t.update(5), 15, "a later update commits the same delta");
        assert_eq!(t.wraps(), 1);
    }
}
