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

use maestro_machine::snap::{Codec, SnapError};

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

    /// The snapshot codec (see [`Codec`]): last reading, total, wraps.
    /// Decoding yields a tracker with this one's modulus; a last reading at
    /// or above the modulus is corrupt, since a live tracker never holds one.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<WrapTracker, SnapError> {
        let last_raw = c.opt_u64(self.last_raw)?;
        if last_raw.is_some_and(|raw| raw >= self.modulus) {
            return Err(SnapError::Corrupt("wrap tracker reading out of range"));
        }
        Ok(WrapTracker {
            modulus: self.modulus,
            last_raw,
            total: c.u128(self.total)?,
            wraps: c.u64(self.wraps)?,
        })
    }
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
        // The sampler dies; its replacement carries a clone. The counter kept
        // running meanwhile: the next reading books the whole gap.
        let mut reborn = t.clone();
        assert_eq!(reborn.total(), 400);
        assert_eq!(reborn.update(900), 800, "gap 500→900 is not lost");
        // A gap across a wrap still books the wrapped delta.
        let mut late = t.clone();
        assert_eq!(late.update(400), 400 + (u128::from(m) - 500 + 400));
        assert_eq!(late.wraps(), 1);
    }

    #[test]
    fn codec_round_trips_and_rejects_out_of_range_readings() {
        use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
        let mut t = WrapTracker::new(1000);
        for raw in [990, 5, 700] {
            t.update(raw);
        }
        let mut w = SnapWriter::new();
        t.codec(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let mut back = WrapTracker::new(1000).codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((back.total(), back.wraps()), (t.total(), t.wraps()));
        assert_eq!(back.update(710), t.update(710), "the last reading survives");
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            t.codec(&mut r)?;
            r.finish()
        });
        // The same bytes hold a reading past a narrower counter's modulus.
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(WrapTracker::new(600).codec(&mut r), Err(SnapError::Corrupt(_))));
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
