//! High / Medium / Low classification with hysteresis.
//!
//! From the paper (§IV): the user-level daemon measures "current power
//! utilization and memory bandwidth. The observed values are classified as
//! High, Medium, or Low. When both conditions are High, a flag is set to
//! activate throttling at the next opportunity. If both conditions are Low,
//! throttling is disabled. The Medium range does not toggle throttling, but
//! avoids hysteresis effects that occur when observed values hover near the
//! threshold."
//!
//! Default thresholds follow §IV-A exactly: 75 W per socket was chosen as
//! the high power mark (few applications exceed 150 W node-wide for their
//! whole execution) and 50 W as low (almost all applications exceed 100 W
//! node-wide); the memory-concurrency marks are 75 % and 25 % of the
//! effective maximum number of outstanding references.

use serde::{Deserialize, Serialize};

/// Classified meter level.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Level {
    /// At or below the low threshold.
    #[default]
    Low,
    /// Between the thresholds — holds the current throttle state.
    Medium,
    /// At or above the high threshold.
    High,
}

/// A pair of thresholds delimiting the Medium band for one meter.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MeterThresholds {
    /// Values ≥ this classify High.
    pub high: f64,
    /// Values ≤ this classify Low.
    pub low: f64,
}

impl MeterThresholds {
    /// Build thresholds; `low` must not exceed `high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low <= high, "low threshold {low} must not exceed high {high}");
        MeterThresholds { high, low }
    }

    /// The paper's per-socket power thresholds: 50 W low, 75 W high.
    pub fn paper_power_w() -> Self {
        MeterThresholds::new(50.0, 75.0)
    }

    /// The paper's memory-concurrency thresholds: 25 % and 75 % of the
    /// socket's effective maximum outstanding references.
    pub fn paper_memory(max_outstanding_refs: f64) -> Self {
        MeterThresholds::new(0.25 * max_outstanding_refs, 0.75 * max_outstanding_refs)
    }

    /// Classify a meter reading.
    pub fn classify(&self, value: f64) -> Level {
        if value >= self.high {
            Level::High
        } else if value <= self.low {
            Level::Low
        } else {
            Level::Medium
        }
    }
}

/// The combined decision over the two meters the paper monitors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ThrottleSignals {
    /// Classification of per-socket power.
    pub power: Level,
    /// Classification of per-socket memory concurrency.
    pub memory: Level,
}

impl ThrottleSignals {
    /// Apply the paper's rule to the current throttle flag:
    /// both High → on; both Low → off; anything else → unchanged.
    pub fn apply(self, currently_throttled: bool) -> bool {
        match (self.power, self.memory) {
            (Level::High, Level::High) => true,
            (Level::Low, Level::Low) => false,
            _ => currently_throttled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bands() {
        let t = MeterThresholds::paper_power_w();
        assert_eq!(t.classify(80.0), Level::High);
        assert_eq!(t.classify(75.0), Level::High);
        assert_eq!(t.classify(60.0), Level::Medium);
        assert_eq!(t.classify(50.0), Level::Low);
        assert_eq!(t.classify(10.0), Level::Low);
    }

    #[test]
    fn memory_thresholds_follow_max() {
        let t = MeterThresholds::paper_memory(36.0);
        assert_eq!(t.classify(27.0), Level::High); // 75 % of 36
        assert_eq!(t.classify(9.0), Level::Low); // 25 % of 36
        assert_eq!(t.classify(18.0), Level::Medium);
    }

    #[test]
    fn both_high_turns_on() {
        let s = ThrottleSignals { power: Level::High, memory: Level::High };
        assert!(s.apply(false));
        assert!(s.apply(true));
    }

    #[test]
    fn both_low_turns_off() {
        let s = ThrottleSignals { power: Level::Low, memory: Level::Low };
        assert!(!s.apply(true));
        assert!(!s.apply(false));
    }

    #[test]
    fn medium_band_holds_state() {
        for power in [Level::Low, Level::Medium, Level::High] {
            for memory in [Level::Low, Level::Medium, Level::High] {
                let s = ThrottleSignals { power, memory };
                let decisive = (power == Level::High && memory == Level::High)
                    || (power == Level::Low && memory == Level::Low);
                if !decisive {
                    assert!(s.apply(true), "{s:?} must hold ON");
                    assert!(!s.apply(false), "{s:?} must hold OFF");
                }
            }
        }
    }

    #[test]
    fn one_high_one_low_does_not_toggle() {
        // The hysteresis case the Medium band exists for.
        let s = ThrottleSignals { power: Level::High, memory: Level::Low };
        assert!(s.apply(true));
        assert!(!s.apply(false));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_thresholds_rejected() {
        MeterThresholds::new(80.0, 50.0);
    }
}
