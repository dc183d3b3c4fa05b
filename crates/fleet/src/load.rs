//! Deterministic per-node load generation: rolling waves of demand.
//!
//! Fleet nodes don't run the full task runtime (a hundred schedulers would
//! drown the point of the experiment); instead a [`LoadProfile`] drives
//! each node's core activities directly, the way the paper's Table runs
//! pin synthetic kernels. The profile is a *pure function of (node, time)*
//! — piecewise constant, re-evaluated at fixed step boundaries — so a
//! node's load history never depends on shard scheduling, and a node
//! restored from a snapshot recomputes the identical future.
//!
//! The shape is a **rolling wave**: a triangle wave of active-core count
//! phase-shifted per node, so demand sweeps across the fleet the way a
//! diurnal or batch-arrival front sweeps a real cluster. Triangle, not
//! sine: pure rational arithmetic, no libm, bit-stable everywhere.

// The wave every node runs: a 20 s period over 2–14 of 16 cores,
// re-evaluated every 250 ms, at the paper's loaded-kernel operating point.

/// Full period of the demand wave.
const WAVE_PERIOD_NS: u64 = 20_000_000_000;
/// Load is re-evaluated (piecewise constant) at this step.
const STEP_NS: u64 = 250_000_000;
/// Active cores at the trough of the wave.
const MIN_ACTIVE: usize = 2;
/// Active cores at the crest of the wave.
const MAX_ACTIVE: usize = 14;
/// Execution intensity of each busy core (power-model input).
const INTENSITY: f64 = 0.85;
/// Outstanding memory references per busy core.
const OCR: f64 = 2.0;
/// Demand-estimate intercept: idle whole-node Watts.
const IDLE_NODE_W: f64 = 55.0;
/// Demand-estimate slope: Watts per busy core at intensity 1.
const PER_CORE_W: f64 = 5.5;

/// One node's view of the fleet-wide wave.
#[derive(Copy, Clone, Debug)]
pub struct LoadProfile {
    node: usize,
    n_nodes: usize,
}

impl LoadProfile {
    /// The wave as seen by `node` of `n_nodes`.
    pub fn new(node: usize, n_nodes: usize) -> Self {
        assert!(n_nodes > 0 && node < n_nodes);
        LoadProfile { node, n_nodes }
    }

    /// Triangle wave in `[0, 1]`: position of this node's demand between
    /// trough and crest at virtual time `t_ns`, using integer phase
    /// arithmetic only.
    fn wave01(&self, t_ns: u64) -> (u64, u64) {
        let period = WAVE_PERIOD_NS;
        // Phase-shift by node index: the crest rolls across the fleet.
        let shift = (self.node as u128 * period as u128 / self.n_nodes as u128) as u64;
        let phase = (t_ns + shift) % period;
        // Rising over the first half-period, falling over the second;
        // return as an exact fraction (numerator, denominator).
        let half = period / 2;
        if phase < half {
            (phase, half)
        } else {
            (period - phase, period - half)
        }
    }

    /// `(active_cores, intensity, ocr)` the node should run during the
    /// step containing `t_ns`.
    pub fn target(&self, t_ns: u64) -> (usize, f64, f64) {
        let step_start = t_ns - t_ns % STEP_NS;
        let (num, den) = self.wave01(step_start);
        let span = (MAX_ACTIVE - MIN_ACTIVE) as u128;
        // Integer rounding keeps the active-core count exact.
        let extra = ((span * num as u128 + den as u128 / 2) / den as u128) as usize;
        (MIN_ACTIVE + extra, INTENSITY, OCR)
    }

    /// The next step boundary strictly after `now_ns`.
    pub fn next_change_ns(&self, now_ns: u64) -> u64 {
        (now_ns / STEP_NS + 1) * STEP_NS
    }

    /// A rough unthrottled demand estimate in Watts for the step containing
    /// `t_ns`: what the node would like to draw if uncapped. The
    /// coordinator allocates headroom proportionally to this.
    pub fn demand_w(&self, t_ns: u64) -> f64 {
        let (active, intensity, _) = self.target(t_ns);
        IDLE_NODE_W + active as f64 * PER_CORE_W * intensity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(node: usize, n: usize) -> LoadProfile {
        LoadProfile::new(node, n)
    }

    #[test]
    fn wave_spans_min_to_max() {
        let p = profile(0, 8);
        let period = WAVE_PERIOD_NS;
        let mut seen = std::collections::BTreeSet::new();
        let mut t = 0;
        while t < period {
            seen.insert(p.target(t).0);
            t += STEP_NS;
        }
        assert_eq!(*seen.iter().next().unwrap(), MIN_ACTIVE);
        assert_eq!(*seen.iter().last().unwrap(), MAX_ACTIVE);
    }

    #[test]
    fn wave_rolls_across_nodes() {
        // At a fixed instant, different nodes sit at different phases.
        let n = 8;
        let targets: Vec<usize> = (0..n).map(|i| profile(i, n).target(0).0).collect();
        let distinct = targets.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!(distinct >= 4, "rolling wave must spread phases: {targets:?}");
        // And node i at time 0 matches node 0 at i/n of a period later.
        let period = WAVE_PERIOD_NS;
        for (i, &target) in targets.iter().enumerate() {
            let shifted = profile(0, n).target(i as u64 * period / n as u64).0;
            assert_eq!(target, shifted, "node {i}");
        }
    }

    #[test]
    fn piecewise_constant_within_a_step() {
        let p = profile(3, 8);
        let step = STEP_NS;
        let t0 = 7 * step;
        assert_eq!(p.target(t0), p.target(t0 + step - 1));
        assert_eq!(p.next_change_ns(t0), t0 + step);
        assert_eq!(p.next_change_ns(t0 + step - 1), t0 + step);
    }

    #[test]
    fn demand_scales_with_active_cores() {
        let p = profile(0, 4);
        let period = WAVE_PERIOD_NS;
        let trough = p.demand_w(0);
        let crest = p.demand_w(period / 2);
        assert!(crest > trough);
    }
}
