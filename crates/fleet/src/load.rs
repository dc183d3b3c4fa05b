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

/// Wave parameters shared by every node in a fleet.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LoadParams {
    /// Full period of the demand wave.
    pub wave_period_ns: u64,
    /// Load is re-evaluated (piecewise constant) at this step.
    pub step_ns: u64,
    /// Active cores at the trough of the wave.
    pub min_active: usize,
    /// Active cores at the crest of the wave.
    pub max_active: usize,
    /// Execution intensity of each busy core (power-model input).
    pub intensity: f64,
    /// Outstanding memory references per busy core.
    pub ocr: f64,
}

impl Default for LoadParams {
    /// A 20 s wave over 2–14 of 16 cores, re-evaluated every 250 ms, at
    /// the paper's loaded-kernel operating point.
    fn default() -> Self {
        LoadParams {
            wave_period_ns: 20_000_000_000,
            step_ns: 250_000_000,
            min_active: 2,
            max_active: 14,
            intensity: 0.85,
            ocr: 2.0,
        }
    }
}

/// One node's view of the fleet-wide wave.
#[derive(Copy, Clone, Debug)]
pub struct LoadProfile {
    params: LoadParams,
    node: usize,
    n_nodes: usize,
}

impl LoadProfile {
    /// The wave as seen by `node` of `n_nodes`.
    pub fn new(params: LoadParams, node: usize, n_nodes: usize) -> Self {
        assert!(n_nodes > 0 && node < n_nodes);
        assert!(params.step_ns > 0 && params.wave_period_ns >= params.step_ns);
        assert!(params.min_active <= params.max_active);
        LoadProfile { params, node, n_nodes }
    }

    /// The wave parameters.
    pub fn params(&self) -> &LoadParams {
        &self.params
    }

    /// Triangle wave in `[0, 1]`: position of this node's demand between
    /// trough and crest at virtual time `t_ns`, using integer phase
    /// arithmetic only.
    fn wave01(&self, t_ns: u64) -> (u64, u64) {
        let period = self.params.wave_period_ns;
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
        let step_start = t_ns - t_ns % self.params.step_ns;
        let (num, den) = self.wave01(step_start);
        let span = (self.params.max_active - self.params.min_active) as u128;
        // Integer rounding keeps the active-core count exact.
        let extra = ((span * num as u128 + den as u128 / 2) / den as u128) as usize;
        (self.params.min_active + extra, self.params.intensity, self.params.ocr)
    }

    /// The next step boundary strictly after `now_ns`.
    pub fn next_change_ns(&self, now_ns: u64) -> u64 {
        (now_ns / self.params.step_ns + 1) * self.params.step_ns
    }

    /// A rough unthrottled demand estimate in Watts for the step containing
    /// `t_ns`: what the node would like to draw if uncapped. The
    /// coordinator allocates headroom proportionally to this.
    pub fn demand_w(&self, t_ns: u64, idle_node_w: f64, per_core_w: f64) -> f64 {
        let (active, intensity, _) = self.target(t_ns);
        idle_node_w + active as f64 * per_core_w * intensity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(node: usize, n: usize) -> LoadProfile {
        LoadProfile::new(LoadParams::default(), node, n)
    }

    #[test]
    fn wave_spans_min_to_max() {
        let p = profile(0, 8);
        let period = p.params().wave_period_ns;
        let mut seen = std::collections::BTreeSet::new();
        let mut t = 0;
        while t < period {
            seen.insert(p.target(t).0);
            t += p.params().step_ns;
        }
        assert_eq!(*seen.iter().next().unwrap(), p.params().min_active);
        assert_eq!(*seen.iter().last().unwrap(), p.params().max_active);
    }

    #[test]
    fn wave_rolls_across_nodes() {
        // At a fixed instant, different nodes sit at different phases.
        let n = 8;
        let targets: Vec<usize> = (0..n).map(|i| profile(i, n).target(0).0).collect();
        let distinct = targets.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!(distinct >= 4, "rolling wave must spread phases: {targets:?}");
        // And node i at time 0 matches node 0 at i/n of a period later.
        let period = LoadParams::default().wave_period_ns;
        for (i, &target) in targets.iter().enumerate() {
            let shifted = profile(0, n).target(i as u64 * period / n as u64).0;
            assert_eq!(target, shifted, "node {i}");
        }
    }

    #[test]
    fn piecewise_constant_within_a_step() {
        let p = profile(3, 8);
        let step = p.params().step_ns;
        let t0 = 7 * step;
        assert_eq!(p.target(t0), p.target(t0 + step - 1));
        assert_eq!(p.next_change_ns(t0), t0 + step);
        assert_eq!(p.next_change_ns(t0 + step - 1), t0 + step);
    }

    #[test]
    fn demand_scales_with_active_cores() {
        let p = profile(0, 4);
        let period = p.params().wave_period_ns;
        let trough = p.demand_w(0, 30.0, 5.0);
        let crest = p.demand_w(period / 2, 30.0, 5.0);
        assert!(crest > trough);
    }
}
