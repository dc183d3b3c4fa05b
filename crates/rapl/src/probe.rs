//! Joule meters: wrap-corrected, unit-converted energy accumulation.

use maestro_machine::msr::MsrDevice;
use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{SocketId, Topology};

use crate::msr_backend::MsrEnergySource;
use crate::wrap::{WrapCheckpoint, WrapTracker};
use crate::RaplError;

/// How a probe handles readings that fail or look wrong.
///
/// Retries are immediate re-reads: the caller runs on a virtual clock, so
/// "backoff" is expressed as a bounded attempt budget per sample period
/// rather than wall-clock sleeps — a sample that exhausts its budget is
/// reported as failed and the period's cadence provides the backoff.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total read attempts per socket per sample (≥ 1).
    pub max_attempts: u32,
    /// Largest believable energy step between two consecutive committed
    /// samples, Joules. Steps above this are treated as corrupt readings
    /// (e.g. a spurious counter back-jump misread as a full 32-bit wrap,
    /// worth 33–66 kJ) and re-read instead of committed. Use
    /// `f64::INFINITY` to disable the check.
    pub max_step_joules: f64,
}

impl Default for RetryPolicy {
    /// Four attempts, 30 kJ plausibility bound — far above any legitimate
    /// step at sane sampling periods (a 150 W node needs 200 s between
    /// samples to accumulate 30 kJ) yet below the smallest spurious-wrap
    /// step of a 32-bit RAPL counter (≈33 kJ).
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, max_step_joules: 30_000.0 }
    }
}

/// Why a retried sample ultimately failed.
#[derive(Debug)]
pub enum ProbeError {
    /// Every attempt failed transiently; the next sample period may succeed.
    Transient {
        /// Socket whose counter could not be read.
        socket: SocketId,
        /// Attempts spent before giving up.
        attempts: u32,
        /// The final attempt's error.
        source: RaplError,
    },
    /// A non-retriable failure (bad topology, unmodeled register, ...).
    Fatal {
        /// Socket whose counter could not be read.
        socket: SocketId,
        /// The underlying error.
        source: RaplError,
    },
    /// Every attempt produced an implausibly large energy step; nothing was
    /// committed, so the cumulative total is still trustworthy.
    Implausible {
        /// Socket whose counter misbehaved.
        socket: SocketId,
        /// Attempts spent before giving up.
        attempts: u32,
        /// The offending step, Joules.
        step_joules: f64,
    },
}

impl ProbeError {
    /// The socket the failed sample was for.
    pub fn socket(&self) -> SocketId {
        match self {
            ProbeError::Transient { socket, .. }
            | ProbeError::Fatal { socket, .. }
            | ProbeError::Implausible { socket, .. } => *socket,
        }
    }
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::Transient { socket, attempts, source } => {
                write!(f, "socket{} sample failed after {attempts} attempts: {source}", socket.0)
            }
            ProbeError::Fatal { socket, source } => {
                write!(f, "socket{} sample failed fatally: {source}", socket.0)
            }
            ProbeError::Implausible { socket, attempts, step_joules } => write!(
                f,
                "socket{} read an implausible {step_joules:.1} J step on all {attempts} attempts",
                socket.0
            ),
        }
    }
}

impl std::error::Error for ProbeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProbeError::Transient { source, .. } | ProbeError::Fatal { source, .. } => {
                Some(source)
            }
            ProbeError::Implausible { .. } => None,
        }
    }
}

/// One successful (possibly retried) socket sample.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SocketReading {
    /// The sampled socket.
    pub socket: SocketId,
    /// Cumulative Joules since the probe's first sample.
    pub joules: f64,
    /// Read attempts spent (1 = clean first read).
    pub attempts: u32,
}

/// One successful (possibly retried) whole-node sample.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NodeReading {
    /// Cumulative node Joules since the probe's first sample.
    pub joules: f64,
    /// Total read attempts across all sockets.
    pub attempts: u32,
    /// True when any socket needed more than one attempt.
    pub retried: bool,
}

/// A per-socket Joule meter over the MSR backend.
///
/// Call [`SocketProbe::sample`] with the device at least once per wrap
/// period; [`SocketProbe::joules`] then reports monotone energy since the
/// first sample.
#[derive(Clone, Debug)]
pub struct SocketProbe {
    source: MsrEnergySource,
    tracker: WrapTracker,
}

impl SocketProbe {
    /// Meter for one socket.
    pub fn new(topology: Topology, socket: SocketId) -> Self {
        let source = MsrEnergySource::new(topology, socket);
        let tracker = WrapTracker::new(source.wrap_modulus());
        SocketProbe { source, tracker }
    }

    /// The socket this probe meters.
    pub fn socket(&self) -> SocketId {
        self.source.socket()
    }

    /// Take a reading; returns cumulative Joules since the first sample.
    pub fn sample(&mut self, dev: &dyn MsrDevice) -> Result<f64, RaplError> {
        let raw = self.source.read_raw_from(dev)?;
        let total_units = self.tracker.update(raw);
        Ok(total_units as f64 * self.source.unit_joules())
    }

    /// Take a reading under a [`RetryPolicy`]: transient read errors and
    /// implausible counter jumps are re-read up to the attempt budget, and
    /// nothing is committed to the cumulative total until a reading passes
    /// the plausibility check — so a failed sample never corrupts energy
    /// accounting.
    pub fn sample_with_retry(
        &mut self,
        dev: &dyn MsrDevice,
        policy: &RetryPolicy,
    ) -> Result<SocketReading, ProbeError> {
        assert!(policy.max_attempts >= 1, "retry policy needs at least one attempt");
        let socket = self.socket();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.source.read_raw_from(dev) {
                Ok(raw) => {
                    let step = self.tracker.peek(raw) as f64 * self.source.unit_joules();
                    if step <= policy.max_step_joules {
                        let total = self.tracker.update(raw);
                        return Ok(SocketReading {
                            socket,
                            joules: total as f64 * self.source.unit_joules(),
                            attempts,
                        });
                    }
                    if attempts >= policy.max_attempts {
                        return Err(ProbeError::Implausible { socket, attempts, step_joules: step });
                    }
                }
                Err(source) if source.is_transient() => {
                    if attempts >= policy.max_attempts {
                        return Err(ProbeError::Transient { socket, attempts, source });
                    }
                }
                Err(source) => return Err(ProbeError::Fatal { socket, source }),
            }
        }
    }

    /// Cumulative Joules as of the last sample.
    pub fn joules(&self) -> f64 {
        self.tracker.total() as f64 * self.source.unit_joules()
    }

    /// Number of counter wraps observed so far.
    pub fn wraps(&self) -> u64 {
        self.tracker.wraps()
    }

    /// Restart accumulation at the next sample.
    pub fn reset(&mut self) {
        self.tracker.reset();
    }

    /// Snapshot the meter for restore into a replacement probe (sampler
    /// restart). Cheap — a handful of words.
    pub fn checkpoint(&self) -> SocketProbeCheckpoint {
        SocketProbeCheckpoint { socket: self.socket(), wrap: self.tracker.checkpoint() }
    }

    /// Restore a snapshot taken with [`SocketProbe::checkpoint`]. The next
    /// sample books the energy that accrued during the outage (the hardware
    /// counter kept running), as long as the outage stayed within one wrap
    /// period.
    pub fn restore(&mut self, cp: &SocketProbeCheckpoint) {
        assert_eq!(cp.socket, self.socket(), "checkpoint is for a different socket");
        self.tracker.restore(cp.wrap);
    }
}

/// Saved [`SocketProbe`] state (see [`SocketProbe::checkpoint`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SocketProbeCheckpoint {
    /// The socket the checkpointed probe was metering.
    pub socket: SocketId,
    /// The wrap tracker's accounting state.
    pub wrap: WrapCheckpoint,
}

/// Saved [`NodeProbe`] state: one socket checkpoint per package.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeProbeCheckpoint {
    /// Per-socket meter state, in socket order.
    pub sockets: Vec<SocketProbeCheckpoint>,
}

impl NodeProbeCheckpoint {
    /// The snapshot codec for a node checkpoint (see [`Codec`]). A valid
    /// checkpoint meters sockets `0..sockets` in order, as
    /// [`NodeProbe::new`] builds them; any other set is corrupt.
    pub fn codec<C: Codec>(&self, c: &mut C, sockets: usize) -> Result<Self, SnapError> {
        let mut next = 0;
        let decoded = c.seq(&self.sockets, |c, s| {
            let socket = SocketId(c.u8(s.socket.0)?);
            if usize::from(socket.0) != next {
                return Err(SnapError::Corrupt("probe checkpoint socket out of order"));
            }
            next += 1;
            Ok(SocketProbeCheckpoint {
                socket,
                wrap: WrapCheckpoint {
                    last_raw: c.opt_u64(s.wrap.last_raw)?,
                    total: c.u128(s.wrap.total)?,
                    wraps: c.u64(s.wrap.wraps)?,
                },
            })
        })?;
        if C::DECODING && decoded.len() != sockets {
            return Err(SnapError::Corrupt("probe checkpoint socket count mismatch"));
        }
        Ok(NodeProbeCheckpoint { sockets: decoded })
    }
}

/// A whole-node meter: one [`SocketProbe`] per package.
#[derive(Clone, Debug)]
pub struct NodeProbe {
    probes: Vec<SocketProbe>,
}

impl NodeProbe {
    /// Meter every package of `topology`.
    pub fn new(topology: Topology) -> Self {
        NodeProbe {
            probes: topology.all_sockets().map(|s| SocketProbe::new(topology, s)).collect(),
        }
    }

    /// Sample every package; returns total node Joules since first sample.
    pub fn sample(&mut self, dev: &dyn MsrDevice) -> Result<f64, RaplError> {
        let mut total = 0.0;
        for p in &mut self.probes {
            total += p.sample(dev)?;
        }
        Ok(total)
    }

    /// Sample every package under a [`RetryPolicy`].
    ///
    /// Sockets that were committed before a later socket failed keep their
    /// committed totals (they simply advance again on the next successful
    /// sample), so a partial failure never skews cumulative energy.
    pub fn sample_with_retry(
        &mut self,
        dev: &dyn MsrDevice,
        policy: &RetryPolicy,
    ) -> Result<NodeReading, ProbeError> {
        let mut total = 0.0;
        let mut attempts = 0u32;
        for p in &mut self.probes {
            let r = p.sample_with_retry(dev, policy)?;
            total += r.joules;
            attempts += r.attempts;
        }
        Ok(NodeReading {
            joules: total,
            attempts,
            retried: attempts > self.probes.len() as u32,
        })
    }

    /// Cumulative node Joules as of the last sample.
    pub fn joules(&self) -> f64 {
        self.probes.iter().map(|p| p.joules()).sum()
    }

    /// Per-socket cumulative Joules.
    pub fn joules_per_socket(&self) -> Vec<(SocketId, f64)> {
        self.probes.iter().map(|p| (p.socket(), p.joules())).collect()
    }

    /// Restart accumulation on every socket.
    pub fn reset(&mut self) {
        for p in &mut self.probes {
            p.reset();
        }
    }

    /// Snapshot every socket meter (see [`SocketProbe::checkpoint`]).
    pub fn checkpoint(&self) -> NodeProbeCheckpoint {
        NodeProbeCheckpoint { sockets: self.probes.iter().map(|p| p.checkpoint()).collect() }
    }

    /// Restore a snapshot taken with [`NodeProbe::checkpoint`] into this
    /// (freshly built) probe. Socket sets must match.
    pub fn restore(&mut self, cp: &NodeProbeCheckpoint) {
        assert_eq!(cp.sockets.len(), self.probes.len(), "checkpoint socket count mismatch");
        for (p, s) in self.probes.iter_mut().zip(&cp.sockets) {
            p.restore(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::{CoreActivity, Machine, MachineConfig, NS_PER_SEC};

    fn loaded_machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 1.0, ocr: 2.0 });
        }
        m
    }

    #[test]
    fn probe_tracks_truth_across_wraps() {
        let mut m = loaded_machine();
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
        probe.sample(&m).unwrap();
        let baseline = m.energy_joules(SocketId(0));
        // 30 × 60 s of heavy load: many wraps of the ~875 s-period counter...
        // actually ~75 W/socket wraps every ~875 s, so sample every 60 s for
        // 3600 s total to force several wraps.
        for _ in 0..60 {
            m.advance(60 * NS_PER_SEC);
            probe.sample(&m).unwrap();
        }
        let truth = m.energy_joules(SocketId(0)) - baseline;
        assert!(probe.wraps() >= 3, "wraps={}", probe.wraps());
        let measured = probe.joules();
        assert!(
            (measured - truth).abs() / truth < 1e-6,
            "measured={measured} truth={truth}"
        );
    }

    #[test]
    fn node_probe_sums_sockets() {
        let mut m = loaded_machine();
        let mut node = NodeProbe::new(m.topology());
        node.sample(&m).unwrap();
        let e0 = m.total_energy_joules();
        m.advance(10 * NS_PER_SEC);
        let total = node.sample(&m).unwrap();
        let truth = m.total_energy_joules() - e0;
        assert!((total - truth).abs() / truth < 1e-6, "{total} vs {truth}");
        let per = node.joules_per_socket();
        assert_eq!(per.len(), 2);
        let sum: f64 = per.iter().map(|(_, j)| j).sum();
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn retry_recovers_from_transient_errors_with_exact_energy() {
        use maestro_machine::{FaultPlan, FaultyMsr};
        let mut m = loaded_machine();
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
        let policy = RetryPolicy::default();
        // 40% of reads fail transiently; with 4 attempts per sample the odds
        // of a whole sample failing are ~2.6%, so most samples land.
        let plan = FaultPlan::new(11).with_transient_error_rate(0.4);
        probe.sample_with_retry(&FaultyMsr::new(&m, &plan), &policy).unwrap();
        let baseline = m.energy_joules(SocketId(0));
        let mut retried = 0u32;
        let mut failed = 0u32;
        for _ in 0..100 {
            m.advance(NS_PER_SEC / 10);
            match probe.sample_with_retry(&FaultyMsr::new(&m, &plan), &policy) {
                Ok(r) if r.attempts > 1 => retried += 1,
                Ok(_) => {}
                Err(ProbeError::Transient { .. }) => failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Take one guaranteed-clean closing sample so the meter is current.
        m.advance(NS_PER_SEC / 10);
        let quiet = FaultPlan::new(0);
        probe.sample_with_retry(&FaultyMsr::new(&m, &quiet), &policy).unwrap();
        assert!(retried > 10, "expected plenty of retried samples, saw {retried}");
        let truth = m.energy_joules(SocketId(0)) - baseline;
        let measured = probe.joules();
        assert!(
            (measured - truth).abs() / truth < 1e-6,
            "energy drifted under retries: measured={measured} truth={truth} (failed={failed})"
        );
    }

    #[test]
    fn implausible_jumps_are_rejected_without_poisoning_the_total() {
        use maestro_machine::{FaultPlan, FaultyMsr};
        let mut m = loaded_machine();
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
        let policy = RetryPolicy::default();
        let quiet = FaultPlan::new(0);
        probe.sample_with_retry(&FaultyMsr::new(&m, &quiet), &policy).unwrap();
        m.advance(NS_PER_SEC / 10);
        // Every read back-jumps, which the wrap tracker would book as a full
        // ~33-66 kJ wrap. All attempts look implausible, nothing commits.
        let always_wrap = FaultPlan::new(12).with_extra_wrap_rate(1.0);
        let before = probe.joules();
        match probe.sample_with_retry(&FaultyMsr::new(&m, &always_wrap), &policy) {
            Err(ProbeError::Implausible { attempts, step_joules, .. }) => {
                assert_eq!(attempts, policy.max_attempts);
                assert!(step_joules > policy.max_step_joules);
            }
            other => panic!("expected implausible-step failure, got {other:?}"),
        }
        assert_eq!(probe.joules(), before, "failed sample must not move the meter");
        // Once the corruption clears, accounting picks up where it left off.
        let r = probe.sample_with_retry(&FaultyMsr::new(&m, &quiet), &policy).unwrap();
        assert!(r.joules > before, "clean sample resumes accumulation");
        assert!(r.joules < 100.0, "0.1 s of load is a few Joules, not a wrap");
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let m = loaded_machine();
        // A probe for a socket that does not exist on the device.
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
        let policy = RetryPolicy { max_attempts: 3, max_step_joules: f64::INFINITY };
        // A device that fails structurally (not transiently) on every read.
        struct Dead;
        impl maestro_machine::msr::MsrDevice for Dead {
            fn read_msr(
                &self,
                _core: maestro_machine::CoreId,
                msr: u32,
            ) -> Result<u64, maestro_machine::MsrError> {
                Err(maestro_machine::MsrError::UnknownMsr(msr))
            }
            fn write_msr(
                &mut self,
                _core: maestro_machine::CoreId,
                msr: u32,
                _value: u64,
            ) -> Result<(), maestro_machine::MsrError> {
                Err(maestro_machine::MsrError::ReadOnly(msr))
            }
        }
        match probe.sample_with_retry(&Dead, &policy) {
            Err(ProbeError::Fatal { source, .. }) => assert!(!source.is_transient()),
            other => panic!("expected fatal error, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_restore_books_energy_across_an_outage() {
        let mut m = loaded_machine();
        let mut node = NodeProbe::new(m.topology());
        node.sample(&m).unwrap();
        let baseline = m.total_energy_joules();
        m.advance(5 * NS_PER_SEC);
        node.sample(&m).unwrap();
        let cp = node.checkpoint();

        // The sampler "dies" here; the machine keeps burning energy.
        m.advance(3 * NS_PER_SEC);

        // A replacement probe restores the checkpoint: its first sample must
        // book both the pre-checkpoint total and the outage energy.
        let mut reborn = NodeProbe::new(m.topology());
        reborn.restore(&cp);
        assert_eq!(reborn.joules(), node.joules(), "restore carries the total");
        reborn.sample(&m).unwrap();
        let truth = m.total_energy_joules() - baseline;
        let measured = reborn.joules();
        assert!(
            (measured - truth).abs() / truth < 1e-6,
            "outage energy lost: measured={measured} truth={truth}"
        );
    }

    #[test]
    #[should_panic(expected = "different socket")]
    fn checkpoint_for_wrong_socket_rejected() {
        let m = loaded_machine();
        let p0 = SocketProbe::new(m.topology(), SocketId(0));
        let mut p1 = SocketProbe::new(m.topology(), SocketId(1));
        p1.restore(&p0.checkpoint());
    }

    #[test]
    fn reset_restarts_accumulation() {
        let mut m = loaded_machine();
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
        probe.sample(&m).unwrap();
        m.advance(NS_PER_SEC);
        probe.sample(&m).unwrap();
        assert!(probe.joules() > 0.0);
        probe.reset();
        assert_eq!(probe.joules(), 0.0);
        let first_after = probe.sample(&m).unwrap();
        assert_eq!(first_after, 0.0, "first sample after reset is the new zero");
    }
}
