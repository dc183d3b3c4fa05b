//! Joule meters: wrap-corrected, unit-converted energy accumulation.

use maestro_machine::msr::MsrDevice;
use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{SocketId, Topology};

use crate::msr_backend::MsrDomain;
use crate::wrap::WrapTracker;
use crate::RaplError;

/// Read attempts per socket per sample.
///
/// Retries are immediate re-reads: the caller runs on a virtual clock, so
/// "backoff" is a bounded attempt budget per sample period rather than
/// wall-clock sleeps — a sample that exhausts its budget is reported as
/// failed and the period's cadence provides the backoff.
pub const MAX_ATTEMPTS: u32 = 4;

/// Largest believable energy step between two consecutive committed
/// samples, Joules. Steps above it are treated as corrupt readings and
/// re-read instead of committed: it is far above any legitimate step at
/// sane sampling periods (a 150 W node needs 200 s between samples to
/// accumulate 30 kJ) yet below the smallest spurious-wrap step of a 32-bit
/// RAPL counter (≈33 kJ, a back-jump misread as a full wrap).
pub const MAX_STEP_JOULES: f64 = 30_000.0;

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
    source: MsrDomain,
    tracker: WrapTracker,
}

impl SocketProbe {
    /// Meter for one socket.
    pub fn new(topology: Topology, socket: SocketId) -> Self {
        let source = MsrDomain::new(topology, socket);
        let tracker = WrapTracker::new(source.wrap_modulus());
        SocketProbe { source, tracker }
    }

    /// The socket this probe meters.
    pub fn socket(&self) -> SocketId {
        self.source.socket()
    }

    /// Take a reading: transient read errors and implausible counter jumps
    /// are re-read up to [`MAX_ATTEMPTS`], and nothing is committed to the
    /// cumulative total until a reading passes the [`MAX_STEP_JOULES`]
    /// check — so a failed sample never corrupts energy accounting.
    pub fn sample(&mut self, dev: &dyn MsrDevice) -> Result<SocketReading, ProbeError> {
        let socket = self.socket();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.source.read_raw_from(dev) {
                Ok(raw) => {
                    let step = self.tracker.peek(raw) as f64 * self.source.unit_joules();
                    if step <= MAX_STEP_JOULES {
                        let total = self.tracker.update(raw);
                        return Ok(SocketReading {
                            socket,
                            joules: total as f64 * self.source.unit_joules(),
                            attempts,
                        });
                    }
                    if attempts >= MAX_ATTEMPTS {
                        return Err(ProbeError::Implausible { socket, attempts, step_joules: step });
                    }
                }
                Err(source) if source.is_transient() => {
                    if attempts >= MAX_ATTEMPTS {
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
}

/// A whole-node meter: one [`SocketProbe`] per package.
///
/// The probe is the daemon's whole energy-accounting state, so a restarted
/// daemon carries on from a clone of its predecessor's probe.
#[derive(Debug)]
pub struct NodeProbe {
    probes: Vec<SocketProbe>,
}

impl Clone for NodeProbe {
    fn clone(&self) -> Self {
        NodeProbe { probes: self.probes.clone() }
    }

    /// Reuses this probe's buffer, so refreshing a held copy once per
    /// sample allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.probes.clone_from(&source.probes);
    }
}

impl NodeProbe {
    /// Meter every package of `topology`.
    pub fn new(topology: Topology) -> Self {
        NodeProbe {
            probes: topology.all_sockets().map(|s| SocketProbe::new(topology, s)).collect(),
        }
    }

    /// Sample every package (see [`SocketProbe::sample`]).
    ///
    /// Sockets that were committed before a later socket failed keep their
    /// committed totals (they simply advance again on the next successful
    /// sample), so a partial failure never skews cumulative energy.
    pub fn sample(&mut self, dev: &dyn MsrDevice) -> Result<NodeReading, ProbeError> {
        let mut total = 0.0;
        let mut attempts = 0u32;
        for p in &mut self.probes {
            let r = p.sample(dev)?;
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

    /// The snapshot codec (see [`Codec`]): the socket count, then per
    /// socket in order its id and its wrap tracker. Decoding requires a
    /// probe for the same topology and yields a copy of it carrying the
    /// decoded accounting (an empty placeholder on the writer).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<NodeProbe, SnapError> {
        let probes = c.seq_fixed(&self.probes, "probe socket count mismatch", |c, p| {
            if c.u8(p.socket().0)? != p.socket().0 {
                return Err(SnapError::Corrupt("probe socket out of order"));
            }
            Ok(SocketProbe { source: p.source.clone(), tracker: p.tracker.codec(c)? })
        })?;
        Ok(NodeProbe { probes })
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
        let total = node.sample(&m).unwrap().joules;
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
        // 40% of reads fail transiently; with 4 attempts per sample the odds
        // of a whole sample failing are ~2.6%, so most samples land.
        let plan = FaultPlan::new(11).with_transient_error_rate(0.4);
        probe.sample(&FaultyMsr::new(&m, &plan)).unwrap();
        let baseline = m.energy_joules(SocketId(0));
        let mut retried = 0u32;
        let mut failed = 0u32;
        for _ in 0..100 {
            m.advance(NS_PER_SEC / 10);
            match probe.sample(&FaultyMsr::new(&m, &plan)) {
                Ok(r) if r.attempts > 1 => retried += 1,
                Ok(_) => {}
                Err(ProbeError::Transient { .. }) => failed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Take one guaranteed-clean closing sample so the meter is current.
        m.advance(NS_PER_SEC / 10);
        let quiet = FaultPlan::new(0);
        probe.sample(&FaultyMsr::new(&m, &quiet)).unwrap();
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
        let quiet = FaultPlan::new(0);
        probe.sample(&FaultyMsr::new(&m, &quiet)).unwrap();
        m.advance(NS_PER_SEC / 10);
        // Every read back-jumps, which the wrap tracker would book as a full
        // ~33-66 kJ wrap. All attempts look implausible, nothing commits.
        let always_wrap = FaultPlan::new(12).with_extra_wrap_rate(1.0);
        let before = probe.joules();
        match probe.sample(&FaultyMsr::new(&m, &always_wrap)) {
            Err(ProbeError::Implausible { attempts, step_joules, .. }) => {
                assert_eq!(attempts, MAX_ATTEMPTS);
                assert!(step_joules > MAX_STEP_JOULES);
            }
            other => panic!("expected implausible-step failure, got {other:?}"),
        }
        assert_eq!(probe.joules(), before, "failed sample must not move the meter");
        // Once the corruption clears, accounting picks up where it left off.
        let r = probe.sample(&FaultyMsr::new(&m, &quiet)).unwrap();
        assert!(r.joules > before, "clean sample resumes accumulation");
        assert!(r.joules < 100.0, "0.1 s of load is a few Joules, not a wrap");
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let m = loaded_machine();
        // A probe for a socket that does not exist on the device.
        let mut probe = SocketProbe::new(m.topology(), SocketId(0));
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
        match probe.sample(&Dead) {
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
        let mut held = NodeProbe::new(m.topology());
        held.clone_from(&node);

        // The sampler "dies" here; the machine keeps burning energy.
        m.advance(3 * NS_PER_SEC);

        // Its replacement carries the held clone: the first sample must book
        // both the pre-outage total and the outage energy.
        let mut reborn = held.clone();
        assert_eq!(reborn.joules(), node.joules(), "the clone carries the total");
        reborn.sample(&m).unwrap();
        let truth = m.total_energy_joules() - baseline;
        let measured = reborn.joules();
        assert!(
            (measured - truth).abs() / truth < 1e-6,
            "outage energy lost: measured={measured} truth={truth}"
        );
    }

    #[test]
    fn codec_round_trips_and_checks_the_socket_set() {
        use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
        use maestro_machine::Topology;
        let mut m = loaded_machine();
        let mut node = NodeProbe::new(m.topology());
        for _ in 0..3 {
            node.sample(&m).unwrap();
            m.advance(NS_PER_SEC);
        }
        let mut w = SnapWriter::new();
        node.codec(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let mut back = NodeProbe::new(m.topology()).codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.joules_per_socket(), node.joules_per_socket());
        assert_eq!(back.sample(&m).unwrap(), node.sample(&m).unwrap());
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            node.codec(&mut r)?;
            r.finish()
        });
        let one_socket = NodeProbe::new(Topology::new(1, 8));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(one_socket.codec(&mut r), Err(SnapError::Corrupt(_))));
    }
}
