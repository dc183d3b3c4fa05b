//! The MSR-register energy backend.
//!
//! Reads `MSR_PKG_ENERGY_STATUS` for one package through any
//! [`MsrDevice`] — the simulated
//! [`Machine`](maestro_machine::Machine) here, `/dev/cpu/N/msr` on real
//! hardware. Readings are taken "from" the package's first core, which is
//! how per-package MSRs are conventionally accessed.

use maestro_machine::msr::MsrDevice;
use maestro_machine::{CoreId, SocketId, Topology, MSR_PKG_ENERGY_STATUS, RAPL_UNIT_JOULES};

use crate::RaplError;

/// A borrowed view of one package's RAPL counter.
///
/// Because the simulated machine is owned by the scheduler, this domain
/// borrows the device per call rather than holding it; use
/// [`MsrDomain::read_raw_from`] directly, or
/// [`probe::SocketProbe`](crate::probe::SocketProbe) for accumulation.
#[derive(Clone, Debug)]
pub struct MsrDomain {
    socket: SocketId,
    via_core: CoreId,
}

impl MsrDomain {
    /// The counter of `socket` on a node with the given topology.
    pub fn new(topology: Topology, socket: SocketId) -> Self {
        let via_core = topology
            .cores_of(socket)
            .next()
            .expect("topology guarantees at least one core per socket");
        MsrDomain { socket, via_core }
    }

    /// The package this domain reads.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// One raw counter reading through `dev`.
    pub fn read_raw_from(&self, dev: &dyn MsrDevice) -> Result<u64, RaplError> {
        Ok(dev.read_msr(self.via_core, MSR_PKG_ENERGY_STATUS)?)
    }

    /// Energy per raw count: the Sandybridge 15.3 µJ unit.
    pub fn unit_joules(&self) -> f64 {
        RAPL_UNIT_JOULES
    }

    /// The 32-bit wrap modulus of `MSR_PKG_ENERGY_STATUS`.
    pub fn wrap_modulus(&self) -> u64 {
        1 << 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::{CoreActivity, Machine, MachineConfig, NS_PER_SEC};

    #[test]
    fn reads_each_socket_independently() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        // Only socket 1 does work.
        for c in m.topology().cores_of(SocketId(1)) {
            m.set_activity(c, CoreActivity::Busy { intensity: 1.0, ocr: 1.0 });
        }
        m.advance(NS_PER_SEC);
        let s0 = MsrDomain::new(m.topology(), SocketId(0));
        let s1 = MsrDomain::new(m.topology(), SocketId(1));
        let r0 = s0.read_raw_from(&m).unwrap();
        let r1 = s1.read_raw_from(&m).unwrap();
        assert!(r1 > r0, "busy socket must accumulate more: {r0} vs {r1}");
    }

    #[test]
    fn joules_reconstructed_from_raw_match_truth() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.7, ocr: 0.5 });
        }
        m.advance(3 * NS_PER_SEC);
        let src = MsrDomain::new(m.topology(), SocketId(0));
        let raw = src.read_raw_from(&m).unwrap();
        let joules = raw as f64 * src.unit_joules();
        let truth = m.energy_joules(SocketId(0));
        assert!((joules - truth).abs() < 1e-3, "{joules} vs {truth}");
    }
}
