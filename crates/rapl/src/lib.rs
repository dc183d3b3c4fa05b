//! # maestro-rapl
//!
//! Energy measurement on top of the RAPL (Running Average Power Limit)
//! counters introduced with Intel Sandybridge, as used throughout the paper:
//!
//! > "For this work, the `MSR_PKG_ENERGY_STATUS` counter was used to track
//! > energy usage by each socket. It is frequently updated but should be
//! > accessed less often to smooth jitter in the power usage, and counts in
//! > 15.3 microJoule units. Since the counter is only 32 bits wide it can
//! > wrap around in a few minutes. The measurement tools monitor the number
//! > of wraps to obtain valid application energy consumption numbers."
//!
//! This crate provides each of those pieces as a reusable component:
//!
//! * [`wrap::WrapTracker`] — accumulates raw readings across wraparounds;
//! * [`probe::SocketProbe`] / [`probe::NodeProbe`] — per-socket and
//!   whole-node Joule meters with bounded retries and a plausibility check;
//! * [`window::PowerWindow`] — jitter-smoothed average power over a sliding
//!   window;
//! * backends, each a raw reading with its unit and wrap modulus:
//!   [`msr_backend::MsrDomain`] (the simulated — or, on real hardware,
//!   `/dev/cpu/*/msr` shaped — register file) and
//!   [`powercap::PowercapDomain`] (the Linux sysfs powercap tree, used when
//!   the library runs on a physical RAPL-capable machine).

#![warn(missing_docs)]

pub mod msr_backend;
pub mod powercap;
pub mod probe;
pub mod window;
pub mod wrap;

pub use msr_backend::MsrDomain;
pub use powercap::PowercapDomain;
pub use probe::{NodeProbe, NodeReading, ProbeError, SocketProbe, SocketReading};
pub use window::PowerWindow;
pub use wrap::WrapTracker;

/// Errors surfaced by energy-counter access.
#[derive(Debug)]
pub enum RaplError {
    /// The underlying MSR access failed.
    Msr(maestro_machine::MsrError),
    /// A sysfs read failed.
    Io(std::io::Error),
    /// A sysfs file held something other than a counter value.
    Parse {
        /// Path of the offending file.
        path: std::path::PathBuf,
        /// Its (trimmed) content.
        content: String,
    },
    /// No RAPL domain was found under the given root.
    NoDomains(std::path::PathBuf),
}

impl RaplError {
    /// True when the failure is momentary and a retry may succeed (e.g. an
    /// EAGAIN-style MSR read failure). Parse errors, missing domains, and
    /// structural MSR errors are not transient.
    pub fn is_transient(&self) -> bool {
        matches!(self, RaplError::Msr(maestro_machine::MsrError::Transient(_)))
    }
}

impl std::fmt::Display for RaplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaplError::Msr(e) => write!(f, "MSR access failed: {e}"),
            RaplError::Io(e) => write!(f, "powercap I/O failed: {e}"),
            RaplError::Parse { path, content } => {
                write!(f, "unparsable counter in {}: {content:?}", path.display())
            }
            RaplError::NoDomains(root) => {
                write!(f, "no intel-rapl domains under {}", root.display())
            }
        }
    }
}

impl std::error::Error for RaplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RaplError::Msr(e) => Some(e),
            RaplError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<maestro_machine::MsrError> for RaplError {
    fn from(e: maestro_machine::MsrError) -> Self {
        RaplError::Msr(e)
    }
}

impl From<std::io::Error> for RaplError {
    fn from(e: std::io::Error) -> Self {
        RaplError::Io(e)
    }
}
