//! # maestro-machine
//!
//! A deterministic, virtual-time model of the two-socket Intel Sandybridge
//! node used in Porterfield et al., *"Power Measurement and Concurrency
//! Throttling for Energy Reduction in OpenMP Programs"* (IPDPS workshops,
//! 2013): two Xeon E5-2680 packages, 8 cores each, 2.7 GHz nominal,
//! TurboBoost disabled.
//!
//! The model exposes exactly the quantities the paper's runtime keys on:
//!
//! * **Energy counters** — a bit-accurate emulation of the RAPL
//!   `MSR_PKG_ENERGY_STATUS` register (15.3 µJ units, 32-bit wraparound).
//! * **Per-core duty-cycle modulation** — an `IA32_CLOCK_MODULATION`-style
//!   register that reduces a core's effective frequency down to 1/32 of
//!   nominal, with a write latency equivalent to ~250 memory operations.
//! * **Temperature** — a lumped-RC thermal model per package with
//!   temperature-dependent leakage, reproducing the paper's observation that
//!   a cold system draws less power on the first run.
//! * **Memory contention** — a fluid outstanding-memory-references model
//!   (after Mandel et al., ISPASS 2010, the paper's reference \[10\]): each
//!   package has an effective maximum number of outstanding references;
//!   beyond it, memory-bound progress degrades proportionally.
//!
//! Time is virtual: [`Machine::advance`] integrates power into energy over an
//! interval during which the supplied core activity is constant. A scheduler
//! (see the `maestro-runtime` crate) drives the machine event by event, so an
//! entire "77-second" benchmark costs milliseconds of host time and is
//! bit-for-bit reproducible.
//!
//! ```
//! use maestro_machine::{Machine, MachineConfig, CoreActivity, CoreId};
//!
//! let mut m = Machine::new(MachineConfig::sandybridge_2x8());
//! m.set_activity(CoreId(0), CoreActivity::Busy { intensity: 0.8, ocr: 2.0 });
//! m.advance(100_000_000); // 0.1 virtual seconds
//! assert!(m.energy_joules(maestro_machine::SocketId(0)) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod actuator;
pub mod contention;
pub mod cost;
pub mod duty;
pub mod dvfs;
pub mod engine;
pub mod fault;
pub mod msr;
pub mod power;
pub mod snap;
pub mod thermal;
pub mod topology;

pub use actuator::{ActuationHealth, ActuationTotals, Actuator, ApplyOutcome, BreakerState};
pub use contention::MemoryParams;
pub use cost::Cost;
pub use duty::DutyCycle;
pub use dvfs::{DvfsParams, PState};
pub use engine::{CoreActivity, Machine, MachineConfig};
pub use fault::{DutyWriteEffect, FaultPlan, FaultyMsr, SplitMix64, StallWindow, StuckWindow};
pub use msr::{
    MsrDevice, MsrError, IA32_CLOCK_MODULATION, IA32_PERF_CTL, IA32_THERM_STATUS,
    MSR_PKG_ENERGY_STATUS,
};
pub use power::PowerParams;
pub use snap::{
    fingerprint, Codec, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION,
};
pub use thermal::ThermalParams;
pub use topology::{CoreId, SocketId, Topology};

/// Nanoseconds per second, as used throughout the virtual clock.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// Energy per RAPL counter unit in Joules (15.3 µJ, as stated in the paper).
pub const RAPL_UNIT_JOULES: f64 = 15.3e-6;
