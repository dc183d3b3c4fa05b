//! # maestro
//!
//! The paper's contribution: **automatic dynamic concurrency throttling** for
//! energy reduction, integrating every substrate crate of this workspace:
//!
//! * `maestro-machine` — the two-socket Sandybridge node model (RAPL MSRs,
//!   duty-cycle modulation, memory contention, thermals);
//! * `maestro-rapl` — wrap-corrected energy metering;
//! * `maestro-rcr` — the RCR daemon, blackboard, and H/M/L classifier;
//! * `maestro-runtime` — the Qthreads/Sherwood tasking runtime with
//!   shepherd-local throttle limits and low-power spin loops.
//!
//! The two pieces this crate adds are §IV of the paper:
//!
//! * [`ThrottleController`] — the user-level daemon: every 0.1 s it reads
//!   the blackboard the supervised RCR daemon publishes and classifies
//!   socket power and memory concurrency as High / Medium / Low. The
//!   [`Policy`] picks the response — the paper's throttle flag (set when
//!   **both** are High, cleared when **both** are Low, otherwise held), a
//!   package-global DVFS step, or a shepherd-limit step under a power cap —
//!   and each decision is one [`ControllerSample`] naming its [`Actuation`].
//!   Safe mode fails open when the measurements cannot be trusted.
//! * [`Maestro`] — the facade tying machine + runtime + controller together
//!   and measuring each run with the RCR region API.
//!
//! ```
//! use maestro::{Maestro, MaestroConfig, Policy};
//! use maestro_machine::Cost;
//! use maestro_runtime::{compute_leaf, fork_join, TaskValue};
//!
//! let mut m = Maestro::new(MaestroConfig::adaptive(16));
//! let children = (0..32).map(|_| compute_leaf(Cost::new(27_000_000, 40_000, 6.0, 0.9))).collect();
//! let root = fork_join(children, |_: &mut (), _| (Cost::ZERO, TaskValue::none()));
//! let report = m.run("demo", &mut (), root);
//! println!("{report}");
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod facade;

pub use controller::{
    Actuation, ControlPlaneStats, ControllerCheckpoint, ControllerConfig, ControllerSample,
    ControllerTrace, SafeModeConfig, ThrottleController, TraceHandle,
};
pub use facade::{
    Maestro, MaestroConfig, MaestroRun, MaestroRunEnd, MaestroSnapshot, Policy, RunReport,
    ThrottleSummary,
};
