//! # maestro-service
//!
//! The SLO-guarded open-loop service workload: a seeded arrival process
//! (Poisson thinning under a diurnal profile with burst windows) injecting
//! short `TaskSpec` request trees into the runtime's service loop, guarded
//! by an admission controller (queue-depth + deadline-feasibility
//! shedding), a retry budget with capped exponential backoff, and
//! a brownout governor that negotiates with the paper's concurrency
//! throttle so the control objective becomes *minimize energy subject to
//! p99 ≤ SLO*.
//!
//! The crate splits along those lines:
//!
//! * [`arrival`] — the seeded stream of request timestamps;
//! * [`hist`] — the mergeable log-scale latency histogram (p50/p99/p99.9
//!   within a documented 6.25 % relative-error bound);
//! * [`source`] — the [`RequestSource`](maestro_runtime::RequestSource)
//!   implementation: admission, retries, budgets, conservation ledger;
//! * [`governor`] — the SLO monitor driving the energy and brownout
//!   ladders;
//! * [`report`] — the post-run summary.
//!
//! [`ServiceStack`] bundles a matched source + governor + shared handle,
//! which is what the bench scenarios and chaos tests construct.

#![warn(missing_docs)]

pub mod arrival;
pub mod governor;
pub mod hist;
pub mod report;
pub mod source;

pub use arrival::{ArrivalConfig, ArrivalStream};
pub use governor::SloGovernor;
pub use hist::{LatencyHist, BUCKETS, MAX_RELATIVE_ERROR};
pub use report::ServiceSummary;
pub use source::{service_handle, ServiceConfig, ServiceHandle, ServiceShared, ServiceSource};

/// A matched source + optional governor sharing one [`ServiceHandle`] —
/// hand the source to `run_service`, install the governor as a monitor,
/// keep the handle for the report.
pub struct ServiceStack {
    /// The request source, ready to box into the runtime.
    pub source: Box<ServiceSource>,
    /// The SLO governor, when an SLO was provided.
    pub governor: Option<SloGovernor>,
    /// The shared state both sides publish into.
    pub handle: ServiceHandle,
}

impl ServiceStack {
    /// Build a stack whose arrival stream starts at virtual time 0, with a
    /// governor holding window p99 to `slo_p99_ns` when one is given.
    pub fn new(cfg: &ServiceConfig, slo_p99_ns: Option<u64>) -> Self {
        let handle = service_handle();
        let source = Box::new(ServiceSource::new(cfg.clone(), handle.clone()));
        let governor = slo_p99_ns.map(|slo| SloGovernor::new(slo, handle.clone()));
        ServiceStack { source, governor, handle }
    }
}
