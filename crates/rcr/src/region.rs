//! The region measurement API.
//!
//! From §II-B: "The RCRdaemon information is available to the programmer
//! through a simple API that delineates a code region for measurement with a
//! start and end call. As currently implemented the code run time must be at
//! least 0.1 second. When the second call is reached, the elapsed time, the
//! amount of energy used (in Joules), the average power (in Watts) and the
//! most recent temperature of each chip (from `IA32_THERM_STATUS`) is
//! output."
//!
//! [`Region::start`] captures the machine's clock and per-package energy;
//! [`Region::end`] produces a [`RegionReport`] with exactly those fields.
//! Regions shorter than the daemon period are still measured (virtual time
//! has no jitter) but flagged [`RegionReport::below_min_duration`].

use maestro_machine::msr::MsrDevice;
use maestro_machine::snap::{Codec, SnapError};
use maestro_machine::{Machine, ThermalParams, IA32_THERM_STATUS};

use crate::DEFAULT_SAMPLE_PERIOD_NS;

/// An open measurement region.
#[derive(Clone, Debug, Default)]
pub struct Region {
    name: String,
    start_ns: u64,
    start_energy_j: Vec<f64>,
}

/// What the paper's instrumentation prints at the end call.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionReport {
    /// Region label.
    pub name: String,
    /// Elapsed virtual time, seconds.
    pub elapsed_s: f64,
    /// Whole-node energy used inside the region, Joules.
    pub joules: f64,
    /// Average whole-node power inside the region, Watts.
    pub avg_watts: f64,
    /// Most recent temperature of each chip, °C (via `IA32_THERM_STATUS`).
    pub chip_temps_c: Vec<f64>,
    /// True when the region ran shorter than the supported 0.1 s minimum.
    pub below_min_duration: bool,
}

impl Region {
    /// Open a region at the machine's current virtual time.
    pub fn start(name: impl Into<String>, machine: &Machine) -> Self {
        Region {
            name: name.into(),
            start_ns: machine.now_ns(),
            start_energy_j: machine
                .topology()
                .all_sockets()
                .map(|s| machine.energy_joules(s))
                .collect(),
        }
    }

    /// The region label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual time at which the region was opened, nanoseconds.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Per-socket cumulative energy at the open, Joules.
    pub fn start_energy_j(&self) -> &[f64] {
        &self.start_energy_j
    }

    /// The snapshot codec for the region's anchors — label, open time,
    /// per-socket baseline energies (see [`Codec`]) — so a resumed run can
    /// close the *original* region. The report a decoded region eventually
    /// produces is bit-identical to one from the original region.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Region, SnapError> {
        Ok(Region {
            name: c.str(&self.name)?,
            start_ns: c.u64(self.start_ns)?,
            start_energy_j: c.seq(&self.start_energy_j, |c, &e| c.f64(e))?,
        })
    }

    /// Close the region and report.
    pub fn end(self, machine: &Machine) -> RegionReport {
        let elapsed_ns = machine.now_ns().saturating_sub(self.start_ns);
        let elapsed_s = elapsed_ns as f64 * 1e-9;
        let joules: f64 = machine
            .topology()
            .all_sockets()
            .zip(self.start_energy_j.iter())
            .map(|(s, &e0)| machine.energy_joules(s) - e0)
            .sum();
        let thermal: &ThermalParams = &machine.config().thermal;
        let chip_temps_c = machine
            .topology()
            .all_sockets()
            .map(|s| {
                // Read through the MSR path, as the paper's tools do. A
                // failed readout (possible under fault injection) degrades
                // to NaN for that chip instead of aborting the report —
                // time/energy/power are still valid.
                let core = machine.topology().cores_of(s).next().expect("socket has cores");
                machine
                    .read_msr(core, IA32_THERM_STATUS)
                    .map_or(f64::NAN, |msr| thermal.decode_therm_status(msr))
            })
            .collect();
        RegionReport {
            name: self.name,
            elapsed_s,
            joules,
            avg_watts: if elapsed_s > 0.0 { joules / elapsed_s } else { 0.0 },
            chip_temps_c,
            below_min_duration: elapsed_ns < DEFAULT_SAMPLE_PERIOD_NS,
        }
    }
}

impl std::fmt::Display for RegionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} s, {:.1} J, {:.1} W, temps [{}]{}",
            self.name,
            self.elapsed_s,
            self.joules,
            self.avg_watts,
            self.chip_temps_c
                .iter()
                .map(|t| format!("{t:.0}C"))
                .collect::<Vec<_>>()
                .join(", "),
            if self.below_min_duration { " (below 0.1 s minimum)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::{CoreActivity, MachineConfig, NS_PER_SEC};

    #[test]
    fn region_reports_time_energy_power() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 0.8, ocr: 1.0 });
        }
        // Burn some pre-region energy so the region must subtract baselines.
        m.advance(NS_PER_SEC);
        let pre = m.total_energy_joules();
        let region = Region::start("kernel", &m);
        m.advance(2 * NS_PER_SEC);
        let report = region.end(&m);
        let truth = m.total_energy_joules() - pre;
        assert_eq!(report.name, "kernel");
        assert!((report.elapsed_s - 2.0).abs() < 1e-9);
        assert!((report.joules - truth).abs() < 1e-9);
        assert!((report.avg_watts - truth / 2.0).abs() < 1e-9);
        assert_eq!(report.chip_temps_c.len(), 2);
        assert!(!report.below_min_duration);
    }

    #[test]
    fn short_region_flagged() {
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        let region = Region::start("blip", &m);
        m.advance(10_000_000); // 10 ms < 0.1 s
        let report = region.end(&m);
        assert!(report.below_min_duration);
    }

    #[test]
    fn temps_come_from_therm_status_granularity() {
        // MSR readout is integer-degree; report must match machine temp to 1 °C.
        let mut m = Machine::new(MachineConfig::sandybridge_2x8());
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Busy { intensity: 1.0, ocr: 1.0 });
        }
        m.advance(5 * NS_PER_SEC);
        let region = Region::start("t", &m);
        m.advance(NS_PER_SEC);
        let report = region.end(&m);
        for (s, t) in m.topology().all_sockets().zip(report.chip_temps_c.iter()) {
            assert!((t - m.temperature_c(s)).abs() <= 0.5, "{t} vs {}", m.temperature_c(s));
        }
    }

    #[test]
    fn display_formats() {
        let r = RegionReport {
            name: "x".into(),
            elapsed_s: 1.5,
            joules: 150.0,
            avg_watts: 100.0,
            chip_temps_c: vec![70.0, 68.0],
            below_min_duration: false,
        };
        let s = r.to_string();
        assert!(s.contains("1.50 s") && s.contains("150.0 J") && s.contains("100.0 W"));
    }

    #[test]
    fn zero_length_region_is_sane() {
        let m = Machine::new(MachineConfig::sandybridge_2x8());
        let report = Region::start("empty", &m).end(&m);
        assert_eq!(report.elapsed_s, 0.0);
        assert_eq!(report.joules, 0.0);
        assert_eq!(report.avg_watts, 0.0);
        assert!(report.below_min_duration);
    }
}
