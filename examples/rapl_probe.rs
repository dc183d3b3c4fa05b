//! RAPL measurement stack demo: real hardware if present, simulated if not.
//!
//! ```text
//! cargo run --release --example rapl_probe
//! ```
//!
//! On a machine with Intel RAPL exposed through the Linux powercap tree this
//! reads the *real* package energy counters for one second. Everywhere else
//! it falls back to the simulated Sandybridge node and demonstrates the
//! identical metering stack (wrap tracking, windowed power) against the
//! emulated `MSR_PKG_ENERGY_STATUS`.

use maestro_machine::{CoreActivity, Machine, MachineConfig, SocketId, NS_PER_SEC};
use maestro_rapl::{NodeProbe, PowercapDomain, WrapTracker};
use std::path::Path;

fn probe_real_hardware() -> bool {
    let root = Path::new(maestro_rapl::powercap::DEFAULT_POWERCAP_ROOT);
    let Ok(domains) = PowercapDomain::discover(root) else {
        return false;
    };
    println!("found {} RAPL package domain(s) under {}:", domains.len(), root.display());
    let mut trackers: Vec<WrapTracker> =
        domains.iter().map(|d| WrapTracker::new(d.wrap_modulus())).collect();
    let t0 = std::time::Instant::now();
    for (d, t) in domains.iter().zip(trackers.iter_mut()) {
        if let Ok(raw) = d.read_raw() {
            t.update(raw);
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(1));
    let dt = t0.elapsed().as_secs_f64();
    for (d, t) in domains.iter().zip(trackers.iter_mut()) {
        if let Ok(raw) = d.read_raw() {
            let joules = t.update(raw) as f64 * d.unit_joules();
            println!("  {}: {:.2} J over {:.2} s = {:.1} W", d.name(), joules, dt, joules / dt);
        }
    }
    true
}

fn probe_simulated() {
    println!("no powercap RAPL domains on this host — using the simulated node.");
    let mut machine = Machine::new(MachineConfig::sandybridge_2x8());
    for c in machine.topology().all_cores() {
        machine.set_activity(c, CoreActivity::Busy { intensity: 0.8, ocr: 2.0 });
    }
    let mut probe = NodeProbe::new(machine.topology());
    probe.sample(&machine).expect("simulated MSR read");
    // One virtual second of load, sampled every 0.1 s like the RCR daemon.
    for _ in 0..10 {
        machine.advance(NS_PER_SEC / 10);
        probe.sample(&machine).expect("simulated MSR read");
    }
    println!(
        "  simulated node: {:.2} J over 1.00 s = {:.1} W (temp {:.0}/{:.0} °C)",
        probe.joules(),
        probe.joules(),
        machine.temperature_c(SocketId(0)),
        machine.temperature_c(SocketId(1)),
    );
    for (socket, joules) in probe.joules_per_socket() {
        println!("  {socket}: {joules:.2} J");
    }
    println!(
        "\nThe same WrapTracker/unit arithmetic would run unchanged against \
         MSR_PKG_ENERGY_STATUS on a Sandybridge (15.3 µJ units, 32-bit wrap)."
    );
}

fn main() {
    if !probe_real_hardware() {
        probe_simulated();
    }
}
