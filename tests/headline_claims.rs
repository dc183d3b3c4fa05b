//! The paper's headline claims, asserted end-to-end across every crate
//! (machine model → RAPL → RCR → runtime → controller → workloads).
//!
//! Test-scale inputs keep these fast; the shapes asserted here are the same
//! ones `maestro-bench` regenerates at paper scale.

use maestro::Policy;
use maestro_bench::experiments::{
    self, run_maestro, throttling_table, ThrottleTarget,
};
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::{by_name, CompilerConfig, OptLevel, Scale};

const CC_O3: CompilerConfig = CompilerConfig { family: maestro_workloads::Family::Gcc, opt: OptLevel::O3 };

/// §IV-B-1 / Table IV: dynamic throttling on LULESH reduces average power
/// versus fixed 16 threads, costs a little time, and saves energy overall.
#[test]
fn lulesh_dynamic_throttling_saves_energy() {
    let dynamic =
        run_maestro(&Lulesh::new(Scale::Test), CC_O3, 16, Policy::Adaptive { limit_per_shepherd: 6 });
    let fixed16 = run_maestro(&Lulesh::new(Scale::Test), CC_O3, 16, Policy::Fixed);

    assert!(
        dynamic.avg_watts < fixed16.avg_watts - 5.0,
        "dynamic must cut power: {} vs {} W",
        dynamic.avg_watts,
        fixed16.avg_watts
    );
    assert!(
        dynamic.elapsed_s > fixed16.elapsed_s,
        "throttling costs some time: {} vs {} s",
        dynamic.elapsed_s,
        fixed16.elapsed_s
    );
    assert!(
        dynamic.elapsed_s < fixed16.elapsed_s * 1.12,
        "but not much time: {} vs {} s",
        dynamic.elapsed_s,
        fixed16.elapsed_s
    );
    assert!(
        dynamic.joules < fixed16.joules,
        "net energy saving: {} vs {} J",
        dynamic.joules,
        fixed16.joules
    );
    let t = dynamic.throttle.expect("adaptive run records its controller");
    assert!(t.activations >= 1, "controller must engage: {t:?}");
    let s = &dynamic.stats;
    assert!(s.duty_writes >= 2, "spin state uses the duty-cycle MSR: {s:?}");
}

/// §IV-B: on well-scaling programs the controller never engages and costs
/// at most ~0.6 % (the paper's bound).
#[test]
fn controller_is_free_on_scaling_programs() {
    let probe = experiments::overhead_probe(Scale::Test, 2);
    assert!(!probe.ever_throttled, "must never throttle: {probe:?}");
    assert!(probe.overhead().abs() < 0.006, "overhead {:.4}", probe.overhead());
}

/// §IV: a thread spinning at 1/32 duty saves ≈3 W; idling four saves >12 W
/// ("134W vs. 147W"); the MSR write costs ≈250 memory operations.
#[test]
fn duty_cycle_spin_state_savings() {
    let p = experiments::dutycycle_probe();
    assert!(
        (2.5..=3.5).contains(&p.per_thread_saving_w),
        "per-thread saving {} W",
        p.per_thread_saving_w
    );
    assert!(
        p.spin_full_w - p.spin_throttled4_w > 12.0,
        "four throttled threads must save >12 W: {} vs {} W",
        p.spin_full_w,
        p.spin_throttled4_w
    );
    let us = p.duty_write_latency_ns as f64 / 1000.0;
    assert!((5.0..=40.0).contains(&us), "duty write ≈250 mem ops, got {us} µs");
}

/// §II-C footnote 2: a cold system uses a few percent less energy on the
/// first run (BT.C: 3.2 %), at lower power, with identical execution time.
#[test]
fn cold_system_uses_less_energy() {
    let c = experiments::coldstart(Scale::Test);
    assert!(
        (c.cold.time_s - c.warm.time_s).abs() / c.warm.time_s < 1e-6,
        "identical execution time: {} vs {}",
        c.cold.time_s,
        c.warm.time_s
    );
    assert!(c.cold.watts < c.warm.watts, "cold draws less power");
    let saving = c.energy_saving();
    assert!((0.005..=0.06).contains(&saving), "cold saving {saving}");
}

/// Table V: on the large dijkstra input, 12 fixed threads beat 16 (memory
/// thrash), and the dynamic run recovers part of the gap.
#[test]
fn dijkstra_twelve_beats_sixteen_and_dynamic_recovers() {
    let rows = throttling_table(Scale::Test, ThrottleTarget::Dijkstra, 2);
    let (dynamic, fixed16, fixed12) = (&rows[0], &rows[1], &rows[2]);
    assert!(
        fixed12.model.time_s < fixed16.model.time_s,
        "t12 {} must beat t16 {}",
        fixed12.model.time_s,
        fixed16.model.time_s
    );
    assert!(
        dynamic.model.time_s <= fixed16.model.time_s * 1.005,
        "dynamic {} must recover toward t12 {}",
        dynamic.model.time_s,
        fixed12.model.time_s
    );
    assert!(dynamic.model.joules < fixed16.model.joules, "dynamic saves energy");
}

/// §II-C-4 (Figures 1-2): the untuned micro-benchmarks anti-scale — serial
/// beats 16 threads for fibonacci (≈1.5×) and reduction (≈3.2×).
#[test]
fn untuned_micro_benchmarks_anti_scale() {
    let cc = CompilerConfig::gcc(OptLevel::O2);
    for (name, min_ratio) in [("fibonacci", 1.2), ("reduction", 1.8)] {
        let w = by_name(name, Scale::Test).expect("registered");
        let t1 = experiments::run_fixed(w.as_ref(), cc, 1).elapsed_s;
        let t16 = experiments::run_fixed(w.as_ref(), cc, 16).elapsed_s;
        assert!(
            t16 > t1 * min_ratio,
            "{name}: 16T ({t16}) must be slower than serial ({t1})"
        );
    }
}

/// §II-C-4: for poorly-scaling programs the energy minimum sits below the
/// maximum thread count (LULESH: minimum well below 16, energy rising
/// toward 16 threads).
#[test]
fn energy_minimum_below_max_threads_for_poor_scalers() {
    let cc = CompilerConfig::gcc(OptLevel::O2);
    let w = by_name("lulesh", Scale::Test).expect("registered");
    let mut energies = Vec::new();
    for workers in [1usize, 4, 8, 16] {
        let r = experiments::run_fixed(w.as_ref(), cc, workers);
        energies.push((workers, r.joules));
    }
    let (min_workers, min_j) =
        *energies.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty");
    let (_, e16) = *energies.last().expect("non-empty");
    assert!(min_workers < 16, "energy minimum at {min_workers} threads");
    assert!(e16 > min_j * 1.05, "energy must rise toward 16T: {min_j} -> {e16}");
}
