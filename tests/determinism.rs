//! Full-stack determinism: identical configurations produce bit-identical
//! measurements, regardless of host timing — the property that makes every
//! experiment in this repository exactly reproducible.

use maestro::{Maestro, MaestroConfig};
use maestro_bench::experiments::{run_fixed, run_maestro};
use maestro_workloads::{all_workloads, by_name, CompilerConfig, OptLevel, Scale};

/// Every workload, run twice under the same configuration, reports the
/// exact same time and energy.
#[test]
fn every_workload_is_bit_reproducible() {
    let cc = CompilerConfig::icc(OptLevel::O1);
    for w in all_workloads(Scale::Test) {
        let a = run_fixed(w.as_ref(), cc, 11);
        let b = run_fixed(w.as_ref(), cc, 11);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits(), "{} time", w.name());
        assert_eq!(a.joules.to_bits(), b.joules.to_bits(), "{} energy", w.name());
        assert_eq!(a.stats, b.stats, "{} scheduler counters", w.name());
    }
}

/// The adaptive controller is deterministic too: same trace, same decisions.
#[test]
fn adaptive_runs_are_reproducible() {
    let cc = CompilerConfig::gcc(OptLevel::O3);
    let run = || {
        let w = by_name("lulesh", Scale::Test).expect("registered");
        let r = run_maestro(w.as_ref(), cc, 16, maestro::Policy::Adaptive { limit_per_shepherd: 6 });
        (r.elapsed_s.to_bits(), r.joules.to_bits(), r.throttle.map(|t| (t.decisions, t.duty_writes)))
    };
    assert_eq!(run(), run());
}

/// The parallel experiment harness is invisible in the output: every
/// rendered table and figure is byte-identical between a serial run
/// (`--jobs 1`) and a fanned-out run (`--jobs 4`), because each cell is an
/// independent deterministic simulation collected by index.
#[test]
fn parallel_harness_matches_serial_byte_for_byte() {
    use maestro_bench::experiments::{
        self, ablation, compiler_table, scaling_figure, table1, throttling_table, FigureGroup,
        ThrottleTarget,
    };
    use maestro_bench::format;
    use maestro_workloads::Family;

    let render = |jobs: usize| {
        let mut out = String::new();
        out += &format::render_compiler_rows("Table I", &table1(Scale::Test, jobs));
        out += &format::csv_compiler_rows(&compiler_table(Scale::Test, Family::Gcc, jobs));
        out += &format::render_scaling(
            "Figure 3",
            &scaling_figure(Scale::Test, FigureGroup::Bots, Family::Gcc, jobs),
        );
        out += &format::csv_throttling(&throttling_table(
            Scale::Test,
            ThrottleTarget::Dijkstra,
            jobs,
        ));
        out += &format::render_ablation(&ablation(Scale::Test, jobs));
        out += &format::render_overhead(&experiments::overhead_probe(Scale::Test, jobs));
        out
    };
    let serial = render(1);
    let parallel = render(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "parallel harness changed rendered output");
}

/// The fleet shard fan-out is invisible too: advancing a fleet's nodes on
/// 1, 2, or 4 shard threads produces byte-identical degradation traces and
/// rendered reports, for multiple seeds, faults and all — because node
/// advances share nothing and every message exchange happens serially at
/// epoch boundaries in node order.
#[test]
fn fleet_parallel_shards_match_serial_byte_for_byte() {
    use maestro_fleet::{Fleet, FleetConfig, FleetFaultPlan};

    const SEC: u64 = 1_000_000_000;
    let run = |seed: u64, jobs: usize| {
        let mut cfg = FleetConfig::new(12, 95.0, seed);
        cfg.nodes_per_rack = 4;
        cfg.faults = FleetFaultPlan::new(seed)
            .with_crash_wave(3 * SEC, 2, 3, 150_000_000)
            .with_partition(5 * SEC, 9 * SEC, 6, 3)
            .with_grant_loss_rate(0.2)
            .with_grant_dup_rate(0.1)
            .with_grant_delay(0.3, 600_000_000)
            .with_report_loss_rate(0.15);
        let mut f = Fleet::new(cfg);
        f.advance_epochs(14, jobs);
        let report = f.report();
        (f.trace_digest(), report.render(), report.total_energy_j.to_bits())
    };
    for seed in [3, 19] {
        let serial = run(seed, 1);
        for jobs in [2, 4] {
            let fanned = run(seed, jobs);
            assert_eq!(serial.0, fanned.0, "seed {seed}, jobs {jobs}: trace digest");
            assert_eq!(serial.1, fanned.1, "seed {seed}, jobs {jobs}: rendered report");
            assert_eq!(serial.2, fanned.2, "seed {seed}, jobs {jobs}: energy bits");
        }
    }
}

/// Suspension is invisible: a run suspended to a snapshot and resumed on a
/// brand-new facade reports byte-for-byte what an unbroken (fence-matched)
/// run reports — rendered text and raw float bits alike. This is the
/// determinism property the whole-run snapshot subsystem rests on.
#[test]
fn resumed_run_matches_unbroken_run_byte_for_byte() {
    use maestro_bench::scenario::scenario;
    use maestro_runtime::SnapshotPlan;

    const SUSPEND_NS: u64 = 150_000_000;
    let key = |r: &maestro::RunReport| {
        (r.to_string(), r.elapsed_s.to_bits(), r.joules.to_bits(), r.avg_watts.to_bits())
    };

    let sc = scenario("contended-adaptive").expect("registered");
    let unbroken = {
        let mut m = Maestro::new(sc.config.clone());
        m.run_captured(
            sc.name,
            &mut (),
            sc.spec.clone().into_task(),
            &SnapshotPlan::none().with_fence(SUSPEND_NS),
        )
        .expect("capture succeeds")
        .report()
        .expect("completes")
    };
    let resumed = {
        let mut m = Maestro::new(sc.config.clone());
        let snap = m
            .run_captured(
                sc.name,
                &mut (),
                sc.spec.clone().into_task(),
                &SnapshotPlan::suspend_at(SUSPEND_NS),
            )
            .expect("capture succeeds")
            .suspended()
            .expect("suspends mid-run");
        let mut m2 = Maestro::new(sc.config.clone());
        m2.resume_captured(&mut (), &snap, &SnapshotPlan::none())
            .expect("resume succeeds")
            .report()
            .expect("completes")
    };
    assert_eq!(key(&unbroken), key(&resumed), "suspension must be invisible");
    assert_eq!(unbroken.stats, resumed.stats, "scheduler counters");
    assert_eq!(
        format!("{:?}", unbroken.throttle),
        format!("{:?}", resumed.throttle),
        "controller decisions"
    );
}

/// The service Pareto sweep and demo rows fan out over the job pool like
/// any other experiment, and the merged log-scale histograms make quantile
/// extraction order-free — so the rendered sweep is byte-identical for any
/// `--jobs N`. Each point's goodput is also pinned to its exact bits.
#[test]
fn service_pareto_sweep_matches_serial_byte_for_byte() {
    use maestro_bench::{experiments, format};

    let render = |jobs: usize| {
        let mut out = String::new();
        out += &format::render_service(
            "SLO-guarded service",
            &experiments::service_rows(Scale::Test, jobs),
        );
        out += &format::render_pareto(
            "Energy vs tail latency",
            &experiments::pareto(Scale::Test, jobs),
        );
        out
    };
    let serial = render(1);
    assert!(!serial.is_empty());
    for jobs in [2, 4] {
        assert_eq!(serial, render(jobs), "jobs {jobs} changed the rendered service sweep");
    }

    // Goodput is measured in virtual time, so every Pareto point's value is
    // bit-stable on any host and pinned exactly. Each also sits far above
    // the few hundred rps a metastable retry-storm collapse would post.
    let measured: Vec<(String, u64)> = experiments::pareto(Scale::Test, 2)
        .into_iter()
        .map(|p| {
            assert!(p.goodput_rps >= 10_000.0, "{} goodput {} rps", p.scenario, p.goodput_rps);
            (p.scenario, p.goodput_rps.to_bits())
        })
        .collect();
    let expected = [
        ("svc-pareto-tight", 0x40ed_63d0_c1d6_c9a3),   // 60190.52… rps
        ("svc-pareto-mid", 0x40e4_753e_530f_75d2),     // 41897.94… rps
        ("svc-pareto-relaxed", 0x40e3_5308_5264_c898), // 39576.26… rps
    ];
    let goodput: Vec<(&str, u64)> =
        measured.iter().map(|(name, bits)| (name.as_str(), *bits)).collect();
    assert_eq!(goodput, expected, "test-scale Pareto goodput bits");
}

/// Suspension is invisible to service runs too: svc-burst suspended in the
/// middle of a burst window (arrival RNG mid-stream, retries pending,
/// admission queue hot) and resumed on a brand-new facade with a freshly
/// built service stack reports byte-for-byte what the unbroken run reports
/// — including the full request ledger and latency quantiles.
#[test]
fn resumed_service_run_matches_unbroken_run_byte_for_byte() {
    use maestro_bench::experiments::service_at_scale;
    use maestro_bench::scenario::service_facade;
    use maestro_runtime::SnapshotPlan;
    use maestro_service::ServiceSummary;

    // 8 ms is inside the scenario's first burst window (0-15 ms): the
    // arrival RNG is mid-stream at 6x rate and the admission queue is hot.
    // (The test-scale run finishes before the second window opens; the
    // full-scale mid-second-burst replay lives in the scenario registry
    // tests.)
    const SUSPEND_NS: u64 = 8_000_000;
    let key = |r: &maestro::RunReport| {
        (r.to_string(), r.elapsed_s.to_bits(), r.joules.to_bits(), r.avg_watts.to_bits())
    };

    let sc = service_at_scale("svc-burst", Scale::Test);
    let (unbroken, unbroken_summary) = {
        let (mut m, source, handle) = service_facade(&sc);
        let r = m
            .run_service_captured(sc.name, &mut (), source, &SnapshotPlan::none().with_fence(SUSPEND_NS))
            .expect("capture succeeds")
            .report()
            .expect("completes");
        let s = ServiceSummary::collect(&handle, r.elapsed_s);
        (r, s)
    };
    let (resumed, resumed_summary) = {
        let (mut m, source, _) = service_facade(&sc);
        let snap = m
            .run_service_captured(sc.name, &mut (), source, &SnapshotPlan::suspend_at(SUSPEND_NS))
            .expect("capture succeeds")
            .suspended()
            .expect("suspends mid-burst");
        let (mut m2, source2, handle2) = service_facade(&sc);
        let r = m2
            .resume_service_captured(&mut (), source2, &snap, &SnapshotPlan::none())
            .expect("resume succeeds")
            .report()
            .expect("completes");
        let s = ServiceSummary::collect(&handle2, r.elapsed_s);
        (r, s)
    };
    assert_eq!(key(&unbroken), key(&resumed), "suspension must be invisible");
    assert_eq!(unbroken.stats, resumed.stats, "scheduler counters");
    assert_eq!(unbroken_summary, resumed_summary, "service ledger and quantiles");
    assert_eq!(unbroken_summary.counters.conservation_gap(), 0, "ledger balances");
}

/// Workload *results* (not just timings) are independent of worker count:
/// the LULESH field state is bit-identical from 1 to 16 workers, and sorts,
/// counts, and factorizations verify internally at every width.
#[test]
fn results_independent_of_worker_count() {
    let cc = CompilerConfig::gcc(OptLevel::O2);
    for name in ["mergesort", "bots-sort", "dijkstra", "lulesh", "bots-sparselu-for"] {
        for workers in [1usize, 6, 16] {
            let w = by_name(name, Scale::Test).expect("registered");
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            // Each workload panics internally if its computed result
            // diverges from its sequential reference.
            w.run(&mut m, cc);
        }
    }
}
