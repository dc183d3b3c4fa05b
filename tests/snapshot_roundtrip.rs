//! Randomized whole-run snapshot properties, swept across the chaos seed
//! matrix (`CHAOS_SEED=<n>` narrows to one seed, as in the chaos harness):
//!
//! * serialization round-trips bit-exactly, and resuming a reparsed
//!   snapshot is indistinguishable from resuming the in-memory one;
//! * a suspended-and-resumed run is **byte-identical** to an unbroken
//!   fence-matched run — same report text, same energy bits, same counters —
//!   with and without per-seed fault plans on every carrier;
//! * one warm snapshot forks into several policy variants, deterministically;
//! * a run suspended after a daemon kill, restart and checkpoint restore
//!   resumes to the unbroken run's summary;
//! * a capture taken while the root's spawn is still being staged keeps
//!   its bytes and resumes to the unbroken run.

use maestro::{Maestro, MaestroConfig, MaestroSnapshot, RunReport};
use maestro_bench::scenario::{limit_variant, scenario};
use maestro_machine::snap::fingerprint;
use maestro_machine::{Cost, FaultPlan, SplitMix64};
use maestro_runtime::{SnapshotPlan, TaskSpec};

const MS: u64 = 1_000_000;

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an integer seed")],
        Err(_) => (1..=8).collect(),
    }
}

/// A random, snapshot-capable task tree: 150–400 leaves with randomized
/// costs, a slice of them nested one fork-join level deeper. Runs ≳45 ms
/// of virtual time on 16 workers, so suspension points up to 40 ms are
/// always mid-run.
fn random_spec(rng: &mut SplitMix64) -> TaskSpec {
    let leaves = 150 + (rng.next_u64() % 251) as usize;
    let mut children: Vec<TaskSpec> = Vec::with_capacity(leaves);
    for _ in 0..leaves {
        let cycles = 4_000_000 + rng.next_u64() % 16_000_000;
        let refs = rng.next_u64() % 600_000;
        let mlp = 1.0 + (rng.next_u64() % 8) as f64;
        let intensity = 0.5 + 0.5 * ((rng.next_u64() % 100) as f64 / 100.0);
        children.push(TaskSpec::leaf(Cost::new(cycles, refs, mlp, intensity)));
    }
    // Nest the tail under an inner fork-join so the tree is not flat.
    let tail = children.split_off(children.len() - children.len() / 4);
    children.push(TaskSpec::fork_join(tail, Cost::compute(100_000, 0.3)));
    TaskSpec::fork_join(children, Cost::ZERO)
}

/// Per-seed fault plans for the four carriers a snapshot restores: the
/// supervisor and each daemon incarnation (the read plan, with a stuck
/// window from the first energy read, jitter and a drop rate), the actuator
/// (duty-write faults) and the scheduler (lost spinner wakes).
#[derive(Clone)]
struct Plans {
    read: FaultPlan,
    write: FaultPlan,
    task: FaultPlan,
}

fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn random_plans(rng: &mut SplitMix64) -> Plans {
    let seed = rng.next_u64();
    Plans {
        read: FaultPlan::new(seed)
            .with_stuck_counter(0, 8 + rng.next_u64() % 24)
            .with_sample_jitter(1 + rng.next_u64() % (3 * MS))
            .with_drop_sample_rate(0.05 + 0.2 * unit_f64(rng)),
        write: FaultPlan::new(seed ^ 0x5eed)
            .with_duty_write_fail_rate(0.1 + 0.2 * unit_f64(rng))
            .with_duty_write_torn_rate(0.1 * unit_f64(rng)),
        task: FaultPlan::new(seed ^ 0x7a5c).with_lost_wake_rate(0.1 + 0.3 * unit_f64(rng)),
    }
}

/// An adaptive 16-worker facade carrying `plans` (a fresh copy of each).
fn adaptive_facade(plans: Option<&Plans>) -> Maestro {
    let mut cfg = MaestroConfig::adaptive(16);
    cfg.daemon_faults = plans.map(|p| p.read.clone());
    let mut m = Maestro::new(cfg);
    if let Some(p) = plans {
        m.runtime_mut().set_actuation_faults(Some(p.write.clone()));
        m.runtime_mut().set_task_faults(Some(p.task.clone()));
    }
    m
}

/// Everything a byte-identity claim covers: the rendered report plus the
/// raw bits of every float in it and the full counter set.
fn identity(r: &RunReport) -> (String, u64, u64, u64, String, String) {
    (
        r.to_string(),
        r.elapsed_s.to_bits(),
        r.joules.to_bits(),
        r.avg_watts.to_bits(),
        format!("{:?}", r.stats),
        format!("{:?}", r.throttle),
    )
}

/// Resuming a snapshot that went through `to_bytes`/`from_bytes` (disk
/// format) captures the exact same downstream state as resuming the
/// in-memory one — the serialized form loses nothing.
#[test]
fn randomized_snapshots_round_trip_and_resume_bit_exactly() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_f00d);
        let spec = random_spec(&mut rng);
        let t1 = 10 * MS + rng.next_u64() % (20 * MS);
        let t2 = t1 + 5 * MS + rng.next_u64() % (5 * MS);

        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let snap = m
            .run_captured("roundtrip", &mut (), spec.into_task(), &SnapshotPlan::suspend_at(t1))
            .expect("capture succeeds")
            .suspended()
            .unwrap_or_else(|| panic!("seed {seed}: run must suspend at t={t1}"));

        let bytes = snap.to_bytes();
        let reparsed = MaestroSnapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: round trip failed: {e}"));
        assert_eq!(reparsed.to_bytes(), bytes, "seed {seed}: re-serialization drifts");

        let resume_to = |s: &MaestroSnapshot| {
            let mut m = Maestro::new(MaestroConfig::adaptive(16));
            m.resume_captured(&mut (), s, &SnapshotPlan::suspend_at(t2))
                .expect("resume succeeds")
                .suspended()
                .unwrap_or_else(|| panic!("seed {seed}: resumed run must suspend at t={t2}"))
        };
        let from_memory = resume_to(&snap);
        let from_disk = resume_to(&reparsed);
        assert_eq!(from_memory.t_ns(), t2, "seed {seed}");
        assert_eq!(
            from_memory.to_bytes(),
            from_disk.to_bytes(),
            "seed {seed}: disk and memory snapshots diverge downstream"
        );
    }
}

/// The headline byte-identity claim, randomized: suspend anywhere, resume
/// on a fresh facade, and the final report is bit-identical to an unbroken
/// run whose event timeline was fence-matched at the suspension point. Each
/// seed runs once without fault plans and once with its own plans on every
/// carrier, so the plans' dynamic state must survive the snapshot too.
#[test]
fn suspended_then_resumed_equals_unbroken_across_chaos_seeds() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let spec = random_spec(&mut rng);
        let t = 10 * MS + rng.next_u64() % (25 * MS);
        let plans = random_plans(&mut rng);

        for plans in [None, Some(&plans)] {
            let variant = if plans.is_some() { "faulted" } else { "clean" };
            let unbroken = adaptive_facade(plans)
                .run_captured(
                    "identity",
                    &mut (),
                    spec.clone().into_task(),
                    &SnapshotPlan::none().with_fence(t),
                )
                .expect("capture succeeds")
                .report()
                .unwrap_or_else(|| panic!("seed {seed} ({variant}): unbroken run completes"));

            let snap = adaptive_facade(plans)
                .run_captured(
                    "identity",
                    &mut (),
                    spec.clone().into_task(),
                    &SnapshotPlan::suspend_at(t),
                )
                .expect("capture succeeds")
                .suspended()
                .unwrap_or_else(|| panic!("seed {seed} ({variant}): run must suspend at t={t}"));
            let resumed = adaptive_facade(plans)
                .resume_captured(&mut (), &snap, &SnapshotPlan::none())
                .expect("resume succeeds")
                .report()
                .unwrap_or_else(|| panic!("seed {seed} ({variant}): resumed run completes"));

            assert_eq!(
                identity(&unbroken),
                identity(&resumed),
                "seed {seed} ({variant}): suspension at t={t} ns must be invisible in the \
                 final report"
            );
        }
    }
}

/// Fork smoke: one warm snapshot restored under several throttle-limit
/// variants; every fork completes, and re-forking the same variant is
/// deterministic down to the bits.
#[test]
fn one_warm_snapshot_forks_into_deterministic_policy_variants() {
    let mut rng = SplitMix64::new(0xf0_4cu64);
    let spec = random_spec(&mut rng);
    let base = MaestroConfig::adaptive(16);
    let mut m = Maestro::new(base.clone());
    let snap = m
        .run_captured("fork", &mut (), spec.into_task(), &SnapshotPlan::suspend_at(15 * MS))
        .expect("capture succeeds")
        .suspended()
        .expect("suspends");

    let fork = |limit: usize| {
        let mut m = Maestro::new(limit_variant(&base, limit));
        m.resume_captured(&mut (), &snap, &SnapshotPlan::none())
            .expect("resume succeeds")
            .report()
            .expect("fork completes")
    };
    for limit in [2usize, 6, 12] {
        let a = fork(limit);
        let b = fork(limit);
        assert_eq!(
            identity(&a),
            identity(&b),
            "limit {limit}: forked variant must be deterministic"
        );
        assert!(a.joules > 0.0 && a.joules.is_finite(), "limit {limit}: {a}");
    }
}

/// A resume across a daemon restart: the adaptive run's daemon dies at
/// 250 ms, the supervisor restarts it once its 50 ms backoff has passed
/// (at 350 ms), and the controller resumes from its checkpoint in the same
/// period. The run is suspended well after that, so the recovery tallies
/// at the suspension point come from the snapshot, and the resumed
/// report (its summary included) must equal the unbroken run's.
#[test]
fn resume_after_daemon_restart_reports_the_same_summary() {
    const KILL_NS: u64 = 250 * MS;
    const SUSPEND_NS: u64 = 600 * MS;
    let config = || {
        let mut cfg = MaestroConfig::adaptive(16);
        cfg.daemon_faults = Some(FaultPlan::new(21).with_daemon_kills(&[KILL_NS]));
        cfg
    };
    let spec = TaskSpec::fork_join(
        (0..3000).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
        Cost::ZERO,
    );
    let run = |plan: &SnapshotPlan| {
        Maestro::new(config())
            .run_captured("restart", &mut (), spec.clone().into_task(), plan)
            .expect("capture succeeds")
    };

    let unbroken = run(&SnapshotPlan::none().with_fence(SUSPEND_NS))
        .report()
        .expect("unbroken run completes");
    let snap = run(&SnapshotPlan::suspend_at(SUSPEND_NS)).suspended().expect("run suspends");
    let snap = MaestroSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
    let resumed = Maestro::new(config())
        .resume_captured(&mut (), &snap, &SnapshotPlan::none())
        .expect("resume succeeds")
        .report()
        .expect("resumed run completes");

    let t = resumed.throttle.as_ref().expect("adaptive summary");
    assert_eq!((t.daemon_kills, t.daemon_restarts), (1, 1), "{t:?}");
    assert!(t.checkpoint_restores >= 1, "{t:?}");
    assert_eq!(identity(&unbroken), identity(&resumed), "the restart must survive the resume");
}

/// Captures inside the root's spawn segment: `contended-adaptive`'s root
/// spawns 1,200 leaves, and until that spawn completes they sit in its
/// record as staged children, which the capture encodes one spec each.
/// Each capture's bytes are pinned, and resuming one of them must equal
/// the unbroken, fence-matched run in report text and energy bits.
#[test]
fn mid_spawn_captures_keep_their_bytes_and_resume_exactly() {
    const US: u64 = 1_000;
    let sc = scenario("contended-adaptive").expect("registered scenario");
    let run = |plan: &SnapshotPlan| {
        Maestro::new(sc.config.clone())
            .run_captured(sc.name, &mut (), sc.spec.clone().into_task(), plan)
            .expect("capture succeeds")
    };
    let pinned = [
        (50 * US, 0xf7bf_2af8_facf_e212_u64),
        (100 * US, 0x0e95_ad93_c05a_cbe6),
        (200 * US, 0xf536_130f_f3ce_9a9f),
    ];
    for (t, expected) in pinned {
        let snap = run(&SnapshotPlan::suspend_at(t)).suspended().expect("run suspends");
        let bytes = snap.to_bytes();
        assert_eq!(
            (bytes.len(), fingerprint(&bytes)),
            (82_672, expected),
            "capture at {t} ns: got fingerprint {:#018x}",
            fingerprint(&bytes)
        );
    }

    let t = 100 * US;
    let unbroken = run(&SnapshotPlan::none().with_fence(t)).report().expect("unbroken completes");
    let snap = run(&SnapshotPlan::suspend_at(t)).suspended().expect("run suspends");
    let snap = MaestroSnapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
    let resumed = Maestro::new(sc.config.clone())
        .resume_captured(&mut (), &snap, &SnapshotPlan::none())
        .expect("resume succeeds")
        .report()
        .expect("resumed run completes");
    assert_eq!(identity(&unbroken), identity(&resumed), "a mid-spawn suspension must be invisible");
}
