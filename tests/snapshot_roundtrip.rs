//! Randomized whole-run snapshot properties, swept across the chaos seed
//! matrix (`CHAOS_SEED=<n>` narrows to one seed, as in the chaos harness):
//!
//! * serialization round-trips bit-exactly, and resuming a reparsed
//!   snapshot is indistinguishable from resuming the in-memory one;
//! * a suspended-and-resumed run is **byte-identical** to an unbroken
//!   fence-matched run — same report text, same energy bits, same counters;
//! * one warm snapshot forks into several policy variants, deterministically;
//! * a run suspended after a daemon kill, restart and checkpoint restore
//!   resumes to the unbroken run's summary.

use maestro::{Maestro, MaestroConfig, MaestroSnapshot, RunReport};
use maestro_bench::scenario::limit_variant;
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
/// run whose event timeline was fence-matched at the suspension point.
#[test]
fn suspended_then_resumed_equals_unbroken_across_chaos_seeds() {
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let spec = random_spec(&mut rng);
        let t = 10 * MS + rng.next_u64() % (25 * MS);

        let unbroken = {
            let mut m = Maestro::new(MaestroConfig::adaptive(16));
            m.run_captured(
                "identity",
                &mut (),
                spec.clone().into_task(),
                &SnapshotPlan::none().with_fence(t),
            )
            .expect("capture succeeds")
            .report()
            .unwrap_or_else(|| panic!("seed {seed}: unbroken run completes"))
        };

        let resumed = {
            let mut m = Maestro::new(MaestroConfig::adaptive(16));
            let snap = m
                .run_captured("identity", &mut (), spec.into_task(), &SnapshotPlan::suspend_at(t))
                .expect("capture succeeds")
                .suspended()
                .unwrap_or_else(|| panic!("seed {seed}: run must suspend at t={t}"));
            let mut m2 = Maestro::new(MaestroConfig::adaptive(16));
            m2.resume_captured(&mut (), &snap, &SnapshotPlan::none())
                .expect("resume succeeds")
                .report()
                .unwrap_or_else(|| panic!("seed {seed}: resumed run completes"))
        };

        assert_eq!(
            identity(&unbroken),
            identity(&resumed),
            "seed {seed}: suspension at t={t} ns must be invisible in the final report"
        );
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
        cfg.controller.faults = Some(FaultPlan::new(21).with_daemon_kills(&[KILL_NS]));
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
