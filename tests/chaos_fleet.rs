//! Chaos harness for the fleet power coordinator (PR 8).
//!
//! Composes the cluster-level fault families — correlated node-crash
//! waves, telemetry partitions, and grant-message loss/duplication/delay —
//! over seeded schedules and asserts the fleet degrades *safely*:
//!
//! * **cap safety**: at every virtual timestamp of every node's enforced-
//!   cap timeline, the sum of node caps stays at or below the cluster cap
//!   — through crashes, partitions, lost grants, and rejoins;
//! * **deterministic degradation**: a partitioned node falls to its lease
//!   floor at *exactly* the lease expiry instant (an event-queue timer, not
//!   a governor poll tick), and the same seed reproduces byte-identical
//!   degradation traces;
//! * **rejoin reconciliation**: nodes coming back from a partition
//!   re-acquire leases without the cluster ever exceeding its cap.
//!
//! `CHAOS_SEED=<n>` narrows the sweep to one seed — the CI chaos matrix
//! fans the seeds out across jobs; locally the whole set runs in-process.

use maestro_bench::chaos::{seeds, with_chaos_context};
use maestro_fleet::{Fleet, FleetConfig, FleetFaultPlan, NodeEvent, FLOOR_W, GOVERNOR_MAX_LEVEL};
use maestro_machine::SplitMix64;
use maestro_rcr::LeaseDecision;
use std::cell::Cell;

const SEC: u64 = 1_000_000_000;

/// A uniform draw in `[0, 1)` with 53 significant bits.
fn unit_f64(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The headline sweep: for each seed, a schedule composing a correlated
/// crash wave, a telemetry partition, and message faults on the grant
/// channel, run over shard threads. Whatever the mix, the cap-safety
/// invariant holds at every timestamp and the accounting stays consistent.
#[test]
fn fleet_survives_crash_partition_and_message_chaos() {
    for seed in seeds(8) {
        let mut rng = SplitMix64::new(seed ^ 0xf1ee7);
        let wave_start = 2 * SEC + rng.next_u64() % SEC;
        let wave_count = 2 + (rng.next_u64() % 2) as usize;
        let part_first = 5 + (rng.next_u64() % 3) as usize;
        let part_count = 2 + (rng.next_u64() % 2) as usize;
        let loss = 0.10 + 0.20 * unit_f64(&mut rng);
        let dup = 0.20 * unit_f64(&mut rng);
        let delay_rate = 0.40 * unit_f64(&mut rng);
        let report_loss = 0.20 * unit_f64(&mut rng);
        let schedule = format!(
            "crash_wave[start={wave_start} nodes=1..{wave_count}] \
             partition[4s..9s nodes={part_first}+{part_count}] \
             grants[loss={loss:.3} dup={dup:.3} delay={delay_rate:.3}x1.5s] \
             reports[loss={report_loss:.3}]"
        );
        let t_now = Cell::new(0u64);
        with_chaos_context(seed, &schedule, &t_now, || {
            let mut cfg = FleetConfig::new(10, 95.0, seed);
            cfg.nodes_per_rack = 5;
            cfg.faults = FleetFaultPlan::new(seed)
                .with_crash_wave(wave_start, 1, wave_count, 200_000_000)
                .with_partition(4 * SEC, 9 * SEC, part_first, part_count)
                .with_grant_loss_rate(loss)
                .with_grant_dup_rate(dup)
                .with_grant_delay(delay_rate, 3 * SEC / 2)
                .with_report_loss_rate(report_loss);
            let mut fleet = Fleet::new(cfg);
            fleet.advance_epochs(18, 2);
            t_now.set(fleet.now_ns());

            let report = fleet.report();
            // The invariant: Σ enforced caps ≤ cluster cap at every
            // timestamp of the merged timeline, no matter what was lost.
            assert_eq!(report.cap_violations, 0, "seed {seed}: cap safety broken");
            assert!(
                report.max_cap_sum_w <= report.cluster_cap_w * (1.0 + 1e-9),
                "seed {seed}: peak Σcaps {} over cap {}",
                report.max_cap_sum_w,
                report.cluster_cap_w
            );
            assert!(
                report.total_energy_j > 0.0 && report.total_energy_j.is_finite(),
                "seed {seed}: implausible energy {}",
                report.total_energy_j
            );
            assert_eq!(
                report.crashes(),
                wave_count as u64,
                "seed {seed}: every scheduled wave crash lands once"
            );
            assert!(
                report.lease_expiries() >= 1,
                "seed {seed}: a 5 s partition against a 2.5 s TTL must expire leases"
            );
            for n in &report.nodes {
                assert!(
                    n.stats.restarts <= n.stats.crashes,
                    "seed {seed} node {}: {} restarts > {} crashes",
                    n.node,
                    n.stats.restarts,
                    n.stats.crashes
                );
                assert!(
                    n.stats.max_throttle_level <= GOVERNOR_MAX_LEVEL,
                    "seed {seed} node {}: ladder overflow",
                    n.node
                );
            }
            // Rejoin reconciliation: the partition ends at 9 s with 9
            // epochs still to run; the partitioned nodes re-acquire leases.
            let rejoined = (part_first..part_first + part_count).any(|id| {
                fleet.node(id).trace().iter().any(|(t, e)| {
                    *t > 9 * SEC
                        && matches!(
                            e,
                            NodeEvent::LeaseOffer { decision: LeaseDecision::Applied, .. }
                        )
                })
            });
            assert!(rejoined, "seed {seed}: no partitioned node re-acquired a lease");
        });
    }
}

/// Deterministic scenario: a partitioned node degrades to its lease floor
/// at *exactly* the lease's expiry timestamp — which is deliberately
/// placed off the governor's 100 ms grid, so only the event-queue timer
/// (not a poll) can hit it — and the governor slams to the max ladder
/// level at the same instant.
#[test]
fn partitioned_node_degrades_exactly_at_lease_expiry() {
    let t_now = Cell::new(0u64);
    with_chaos_context(0, "partition[4s..10s node=2] ttl=2.500000123s", &t_now, || {
        let mut cfg = FleetConfig::new(8, 95.0, 0);
        cfg.nodes_per_rack = 4;
        // Off-grid TTL: epoch boundary + TTL is never a multiple of the
        // 100 ms governor period.
        cfg.lease_ttl_ns = 2_500_000_123;
        cfg.faults = FleetFaultPlan::new(0).with_partition(4 * SEC, 10 * SEC, 2, 1);
        let mut fleet = Fleet::new(cfg);
        fleet.advance_epochs(12, 4);
        t_now.set(fleet.now_ns());

        // The last grant reaching node 2 before the partition was allocated
        // at the epoch-3 boundary (t = 3 s), so its lease expires at
        // exactly 3 s + TTL.
        let expected_expiry = 3 * SEC + 2_500_000_123;
        assert_ne!(expected_expiry % 100_000_000, 0, "test must probe off the governor grid");
        let trace = fleet.node(2).trace();
        let expiries: Vec<u64> = trace
            .iter()
            .filter(|(_, e)| matches!(e, NodeEvent::LeaseExpired { .. }))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(
            expiries,
            vec![expected_expiry],
            "exactly one expiry, at the event-timer instant"
        );
        assert!(
            trace.contains(&(expected_expiry, NodeEvent::Throttle { level: GOVERNOR_MAX_LEVEL })),
            "the governor slams the ladder at the same instant: {trace:?}"
        );
        // Between expiry and partition end the node holds its floor; after
        // the partition it re-acquires a lease at the first epoch boundary
        // (grant sent at 10 s, one transit later).
        let rejoin = trace
            .iter()
            .find(|(t, e)| {
                *t > expected_expiry
                    && matches!(e, NodeEvent::LeaseOffer { decision: LeaseDecision::Applied, .. })
            })
            .expect("the node rejoins after the partition");
        assert_eq!(rejoin.0, 10 * SEC + maestro_fleet::GRANT_TRANSIT_NS);
        if let NodeEvent::LeaseOffer { cap_w, .. } = rejoin.1 {
            assert!(cap_w >= FLOOR_W, "rejoin grant at least the floor");
        }
        // Cap safety held throughout.
        assert_eq!(fleet.report().cap_violations, 0);
    });
}

/// Same seed, same bytes: two identical chaotic fleet runs produce
/// byte-identical trace digests and rendered reports — the property the
/// triage loop (CHAOS_SEED replay) depends on.
#[test]
fn chaotic_fleet_runs_are_seed_reproducible() {
    for seed in seeds(4) {
        let t_now = Cell::new(0u64);
        let schedule = "crash_wave[3s 2 nodes] partition[5s..8s] grants[loss=0.25 dup=0.15]";
        with_chaos_context(seed, schedule, &t_now, || {
            let run = || {
                let mut cfg = FleetConfig::new(8, 95.0, seed);
                cfg.nodes_per_rack = 4;
                cfg.faults = FleetFaultPlan::new(seed)
                    .with_crash_wave(3 * SEC, 1, 2, 250_000_000)
                    .with_partition(5 * SEC, 8 * SEC, 4, 2)
                    .with_grant_loss_rate(0.25)
                    .with_grant_dup_rate(0.15);
                let mut fleet = Fleet::new(cfg);
                fleet.advance_epochs(10, 2);
                t_now.set(fleet.now_ns());
                let report = fleet.report();
                (fleet.trace_digest(), report.render(), report.total_energy_j.to_bits())
            };
            assert_eq!(run(), run(), "seed {seed}: chaos must be reproducible");
        });
    }
}
