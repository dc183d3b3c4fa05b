//! Epoch-stamped power-budget leases: the node side of the fleet
//! coordinator's hierarchical budget protocol.
//!
//! A coordinator grants each node a power cap as a **lease**: a cap in
//! Watts, an epoch stamp, and an expiry timestamp. The channel carrying
//! grants is unreliable (messages may be lost, duplicated, delayed, or
//! reordered), so the node-side [`LeaseSlot`] is *idempotent and monotone*:
//! it accepts a grant only if the grant's epoch is newer than the one it
//! holds and the grant has not already expired on arrival. Everything else
//! is rejected with a typed [`LeaseDecision`], so chaos tests can assert
//! exactly how a scrambled schedule was absorbed.
//!
//! When a lease expires — an event-queue timer in the node simulation, not
//! a polled check — the slot degrades to its **floor cap**: a conservative
//! local safe value chosen so that even if *every* node is simultaneously
//! partitioned and degraded, the sum of floors stays at or below the
//! cluster cap. This is the dual of the PR-3 actuator rule ("fail toward
//! FULL duty" = fail toward performance): a node that cannot hear the
//! coordinator fails toward the *global cap being respected*.
//!
//! The coordinator's matching obligation (conservative accounting of every
//! grant it has *sent* until that grant's expiry) lives in
//! `maestro-fleet`; together the two halves give the cap-safety invariant
//! Σ node caps ≤ cluster cap at every virtual timestamp.

use maestro_machine::snap::{Codec, SnapError};

/// A power-budget grant as it travels from coordinator to node.
#[derive(Copy, Clone, Default, PartialEq, Debug)]
pub struct BudgetLease {
    /// Coordination epoch that produced this grant. Strictly increasing on
    /// the coordinator; the slot uses it to discard stale/reordered grants.
    pub epoch: u64,
    /// Node power cap in Watts, valid until `expires_ns`.
    pub cap_w: f64,
    /// Virtual timestamp after which the grant is void and the holder must
    /// degrade to its floor cap.
    pub expires_ns: u64,
}

/// Why a [`LeaseSlot::offer`] did or did not install the grant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LeaseDecision {
    /// The grant was newer than the held lease and was installed.
    Applied,
    /// Exact duplicate of the held lease (same epoch) — ignored.
    Duplicate,
    /// The grant's epoch is older than the held lease's (reordered
    /// delivery) — ignored.
    RejectedStale,
    /// The grant had already expired when it arrived (delayed past its
    /// own TTL) — ignored; installing it would immediately re-expire.
    RejectedExpired,
}

/// Node-side lease holder: the single source of truth for "what cap am I
/// allowed to run at, right now?".
///
/// Mirrors the defensive posture of the PR-3 [`crate::supervisor`]: every
/// state transition is deterministic, snapshot-able, and fails conservative.
#[derive(Clone, Debug)]
pub struct LeaseSlot {
    /// Cap enforced whenever no unexpired lease is held. Also the cap a
    /// freshly built (never-granted) slot enforces.
    floor_w: f64,
    /// The most recent accepted grant, if it has not been expired yet.
    lease: Option<BudgetLease>,
    /// Highest epoch ever accepted, retained across expiry so a delayed
    /// re-delivery of an expired grant cannot be re-applied.
    last_epoch: u64,
    /// Count of grants accepted (chaos-test observability).
    applied: u64,
    /// Count of grants rejected or deduped.
    discarded: u64,
    /// Count of expiries that actually degraded the slot to the floor.
    expiries: u64,
}

impl BudgetLease {
    /// The snapshot codec for one grant (see [`Codec`]).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        Ok(BudgetLease {
            epoch: c.u64(self.epoch)?,
            cap_w: c.f64(self.cap_w)?,
            expires_ns: c.u64(self.expires_ns)?,
        })
    }
}

impl LeaseSlot {
    /// A slot that has never heard from the coordinator: it enforces
    /// `floor_w` until a lease arrives.
    pub fn new(floor_w: f64) -> Self {
        assert!(floor_w.is_finite() && floor_w >= 0.0, "floor cap must be finite and ≥ 0");
        LeaseSlot { floor_w, lease: None, last_epoch: 0, applied: 0, discarded: 0, expiries: 0 }
    }

    /// The conservative local safe cap.
    pub fn floor_w(&self) -> f64 {
        self.floor_w
    }

    /// Offer a grant received (possibly late, duplicated, or out of order)
    /// at virtual time `now_ns`. Idempotent: re-offering any previously
    /// seen or superseded grant is a no-op.
    pub fn offer(&mut self, lease: BudgetLease, now_ns: u64) -> LeaseDecision {
        if self.applied > 0 {
            if lease.epoch < self.last_epoch {
                self.discarded += 1;
                return LeaseDecision::RejectedStale;
            }
            if lease.epoch == self.last_epoch {
                self.discarded += 1;
                // A redelivery *after* the epoch expired and degraded is
                // stale — re-applying it would resurrect a dead grant.
                return if self.lease.is_some() {
                    LeaseDecision::Duplicate
                } else {
                    LeaseDecision::RejectedStale
                };
            }
        }
        if lease.expires_ns <= now_ns {
            self.discarded += 1;
            return LeaseDecision::RejectedExpired;
        }
        self.last_epoch = lease.epoch;
        self.lease = Some(lease);
        self.applied += 1;
        LeaseDecision::Applied
    }

    /// The cap in force at virtual time `now_ns`: the held lease's cap if
    /// it is unexpired, else the floor. Pure — expiry bookkeeping happens
    /// only in [`LeaseSlot::expire`], fired by the node's event queue.
    pub fn cap_at(&self, now_ns: u64) -> f64 {
        match &self.lease {
            Some(l) if l.expires_ns > now_ns => l.cap_w,
            _ => self.floor_w,
        }
    }

    /// When the held lease expires, if one is held: the due time for the
    /// node's expiry timer event. `None` when already degraded (or never
    /// granted) — no timer needs to be armed.
    pub fn expiry_due_ns(&self) -> Option<u64> {
        self.lease.map(|l| l.expires_ns)
    }

    /// Fire the expiry timer: degrade to the floor iff the held lease has
    /// expired at `now_ns`. Returns `true` when this call transitioned the
    /// slot (exactly once per lease — the degradation trace event).
    pub fn expire(&mut self, now_ns: u64) -> bool {
        match self.lease {
            Some(l) if l.expires_ns <= now_ns => {
                self.lease = None;
                self.expiries += 1;
                true
            }
            _ => false,
        }
    }

    /// `(applied, discarded, expiries)` counters for reports and tests.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.applied, self.discarded, self.expiries)
    }

    /// Highest epoch ever accepted (0 = never granted).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The snapshot codec for the slot (see [`Codec`]).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<Self, SnapError> {
        let floor_w = c.f64(self.floor_w)?;
        if !(floor_w.is_finite() && floor_w >= 0.0) {
            return Err(SnapError::Corrupt("lease floor cap out of range"));
        }
        Ok(LeaseSlot {
            floor_w,
            lease: c.opt(self.lease.as_ref(), |c, l| l.codec(c))?,
            last_epoch: c.u64(self.last_epoch)?,
            applied: c.u64(self.applied)?,
            discarded: c.u64(self.discarded)?,
            expiries: c.u64(self.expiries)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    fn grant(epoch: u64, cap_w: f64, expires_ns: u64) -> BudgetLease {
        BudgetLease { epoch, cap_w, expires_ns }
    }

    #[test]
    fn fresh_slot_enforces_floor() {
        let s = LeaseSlot::new(40.0);
        assert_eq!(s.cap_at(0), 40.0);
        assert_eq!(s.cap_at(u64::MAX), 40.0);
        assert_eq!(s.expiry_due_ns(), None);
    }

    #[test]
    fn grant_then_expiry_degrades_exactly_once() {
        let mut s = LeaseSlot::new(40.0);
        assert_eq!(s.offer(grant(1, 90.0, 1_000), 0), LeaseDecision::Applied);
        assert_eq!(s.cap_at(999), 90.0);
        // cap_at is pure: reading past expiry reports the floor even
        // before the timer fires.
        assert_eq!(s.cap_at(1_000), 40.0);
        assert_eq!(s.expiry_due_ns(), Some(1_000));
        assert!(!s.expire(999), "timer must not fire early");
        assert!(s.expire(1_000));
        assert!(!s.expire(1_001), "second fire is a no-op");
        assert_eq!(s.stats(), (1, 0, 1));
    }

    #[test]
    fn stale_duplicate_and_dead_on_arrival_grants_are_absorbed() {
        let mut s = LeaseSlot::new(40.0);
        assert_eq!(s.offer(grant(5, 80.0, 2_000), 100), LeaseDecision::Applied);
        // Reordered older epoch.
        assert_eq!(s.offer(grant(3, 120.0, 3_000), 100), LeaseDecision::RejectedStale);
        // Exact duplicate.
        assert_eq!(s.offer(grant(5, 80.0, 2_000), 150), LeaseDecision::Duplicate);
        // Newer epoch but delayed past its own expiry.
        assert_eq!(s.offer(grant(6, 200.0, 180), 200), LeaseDecision::RejectedExpired);
        assert_eq!(s.cap_at(200), 80.0);
        // A delayed redelivery of the expired-and-degraded epoch can't
        // resurrect it.
        s.expire(2_000);
        assert_eq!(s.offer(grant(5, 80.0, 9_000), 2_100), LeaseDecision::RejectedStale);
        assert_eq!(s.cap_at(2_100), 40.0);
        assert_eq!(s.stats(), (1, 4, 1));
    }

    #[test]
    fn newer_epoch_replaces_before_expiry() {
        let mut s = LeaseSlot::new(40.0);
        s.offer(grant(1, 90.0, 1_000), 0);
        assert_eq!(s.offer(grant(2, 70.0, 2_000), 500), LeaseDecision::Applied);
        assert_eq!(s.cap_at(500), 70.0);
        assert_eq!(s.expiry_due_ns(), Some(2_000));
        assert_eq!(s.last_epoch(), 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_slot() {
        let mut s = LeaseSlot::new(35.0);
        s.offer(grant(7, 88.0, 5_000), 100);
        s.offer(grant(4, 10.0, 9_000), 100); // stale, counted
        let mut w = SnapWriter::new();
        s.codec(&mut w).unwrap();
        let bytes = w.finish();
        let fresh = LeaseSlot::new(0.0);
        let mut r = SnapReader::new(&bytes);
        let restored = fresh.codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            fresh.codec(&mut r)?;
            r.finish()
        });

        assert_eq!(restored.cap_at(4_999), 88.0);
        assert_eq!(restored.cap_at(5_000), 35.0);
        assert_eq!(restored.expiry_due_ns(), Some(5_000));
        assert_eq!(restored.last_epoch(), 7);
        assert_eq!(restored.stats(), s.stats());
    }
}
