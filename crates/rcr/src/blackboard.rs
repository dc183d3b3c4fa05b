//! The shared-memory blackboard.
//!
//! RCRdaemon publishes its measurements "through a self-describing
//! hierarchical data structure in a shared memory region". We reproduce the
//! essential properties:
//!
//! * **hierarchical & self-describing** — the region is node → sockets →
//!   meters; [`Blackboard::schema`] enumerates every meter with its unit so
//!   a client can discover what is published without compile-time knowledge;
//! * **shared, concurrent** — one writer (the daemon) and any number of
//!   readers (the runtime's user-level daemon, tools) on different threads.
//!   Each socket record is a seqlock: the writer bumps a sequence counter to
//!   odd, stores the fields, bumps back to even; readers retry until they
//!   see a stable even sequence, so every [`SocketSnapshot`] is internally
//!   consistent without any lock.
//!
//! The paper's footnote about eliminating data compaction ("a non-compacted
//! structure will use more shared memory but allow simple load and stores
//! for reading and updates") is exactly this layout: every meter is one
//! plain atomic word.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use maestro_machine::snap::{Codec, SnapError};

/// Description of one published meter (the self-describing part).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeterDesc {
    /// Hierarchical path, e.g. `node.socket0.power`.
    pub path: String,
    /// Unit string, e.g. `W`, `refs`, `C`, `J`.
    pub unit: &'static str,
}

/// Health annotations stamped on a [`SocketSnapshot`] by the publisher.
///
/// A bitmask so new conditions compose without changing the record layout
/// (the flags travel as one word through the seqlock).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthFlags(u64);

impl HealthFlags {
    /// No anomalies: the sample committed cleanly on the first read.
    pub const OK: HealthFlags = HealthFlags(0);
    /// The underlying MSR read needed retries before it committed.
    pub const RETRIED: HealthFlags = HealthFlags(1);
    /// The energy counter has been flat across multiple sample periods —
    /// the meter, not the workload, is suspect.
    pub const STUCK: HealthFlags = HealthFlags(1 << 1);
    /// The latest reading was rejected as an outlier; the published meters
    /// carry forward the last good values.
    pub const OUTLIER: HealthFlags = HealthFlags(1 << 2);
    /// The smoothing window could not produce a power estimate this period
    /// (e.g. the first sample after a daemon start or restart). The
    /// published `power_w` is NaN, not a fake zero — a reader must not feed
    /// it into control decisions.
    pub const NO_POWER: HealthFlags = HealthFlags(1 << 3);

    /// The union of `self` and `other`.
    #[must_use]
    pub fn with(self, other: HealthFlags) -> HealthFlags {
        HealthFlags(self.0 | other.0)
    }

    /// True when every flag in `other` is set in `self`.
    pub fn contains(self, other: HealthFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when the snapshot's meters can be trusted for control decisions.
    /// Retries and isolated outliers still publish good data; a stuck
    /// counter means the power meter is lying, and a missing power estimate
    /// means there is nothing to decide on.
    pub fn is_healthy(self) -> bool {
        !self.contains(HealthFlags::STUCK) && !self.contains(HealthFlags::NO_POWER)
    }

    /// The raw bitmask (for transport through an atomic word).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw bitmask (unknown bits are preserved).
    pub fn from_bits(bits: u64) -> HealthFlags {
        HealthFlags(bits)
    }
}

/// A consistent snapshot of one socket's meters.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SocketSnapshot {
    /// Smoothed average package power, Watts.
    pub power_w: f64,
    /// Outstanding memory references (memory concurrency meter).
    pub mem_concurrency: f64,
    /// Most recent package temperature, °C.
    pub temp_c: f64,
    /// Cumulative package energy since daemon start, Joules.
    pub energy_j: f64,
    /// Virtual time of the last update, nanoseconds.
    pub updated_at_ns: u64,
    /// Publication serial number (1 for the first publish). Lets a reader
    /// tell "fresh data" from "same data re-read".
    pub seq: u64,
    /// Publisher's health annotations for this sample.
    pub flags: HealthFlags,
}

impl SocketSnapshot {
    /// The all-zero snapshot a record holds before its first publish.
    pub const EMPTY: SocketSnapshot = SocketSnapshot {
        power_w: 0.0,
        mem_concurrency: 0.0,
        temp_c: 0.0,
        energy_j: 0.0,
        updated_at_ns: 0,
        seq: 0,
        flags: HealthFlags::OK,
    };

    /// The snapshot codec for one record (bit-exact; floats travel as raw
    /// bits; see [`Codec`]).
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<SocketSnapshot, SnapError> {
        Ok(SocketSnapshot {
            power_w: c.f64(self.power_w)?,
            mem_concurrency: c.f64(self.mem_concurrency)?,
            temp_c: c.f64(self.temp_c)?,
            energy_j: c.f64(self.energy_j)?,
            updated_at_ns: c.u64(self.updated_at_ns)?,
            seq: c.u64(self.seq)?,
            flags: HealthFlags::from_bits(c.u64(self.flags.bits())?),
        })
    }
}

/// Blackboard state decoded by [`Blackboard::codec`], installed by
/// [`Blackboard::install`].
#[derive(Debug)]
pub struct BlackboardState {
    epoch: u64,
    snaps: Vec<SocketSnapshot>,
}

#[derive(Debug)]
struct SocketRecord {
    seq: AtomicU64,
    power_w: AtomicU64,
    mem_concurrency: AtomicU64,
    temp_c: AtomicU64,
    energy_j: AtomicU64,
    updated_at_ns: AtomicU64,
    pub_seq: AtomicU64,
    flags: AtomicU64,
}

impl SocketRecord {
    fn new() -> Self {
        SocketRecord {
            seq: AtomicU64::new(0),
            power_w: AtomicU64::new(0),
            mem_concurrency: AtomicU64::new(0),
            temp_c: AtomicU64::new(0),
            energy_j: AtomicU64::new(0),
            updated_at_ns: AtomicU64::new(0),
            pub_seq: AtomicU64::new(0),
            flags: AtomicU64::new(0),
        }
    }

    fn write(&self, snap: &SocketSnapshot) {
        // Seqlock write: odd while in flight, even when stable.
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        self.power_w.store(snap.power_w.to_bits(), Ordering::Relaxed);
        self.mem_concurrency.store(snap.mem_concurrency.to_bits(), Ordering::Relaxed);
        self.temp_c.store(snap.temp_c.to_bits(), Ordering::Relaxed);
        self.energy_j.store(snap.energy_j.to_bits(), Ordering::Relaxed);
        self.updated_at_ns.store(snap.updated_at_ns, Ordering::Relaxed);
        self.pub_seq.store(snap.seq, Ordering::Relaxed);
        self.flags.store(snap.flags.bits(), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    fn read(&self) -> SocketSnapshot {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = SocketSnapshot {
                power_w: f64::from_bits(self.power_w.load(Ordering::Relaxed)),
                mem_concurrency: f64::from_bits(self.mem_concurrency.load(Ordering::Relaxed)),
                temp_c: f64::from_bits(self.temp_c.load(Ordering::Relaxed)),
                energy_j: f64::from_bits(self.energy_j.load(Ordering::Relaxed)),
                updated_at_ns: self.updated_at_ns.load(Ordering::Relaxed),
                seq: self.pub_seq.load(Ordering::Relaxed),
                flags: HealthFlags::from_bits(self.flags.load(Ordering::Relaxed)),
            };
            // Acquire pairs with the writer's final Release store.
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return snap;
            }
        }
    }
}

#[derive(Debug)]
struct SharedRegion {
    records: Vec<SocketRecord>,
    /// Writer-incarnation counter: bumped every time a (re)started daemon
    /// re-attaches to the region. Readers snapshot the epoch alongside the
    /// data; a changed epoch means the snapshot may predate a daemon crash
    /// and must be re-validated before use.
    epoch: AtomicU64,
}

/// The shared region. Cheap to clone (all clones view the same storage).
#[derive(Clone, Debug)]
pub struct Blackboard {
    shared: Arc<SharedRegion>,
}

impl Blackboard {
    /// A blackboard publishing meters for `sockets` packages.
    pub fn new(sockets: usize) -> Self {
        assert!(sockets > 0, "blackboard needs at least one socket");
        Blackboard {
            shared: Arc::new(SharedRegion {
                records: (0..sockets).map(|_| SocketRecord::new()).collect(),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// Number of socket records in the region.
    pub fn sockets(&self) -> usize {
        self.shared.records.len()
    }

    /// The current writer epoch (generation counter). Epoch 0 is the first
    /// daemon incarnation; every supervisor restart bumps it.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Announce a new writer incarnation (supervisor side, on restart);
    /// returns the new epoch. Readers holding snapshots from an older epoch
    /// can detect that those may predate a crash.
    pub fn advance_epoch(&self) -> u64 {
        self.shared.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publish a new snapshot for `socket` (writer side; the daemon).
    pub fn publish(&self, socket: usize, snap: SocketSnapshot) {
        self.shared.records[socket].write(&snap);
    }

    /// The snapshot codec for the region's observable state — the writer
    /// epoch and every socket's latest snapshot (see [`Codec`]). The
    /// seqlock's internal sequence counter is not observable through
    /// [`SocketSnapshot`] and is not captured.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<BlackboardState, SnapError> {
        let epoch = c.u64(self.epoch())?;
        let snaps = c.seq_fixed(&self.snapshot_all(), "blackboard socket count mismatch", |c, s| {
            s.codec(c)
        })?;
        Ok(BlackboardState { epoch, snaps })
    }

    /// Install state decoded by [`Blackboard::codec`] into this region
    /// (built with the same socket count). Each record is republished with
    /// its captured snapshot, which is observably identical to the original:
    /// every field a reader can see round-trips through [`Self::publish`].
    pub fn install(&self, st: BlackboardState) {
        self.shared.epoch.store(st.epoch, Ordering::Release);
        for (s, snap) in st.snaps.into_iter().enumerate() {
            self.publish(s, snap);
        }
    }

    /// Read a consistent snapshot of `socket` (any reader thread).
    pub fn snapshot(&self, socket: usize) -> SocketSnapshot {
        self.shared.records[socket].read()
    }

    /// Read all sockets.
    pub fn snapshot_all(&self) -> Vec<SocketSnapshot> {
        (0..self.sockets()).map(|s| self.snapshot(s)).collect()
    }

    /// Whole-node power as of the latest snapshots, Watts. Sockets without
    /// a power estimate (NaN, flagged [`HealthFlags::NO_POWER`]) contribute
    /// nothing rather than poisoning the sum.
    pub fn node_power_w(&self) -> f64 {
        self.snapshot_all().iter().map(|s| s.power_w).filter(|p| p.is_finite()).sum()
    }

    /// The self-describing meter inventory of the region.
    pub fn schema(&self) -> Vec<MeterDesc> {
        let mut v = Vec::with_capacity(self.sockets() * 5);
        for s in 0..self.sockets() {
            v.push(MeterDesc { path: format!("node.socket{s}.power"), unit: "W" });
            v.push(MeterDesc { path: format!("node.socket{s}.mem_concurrency"), unit: "refs" });
            v.push(MeterDesc { path: format!("node.socket{s}.temperature"), unit: "C" });
            v.push(MeterDesc { path: format!("node.socket{s}.energy"), unit: "J" });
            v.push(MeterDesc { path: format!("node.socket{s}.health"), unit: "flags" });
        }
        v
    }

    /// True until the daemon has published at least once for every socket.
    pub fn is_warming_up(&self) -> bool {
        self.snapshot_all().iter().any(|s| s.updated_at_ns == 0 && s.power_w == 0.0)
    }

    /// Age of the stalest socket record at virtual time `now_ns`,
    /// nanoseconds. A record never published counts as `now_ns` old.
    pub fn staleness_ns(&self, now_ns: u64) -> u64 {
        self.snapshot_all()
            .iter()
            .map(|s| now_ns.saturating_sub(s.updated_at_ns))
            .max()
            .unwrap_or(now_ns)
    }

    /// True when every socket's latest snapshot is flagged trustworthy
    /// (see [`HealthFlags::is_healthy`]). Staleness is a separate check —
    /// use [`Blackboard::staleness_ns`].
    pub fn is_healthy(&self) -> bool {
        self.snapshot_all().iter().all(|s| s.flags.is_healthy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};
    use std::thread;

    #[test]
    fn publishes_and_reads_back() {
        let bb = Blackboard::new(2);
        let snap = SocketSnapshot {
            power_w: 74.5,
            mem_concurrency: 28.0,
            temp_c: 71.0,
            energy_j: 1234.5,
            updated_at_ns: 42,
            seq: 7,
            flags: HealthFlags::RETRIED,
        };
        bb.publish(1, snap);
        assert_eq!(bb.snapshot(1), snap);
        assert_eq!(bb.snapshot(0), SocketSnapshot::EMPTY);
    }

    #[test]
    fn schema_is_self_describing() {
        let bb = Blackboard::new(2);
        let schema = bb.schema();
        assert_eq!(schema.len(), 10);
        assert!(schema.iter().any(|m| m.path == "node.socket0.power" && m.unit == "W"));
        assert!(schema.iter().any(|m| m.path == "node.socket1.mem_concurrency"));
        assert!(schema.iter().any(|m| m.path == "node.socket0.health" && m.unit == "flags"));
    }

    #[test]
    fn health_flags_compose() {
        let f = HealthFlags::RETRIED.with(HealthFlags::OUTLIER);
        assert!(f.contains(HealthFlags::RETRIED));
        assert!(f.contains(HealthFlags::OUTLIER));
        assert!(!f.contains(HealthFlags::STUCK));
        assert!(f.is_healthy(), "retried + outlier data is degraded but usable");
        assert!(!f.with(HealthFlags::STUCK).is_healthy());
        assert_eq!(HealthFlags::from_bits(f.bits()), f);
    }

    #[test]
    fn staleness_tracks_oldest_socket() {
        let bb = Blackboard::new(2);
        assert_eq!(bb.staleness_ns(500), 500, "never-published records are maximally stale");
        let mk = |t| SocketSnapshot { power_w: 1.0, updated_at_ns: t, ..SocketSnapshot::EMPTY };
        bb.publish(0, mk(400));
        bb.publish(1, mk(100));
        assert_eq!(bb.staleness_ns(500), 400);
        bb.publish(1, mk(450));
        assert_eq!(bb.staleness_ns(500), 100);
    }

    #[test]
    fn board_health_follows_flags() {
        let bb = Blackboard::new(2);
        assert!(bb.is_healthy(), "empty records carry no distrust flags");
        let mk = |flags| SocketSnapshot { updated_at_ns: 1, flags, ..SocketSnapshot::EMPTY };
        bb.publish(0, mk(HealthFlags::OK));
        bb.publish(1, mk(HealthFlags::STUCK));
        assert!(!bb.is_healthy());
        bb.publish(1, mk(HealthFlags::RETRIED));
        assert!(bb.is_healthy());
    }

    #[test]
    fn warming_up_until_first_publish() {
        let bb = Blackboard::new(2);
        assert!(bb.is_warming_up());
        let snap = SocketSnapshot { power_w: 50.0, updated_at_ns: 1, ..SocketSnapshot::EMPTY };
        bb.publish(0, snap);
        assert!(bb.is_warming_up());
        bb.publish(1, snap);
        assert!(!bb.is_warming_up());
    }

    #[test]
    fn node_power_sums_sockets() {
        let bb = Blackboard::new(2);
        let mk = |p| SocketSnapshot { power_w: p, updated_at_ns: 1, ..SocketSnapshot::EMPTY };
        bb.publish(0, mk(60.0));
        bb.publish(1, mk(75.0));
        assert!((bb.node_power_w() - 135.0).abs() < 1e-12);
    }

    /// Readers on other threads never observe a torn record: we write
    /// records whose fields are all equal, and check every read snapshot
    /// satisfies that invariant under heavy concurrent writing.
    #[test]
    fn concurrent_readers_see_consistent_records() {
        let bb = Blackboard::new(1);
        bb.publish(0, SocketSnapshot { updated_at_ns: 1, ..SocketSnapshot::EMPTY });
        let writer_bb = bb.clone();
        let writer = thread::spawn(move || {
            for i in 1..50_000u64 {
                let v = i as f64;
                writer_bb.publish(0, SocketSnapshot {
                    power_w: v,
                    mem_concurrency: v,
                    temp_c: v,
                    energy_j: v,
                    updated_at_ns: i,
                    seq: i,
                    flags: HealthFlags::OK,
                });
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let bb = bb.clone();
                thread::spawn(move || {
                    for _ in 0..20_000 {
                        let s = bb.snapshot(0);
                        assert_eq!(s.power_w, s.mem_concurrency, "torn read: {s:?}");
                        assert_eq!(s.power_w, s.temp_c, "torn read: {s:?}");
                        assert_eq!(s.power_w, s.energy_j, "torn read: {s:?}");
                        assert_eq!(s.seq as f64, s.power_w, "torn read: {s:?}");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn epoch_advances_and_is_shared() {
        let a = Blackboard::new(2);
        let b = a.clone();
        assert_eq!(a.epoch(), 0);
        assert_eq!(a.advance_epoch(), 1);
        assert_eq!(b.epoch(), 1, "readers see the writer's new incarnation");
        assert_eq!(b.advance_epoch(), 2);
        assert_eq!(a.epoch(), 2);
    }

    #[test]
    fn nan_power_is_excluded_from_node_sum_and_health() {
        let bb = Blackboard::new(2);
        bb.publish(0, SocketSnapshot { power_w: 60.0, updated_at_ns: 1, ..SocketSnapshot::EMPTY });
        bb.publish(1, SocketSnapshot {
            power_w: f64::NAN,
            updated_at_ns: 1,
            flags: HealthFlags::NO_POWER,
            ..SocketSnapshot::EMPTY
        });
        assert!((bb.node_power_w() - 60.0).abs() < 1e-12, "NaN must not poison the sum");
        assert!(!bb.is_healthy(), "a socket without a power estimate is not decision-grade");
        assert!(!HealthFlags::NO_POWER.is_healthy());
    }

    #[test]
    fn snapshot_round_trips_epoch_and_records() {
        let bb = Blackboard::new(2);
        bb.advance_epoch();
        bb.advance_epoch();
        bb.publish(0, SocketSnapshot {
            power_w: 74.5,
            mem_concurrency: 28.0,
            temp_c: 71.0,
            energy_j: 1234.5,
            updated_at_ns: 42,
            seq: 7,
            flags: HealthFlags::RETRIED.with(HealthFlags::STUCK),
        });
        bb.publish(1, SocketSnapshot { power_w: f64::NAN, ..SocketSnapshot::EMPTY });
        let mut w = SnapWriter::new();
        bb.codec(&mut w).unwrap();
        let bytes = w.finish();

        let twin = Blackboard::new(2);
        let mut r = SnapReader::new(&bytes);
        twin.install(twin.codec(&mut r).unwrap());
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            twin.codec(&mut r)?;
            r.finish()
        });

        assert_eq!(twin.epoch(), 2);
        assert_eq!(twin.snapshot(0), bb.snapshot(0));
        // NaN != NaN under PartialEq; compare the raw bits instead.
        assert_eq!(twin.snapshot(1).power_w.to_bits(), bb.snapshot(1).power_w.to_bits());
        assert_eq!(twin.snapshot(1).seq, bb.snapshot(1).seq);
    }

    #[test]
    fn snapshot_into_wrong_socket_count_is_rejected() {
        let bb = Blackboard::new(2);
        let mut w = SnapWriter::new();
        bb.codec(&mut w).unwrap();
        let bytes = w.finish();
        let twin = Blackboard::new(3);
        assert!(twin.codec(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn clones_share_storage() {
        let a = Blackboard::new(1);
        let b = a.clone();
        a.publish(0, SocketSnapshot { power_w: 99.0, updated_at_ns: 7, ..SocketSnapshot::EMPTY });
        assert_eq!(b.snapshot(0).power_w, 99.0);
    }
}
