//! Bounded sample history.
//!
//! The blackboard intentionally holds only the *latest* snapshot per socket
//! (the paper's non-compacted "simple loads and stores" layout). Tools that
//! want to look backwards — plotting power over a run, computing moving
//! statistics, post-mortem analysis of a throttling decision — attach a
//! [`SampleHistory`]: a fixed-capacity ring buffer the daemon appends every
//! published sample to.

use maestro_machine::snap::{Codec, SnapError};

use crate::blackboard::SocketSnapshot;

/// A bounded ring of `(socket, snapshot)` samples in publication order.
#[derive(Clone, Debug)]
pub struct SampleHistory {
    capacity: usize,
    buf: Vec<(usize, SocketSnapshot)>,
    head: usize,
    total_pushed: u64,
}

impl SampleHistory {
    /// A history retaining the most recent `capacity` samples (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "history needs capacity");
        SampleHistory { capacity, buf: Vec::with_capacity(capacity), head: 0, total_pushed: 0 }
    }

    /// Append one sample, evicting the oldest when full.
    pub fn push(&mut self, socket: usize, snap: SocketSnapshot) {
        if self.buf.len() < self.capacity {
            self.buf.push((socket, snap));
        } else {
            self.buf[self.head] = (socket, snap);
            self.head = (self.head + 1) % self.capacity;
        }
        self.total_pushed += 1;
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Iterate retained samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, SocketSnapshot)> {
        let (tail, headpart) = self.buf.split_at(self.head);
        headpart.iter().chain(tail.iter())
    }

    /// The most recent `n` samples, oldest → newest.
    pub fn recent(&self, n: usize) -> Vec<(usize, SocketSnapshot)> {
        let all: Vec<_> = self.iter().cloned().collect();
        let skip = all.len().saturating_sub(n);
        all.into_iter().skip(skip).collect()
    }

    /// The snapshot codec for the ring's dynamic state: retained samples in
    /// storage order, head cursor, lifetime counter (see [`Codec`]).
    /// Capacity is configuration and is carried over from `self`.
    pub fn codec<C: Codec>(&self, c: &mut C) -> Result<SampleHistory, SnapError> {
        let buf = c.seq(&self.buf, |c, (socket, snap)| {
            Ok((c.u64(*socket as u64)? as usize, snap.codec(c)?))
        })?;
        let n = if C::DECODING { buf.len() } else { self.buf.len() };
        if n > self.capacity {
            return Err(SnapError::Corrupt("history larger than capacity"));
        }
        let head = c.u64(self.head as u64)? as usize;
        if head >= self.capacity || (head != 0 && n < self.capacity) {
            return Err(SnapError::Corrupt("history head out of range"));
        }
        Ok(SampleHistory { capacity: self.capacity, buf, head, total_pushed: c.u64(self.total_pushed)? })
    }

    /// Mean node power over the retained window for `socket`, Watts.
    pub fn mean_power_w(&self, socket: usize) -> Option<f64> {
        let (sum, count) = self
            .iter()
            .filter(|(s, _)| *s == socket)
            .fold((0.0, 0usize), |(sum, n), (_, snap)| (sum + snap.power_w, n + 1));
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::snap::{assert_rejects_corruption, SnapReader, SnapWriter};

    fn snap(power: f64, t: u64) -> SocketSnapshot {
        SocketSnapshot { power_w: power, updated_at_ns: t, ..SocketSnapshot::EMPTY }
    }

    #[test]
    fn keeps_order_until_full() {
        let mut h = SampleHistory::new(4);
        for i in 0..3 {
            h.push(0, snap(i as f64, i));
        }
        let order: Vec<u64> = h.iter().map(|(_, s)| s.updated_at_ns).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut h = SampleHistory::new(3);
        for i in 0..7 {
            h.push(0, snap(i as f64, i));
        }
        let order: Vec<u64> = h.iter().map(|(_, s)| s.updated_at_ns).collect();
        assert_eq!(order, vec![4, 5, 6]);
        assert_eq!(h.total_pushed(), 7);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn recent_takes_a_suffix() {
        let mut h = SampleHistory::new(10);
        for i in 0..6 {
            h.push(i % 2, snap(i as f64, i as u64));
        }
        let last2 = h.recent(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[0].1.updated_at_ns, 4);
        assert_eq!(last2[1].1.updated_at_ns, 5);
        assert_eq!(h.recent(100).len(), 6);
    }

    #[test]
    fn mean_power_is_per_socket() {
        let mut h = SampleHistory::new(8);
        h.push(0, snap(50.0, 0));
        h.push(1, snap(70.0, 0));
        h.push(0, snap(60.0, 1));
        assert_eq!(h.mean_power_w(0), Some(55.0));
        assert_eq!(h.mean_power_w(1), Some(70.0));
        assert_eq!(h.mean_power_w(2), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        SampleHistory::new(0);
    }

    #[test]
    fn snapshot_round_trips_ring_state() {
        let mut h = SampleHistory::new(3);
        for i in 0..5u64 {
            h.push((i % 2) as usize, snap(i as f64, i));
        }
        let mut w = SnapWriter::new();
        h.codec(&mut w).unwrap();
        let bytes = w.finish();

        let mut twin = SampleHistory::new(3);
        let mut r = SnapReader::new(&bytes);
        twin = twin.codec(&mut r).unwrap();
        r.finish().unwrap();
        assert_rejects_corruption(&bytes, |input| {
            let mut r = SnapReader::new(input);
            twin.codec(&mut r)?;
            r.finish()
        });

        assert_eq!(twin.total_pushed(), h.total_pushed());
        let a: Vec<_> = h.iter().cloned().collect();
        let b: Vec<_> = twin.iter().cloned().collect();
        assert_eq!(a, b, "iteration order survives the head cursor");
        // The twin keeps evicting from the same position.
        h.push(0, snap(9.0, 9));
        twin.push(0, snap(9.0, 9));
        let a: Vec<_> = h.iter().cloned().collect();
        let b: Vec<_> = twin.iter().cloned().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_into_wrong_capacity_is_rejected() {
        let mut h = SampleHistory::new(2);
        for i in 0..4u64 {
            h.push(0, snap(i as f64, i));
        }
        let mut w = SnapWriter::new();
        h.codec(&mut w).unwrap();
        let bytes = w.finish();
        let tiny = SampleHistory::new(1);
        assert!(tiny.codec(&mut SnapReader::new(&bytes)).is_err());
    }
}
