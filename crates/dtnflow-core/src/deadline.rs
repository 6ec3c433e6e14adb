//! Sorted deadline queue for packet expiries and router timers.
//!
//! Entries sit in one `VecDeque` sorted by `(at, seq)`, the drain order
//! the per-unit scans and the binary heap it replaced observed. Every
//! packet shares the TTL and packets are created in time order, so each
//! expiry push lands at or past the back entry and is a plain append;
//! only router timers (one dead-end timer per visit, one retry per
//! station recovery) can land earlier, and those take a binary-search
//! insert. Due entries pop from the front, so the drain order is a pure
//! function of the pushed `(at, seq)` pairs, independent of push order
//! and of checkpoint/restore.

use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};
use std::collections::VecDeque;

/// One scheduled item: fires at tick `at`, tie-broken by `seq`, and
/// carries an opaque `payload` (a packet id or timer token).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineEntry {
    /// Absolute deadline tick.
    pub at: u64,
    /// Tie-break among equal deadlines; unique per live entry.
    pub seq: u64,
    /// Opaque caller data.
    pub payload: u64,
}

impl DeadlineEntry {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Deadlines kept sorted by `(at, seq)` (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct DeadlineQueue {
    /// One past the latest `now` passed to [`DeadlineQueue::pop_due`];
    /// never decreases. No ordering decision reads it: it is kept
    /// because checkpoints carry it.
    base: u64,
    /// Every scheduled entry, ascending by `(at, seq)`.
    entries: VecDeque<DeadlineEntry>,
}

impl DeadlineQueue {
    /// An empty queue with `base = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One past the latest drained `now` (0 before the first drain).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Schedule `payload` to fire at tick `at`, tie-broken by `seq`.
    /// `(at, seq)` pairs must be unique across live entries.
    pub fn push(&mut self, at: u64, seq: u64, payload: u64) {
        let e = DeadlineEntry { at, seq, payload };
        match self.entries.back() {
            Some(back) if e.key() < back.key() => {
                let pos = self.entries.partition_point(|x| x.key() <= e.key());
                self.entries.insert(pos, e);
            }
            _ => self.entries.push_back(e),
        }
    }

    /// The entry with the smallest `(at, seq)`, without removing it.
    pub fn peek_min(&self) -> Option<DeadlineEntry> {
        self.entries.front().copied()
    }

    /// Remove and return the entry with the smallest `(at, seq)`.
    pub fn pop_min(&mut self) -> Option<DeadlineEntry> {
        self.entries.pop_front()
    }

    /// Advance to `now` inclusive (`base` becomes at least `now + 1`)
    /// and remove the smallest entry if it is due (`at <= now`).
    pub fn pop_due(&mut self, now: u64) -> Option<DeadlineEntry> {
        self.base = self.base.max(now.saturating_add(1));
        if self.entries.front()?.at <= now {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Every stored entry in ascending `(at, seq)` order: the drain
    /// order and the order the codec writes.
    pub fn iter(&self) -> impl Iterator<Item = &DeadlineEntry> {
        self.entries.iter()
    }
}

impl Codec for DeadlineEntry {
    fn encode(&self, w: &mut Writer) {
        self.at.encode(w);
        self.seq.encode(w);
        self.payload.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DeadlineEntry {
            at: Codec::decode(r)?,
            seq: Codec::decode(r)?,
            payload: Codec::decode(r)?,
        })
    }
}

/// Checkpoint encoding (DESIGN.md §11): `base`, then the entries in
/// ascending `(at, seq)` order. Decode rejects entries whose keys are
/// not strictly ascending, so decoding then re-encoding is byte-stable.
impl Codec for DeadlineQueue {
    fn encode(&self, w: &mut Writer) {
        self.base.encode(w);
        self.entries.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let base = Codec::decode(r)?;
        let entries: VecDeque<DeadlineEntry> = Codec::decode(r)?;
        if entries
            .iter()
            .zip(entries.iter().skip(1))
            .any(|(a, b)| b.key() <= a.key())
        {
            return Err(SnapshotError::Corrupt {
                context: "DeadlineQueue",
            });
        }
        Ok(DeadlineQueue { base, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structure the queue replaces: a flat list drained by scan.
    #[derive(Default)]
    struct Naive {
        entries: Vec<DeadlineEntry>,
    }

    impl Naive {
        fn push(&mut self, at: u64, seq: u64, payload: u64) {
            self.entries.push(DeadlineEntry { at, seq, payload });
        }

        fn drain_up_to(&mut self, now: u64, out: &mut Vec<DeadlineEntry>) {
            let mut fired: Vec<DeadlineEntry> = self
                .entries
                .iter()
                .copied()
                .filter(|e| e.at <= now)
                .collect();
            fired.sort_unstable_by_key(DeadlineEntry::key);
            self.entries.retain(|e| e.at > now);
            out.append(&mut fired);
        }
    }

    /// Pop every due entry into `out`, the way `World`'s purge drains.
    fn drain_up_to(q: &mut DeadlineQueue, now: u64, out: &mut Vec<DeadlineEntry>) {
        while let Some(e) = q.pop_due(now) {
            out.push(e);
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn drains_in_deadline_then_seq_order() {
        let mut q = DeadlineQueue::new();
        q.push(50, 3, 103);
        q.push(10, 1, 101);
        q.push(50, 2, 102);
        q.push(700, 4, 104);
        let mut out = Vec::new();
        drain_up_to(&mut q, 60, &mut out);
        let got: Vec<(u64, u64)> = out.iter().map(|e| (e.at, e.seq)).collect();
        assert_eq!(got, vec![(10, 1), (50, 2), (50, 3)]);
        assert_eq!(q.len(), 1);
        out.clear();
        drain_up_to(&mut q, 1_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 104);
        assert!(q.is_empty());
    }

    #[test]
    fn far_deadlines_drain_in_order_and_advance_base() {
        let mut q = DeadlineQueue::new();
        let ats = [5u64, 300, 70_000, 17_000_000, (1u64 << 32) + 9];
        for (i, &at) in ats.iter().enumerate() {
            q.push(at, i as u64, at);
        }
        let mut out = Vec::new();
        drain_up_to(&mut q, (1 << 32) + 100, &mut out);
        let got: Vec<u64> = out.iter().map(|e| e.at).collect();
        assert_eq!(got, ats.to_vec());
        assert!(q.is_empty());
        assert_eq!(q.base(), (1 << 32) + 101);
        // `base` never moves backwards, and saturates at the top.
        drain_up_to(&mut q, 7, &mut out);
        assert_eq!(q.base(), (1 << 32) + 101);
        drain_up_to(&mut q, u64::MAX, &mut out);
        assert_eq!(q.base(), u64::MAX);
    }

    #[test]
    fn equivalent_to_naive_scan_under_random_workload() {
        let mut seed = 0x5EED_0001u64;
        for round in 0..20 {
            let mut q = DeadlineQueue::new();
            let mut n = Naive::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..400 {
                match lcg(&mut seed) % 4 {
                    0 | 1 => {
                        // Mostly future deadlines; occasionally far.
                        let span = if lcg(&mut seed).is_multiple_of(10) {
                            200_000
                        } else {
                            2_000
                        };
                        let at = now + lcg(&mut seed) % span;
                        q.push(at, seq, seq);
                        n.push(at, seq, seq);
                        seq += 1;
                    }
                    2 => {
                        now += lcg(&mut seed) % 3_000;
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        drain_up_to(&mut q, now, &mut a);
                        n.drain_up_to(now, &mut b);
                        assert_eq!(a, b, "round {round} diverged at now={now}");
                    }
                    _ => {
                        // A deadline already behind the frontier.
                        let at = now.saturating_sub(lcg(&mut seed) % 500);
                        q.push(at, seq, seq);
                        n.push(at, seq, seq);
                        seq += 1;
                    }
                }
                assert_eq!(q.len(), n.entries.len());
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            drain_up_to(&mut q, u64::MAX, &mut a);
            n.drain_up_to(u64::MAX, &mut b);
            assert_eq!(a, b, "final drain diverged in round {round}");
        }
    }

    #[test]
    fn peek_and_pop_follow_the_total_order() {
        let mut q = DeadlineQueue::new();
        q.push(500, 7, 1);
        q.push(500, 2, 2);
        q.push(40, 9, 3);
        q.push(90_000, 1, 4);
        let mut popped = Vec::new();
        while let Some(min) = q.peek_min() {
            assert_eq!(q.pop_min(), Some(min));
            popped.push(min.key());
        }
        assert_eq!(popped, vec![(40, 9), (500, 2), (500, 7), (90_000, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn pop_then_push_earlier_entry_is_still_found() {
        let mut q = DeadlineQueue::new();
        q.push(1_000, 1, 1);
        assert_eq!(q.pop_min().map(|e| e.at), Some(1_000));
        // `pop_min` does not advance `base`, so an earlier deadline
        // pushed afterwards still drains first.
        q.push(10, 2, 2);
        q.push(1_000, 3, 3);
        assert_eq!(q.peek_min().map(|e| e.at), Some(10));
        assert_eq!(q.base(), 0);
        let mut out = Vec::new();
        drain_up_to(&mut q, 2_000, &mut out);
        let got: Vec<u64> = out.iter().map(|e| e.at).collect();
        assert_eq!(got, vec![10, 1_000]);
    }

    #[test]
    fn overdue_pushes_drain_first_in_order() {
        let mut q = DeadlineQueue::new();
        let mut out = Vec::new();
        drain_up_to(&mut q, 100, &mut out); // base = 101
        assert!(out.is_empty());
        assert_eq!(q.base(), 101);
        q.push(50, 1, 1); // overdue
        q.push(20, 2, 2); // overdue
        q.push(150, 3, 3);
        assert_eq!(q.peek_min().map(|e| e.at), Some(20));
        drain_up_to(&mut q, 200, &mut out);
        let got: Vec<u64> = out.iter().map(|e| e.at).collect();
        assert_eq!(got, vec![20, 50, 150]);
    }

    #[test]
    fn codec_roundtrips_and_preserves_drain_order() {
        let mut q = DeadlineQueue::new();
        let mut out = Vec::new();
        drain_up_to(&mut q, 999, &mut out); // non-zero base
        for (i, at) in [1_500u64, 1_200, 400_000, 1_200].iter().enumerate() {
            q.push(*at, i as u64, 100 + i as u64);
        }
        let mut buf = Writer::new();
        q.encode(&mut buf);
        let bytes = buf.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut back = DeadlineQueue::decode(&mut r).expect("decode");
        assert_eq!(back.base(), q.base());
        assert_eq!(back.len(), q.len());
        // Re-encode is byte-stable.
        let mut buf2 = Writer::new();
        back.encode(&mut buf2);
        assert_eq!(buf2.into_bytes(), bytes);
        // And the restored queue drains identically.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        drain_up_to(&mut q, u64::MAX, &mut a);
        drain_up_to(&mut back, u64::MAX, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn codec_rejects_unsorted_entries() {
        for keys in [[(500u64, 1u64), (400, 0)], [(500, 1), (500, 1)]] {
            let mut buf = Writer::new();
            buf.put_u64(0); // base
            buf.put_usize(2);
            for (at, seq) in keys {
                buf.put_u64(at);
                buf.put_u64(seq);
                buf.put_u64(0);
            }
            let bytes = buf.into_bytes();
            let mut r = Reader::new(&bytes);
            assert!(DeadlineQueue::decode(&mut r).is_err(), "{keys:?}");
        }
    }
}
