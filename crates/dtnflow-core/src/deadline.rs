//! Sorted deadline queue for the engine's router timers.
//!
//! Entries sit in one `VecDeque` sorted by `(at, seq)`, the order the
//! binary heap it replaced popped them in. A push at or past the back
//! entry is an append; an earlier one (a dead-end timer due before a
//! later-scheduled retry, say) takes a binary-search insert. Entries
//! pop from the front, so the firing order is a pure function of the
//! pushed `(at, seq)` pairs, independent of push order and of
//! checkpoint/restore.

use std::collections::VecDeque;

/// One scheduled item: fires at tick `at`, tie-broken by `seq`, and
/// carries an opaque `payload` (a timer token).
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
    /// Every scheduled entry, ascending by `(at, seq)`.
    entries: VecDeque<DeadlineEntry>,
}

impl DeadlineQueue {
    /// An empty queue.
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

    /// Every stored entry in ascending `(at, seq)` order: the firing
    /// order, and the order the engine's checkpoint writes.
    pub fn iter(&self) -> impl Iterator<Item = &DeadlineEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Pop every entry due at `now`, the way the engine interleaves
    /// timers with its static schedule.
    fn drain_up_to(q: &mut DeadlineQueue, now: u64, out: &mut Vec<DeadlineEntry>) {
        while q.peek_min().is_some_and(|e| e.at <= now) {
            out.extend(q.pop_min());
        }
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
    fn equivalent_to_a_sorted_list_under_random_workload() {
        let mut seed = 0x5EED_0001u64;
        for round in 0..20 {
            let mut q = DeadlineQueue::new();
            let mut model: Vec<DeadlineEntry> = Vec::new();
            let mut now = 0u64;
            for seq in 0..400u64 {
                if lcg(&mut seed).is_multiple_of(3) {
                    now += lcg(&mut seed) % 3_000;
                    let mut got = Vec::new();
                    drain_up_to(&mut q, now, &mut got);
                    model.sort_unstable_by_key(DeadlineEntry::key);
                    let due = model.partition_point(|e| e.at <= now);
                    let want: Vec<DeadlineEntry> = model.drain(..due).collect();
                    assert_eq!(got, want, "round {round} diverged at now={now}");
                } else {
                    // Mostly near deadlines, some already overdue, a few
                    // far in the future.
                    let span = if lcg(&mut seed).is_multiple_of(10) {
                        200_000
                    } else {
                        2_000
                    };
                    let at = (now + lcg(&mut seed) % span).saturating_sub(500);
                    q.push(at, seq, seq);
                    model.push(DeadlineEntry {
                        at,
                        seq,
                        payload: seq,
                    });
                }
                assert_eq!(q.len(), model.len());
            }
            let mut got = Vec::new();
            drain_up_to(&mut q, u64::MAX, &mut got);
            model.sort_unstable_by_key(DeadlineEntry::key);
            assert_eq!(got, model, "final drain diverged in round {round}");
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
        // An earlier deadline pushed after a pop still comes first.
        q.push(10, 2, 2);
        q.push(1_000, 3, 3);
        let order: Vec<u64> = q.iter().map(|e| e.at).collect();
        assert_eq!(order, vec![10, 1_000]);
        assert_eq!(q.peek_min().map(|e| e.at), Some(10));
    }
}
