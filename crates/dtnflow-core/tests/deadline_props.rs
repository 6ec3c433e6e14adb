//! Property equivalence: [`DeadlineQueue`] vs the naive sorted scan it
//! replaced, under arbitrary insert/advance interleavings (DESIGN.md
//! §14). The queue is only a legal swap because its drain order is
//! bit-for-bit the old scan order — ascending `(at, seq)` — for every
//! schedule, including overdue pushes (deadline before the
//! already-drained frontier) and far-future ones. It drains the way the
//! engine does: `peek_min`, then `pop_min` while the head is due.

use dtnflow_core::{DeadlineEntry, DeadlineQueue};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule a new entry `delta` ticks past the last drain frontier.
    Insert { delta: u64 },
    /// Drain everything due up to `delta` ticks past the frontier.
    Advance { delta: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Deadlines near the frontier plus the occasional far jump.
        4 => (0u64..70_000).prop_map(|delta| Op::Insert { delta }),
        1 => ((1u64 << 32)..(1u64 << 33)).prop_map(|delta| Op::Insert { delta }),
        3 => (0u64..70_000).prop_map(|delta| Op::Advance { delta }),
    ]
}

/// The structure the queue replaced: a flat list drained by scan.
fn naive_drain(model: &mut Vec<DeadlineEntry>, now: u64) -> Vec<DeadlineEntry> {
    let mut due: Vec<DeadlineEntry> = model.iter().copied().filter(|e| e.at <= now).collect();
    due.sort_unstable_by_key(|e| (e.at, e.seq));
    model.retain(|e| e.at > now);
    due
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn queue_matches_naive_scan(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut queue = DeadlineQueue::new();
        let mut model: Vec<DeadlineEntry> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut fired = Vec::new();
        for op in ops {
            match op {
                Op::Insert { delta } => {
                    // `delta` saturating below the frontier sometimes:
                    // alternate entries land overdue on purpose.
                    let at = if seq.is_multiple_of(5) { now.saturating_sub(delta) } else { now + delta };
                    let payload = seq ^ 0xA5A5;
                    queue.push(at, seq, payload);
                    model.push(DeadlineEntry { at, seq, payload });
                    seq += 1;
                }
                Op::Advance { delta } => {
                    now += delta;
                    fired.clear();
                    while queue.peek_min().is_some_and(|e| e.at <= now) {
                        fired.extend(queue.pop_min());
                    }
                    let due = naive_drain(&mut model, now);
                    prop_assert_eq!(&fired[..], &due[..]);
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            // `peek_min` always agrees with the scan's minimum.
            let mut min = model.clone();
            min.sort_unstable_by_key(|e| (e.at, e.seq));
            prop_assert_eq!(queue.peek_min(), min.first().copied());
        }

        // The canonical order (what the engine checkpoints) agrees with
        // the surviving model.
        let mut want = model.clone();
        want.sort_unstable_by_key(|e| (e.at, e.seq));
        prop_assert_eq!(queue.iter().copied().collect::<Vec<_>>(), want);
    }
}
