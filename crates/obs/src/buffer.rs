//! Deferred event buffers for the sharded engine (DESIGN.md §13).
//!
//! Parallel compute phases may not touch the sink directly — a sink
//! records "in simulation order with monotonically non-decreasing
//! timestamps", and completion order under threads is not simulation
//! order. Workers therefore *buffer* fully-built [`SimEvent`]s, and the
//! commit phase drains the buffers in a deterministic order (the sharded
//! router flushes one buffer per landmark, in ascending landmark id),
//! reproducing the exact sequence the sequential engine would have
//! emitted. The trace stream stays byte-stable for any
//! shard count — the cross-shard differential tests pin that.

use crate::event::SimEvent;
use crate::sink::TraceSink;

/// An ordered buffer of events assembled off-thread during a parallel
/// phase. Within one buffer, events keep their push order (the owning
/// worker's deterministic iteration order).
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Vec<SimEvent>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> EventBuffer {
        EventBuffer::default()
    }

    /// Append one event.
    pub fn record(&mut self, ev: SimEvent) {
        self.events.push(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain every buffered event into `sink`, in push order.
    pub fn drain_into(&mut self, sink: &mut dyn TraceSink) {
        for ev in self.events.drain(..) {
            sink.record(ev);
        }
    }

    /// Discard the contents (untraced runs).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;
    use dtnflow_core::time::SimTime;

    fn ev(unit: u64) -> SimEvent {
        SimEvent::UnitBoundary {
            at: SimTime(unit),
            unit,
        }
    }

    #[test]
    fn buffer_preserves_push_order() {
        let mut b = EventBuffer::new();
        for u in [3, 1, 2] {
            b.record(ev(u));
        }
        assert_eq!(b.len(), 3);
        let mut rec = Recorder::new(8);
        b.drain_into(&mut rec);
        assert!(b.is_empty());
        let got: Vec<u64> = rec.events().map(|e| e.at().0).collect();
        assert_eq!(got, vec![3, 1, 2]);
    }
}
