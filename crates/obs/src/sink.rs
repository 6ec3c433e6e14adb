//! Trace sinks: where emitted `SimEvent`s go.
//!
//! The simulator holds an `Option<Box<dyn TraceSink>>`; with no sink
//! attached, event construction is skipped entirely (the emit closure is
//! never invoked), so tracing has zero overhead when disabled. The
//! `Recorder` keeps the last `capacity` events in a bounded
//! flight-recorder ring buffer and folds *every* event (including ones
//! later evicted from the ring) into an `ObsMetrics` registry.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;

use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

use crate::event::SimEvent;
use crate::metrics::ObsMetrics;
use crate::snapshot::Snapshot;

/// Receiver for structured simulation events.
///
/// `Debug` is a supertrait because sinks are stored inside `Debug`-derived
/// simulator state. `into_any` enables recovering a concrete sink (e.g. a
/// [`Recorder`]) from the boxed trait object a run returns.
pub trait TraceSink: std::fmt::Debug {
    /// Observe one event. Called in simulation order with monotonically
    /// non-decreasing timestamps.
    fn record(&mut self, ev: SimEvent);

    /// Downcast support: surrender the box as `Any`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// In-place downcast support for checkpointing: sinks whose state can
    /// be captured mid-run (currently the [`Recorder`]) override this to
    /// expose themselves; the default (`None`) marks the sink as not
    /// checkpointable.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// A sink that discards everything (useful for overhead measurements and
/// as an explicit "tracing attached but ignored" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _ev: SimEvent) {}

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Default ring capacity used by [`Recorder::default`].
pub const DEFAULT_RING_CAPACITY: usize = 4_096;

/// Bounded flight recorder plus always-on metric fold.
///
/// The ring holds the most recent `capacity` events; older events are
/// evicted (counted in `dropped`) but remain reflected in the folded
/// metrics, so counters and histograms are exact even when the ring
/// wraps.
#[derive(Debug, Clone)]
pub struct Recorder {
    capacity: usize,
    ring: VecDeque<SimEvent>,
    recorded: u64,
    dropped: u64,
    metrics: ObsMetrics,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl Recorder {
    /// Create a recorder whose ring holds at most `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        Recorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            recorded: 0,
            dropped: 0,
            metrics: ObsMetrics::new(),
        }
    }

    /// Configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events observed, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.ring.iter()
    }

    /// The folded metric registries.
    pub fn metrics(&self) -> &ObsMetrics {
        &self.metrics
    }

    /// Export the current registries plus ring statistics.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_metrics(
            &self.metrics,
            self.recorded,
            self.dropped,
            self.capacity as u64,
        )
    }

    /// Render the retained events as one line each (oldest first).
    ///
    /// This is the byte-stable textual form compared by the cross-process
    /// trace-stability tests.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            let _ = writeln!(out, "{ev}");
        }
        out
    }

    /// Recover a `Recorder` from a boxed sink, if that is what it is.
    pub fn downcast(sink: Box<dyn TraceSink>) -> Option<Recorder> {
        sink.into_any().downcast::<Recorder>().ok().map(|r| *r)
    }

    /// Checkpoint encoding (DESIGN.md §11): ring statistics, the retained
    /// events (oldest first) and the folded metric registries. A restored
    /// recorder continues recording byte-identically to one that never
    /// stopped.
    pub fn encode(&self, w: &mut Writer) {
        self.capacity.encode(w);
        self.recorded.encode(w);
        self.dropped.encode(w);
        self.ring.encode(w);
        self.metrics.encode(w);
    }

    /// Inverse of [`Recorder::encode`]. The ring preallocates only the
    /// events it holds, never the capacity the payload claims.
    pub fn decode(r: &mut Reader<'_>) -> Result<Recorder, SnapshotError> {
        let rec = Recorder {
            capacity: Codec::decode(r)?,
            recorded: Codec::decode(r)?,
            dropped: Codec::decode(r)?,
            ring: Codec::decode(r)?,
            metrics: Codec::decode(r)?,
        };
        if rec.capacity == 0 || rec.ring.len() > rec.capacity {
            return Err(SnapshotError::Corrupt {
                context: "Recorder",
            });
        }
        Ok(rec)
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, ev: SimEvent) {
        self.metrics.apply(&ev);
        self.recorded += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::ids::LandmarkId;
    use dtnflow_core::time::SimTime;

    fn unit_event(i: u64) -> SimEvent {
        SimEvent::UnitBoundary {
            at: SimTime(i),
            unit: i,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = Recorder::new(3);
        for i in 0..10 {
            r.record(unit_event(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 7);
        let kept: Vec<u64> = r.events().map(|e| e.at().0).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        // Metrics reflect all 10 events, not just the retained 3.
        assert_eq!(r.metrics().event_counts["unit_boundary"], 10);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = Recorder::new(0);
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn render_log_matches_ring() {
        let mut r = Recorder::new(8);
        r.record(unit_event(5));
        r.record(SimEvent::StationDown {
            at: SimTime(6),
            lm: LandmarkId(1),
        });
        assert_eq!(r.render_log(), "@5 unit_boundary u5\n@6 station_down l1\n");
    }

    #[test]
    fn downcast_roundtrip() {
        let mut r = Recorder::new(4);
        r.record(unit_event(1));
        let boxed: Box<dyn TraceSink> = Box::new(r);
        let back = Recorder::downcast(boxed).unwrap();
        assert_eq!(back.recorded(), 1);
        assert!(Recorder::downcast(Box::new(NoopSink)).is_none());
    }

    #[test]
    fn decode_trusts_no_ring_capacity_for_preallocation() {
        let mut r = Recorder::new(4);
        r.record(unit_event(1));
        let mut w = Writer::new();
        r.encode(&mut w);
        let mut bytes = w.into_bytes();
        // The capacity leads the payload; the ring holds one event.
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let back = Recorder::decode(&mut Reader::new(&bytes)).expect("valid payload");
        assert_eq!(back.capacity() as u64, u64::MAX);
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn snapshot_reports_ring_stats() {
        let mut r = Recorder::new(2);
        for i in 0..5 {
            r.record(unit_event(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.events_recorded, 5);
        assert_eq!(snap.events_dropped, 3);
        assert_eq!(snap.ring_capacity, 2);
    }
}
