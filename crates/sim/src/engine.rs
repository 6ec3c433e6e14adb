//! The event loop: merges trace events, workload generations, time-unit
//! boundaries, observation points and router timers into one deterministic
//! timeline and dispatches them to the [`Router`].

use crate::faults::FaultPlan;
use crate::router::Router;
use crate::workload::Workload;
use crate::world::World;
use dtnflow_core::config::SimConfig;
use dtnflow_core::deadline::DeadlineQueue;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::metrics::RunMetrics;
use dtnflow_core::packet::Packet;
use dtnflow_core::time::{SimDuration, SimTime};
use dtnflow_mobility::Trace;
use dtnflow_obs::{Recorder, SimEvent, TraceSink};
use dtnflow_shard::{ShardExec, ShardPlan, Sharding};
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// What one simulation run produced.
#[derive(Debug)]
pub struct SimOutcome {
    /// The §V-A.1 metrics.
    pub metrics: RunMetrics,
    /// Every packet with its final state and visited-landmark path
    /// (for loop/path diagnostics).
    pub packets: Vec<Packet>,
    /// The observability sink attached via [`RunSpec::sink`], if any
    /// (downcast it — e.g. with `Recorder::downcast` — to read the
    /// recorded events and counters).
    pub trace: Option<Box<dyn TraceSink>>,
}

/// Event kinds, ordered by dispatch priority within a timestamp: unit
/// boundaries first (bandwidth snapshots), then station liveness flips
/// (so same-instant node activity sees the new station state), then
/// departures (a node leaves before another arrives at the same instant),
/// node failures (after departures: a same-instant departure completes,
/// but a same-instant arrival of the failing node is suppressed),
/// arrivals, node recoveries (after arrivals: a node that recovers the
/// instant a visit of its own starts still misses that visit and rejoins
/// at the next one), generations, timers, and observations last (they
/// snapshot the settled state).
///
/// `Arrive`/`Depart` carry the trace visit index so fault runs can look
/// up record-loss per visit; within identical timestamps the index sorts
/// exactly like the insertion sequence did (visits are pushed in trace
/// order), so fault-free runs dispatch in the same order as before.

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    TimeUnit(u64),
    StationDown(LandmarkId),
    StationUp(LandmarkId),
    Depart(NodeId, LandmarkId, u32),
    NodeFail(NodeId),
    Arrive(NodeId, LandmarkId, u32),
    NodeRecover(NodeId),
    Generate(LandmarkId, LandmarkId),
    Timer(u64),
    Observe(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: SimTime,
    kind: EventKind,
    seq: u64,
}

/// The inputs of one simulation run. Trace and config are required;
/// everything else has a default:
///
/// * workload — the uniform one ([`Workload::uniform`]);
/// * fault plan — none ([`FaultPlan::none`]);
/// * sink — none.
///
/// `RunSpec::new(&trace, &cfg).run(&mut router)` is the common case; each
/// builder method overrides one default. A sink is observation-only: it
/// never changes the outcome (the `csv_determinism` and obs proptest
/// suites enforce it).
pub struct RunSpec<'a> {
    trace: &'a Trace,
    cfg: &'a SimConfig,
    workload: Option<&'a Workload>,
    faults: Option<&'a FaultPlan>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<'a> RunSpec<'a> {
    /// A run over `trace` under `cfg`, with every default.
    pub fn new(trace: &'a Trace, cfg: &'a SimConfig) -> RunSpec<'a> {
        RunSpec {
            trace,
            cfg,
            workload: None,
            faults: None,
            sink: None,
        }
    }

    /// Replace the uniform workload.
    pub fn workload(mut self, workload: &'a Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Inject a fault plan.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an observability sink; the world emits structured
    /// [`SimEvent`]s into it and the outcome hands it back in
    /// [`SimOutcome::trace`].
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The trace this spec replays.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Run `router` to the end: [`SimSession::start`] +
    /// [`SimSession::run_to_end`] + [`SimSession::finish`].
    pub fn run<R: Router + ?Sized>(self, router: &mut R) -> SimOutcome {
        let (trace, cfg) = (self.trace, self.cfg);
        let uniform;
        let workload = match self.workload {
            Some(w) => w,
            None => {
                uniform = Workload::uniform(cfg, trace.num_landmarks(), trace.duration());
                &uniform
            }
        };
        let none = FaultPlan::none();
        let plan = self.faults.unwrap_or(&none);
        let mut session = SimSession::start(trace, cfg, workload, plan, router, self.sink);
        session.run_to_end();
        session.finish()
    }
}

/// Build the pre-sorted static event list. This is a *pure function* of
/// the run inputs: a resumed session rebuilds the identical list and only
/// the cursor (`next_static`) is checkpointed.
fn build_static_events(
    trace: &Trace,
    cfg: &SimConfig,
    workload: &Workload,
    plan: &FaultPlan,
) -> Vec<Event> {
    // Truncation fractions by visit index (sparse: most visits complete),
    // in a dense slot-per-index map for O(1) per-visit lookups.
    let mut truncated: dtnflow_core::dense::DenseMap<u32, f64> =
        dtnflow_core::dense::DenseMap::new();
    for &(idx, frac) in &plan.truncations {
        truncated.insert(idx, frac);
    }

    let mut events: Vec<Event> = Vec::with_capacity(
        trace.visits().len() * 2
            + workload.len()
            + 2 * (plan.station_outages.len() + plan.node_outages.len()),
    );
    let mut seq = 0u64;
    let mut push = |at: SimTime, kind: EventKind, seq: &mut u64| {
        events.push(Event {
            at,
            kind,
            seq: *seq,
        });
        *seq += 1;
    };
    for (idx, v) in trace.visits().iter().enumerate() {
        let idx = idx as u32;
        push(
            v.start,
            EventKind::Arrive(v.node, v.landmark, idx),
            &mut seq,
        );
        // A truncated contact departs after `frac` of its dwell, but at
        // least one second after arriving — a same-instant depart would
        // sort *before* the arrive and leave the node stuck as present.
        let end = match truncated.get(idx) {
            Some(&frac) => {
                let stay = v.end.secs().saturating_sub(v.start.secs());
                let kept = ((stay as f64 * frac) as u64).clamp(1, stay.max(1));
                SimTime(v.start.secs() + kept).min(v.end)
            }
            None => v.end,
        };
        push(end, EventKind::Depart(v.node, v.landmark, idx), &mut seq);
    }
    for g in workload.events() {
        push(g.at, EventKind::Generate(g.src, g.dst), &mut seq);
    }
    for o in &plan.station_outages {
        push(o.down, EventKind::StationDown(o.lm), &mut seq);
        push(o.up, EventKind::StationUp(o.lm), &mut seq);
    }
    for o in &plan.node_outages {
        push(o.fail, EventKind::NodeFail(o.node), &mut seq);
        push(o.recover, EventKind::NodeRecover(o.node), &mut seq);
    }
    let duration = trace.duration();
    let unit = cfg.time_unit;
    let mut u = 0u64;
    let mut t = SimTime::ZERO;
    while t.secs() <= duration.secs() {
        push(t, EventKind::TimeUnit(u), &mut seq);
        u += 1;
        t += unit;
    }
    if cfg.observe_points > 0 {
        for i in 0..cfg.observe_points {
            let at = SimTime(
                (duration.secs() as f64 * (i + 1) as f64 / cfg.observe_points as f64) as u64,
            );
            push(at, EventKind::Observe(i), &mut seq);
        }
    }
    events.sort_unstable();
    events
}

/// Record-loss flags, dense for O(1) dispatch lookups. Pure function of
/// the run inputs, like [`build_static_events`].
fn build_record_lost(trace: &Trace, plan: &FaultPlan) -> Vec<bool> {
    let mut record_lost = vec![false; trace.visits().len()];
    for &idx in &plan.lost_records {
        record_lost[idx as usize] = true;
    }
    record_lost
}

/// An in-flight simulation run that can be paused at time-unit boundaries
/// and checkpointed (DESIGN.md §11).
///
/// [`SimSession::start`] + [`SimSession::run_to_end`] +
/// [`SimSession::finish`] is exactly the loop [`RunSpec::run`] drives
/// (it delegates here). The additional surface —
/// [`SimSession::run_to_unit`], the `encode_*` methods and
/// [`SimSession::resume`] — exists for crash-consistent checkpoint /
/// restore: a run killed at a unit boundary and resumed from its snapshot
/// produces byte-identical outcomes to one that never stopped.
///
/// Only the engine *cursor* is checkpointed (static-event index, timer
/// heap, timer sequence counter): the static event list itself is a pure
/// function of `(trace, cfg, workload, plan)` and is rebuilt on resume,
/// which keeps snapshots small and makes tampering with the schedule
/// detectable by the fingerprint check at the container level.
pub struct SimSession<'a, R: Router + ?Sized> {
    world: World,
    // detlint: allow(S1, reason = "pure function of (trace, cfg, workload, plan); rebuilt by resume(), only the cursor is checkpointed")
    events: Vec<Event>,
    next_static: usize,
    /// Pending router timers in a sorted deadline queue (DESIGN.md §14):
    /// pops in exactly the `(at, seq)` order the old binary heap
    /// produced (the queue holds only `Timer` events, whose kind
    /// priority is constant).
    timers: DeadlineQueue,
    timer_seq: u64,
    // detlint: allow(S1, reason = "derived from the run's fault plan; resume() recomputes it from the same inputs")
    record_lost: Vec<bool>,
    // detlint: allow(S1, reason = "run input, not state: resume() is called with the same station flag")
    station_mode: bool,
    // detlint: allow(S1, reason = "run input, not state: resume() is called with the same duration")
    duration: SimDuration,
    // detlint: allow(S1, reason = "router state is checkpointed by its own save_state/restore_state codec, not through SimSession")
    router: &'a mut R,
    /// Encounter-partner scratch buffer, reused across arrivals.
    // detlint: allow(S1, reason = "scratch buffer, cleared before every use")
    present: Vec<NodeId>,
}

/// Why [`SimSession::run_core`] stopped.
enum RunStop {
    /// Paused before a `TimeUnit(u >= target)` boundary.
    Boundary,
    /// The event budget ran out (events may remain).
    Budget,
    /// No events remain.
    Done,
}

impl<'a, R: Router + ?Sized> SimSession<'a, R> {
    /// Begin a fresh run (state as of time zero, nothing dispatched yet).
    pub fn start(
        trace: &Trace,
        cfg: &SimConfig,
        workload: &Workload,
        plan: &FaultPlan,
        router: &'a mut R,
        sink: Option<Box<dyn TraceSink>>,
    ) -> SimSession<'a, R> {
        plan.check_against(trace);
        let mut world = World::new(cfg.clone(), trace.num_nodes(), trace.num_landmarks());
        if let Some(sink) = sink {
            world.set_trace_sink(sink);
        }
        let station_mode = router.uses_stations();
        let events = build_static_events(trace, cfg, workload, plan);
        SimSession {
            world,
            events,
            next_static: 0,
            timers: DeadlineQueue::new(),
            timer_seq: u64::MAX / 2,
            record_lost: build_record_lost(trace, plan),
            station_mode,
            duration: trace.duration(),
            router,
            present: Vec::new(),
        }
    }

    /// [`SimSession::start`], ignoring the inert shard arguments. It
    /// stays because the benchmark adapter still calls it; ROADMAP items
    /// 3(b) and 3(c) delete it with the rest of the shard names
    /// (DESIGN.md §13).
    #[allow(clippy::too_many_arguments)] // mirrors `start` plus the shard names
    pub fn start_sharded(
        trace: &Trace,
        cfg: &SimConfig,
        workload: &Workload,
        plan: &FaultPlan,
        router: &'a mut R,
        sink: Option<Box<dyn TraceSink>>,
        shard_plan: ShardPlan,
        exec: ShardExec,
    ) -> SimSession<'a, R> {
        let _ = (shard_plan, exec);
        Self::start(trace, cfg, workload, plan, router, sink)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The simulation state (read-only).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The driven router.
    pub fn router(&self) -> &R {
        self.router
    }

    /// Emit an observability event into the attached sink (delegates to
    /// [`World::emit`]; no-op without a sink).
    pub fn emit(&mut self, make: impl FnOnce(SimTime) -> SimEvent) {
        self.world.emit(make);
    }

    /// Run until the boundary of time unit `target` is the next event:
    /// every event strictly before it (including same-instant timers,
    /// which order before a boundary exactly when their heap entry sorts
    /// earlier) is dispatched; the `TimeUnit(target)` event itself is NOT
    /// consumed. Returns `true` when paused at the boundary, `false` when
    /// the run ended first (no such boundary remained).
    ///
    /// This is the crash-consistent pause point: a checkpoint taken here
    /// and resumed replays the boundary dispatch itself identically to a
    /// run that never paused.
    pub fn run_to_unit(&mut self, target: u64) -> bool {
        matches!(self.run_core(target, None), RunStop::Boundary)
    }

    /// Dispatch exactly `n` events (static events and timers combined),
    /// or fewer when the run ends first. Returns `true` when the budget
    /// stopped the run (events may remain), `false` when the run ended
    /// first.
    ///
    /// Unlike [`SimSession::run_to_unit`], the pause point may fall
    /// anywhere inside a unit: the engine cursor, world and router
    /// codecs are all consistent between any two events, so mid-unit
    /// checkpoints restore byte-identically (the `chaos_props` suite
    /// fuzzes this).
    pub fn step_events(&mut self, n: usize) -> bool {
        matches!(self.run_core(u64::MAX, Some(n)), RunStop::Budget)
    }

    /// The loop behind [`SimSession::run_to_unit`] and
    /// [`SimSession::step_events`]: pick the earlier of the static
    /// schedule head and the timer queue head, dispatch, repeat.
    fn run_core(&mut self, target: u64, mut budget: Option<usize>) -> RunStop {
        loop {
            if budget == Some(0) {
                return RunStop::Budget;
            }
            let static_ev = self.events.get(self.next_static).copied();
            let timer_ev = self.timers.peek_min().map(|e| Event {
                at: SimTime(e.at),
                kind: EventKind::Timer(e.payload),
                seq: e.seq,
            });
            let ev = match (static_ev, timer_ev) {
                (Some(s), Some(t)) if t < s => {
                    self.timers.pop_min();
                    t
                }
                (Some(s), _) => {
                    if matches!(s.kind, EventKind::TimeUnit(u) if u >= target) {
                        return RunStop::Boundary;
                    }
                    self.next_static += 1;
                    s
                }
                (None, Some(t)) => {
                    self.timers.pop_min();
                    t
                }
                (None, None) => return RunStop::Done,
            };
            self.dispatch(ev);
            self.drain_timers();
            if let Some(b) = &mut budget {
                *b -= 1;
            }
        }
    }

    /// Dispatch every remaining event.
    pub fn run_to_end(&mut self) {
        // No real run has a unit numbered `u64::MAX`, so this never pauses.
        let paused = self.run_to_unit(u64::MAX);
        debug_assert!(!paused, "run_to_end paused at a boundary");
    }

    /// Close out the run: final expiry reckoning, then the outcome.
    pub fn finish(mut self) -> SimOutcome {
        // Final reckoning: everything past its deadline is an expiry.
        // Router timers may have fired beyond the last trace event, so
        // never move the clock backwards.
        let end = (SimTime::ZERO + self.duration).max(self.world.now());
        self.world.set_now(end);
        self.world.purge_expired();
        let trace_sink = self.world.take_trace_sink();
        let (metrics, packets) = self.world.into_outcome();
        SimOutcome {
            metrics,
            packets,
            trace: trace_sink,
        }
    }

    fn dispatch(&mut self, ev: Event) {
        let world = &mut self.world;
        world.set_now(ev.at);
        match ev.kind {
            EventKind::TimeUnit(u) => {
                world.emit(|at| SimEvent::UnitBoundary { at, unit: u });
                world.purge_expired();
                world.reset_radio_budget();
                self.router
                    .on_time_unit_sharded(world, u, &Sharding::default());
            }
            EventKind::StationDown(l) => {
                world.station_down(l);
                self.router.on_station_down(world, l);
            }
            EventKind::StationUp(l) => {
                world.station_recover(l);
                self.router.on_station_up(world, l);
            }
            EventKind::Depart(n, l, idx) => {
                // Suppressed when the node is not actually there: its
                // arrival was swallowed by a failure, or churn removed it
                // mid-visit.
                if world.node_location(n) == Some(l) {
                    world.set_visit_recorded(!self.record_lost[idx as usize]);
                    self.router.on_depart(world, n, l);
                    world.set_visit_recorded(true);
                    world.node_depart(n, l);
                }
            }
            EventKind::NodeFail(n) => {
                let at = world.node_location(n);
                world.node_fail(n);
                self.router.on_node_fail(world, n, at);
            }
            EventKind::Arrive(n, l, idx) => {
                // A failed node is off the network: its visits do not
                // happen until it recovers.
                if !world.node_is_failed(n) {
                    world.node_arrive(n, l);
                    if !self.station_mode {
                        world.auto_deliver_on_arrival(n, l);
                    }
                    world.set_visit_recorded(!self.record_lost[idx as usize]);
                    // Encounter partners, copied out so the router may
                    // mutate presence; the buffer is reused across
                    // arrivals to keep this allocation-free.
                    self.present.clear();
                    self.present
                        .extend(world.nodes_at(l).iter().filter(|&m| m != n));
                    for &m in self.present.iter() {
                        self.router.on_encounter(world, n, m, l);
                    }
                    self.router.on_arrive(world, n, l);
                    world.set_visit_recorded(true);
                }
            }
            EventKind::NodeRecover(n) => {
                world.node_recover(n);
                self.router.on_node_recover(world, n);
            }
            EventKind::Generate(src, dst) => {
                let pkt = world.create_packet(src, dst, None, self.station_mode);
                // A packet generated at a down station is stillborn
                // (lost to the outage); the router never sees it.
                if world.packet(pkt).loc.is_live() {
                    self.router.on_packet_generated(world, pkt);
                }
            }
            EventKind::Timer(token) => {
                self.router.on_timer(world, token);
            }
            EventKind::Observe(i) => {
                self.router.on_observe(world, i);
            }
        }
    }

    /// Move router-requested timers into the timer queue.
    fn drain_timers(&mut self) {
        for (at, token) in self.world.pending_timers.drain(..) {
            self.timers.push(at.secs(), self.timer_seq, token);
            self.timer_seq += 1;
        }
    }

    // ---- checkpoint / restore (DESIGN.md §11) ----------------------------

    /// Encode the engine cursor: static-event index, timer sequence
    /// counter, and the pending timers (ascending, so the encoding is
    /// canonical — and byte-identical to the format the old binary heap
    /// produced).
    pub fn encode_engine(&self, w: &mut Writer) {
        self.next_static.encode(w);
        self.timer_seq.encode(w);
        // `(at, payload, seq)`: the old heap's field order, not the
        // queue's own `(at, seq, payload)`.
        w.put_seq(self.timers.len(), self.timers.iter(), |w, e| {
            (e.at, e.payload, e.seq).encode(w);
        });
    }

    /// Encode the full [`World`] state.
    pub fn encode_world(&self, w: &mut Writer) {
        self.world.encode_state(w);
    }

    /// Encode the attached [`Recorder`] in place, if the attached sink is
    /// one. Returns `false` (writing nothing) when no sink is attached or
    /// the sink is not checkpointable. Called *after* the state payload is
    /// sized so the `CheckpointWritten` event lands inside the recorder
    /// bytes of both the paused and the straight-through lineage.
    pub fn encode_recorder(&mut self, w: &mut Writer) -> bool {
        if let Some(rec) = self
            .world
            .trace_sink_mut()
            .and_then(|s| s.as_any_mut())
            .and_then(|a| a.downcast_mut::<Recorder>())
        {
            rec.encode(w);
            true
        } else {
            false
        }
    }

    /// Rebuild a paused session from checkpointed engine + world bytes and
    /// the original run inputs. The static event list and record-loss
    /// table are reconstructed from the inputs; the readers supply only
    /// the mutable mid-run state.
    #[allow(clippy::too_many_arguments)] // mirrors `start` plus the two state readers
    pub fn resume(
        trace: &Trace,
        cfg: &SimConfig,
        workload: &Workload,
        plan: &FaultPlan,
        router: &'a mut R,
        sink: Option<Box<dyn TraceSink>>,
        engine: &mut Reader<'_>,
        world: &mut Reader<'_>,
    ) -> Result<SimSession<'a, R>, SnapshotError> {
        plan.check_against(trace);
        let events = build_static_events(trace, cfg, workload, plan);
        let next_static: usize = Codec::decode(engine)?;
        if next_static > events.len() {
            return Err(SnapshotError::Corrupt {
                context: "SimSession",
            });
        }
        let timer_seq = Codec::decode(engine)?;
        let mut timers = DeadlineQueue::new();
        for (at, token, seq) in Vec::<(u64, u64, u64)>::decode(engine)? {
            timers.push(at, seq, token);
        }
        let mut restored =
            World::decode_state(world, cfg.clone(), trace.num_nodes(), trace.num_landmarks())?;
        if let Some(sink) = sink {
            restored.set_trace_sink(sink);
        }
        let station_mode = router.uses_stations();
        Ok(SimSession {
            world: restored,
            events,
            next_static,
            timers,
            timer_seq,
            record_lost: build_record_lost(trace, plan),
            station_mode,
            duration: trace.duration(),
            router,
            present: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_core::geometry::Point;
    use dtnflow_core::ids::PacketId;
    use dtnflow_core::packet::PacketLoc;
    use dtnflow_core::time::{SimDuration, DAY};
    use dtnflow_mobility::Visit;

    /// A router that greedily hands pending packets to any arriving node
    /// and otherwise lets carriers walk them to their destinations.
    struct DirectRouter;

    impl Router for DirectRouter {
        fn name(&self) -> &'static str {
            "direct"
        }
        fn on_arrive(&mut self, w: &mut World, node: NodeId, lm: LandmarkId) {
            let pending: Vec<PacketId> = w.pending_at(lm).collect();
            for p in pending {
                if w.transfer_to_node(p, node).is_err() {
                    break;
                }
            }
        }
        fn on_packet_generated(&mut self, w: &mut World, pkt: PacketId) {
            // If someone is already in the subarea, hand the packet over.
            let src = match w.packet(pkt).loc {
                PacketLoc::PendingAtSource(l) => l,
                _ => return,
            };
            let first = w.nodes_at(src).iter().next();
            if let Some(n) = first {
                let _ = w.transfer_to_node(pkt, n);
            }
        }
    }

    /// An event recorder validating hook ordering.
    #[derive(Default)]
    struct RecorderRouter {
        log: Vec<String>,
    }

    impl Router for RecorderRouter {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn on_arrive(&mut self, w: &mut World, node: NodeId, lm: LandmarkId) {
            self.log
                .push(format!("arrive {node} {lm} @{}", w.now().secs()));
        }
        fn on_depart(&mut self, w: &mut World, node: NodeId, lm: LandmarkId) {
            assert!(w.nodes_at(lm).contains(node), "still present at depart");
            self.log
                .push(format!("depart {node} {lm} @{}", w.now().secs()));
        }
        fn on_encounter(&mut self, _w: &mut World, a: NodeId, b: NodeId, lm: LandmarkId) {
            self.log.push(format!("meet {a} {b} {lm}"));
        }
        fn on_packet_generated(&mut self, w: &mut World, pkt: PacketId) {
            self.log.push(format!("gen {} @{}", pkt, w.now().secs()));
        }
        fn on_time_unit(&mut self, _w: &mut World, unit: u64) {
            self.log.push(format!("unit {unit}"));
        }
        fn on_observe(&mut self, _w: &mut World, idx: usize) {
            self.log.push(format!("obs {idx}"));
        }
        fn on_timer(&mut self, _w: &mut World, token: u64) {
            self.log.push(format!("timer {token}"));
        }
    }

    fn shuttle_trace() -> Trace {
        // Node 0 shuttles l0 -> l1 -> l0 ... daily; node 1 sits at l0
        // mornings only.
        let mut visits = Vec::new();
        for d in 0..8u64 {
            let base = d * 86_400;
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(base + 1_000),
                SimTime(base + 5_000),
            ));
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(1),
                SimTime(base + 10_000),
                SimTime(base + 20_000),
            ));
            visits.push(Visit::new(
                NodeId(1),
                LandmarkId(0),
                SimTime(base + 2_000),
                SimTime(base + 4_000),
            ));
        }
        Trace::new(
            "shuttle",
            2,
            2,
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            visits,
        )
        .unwrap()
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            packets_per_landmark_per_day: 2.0,
            ttl: DAY.mul(4),
            time_unit: DAY,
            seed: 3,
            ..SimConfig::default()
        }
    }

    #[test]
    fn direct_router_delivers_on_shuttle() {
        let trace = shuttle_trace();
        let cfg = small_cfg();
        let out = RunSpec::new(&trace, &cfg).run(&mut DirectRouter);
        assert!(out.metrics.generated > 0);
        // The shuttle reaches both landmarks daily, so most packets with a
        // 4-day TTL make it.
        assert!(
            out.metrics.success_rate() > 0.5,
            "success {}",
            out.metrics.success_rate()
        );
        // Everything delivered took at least one forwarding op.
        assert!(out.metrics.forwarding_ops >= out.metrics.delivered);
    }

    #[test]
    fn hook_ordering_and_encounters() {
        let trace = shuttle_trace();
        let mut cfg = small_cfg();
        cfg.observe_points = 2;
        cfg.packets_per_landmark_per_day = 0.5;
        let mut r = RecorderRouter::default();
        let _ = RunSpec::new(&trace, &cfg).run(&mut r);
        let log = r.log.join("\n");
        // Node 1 arrives at l0 at t=2000 while node 0 is there.
        assert!(log.contains("meet n1 n0 l0"));
        // Unit boundaries and observations both fired; the trace is just
        // over 7 days long, so boundaries at days 0..=7 exist.
        assert!(log.contains("unit 0"));
        assert!(log.contains("unit 7"));
        assert!(log.contains("obs 0"));
        assert!(log.contains("obs 1"));
        // Every arrive has a matching depart.
        let arrives = r.log.iter().filter(|l| l.starts_with("arrive")).count();
        let departs = r.log.iter().filter(|l| l.starts_with("depart")).count();
        assert_eq!(arrives, departs);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerRouter {
            fired: Vec<(u64, u64)>,
        }
        impl Router for TimerRouter {
            fn name(&self) -> &'static str {
                "timer"
            }
            fn on_arrive(&mut self, w: &mut World, _n: NodeId, _l: LandmarkId) {
                if self.fired.is_empty() && w.now().secs() < 2_000 {
                    w.schedule_timer(SimTime(7_777), 1);
                    w.schedule_timer(SimTime(3_333), 2);
                    self.fired.push((0, w.now().secs()));
                }
            }
            fn on_packet_generated(&mut self, _w: &mut World, _p: PacketId) {}
            fn on_timer(&mut self, w: &mut World, token: u64) {
                self.fired.push((token, w.now().secs()));
            }
        }
        let trace = shuttle_trace();
        let mut r = TimerRouter { fired: vec![] };
        let _ = RunSpec::new(&trace, &small_cfg()).run(&mut r);
        // Token 2 (earlier deadline) fires before token 1.
        assert_eq!(r.fired.len(), 3);
        assert_eq!(r.fired[1], (2, 3_333));
        assert_eq!(r.fired[2], (1, 7_777));
    }

    #[test]
    fn run_is_deterministic() {
        let trace = shuttle_trace();
        let cfg = small_cfg();
        let a = RunSpec::new(&trace, &cfg).run(&mut DirectRouter);
        let b = RunSpec::new(&trace, &cfg).run(&mut DirectRouter);
        assert_eq!(
            a.metrics.summary().success_rate,
            b.metrics.summary().success_rate
        );
        assert_eq!(a.metrics.forwarding_ops, b.metrics.forwarding_ops);
        assert_eq!(a.packets.len(), b.packets.len());
    }

    #[test]
    fn undelivered_packets_expire_by_the_end() {
        // A trace where node 1 never reaches l1: packets to l1 that node 1
        // picks up die by TTL; final purge must count them.
        struct GreedyRouter;
        impl Router for GreedyRouter {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn on_arrive(&mut self, w: &mut World, node: NodeId, lm: LandmarkId) {
                let pending: Vec<PacketId> = w.pending_at(lm).collect();
                for p in pending {
                    let _ = w.transfer_to_node(p, node);
                }
            }
            fn on_packet_generated(&mut self, _w: &mut World, _p: PacketId) {}
        }
        let mut visits = Vec::new();
        for d in 0..8u64 {
            visits.push(Visit::new(
                NodeId(0),
                LandmarkId(0),
                SimTime(d * 86_400),
                SimTime(d * 86_400 + 1_000),
            ));
        }
        let trace = Trace::new(
            "stuck",
            1,
            2,
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            visits,
        )
        .unwrap();
        let cfg = SimConfig {
            packets_per_landmark_per_day: 4.0,
            ttl: DAY,
            time_unit: DAY,
            ..SimConfig::default()
        };
        let out = RunSpec::new(&trace, &cfg).run(&mut GreedyRouter);
        assert!(out.metrics.generated > 0);
        assert_eq!(out.metrics.delivered, 0);
        // Every packet either expired or (if generated within the final
        // TTL window) is still stranded; nothing is unaccounted for.
        let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
        assert_eq!(out.metrics.expired + live, out.metrics.generated);
        assert!(out.metrics.expired > 0);
    }

    /// A dense multi-landmark trace: `nodes` mobile nodes, 4 landmarks,
    /// node `i` shuttling to landmark `i % 4` on a staggered daily
    /// schedule, so arrivals and departures at different landmarks
    /// interleave tightly and pause points land between them.
    fn dense_trace(nodes: u32) -> Trace {
        let mut visits = Vec::new();
        for d in 0..6u64 {
            let base = d * 86_400;
            for i in 0..nodes {
                let l = LandmarkId((i % 4) as u16);
                let start = base + 1_000 + (i as u64 * 13);
                visits.push(Visit::new(
                    NodeId(i),
                    l,
                    SimTime(start),
                    SimTime(start + 3_000),
                ));
            }
        }
        visits.sort_by_key(|v| v.start);
        Trace::new(
            "dense",
            nodes as usize,
            4,
            vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(0.0, 100.0),
                Point::new(100.0, 100.0),
            ],
            visits,
        )
        .unwrap()
    }

    #[test]
    fn step_events_pauses_and_resumes_anywhere() {
        // Drip-feed the run a few events at a time; the hook stream must
        // equal an uninterrupted run regardless of where pauses land.
        let trace = dense_trace(8);
        let cfg = small_cfg();
        let workload = Workload::uniform(&cfg, trace.num_landmarks(), trace.duration());
        let mut base = RecorderRouter::default();
        let _ = RunSpec::new(&trace, &cfg)
            .workload(&workload)
            .run(&mut base);
        for step in [1, 3, 17] {
            let mut r = RecorderRouter::default();
            let mut session =
                SimSession::start(&trace, &cfg, &workload, &FaultPlan::none(), &mut r, None);
            while session.step_events(step) {}
            let _ = session.finish();
            assert_eq!(r.log, base.log, "step={step}");
        }
    }

    /// Counts the two unit hooks apart. The trait default of
    /// `on_time_unit_sharded` forwards to `on_time_unit`, so a router
    /// that logs only `on_time_unit` cannot tell which one the engine
    /// called.
    #[derive(Default)]
    struct UnitHookCounter {
        direct: u64,
        sharded: u64,
    }

    impl Router for UnitHookCounter {
        fn name(&self) -> &'static str {
            "unit-hooks"
        }
        fn on_arrive(&mut self, _w: &mut World, _node: NodeId, _lm: LandmarkId) {}
        fn on_packet_generated(&mut self, _w: &mut World, _pkt: PacketId) {}
        fn on_time_unit(&mut self, _w: &mut World, _unit: u64) {
            self.direct += 1;
        }
        fn on_time_unit_sharded(&mut self, _w: &mut World, _unit: u64, _s: &Sharding<'_>) {
            self.sharded += 1;
        }
    }

    #[test]
    fn every_unit_boundary_goes_through_the_sharded_hook() {
        // The benchmark adapter's timing wrapper overrides
        // `on_time_unit_sharded`; a dispatch that called `on_time_unit`
        // directly would skip it on every entry point.
        let trace = dense_trace(8);
        let cfg = small_cfg();
        let workload = Workload::uniform(&cfg, trace.num_landmarks(), trace.duration());
        let none = FaultPlan::none();

        let mut started = UnitHookCounter::default();
        let mut session = SimSession::start(&trace, &cfg, &workload, &none, &mut started, None);
        session.run_to_end();
        let _ = session.finish();

        let mut sharded = UnitHookCounter::default();
        let mut session = SimSession::start_sharded(
            &trace,
            &cfg,
            &workload,
            &none,
            &mut sharded,
            None,
            ShardPlan::contiguous(trace.num_landmarks(), 2),
            ShardExec::new(2),
        );
        session.run_to_end();
        let _ = session.finish();

        let mut spec = UnitHookCounter::default();
        let _ = RunSpec::new(&trace, &cfg)
            .workload(&workload)
            .run(&mut spec);

        for (entry, r) in [
            ("start", &started),
            ("start_sharded", &sharded),
            ("RunSpec::run", &spec),
        ] {
            assert_eq!(r.direct, 0, "{entry}: a boundary skipped the sharded hook");
            assert!(r.sharded > 0, "{entry}: no unit boundary fired");
        }
        assert_eq!(started.sharded, sharded.sharded);
        assert_eq!(started.sharded, spec.sharded);
    }

    #[test]
    fn time_unit_count_covers_duration() {
        let trace = shuttle_trace();
        let mut cfg = small_cfg();
        cfg.time_unit = SimDuration::from_days(2.0);
        let mut r = RecorderRouter::default();
        let _ = RunSpec::new(&trace, &cfg).run(&mut r);
        let units = r.log.iter().filter(|l| l.starts_with("unit")).count();
        // Duration is just under 8 days: boundaries at days 0,2,4,6 (+day 8
        // only if the last visit ends exactly there).
        assert!(units == 4 || units == 5, "units {units}");
    }
}
