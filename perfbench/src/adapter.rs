//! The one module that calls into the simulator.
//!
//! Everything the benchmark does to the program goes through here, and
//! only through its public surface: [`Scenario`] and the fault plan for
//! inputs, [`SimSession`] to run, the [`Router`] and [`TraceSink`]
//! traits to observe, and the `chaos` checkpoint/resume functions. The
//! in-unit dispatch knobs and their statistics are deliberately never
//! touched, so the benchmark keeps compiling while they are reshaped.
//!
//! Tracing wraps the router in [`TimedRouter`] and the sink in
//! [`TimedSink`]; both forward every trait method to the wrapped object,
//! so a traced run computes exactly what the untraced run computes (the
//! `wrapper_fidelity` test and the traced run's own byte comparison
//! check this).

use crate::profile::{self, Profiler};
use dtnflow_bench::chaos::{self, ChaosInputs, RunArtifacts, SegmentEnd};
pub use dtnflow_bench::runners::Method;
use dtnflow_bench::Scenario;
use dtnflow_core::config::SimConfig;
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
pub use dtnflow_core::metrics::MetricsSummary as Summary;
use dtnflow_mobility::Trace;
use dtnflow_obs::{Recorder, SimEvent, TraceSink, DEFAULT_RING_CAPACITY};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{
    FaultConfig, FaultPlan, Router, ShardExec, ShardPlan, Sharding, SimOutcome, SimSession,
    Workload, World,
};
use dtnflow_snapshot::{
    validate_schema, Reader, SnapshotBuilder, SnapshotError, SnapshotFile, Writer,
};
use std::any::Any;
use std::rc::Rc;

/// Index of `m` in [`Method::ALL`], which is also its profiler block.
pub fn method_index(m: Method) -> usize {
    Method::ALL.iter().position(|&x| x == m).unwrap_or(0)
}

pub const BASELINES: [Method; 5] = [
    Method::SimBet,
    Method::Prophet,
    Method::Pgr,
    Method::GeoComm,
    Method::Per,
];

// ---- tracing wrappers ---------------------------------------------------

/// A [`Router`] that times every hook of the router it wraps.
pub struct TimedRouter<'p, 'r, R: Router + ?Sized> {
    inner: &'r mut R,
    prof: &'p Profiler,
    method: usize,
}

impl<'p, 'r, R: Router + ?Sized> TimedRouter<'p, 'r, R> {
    pub fn new(inner: &'r mut R, prof: &'p Profiler, method: Method) -> Self {
        TimedRouter {
            inner,
            prof,
            method: method_index(method),
        }
    }

    pub fn inner(&self) -> &R {
        self.inner
    }

    fn call(&mut self, hook: usize, f: impl FnOnce(&mut R)) {
        self.prof.enter(profile::hook_slot(self.method, hook));
        f(self.inner);
        self.prof.exit();
    }
}

impl<R: Router + ?Sized> Router for TimedRouter<'_, '_, R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn uses_stations(&self) -> bool {
        self.inner.uses_stations()
    }

    fn on_arrive(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.call(0, |r| r.on_arrive(world, node, lm));
    }

    fn on_depart(&mut self, world: &mut World, node: NodeId, lm: LandmarkId) {
        self.call(1, |r| r.on_depart(world, node, lm));
    }

    fn on_encounter(
        &mut self,
        world: &mut World,
        newcomer: NodeId,
        present: NodeId,
        lm: LandmarkId,
    ) {
        self.call(2, |r| r.on_encounter(world, newcomer, present, lm));
    }

    fn on_packet_generated(&mut self, world: &mut World, pkt: PacketId) {
        self.call(3, |r| r.on_packet_generated(world, pkt));
    }

    fn on_time_unit(&mut self, world: &mut World, unit: u64) {
        self.call(4, |r| r.on_time_unit(world, unit));
    }

    fn on_time_unit_sharded(&mut self, world: &mut World, unit: u64, shards: &Sharding<'_>) {
        self.call(4, |r| r.on_time_unit_sharded(world, unit, shards));
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        self.call(5, |r| r.on_timer(world, token));
    }

    fn on_station_down(&mut self, world: &mut World, lm: LandmarkId) {
        self.call(6, |r| r.on_station_down(world, lm));
    }

    fn on_station_up(&mut self, world: &mut World, lm: LandmarkId) {
        self.call(7, |r| r.on_station_up(world, lm));
    }

    fn on_node_fail(&mut self, world: &mut World, node: NodeId, at: Option<LandmarkId>) {
        self.call(8, |r| r.on_node_fail(world, node, at));
    }

    fn on_node_recover(&mut self, world: &mut World, node: NodeId) {
        self.call(9, |r| r.on_node_recover(world, node));
    }

    fn on_observe(&mut self, world: &mut World, idx: usize) {
        self.call(10, |r| r.on_observe(world, idx));
    }
}

/// A [`TraceSink`] that times every `record` into the sink it wraps.
/// Downcasts reach through to the wrapped sink, so checkpointing and
/// `Recorder::downcast` see the real recorder.
#[derive(Debug)]
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    prof: Rc<Profiler>,
}

impl TimedSink {
    pub fn new(inner: Box<dyn TraceSink>, prof: Rc<Profiler>) -> Self {
        TimedSink { inner, prof }
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, ev: SimEvent) {
        self.prof.enter(profile::OBS_RECORD);
        self.inner.record(ev);
        self.prof.exit();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self.inner.into_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.inner.as_any_mut()
    }
}

// ---- inputs -------------------------------------------------------------

/// One fig11 memory cell: the campus settings at `memory_kb`, rate 500.
pub struct Cell {
    pub memory_kb: u64,
    pub cfg: SimConfig,
    pub workload: Workload,
    pub plan: FaultPlan,
}

/// The campus trace plus the cells run over it.
pub struct Inputs {
    pub trace: Trace,
    pub cells: Vec<Cell>,
}

/// The faults-ckpt fault plan: stations down a fifth of the time, a
/// quarter of a failure per node per day, a tenth of contacts cut short
/// and a tenth of visit records lost. Like the trace, the plan is fixed
/// (drawn from the figure seed) and the workload seed varies only the
/// packets: one cell's outcomes move about 10% between fault draws, far
/// more than between packet workloads.
fn fault_config() -> FaultConfig {
    FaultConfig {
        station_outage_duty: 0.2,
        node_failures_per_day: 0.25,
        contact_truncation_rate: 0.1,
        record_loss_rate: 0.1,
        seed: 0xF11,
        ..FaultConfig::default()
    }
}

/// Synthesise the campus trace and build every cell's workload (and,
/// with `faults`, its fault plan) from `seed`, timing each phase.
pub fn build_inputs(memory_kbs: &[u64], seed: u64, faults: bool, prof: &Profiler) -> Inputs {
    let s = prof.span(profile::SYNTH, Scenario::campus);
    let cells = memory_kbs
        .iter()
        .map(|&memory_kb| {
            let cfg = s.base_cfg.clone().with_memory_kb(memory_kb).with_seed(seed);
            let workload = prof.span(profile::WORKLOAD_GEN, || s.workload(&cfg));
            let plan = if faults {
                prof.span(profile::FAULT_PLAN, || {
                    FaultPlan::generate(&fault_config(), &s.trace)
                })
            } else {
                FaultPlan::none()
            };
            Cell {
                memory_kb,
                cfg,
                workload,
                plan,
            }
        })
        .collect();
    Inputs {
        trace: s.trace,
        cells,
    }
}

/// Events the engine schedules up front for one cell: two per visit, one
/// per generated packet, two per outage, one per unit boundary and one
/// per observation point.
pub fn static_events(trace: &Trace, cell: &Cell) -> u64 {
    let units = trace.duration().secs() / cell.cfg.time_unit.secs().max(1) + 1;
    (2 * trace.visits().len()
        + cell.workload.len()
        + 2 * (cell.plan.station_outages.len() + cell.plan.node_outages.len())
        + cell.cfg.observe_points) as u64
        + units
}

/// The faults-ckpt inputs: the first cell of `inputs` run by DTN-FLOW
/// with graceful degradation on. The remaining fields (one shard, the
/// default dispatch) come from the `tiny` constructor.
pub fn chaos_inputs(inputs: Inputs) -> ChaosInputs {
    let Inputs { trace, mut cells } = inputs;
    let cell = cells.swap_remove(0);
    ChaosInputs {
        trace,
        cfg: cell.cfg,
        flow: FlowConfig::with_degradation(),
        workload: cell.workload,
        plan: cell.plan,
        ..ChaosInputs::tiny(0, FaultPlan::none())
    }
}

// ---- runs ---------------------------------------------------------------

/// What one simulated cell produced.
pub struct CellRun {
    pub art: RunArtifacts,
    pub summary: Summary,
    /// Summed route-cache `(hits, misses)` from the recorder; zero
    /// without a recorder or without an observation point.
    pub route_cache: (u64, u64),
    pub events_dropped: u64,
}

/// The chaos harness's comparable artifacts, plus what the benchmark
/// reports from the outcome.
fn collect(out: SimOutcome) -> CellRun {
    let summary = out.metrics.summary();
    let mut w = Writer::new();
    out.metrics.encode(&mut w);
    w.put_usize(out.packets.len());
    for p in &out.packets {
        p.encode(&mut w);
    }
    let csv_row = format!(
        "{:.3},{:.0},{},{:.0}",
        summary.success_rate,
        summary.average_delay_secs / 60.0,
        summary.forwarding_ops,
        summary.total_cost
    );
    let rec = out.trace.and_then(Recorder::downcast);
    let route_cache = rec.as_ref().map_or((0, 0), |r| {
        r.metrics()
            .route_cache
            .values()
            .fold((0, 0), |(h, m), &(hits, misses)| (h + hits, m + misses))
    });
    let events_dropped = rec.as_ref().map_or(0, Recorder::dropped);
    let obs_json = rec
        .map(|r| chaos::canonicalize_obs(r.snapshot()).to_json())
        .unwrap_or_default();
    let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
    CellRun {
        art: RunArtifacts {
            state: w.into_bytes(),
            csv_row,
            obs_json,
            generated: out.metrics.generated,
            delivered: out.metrics.delivered,
            expired: out.metrics.expired,
            lost_outage: out.metrics.lost_to_outage,
            lost_churn: out.metrics.lost_to_churn,
            live,
        },
        summary,
        route_cache,
        events_dropped,
    }
}

fn start<'a, R: Router + ?Sized>(
    trace: &Trace,
    cell: &Cell,
    router: &'a mut R,
    sink: Option<Box<dyn TraceSink>>,
    shards: usize,
    prof: &Profiler,
) -> SimSession<'a, R> {
    prof.span(profile::SESSION_START, move || {
        SimSession::start_sharded(
            trace,
            &cell.cfg,
            &cell.workload,
            &cell.plan,
            router,
            sink,
            ShardPlan::contiguous(trace.num_landmarks(), shards),
            ShardExec::new(shards),
        )
    })
}

fn drive<R: Router + ?Sized>(
    trace: &Trace,
    cell: &Cell,
    router: &mut R,
    shards: usize,
    prof: &Profiler,
) -> CellRun {
    let mut session = start(trace, cell, router, None, shards, prof);
    prof.span(profile::ENGINE, || session.run_to_end());
    let out = prof.span(profile::FINISH, || session.finish());
    prof.span(profile::COLLECT, || collect(out))
}

/// Simulate one fault-free cell with `method` on `shards` shard workers,
/// with no sink attached. With `traced`, every router hook is timed.
pub fn run_cell(
    trace: &Trace,
    cell: &Cell,
    method: Method,
    shards: usize,
    prof: &Profiler,
    traced: bool,
) -> CellRun {
    let mut router = method.build(trace.num_nodes(), trace.num_landmarks());
    if traced {
        let mut timed = TimedRouter::new(router.as_mut(), prof, method);
        drive(trace, cell, &mut timed, shards, prof)
    } else {
        drive(trace, cell, router.as_mut(), shards, prof)
    }
}

/// Start (and drop) the 1-shard session [`run_cell`] would run: set-up
/// only.
pub fn start_cell(trace: &Trace, cell: &Cell, method: Method, prof: &Profiler) {
    let mut router = method.build(trace.num_nodes(), trace.num_landmarks());
    drop(start(trace, cell, router.as_mut(), None, 1, prof));
}

/// Start (and drop) the faults-ckpt session: set-up only.
pub fn start_faults(inp: &ChaosInputs, prof: &Profiler) {
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let sink: Box<dyn TraceSink> = Box::new(Recorder::new(DEFAULT_RING_CAPACITY));
    prof.span(profile::SESSION_START, || {
        drop(SimSession::start(
            &inp.trace,
            &inp.cfg,
            &inp.workload,
            &inp.plan,
            &mut router,
            Some(sink),
        ))
    });
}

/// Route-cache `(hits, misses)` of a DTN-FLOW run over `inputs`' first
/// cell (with graceful degradation when `degradation`). The router
/// reports its cache counters to the recorder only at observation points,
/// so this extra run adds one at the end of the trace and a recorder; it
/// is never timed.
pub fn route_cache_counters(inputs: &Inputs, degradation: bool) -> (u64, u64) {
    let (trace, cell) = (&inputs.trace, &inputs.cells[0]);
    let cfg = SimConfig {
        observe_points: 1,
        ..cell.cfg.clone()
    };
    let flow = if degradation {
        FlowConfig::with_degradation()
    } else {
        FlowConfig::default()
    };
    let mut router = FlowRouter::new(flow, trace.num_nodes(), trace.num_landmarks());
    let sink: Box<dyn TraceSink> = Box::new(Recorder::new(1));
    let mut session = SimSession::start(
        trace,
        &cfg,
        &cell.workload,
        &cell.plan,
        &mut router,
        Some(sink),
    );
    session.run_to_end();
    collect(session.finish()).route_cache
}

// ---- faults + checkpoints ------------------------------------------------

/// What one faults-ckpt pass produced.
pub struct FaultsRun {
    /// The straight lineage, checkpointed at every unit boundary.
    pub straight: CellRun,
    /// The lineage resumed from the mid-run snapshot.
    pub restored: RunArtifacts,
    /// Size of every snapshot taken, in unit order.
    pub snapshot_bytes: Vec<u64>,
    /// The mid-run snapshot the restored lineage started from.
    pub mid: Vec<u8>,
    /// Static events dispatched before the mid-run snapshot, read from
    /// its engine cursor.
    pub dispatched_at_mid: u64,
}

/// The engine cursor (static events already dispatched) of a snapshot.
fn dispatched_before(snapshot: &[u8]) -> Result<u64, SnapshotError> {
    let file = SnapshotFile::parse(snapshot)?;
    let mut r = Reader::new(&file.section("engine")?.payload);
    r.u64("perfbench.engine_cursor")
}

fn mid_unit(inp: &ChaosInputs) -> u64 {
    (inp.max_unit() / 2).max(1)
}

/// Run `inp` to the end, checkpointing at every unit boundary; keep the
/// snapshot taken at the mid-run unit.
fn straight_lineage<R: Router + ?Sized>(
    inp: &ChaosInputs,
    router: &mut R,
    sink: Box<dyn TraceSink>,
    prof: &Profiler,
    mut checkpoint: impl FnMut(&mut SimSession<'_, R>, u64) -> Vec<u8>,
) -> (CellRun, Vec<u64>, Vec<u8>) {
    let mut session = prof.span(profile::SESSION_START, move || {
        SimSession::start(
            &inp.trace,
            &inp.cfg,
            &inp.workload,
            &inp.plan,
            router,
            Some(sink),
        )
    });
    let mut sizes = Vec::new();
    let mut mid = Vec::new();
    for unit in 1..inp.max_unit() {
        if !prof.span(profile::ENGINE, || session.run_to_unit(unit)) {
            break;
        }
        let bytes = prof.span(profile::SNAPSHOT_ENCODE, || checkpoint(&mut session, unit));
        sizes.push(bytes.len() as u64);
        if unit == mid_unit(inp) {
            mid = bytes;
        }
    }
    prof.span(profile::ENGINE, || session.run_to_end());
    let out = prof.span(profile::FINISH, || session.finish());
    (prof.span(profile::COLLECT, || collect(out)), sizes, mid)
}

/// The faults-ckpt pass through `chaos` itself: checkpoints by
/// `chaos::checkpoint`, the restored lineage by `chaos::run_segment`.
pub fn run_faults(inp: &ChaosInputs, prof: &Profiler) -> Result<FaultsRun, SnapshotError> {
    let mut router = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let sink: Box<dyn TraceSink> = Box::new(Recorder::new(DEFAULT_RING_CAPACITY));
    let (straight, snapshot_bytes, mid) =
        straight_lineage(inp, &mut router, sink, prof, |s, unit| {
            chaos::checkpoint(s, inp, unit)
        });
    // Untraced, the whole resumed lineage (restore included) is one
    // engine span; only the traced pass splits restore from replay.
    let segment = prof.span(profile::ENGINE, || {
        chaos::run_segment(inp, Some(&mid), None)
    });
    let restored = match segment? {
        SegmentEnd::Finished(art) => *art,
        SegmentEnd::Paused(_) => {
            return Err(SnapshotError::Corrupt {
                context: "perfbench: restored lineage paused",
            })
        }
    };
    Ok(FaultsRun {
        straight,
        restored,
        snapshot_bytes,
        dispatched_at_mid: dispatched_before(&mid)?,
        mid,
    })
}

/// The fingerprint section `chaos::checkpoint` writes.
fn encode_meta(inp: &ChaosInputs, unit: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(inp.trace.num_nodes());
    w.put_usize(inp.trace.num_landmarks());
    w.put_u64(inp.trace.duration().secs());
    w.put_u64(inp.cfg.seed);
    w.put_u64(inp.cfg.time_unit.secs());
    w.put_usize(inp.workload.len());
    w.put_usize(inp.plan.station_outages.len());
    w.put_usize(inp.plan.node_outages.len());
    w.put_usize(inp.plan.truncations.len());
    w.put_usize(inp.plan.lost_records.len());
    w.put_u64(unit);
    w.into_bytes()
}

type TimedFlow<'p, 'r> = TimedRouter<'p, 'r, FlowRouter>;

/// `chaos::checkpoint` for a session whose router is wrapped: the same
/// sections in the same order, so the bytes are identical (the traced
/// run compares them against the untraced run's).
fn checkpoint_timed(
    session: &mut SimSession<'_, TimedFlow<'_, '_>>,
    inp: &ChaosInputs,
    unit: u64,
) -> Vec<u8> {
    let mut builder = SnapshotBuilder::new();
    builder.add_section("meta", 1, encode_meta(inp, unit));
    let mut w = Writer::new();
    session.encode_engine(&mut w);
    builder.add_section("engine", 1, w.into_bytes());
    let mut w = Writer::new();
    session.encode_world(&mut w);
    builder.add_section("world", 1, w.into_bytes());
    let mut w = Writer::new();
    session.router().inner().save_state(&mut w);
    builder.add_section("router", 1, w.into_bytes());
    let bytes = builder.payload_len() as u64;
    session.emit(|at| SimEvent::CheckpointWritten { at, unit, bytes });
    let mut w = Writer::new();
    if session.encode_recorder(&mut w) {
        builder.add_section("obs", 1, w.into_bytes());
    }
    builder.finish()
}

/// `chaos::run_segment`'s restore for a wrapped router and sink, then
/// the resumed lineage to the end.
fn resume_timed(
    inp: &ChaosInputs,
    snapshot: &[u8],
    unit: u64,
    prof: &Rc<Profiler>,
) -> Result<CellRun, SnapshotError> {
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    let restored = prof.span(profile::SNAPSHOT_RESTORE, || {
        let file = SnapshotFile::parse(snapshot)?;
        validate_schema(&file, &chaos::SECTIONS)?;
        let mut rr = Reader::new(&file.section("router")?.payload);
        let router = FlowRouter::restore_state(&mut rr, inp.flow.clone(), n, l)?;
        rr.finish("router")?;
        let mut or = Reader::new(&file.section("obs")?.payload);
        let rec = Recorder::decode(&mut or)?;
        or.finish("obs")?;
        Ok::<_, SnapshotError>((file, router, rec))
    });
    let (file, mut flow, rec) = restored?;
    let mut timed = TimedRouter::new(&mut flow, prof, Method::Flow);
    let sink: Box<dyn TraceSink> = Box::new(TimedSink::new(Box::new(rec), prof.clone()));
    let timed_ref = &mut timed;
    let session = prof.span(profile::SNAPSHOT_RESTORE, move || {
        let mut er = Reader::new(&file.section("engine")?.payload);
        let mut wr = Reader::new(&file.section("world")?.payload);
        let s = SimSession::resume(
            &inp.trace,
            &inp.cfg,
            &inp.workload,
            &inp.plan,
            timed_ref,
            Some(sink),
            &mut er,
            &mut wr,
        )?;
        er.finish("engine")?;
        wr.finish("world")?;
        Ok::<_, SnapshotError>(s)
    });
    let mut session = session?;
    let bytes = snapshot.len() as u64;
    session.emit(|at| SimEvent::Restored { at, unit, bytes });
    prof.span(profile::ENGINE, || session.run_to_end());
    let out = prof.span(profile::FINISH, || session.finish());
    Ok(prof.span(profile::COLLECT, || collect(out)))
}

/// The faults-ckpt pass with the router and recorder wrapped: the same
/// checkpoints and restore as [`run_faults`], rebuilt from the public
/// pieces `chaos` composes, because `chaos` takes the bare router.
pub fn run_faults_traced(
    inp: &ChaosInputs,
    prof: &Rc<Profiler>,
) -> Result<FaultsRun, SnapshotError> {
    let mut flow = FlowRouter::new(
        inp.flow.clone(),
        inp.trace.num_nodes(),
        inp.trace.num_landmarks(),
    );
    let mut timed = TimedRouter::new(&mut flow, prof, Method::Flow);
    let rec: Box<dyn TraceSink> = Box::new(Recorder::new(DEFAULT_RING_CAPACITY));
    let sink: Box<dyn TraceSink> = Box::new(TimedSink::new(rec, prof.clone()));
    let (straight, snapshot_bytes, mid) =
        straight_lineage(inp, &mut timed, sink, prof, |s, unit| {
            checkpoint_timed(s, inp, unit)
        });
    let restored = resume_timed(inp, &mid, mid_unit(inp), prof)?.art;
    Ok(FaultsRun {
        straight,
        restored,
        snapshot_bytes,
        dispatched_at_mid: dispatched_before(&mid)?,
        mid,
    })
}
