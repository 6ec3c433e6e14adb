//! Crash-consistent checkpoint/restore harness and the chaos-recovery
//! sweep behind the `chaos` binary (DESIGN.md §11).
//!
//! A chaos case simulates a process being killed at seeded time-unit
//! boundaries: the run is driven to a boundary with
//! [`SimSession::run_to_unit`], a snapshot is taken with [`checkpoint`],
//! *everything* in-memory is dropped (the segment function returns), and
//! a fresh "process" resumes from the snapshot bytes alone via
//! [`run_segment`]. A run killed and restored any number of times must
//! produce byte-identical metrics, packets and experiment CSV cells to
//! one that never stopped, and — after stripping the checkpoint
//! bookkeeping events that only the restored lineage sees — a
//! byte-identical observability report too.
//!
//! Only the DTN-FLOW router is checkpointable (the baselines carry no
//! snapshot codec), so every chaos case runs [`FlowRouter`].

use crate::runners::Method;
use crate::scenarios::Scenario;
use crate::timing::Stopwatch;
use dtnflow_core::config::SimConfig;
use dtnflow_mobility::Trace;
use dtnflow_obs::json::Value;
use dtnflow_obs::{BenchHost, Recorder, SimEvent, Snapshot, DEFAULT_RING_CAPACITY};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{FaultConfig, FaultPlan, ShardExec, ShardPlan, SimOutcome, SimSession, Workload};
use dtnflow_snapshot::{
    validate_schema, Codec, Reader, SchemaSection, SnapshotBuilder, SnapshotError, SnapshotFile,
    Writer,
};

/// JSON schema tag for `BENCH_chaos.json`.
pub const SCHEMA: &str = "dtnflow-chaos-bench-v2";

/// The section layout of a chaos checkpoint container: run fingerprint,
/// engine cursor, world state, router state, flight recorder.
pub const SECTIONS: [SchemaSection; 5] = [
    SchemaSection {
        name: "meta",
        version: 1,
    },
    SchemaSection {
        name: "engine",
        version: 1,
    },
    SchemaSection {
        name: "world",
        version: 1,
    },
    SchemaSection {
        name: "router",
        version: 1,
    },
    SchemaSection {
        name: "obs",
        version: 1,
    },
];

/// Everything a chaos run needs; owning the inputs keeps segment
/// lifetimes trivial (each simulated process borrows them afresh).
pub struct ChaosInputs {
    pub trace: Trace,
    pub cfg: SimConfig,
    pub flow: FlowConfig,
    pub workload: Workload,
    pub plan: FaultPlan,
    /// Shard count for the DESIGN.md §13 runtime. Deliberately absent
    /// from the checkpoint meta fingerprint: snapshots are
    /// shard-count-agnostic, so a run checkpointed under one shard
    /// count restores under any other byte-identically (the
    /// `chaos_recovery` suite proves it).
    pub shards: usize,
}

impl ChaosInputs {
    /// One fig11 campus cell (memory sweep, seed `0xF11`) under an
    /// optional fault plan.
    pub fn fig11_cell(memory_kb: u64, plan: FaultPlan) -> ChaosInputs {
        let s = Scenario::campus();
        let cfg = s
            .base_cfg
            .clone()
            .with_memory_kb(memory_kb)
            .with_seed(0xF11);
        let workload = s.workload(&cfg);
        ChaosInputs {
            trace: s.trace,
            cfg,
            flow: FlowConfig::default(),
            workload,
            plan,
            shards: 1,
        }
    }

    /// The same inputs under an `n`-shard runtime.
    pub fn with_shards(self, n: usize) -> ChaosInputs {
        ChaosInputs { shards: n, ..self }
    }

    /// Number of whole time units in the run (kill points live strictly
    /// inside `1..max_unit`).
    pub fn max_unit(&self) -> u64 {
        self.trace.duration().secs() / self.cfg.time_unit.secs().max(1)
    }

    /// A hand-built 4-node / 3-landmark cell that finishes in
    /// milliseconds even in debug builds, for tier-1 recovery tests.
    /// Nodes rotate through the landmarks on staggered daily schedules,
    /// so packets really transit between stations via carriers.
    pub fn tiny(seed: u64, plan: FaultPlan) -> ChaosInputs {
        use dtnflow_core::geometry::Point;
        use dtnflow_core::ids::{LandmarkId, NodeId};
        use dtnflow_core::time::{SimTime, DAY};
        use dtnflow_mobility::Visit;

        const DAYS: u64 = 20;
        let mut visits = Vec::new();
        for d in 0..DAYS {
            let base = d * 86_400;
            for n in 0..4u32 {
                let lm = LandmarkId(((d + n as u64) % 3) as u16);
                let start = base + 2_000 + n as u64 * 3_600;
                visits.push(Visit::new(
                    NodeId(n),
                    lm,
                    SimTime(start),
                    SimTime(start + 5_400),
                ));
            }
        }
        let trace = Trace::new(
            "chaos-tiny",
            4,
            3,
            vec![
                Point::new(0.0, 0.0),
                Point::new(1_000.0, 0.0),
                Point::new(0.0, 1_000.0),
            ],
            visits,
        )
        .expect("tiny trace is well-formed");
        let cfg = SimConfig {
            packets_per_landmark_per_day: 6.0,
            ttl: DAY.mul(3),
            time_unit: DAY,
            seed,
            ..SimConfig::default()
        };
        let workload = Workload::uniform(&cfg, trace.num_landmarks(), trace.duration());
        ChaosInputs {
            trace,
            cfg,
            flow: FlowConfig::default(),
            workload,
            plan,
            shards: 1,
        }
    }
}

/// The comparable residue of one finished run. Two runs are
/// indistinguishable exactly when all three artifacts are byte-equal.
pub struct RunArtifacts {
    /// Canonical encoding of the outcome: `RunMetrics` plus every packet.
    pub state: Vec<u8>,
    /// The four fig11-format CSV cells (success, delay, fwd ops, total).
    pub csv_row: String,
    /// Canonicalized observability snapshot JSON (checkpoint bookkeeping
    /// events stripped; see [`canonicalize_obs`]).
    pub obs_json: String,
    pub generated: u64,
    pub delivered: u64,
    pub expired: u64,
    pub lost_outage: u64,
    pub lost_churn: u64,
    pub live: u64,
}

impl RunArtifacts {
    /// Packet conservation: every generated packet is delivered, expired,
    /// destroyed by a fault, or still live at the end — never lost track
    /// of by a kill/restore cycle.
    pub fn conservation_holds(&self) -> bool {
        self.generated
            == self.delivered + self.expired + self.lost_outage + self.lost_churn + self.live
    }

    /// All three comparable artifacts byte-equal.
    pub fn matches(&self, other: &RunArtifacts) -> bool {
        self.state == other.state
            && self.csv_row == other.csv_row
            && self.obs_json == other.obs_json
    }
}

/// Strip the `checkpoint_written` / `restored` bookkeeping events a
/// restored lineage records (and an uninterrupted one does not) so the
/// two lineages' reports can be compared byte-for-byte. The ring only
/// ever drops oldest events once full, so the dropped count is a pure
/// function of the adjusted recorded count.
pub fn canonicalize_obs(mut s: Snapshot) -> Snapshot {
    let mut stripped = 0u64;
    s.event_counts.retain(|(kind, count)| {
        if kind == "checkpoint_written" || kind == "restored" {
            stripped += *count;
            false
        } else {
            true
        }
    });
    s.events_recorded = s.events_recorded.saturating_sub(stripped);
    s.events_dropped = s.events_recorded.saturating_sub(s.ring_capacity);
    s
}

/// The run fingerprint a checkpoint's `meta` section carries, in wire
/// order; the paused unit follows it.
fn fingerprint(inp: &ChaosInputs) -> [(&'static str, u64); 10] {
    [
        ("num_nodes", inp.trace.num_nodes() as u64),
        ("num_landmarks", inp.trace.num_landmarks() as u64),
        ("duration_secs", inp.trace.duration().secs()),
        ("seed", inp.cfg.seed),
        ("time_unit_secs", inp.cfg.time_unit.secs()),
        ("workload_len", inp.workload.len() as u64),
        ("station_outages", inp.plan.station_outages.len() as u64),
        ("node_outages", inp.plan.node_outages.len() as u64),
        ("truncations", inp.plan.truncations.len() as u64),
        ("lost_records", inp.plan.lost_records.len() as u64),
    ]
}

fn encode_meta(inp: &ChaosInputs, unit: u64) -> Vec<u8> {
    let mut w = Writer::new();
    fingerprint(inp).map(|(_, v)| v).encode(&mut w);
    unit.encode(&mut w);
    w.into_bytes()
}

/// Validate the snapshot fingerprint against the run inputs and return
/// the unit the checkpoint was taken at.
fn check_meta(r: &mut Reader<'_>, inp: &ChaosInputs) -> Result<u64, SnapshotError> {
    for (name, expected) in fingerprint(inp) {
        let found = u64::decode(r)?;
        if found != expected {
            return Err(SnapshotError::Mismatch {
                context: format!("chaos.meta.{name}: snapshot has {found}, run has {expected}"),
            });
        }
    }
    u64::decode(r)
}

/// Snapshot a session paused at the boundary of `unit`. The
/// `CheckpointWritten` event (sized as the meta/engine/world/router
/// state payload) is emitted before the recorder itself is encoded, so
/// it lands inside the snapshot and the paused lineage's own sink
/// identically.
pub fn checkpoint(
    session: &mut SimSession<'_, FlowRouter>,
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
    session.router().save_state(&mut w);
    builder.add_section("router", 1, w.into_bytes());
    let state_bytes = builder.payload_len() as u64;
    session.emit(|at| SimEvent::CheckpointWritten {
        at,
        unit,
        bytes: state_bytes,
    });
    let mut w = Writer::new();
    if session.encode_recorder(&mut w) {
        builder.add_section("obs", 1, w.into_bytes());
    }
    builder.finish()
}

/// How one simulated process lifetime ended.
pub enum SegmentEnd {
    /// Killed at a unit boundary; these bytes are all that survives.
    Paused(Vec<u8>),
    /// Ran to completion.
    Finished(Box<RunArtifacts>),
}

/// Restore a parsed checkpoint without simulating: the schema, the run
/// fingerprint, the router section (placed in `router`), the flight
/// recorder, then the engine and world sections through
/// [`SimSession::resume_sharded`]. Returns the paused session and the
/// unit the checkpoint was taken at.
pub fn resume<'a>(
    inp: &ChaosInputs,
    file: &SnapshotFile,
    router: &'a mut Option<FlowRouter>,
) -> Result<(SimSession<'a, FlowRouter>, u64), SnapshotError> {
    validate_schema(file, &SECTIONS)?;
    let section = |name| Ok::<_, SnapshotError>(Reader::new(&file.section(name)?.payload));
    let mut mr = section("meta")?;
    let unit = check_meta(&mut mr, inp)?;
    mr.finish("meta")?;
    let mut rr = section("router")?;
    let (nodes, landmarks) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    let restored = FlowRouter::restore_state(&mut rr, inp.flow.clone(), nodes, landmarks)?;
    rr.finish("router")?;
    let mut or = section("obs")?;
    let rec = Recorder::decode(&mut or)?;
    or.finish("obs")?;
    let (mut er, mut wr) = (section("engine")?, section("world")?);
    let session = SimSession::resume_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        router.insert(restored),
        Some(Box::new(rec)),
        &mut er,
        &mut wr,
        ShardPlan::contiguous(landmarks, inp.shards),
        ShardExec::new(inp.shards),
    )?;
    er.finish("engine")?;
    wr.finish("world")?;
    Ok((session, unit))
}

/// One simulated process lifetime: start fresh (`snapshot: None`) or
/// restore from snapshot bytes, then run to the `kill_at` unit boundary
/// (checkpointing there) or to completion. Nothing but the returned
/// snapshot bytes outlives a kill.
pub fn run_segment(
    inp: &ChaosInputs,
    snapshot: Option<&[u8]>,
    kill_at: Option<u64>,
) -> Result<SegmentEnd, SnapshotError> {
    let mut router = None;
    let mut session = match snapshot {
        None => {
            let fresh = FlowRouter::new(
                inp.flow.clone(),
                inp.trace.num_nodes(),
                inp.trace.num_landmarks(),
            );
            SimSession::start_sharded(
                &inp.trace,
                &inp.cfg,
                &inp.workload,
                &inp.plan,
                router.insert(fresh),
                Some(Box::new(Recorder::new(DEFAULT_RING_CAPACITY))),
                ShardPlan::contiguous(inp.trace.num_landmarks(), inp.shards),
                ShardExec::new(inp.shards),
            )
        }
        Some(bytes) => {
            let (mut session, unit) = resume(inp, &SnapshotFile::parse(bytes)?, &mut router)?;
            let total = bytes.len() as u64;
            session.emit(|at| SimEvent::Restored {
                at,
                unit,
                bytes: total,
            });
            session
        }
    };
    match kill_at {
        Some(unit) => {
            if session.run_to_unit(unit) {
                let bytes = checkpoint(&mut session, inp, unit);
                Ok(SegmentEnd::Paused(bytes))
            } else {
                Ok(SegmentEnd::Finished(Box::new(collect(session.finish()))))
            }
        }
        None => {
            session.run_to_end();
            Ok(SegmentEnd::Finished(Box::new(collect(session.finish()))))
        }
    }
}

/// Run straight through, never killed. The chaotic lineages are compared
/// against this.
pub fn run_straight(inp: &ChaosInputs) -> Result<RunArtifacts, SnapshotError> {
    match run_segment(inp, None, None)? {
        SegmentEnd::Finished(art) => Ok(*art),
        SegmentEnd::Paused(_) => Err(SnapshotError::Corrupt {
            context: "chaos: straight run paused",
        }),
    }
}

/// Kill the run at each unit in `kills` (ascending; repeats re-kill the
/// freshly restored process at the same boundary), restoring from the
/// snapshot alone each time, then run the survivor to completion.
/// Returns the final artifacts plus the size of every snapshot taken.
pub fn run_with_kills(
    inp: &ChaosInputs,
    kills: &[u64],
) -> Result<(RunArtifacts, Vec<u64>), SnapshotError> {
    let mut snap: Option<Vec<u8>> = None;
    let mut sizes = Vec::with_capacity(kills.len());
    for &unit in kills {
        match run_segment(inp, snap.as_deref(), Some(unit))? {
            SegmentEnd::Paused(bytes) => {
                sizes.push(bytes.len() as u64);
                snap = Some(bytes);
            }
            // The run ended before this kill point; the schedule is done.
            SegmentEnd::Finished(art) => return Ok((*art, sizes)),
        }
    }
    match run_segment(inp, snap.as_deref(), None)? {
        SegmentEnd::Finished(art) => Ok((*art, sizes)),
        SegmentEnd::Paused(_) => Err(SnapshotError::Corrupt {
            context: "chaos: final segment paused",
        }),
    }
}

fn collect(out: SimOutcome) -> RunArtifacts {
    let mut w = Writer::new();
    out.metrics.encode(&mut w);
    out.packets.encode(&mut w);
    let summary = out.metrics.summary();
    let csv_row = format!(
        "{:.3},{:.0},{},{:.0}",
        summary.success_rate,
        summary.average_delay_secs / 60.0,
        summary.forwarding_ops,
        summary.total_cost
    );
    let obs_json = out
        .trace
        .and_then(Recorder::downcast)
        .map(|r| canonicalize_obs(r.snapshot()).to_json())
        .unwrap_or_default();
    let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
    RunArtifacts {
        state: w.into_bytes(),
        csv_row,
        obs_json,
        generated: out.metrics.generated,
        delivered: out.metrics.delivered,
        expired: out.metrics.expired,
        lost_outage: out.metrics.lost_to_outage,
        lost_churn: out.metrics.lost_to_churn,
        live,
    }
}

/// Deterministic 64-bit LCG for drawing kill units; the sweep must not
/// depend on ambient randomness (detlint D-rules).
struct Lcg(u64);

impl Lcg {
    fn next_below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n.max(1)
    }
}

/// A station-outage fault plan whose outages are long enough to span
/// time-unit boundaries, so a kill can land inside one.
pub fn outage_plan(inp_trace: &Trace, unit_secs: u64, seed: u64) -> FaultPlan {
    let cfg = FaultConfig {
        station_outage_duty: 0.25,
        // Two units per outage on average: boundaries fall inside them.
        mean_outage_secs: (2 * unit_secs) as f64,
        seed,
        ..FaultConfig::default()
    };
    FaultPlan::generate(&cfg, inp_trace)
}

/// The first unit boundary strictly inside a station outage (the
/// crash-during-outage case), if any outage spans one.
pub fn boundary_inside_outage(plan: &FaultPlan, unit_secs: u64, max_unit: u64) -> Option<u64> {
    for o in &plan.station_outages {
        let first = o.down.secs() / unit_secs + 1;
        for u in first..=(o.up.secs().saturating_sub(1) / unit_secs) {
            if u >= 1 && u < max_unit {
                return Some(u);
            }
        }
    }
    None
}

/// One chaos case's verdict, as written to `BENCH_chaos.json`.
pub struct CaseResult {
    pub id: String,
    pub kills: Vec<u64>,
    pub snapshot_bytes: Vec<u64>,
    pub matched: bool,
    pub conservation: bool,
    pub wall_secs: f64,
}

fn run_case(
    id: &str,
    inp: &ChaosInputs,
    straight: &RunArtifacts,
    kills: &[u64],
) -> Result<CaseResult, SnapshotError> {
    let sw = Stopwatch::start();
    let (chaotic, snapshot_bytes) = run_with_kills(inp, kills)?;
    Ok(CaseResult {
        id: id.to_owned(),
        kills: kills.to_vec(),
        snapshot_bytes,
        matched: chaotic.matches(straight),
        conservation: chaotic.conservation_holds() && straight.conservation_holds(),
        wall_secs: sw.elapsed_secs(),
    })
}

/// The chaos-recovery sweep: seeded kill schedules over a fig11 campus
/// cell, one fault-free and one with station outages (including a kill
/// inside an outage window). Every case demands byte-identical artifacts
/// and packet conservation.
pub fn sweep(quick: bool, seed: u64) -> Result<Vec<CaseResult>, SnapshotError> {
    let memory_kbs: &[u64] = if quick {
        &[2_000]
    } else {
        &[1_200, 2_000, 3_000]
    };
    let mut lcg = Lcg(seed ^ 0xC4A0_5EED);
    let mut results = Vec::new();

    for &kb in memory_kbs {
        let inp = ChaosInputs::fig11_cell(kb, FaultPlan::none());
        let m = inp.max_unit();
        let straight = run_straight(&inp)?;
        let jitter = |lcg: &mut Lcg| lcg.next_below(m / 8 + 1);
        let early = (m / 4 + jitter(&mut lcg)).clamp(1, m - 1);
        let late = (3 * m / 4 + jitter(&mut lcg)).clamp(1, m - 1);
        let mid = (m / 2 + jitter(&mut lcg)).clamp(1, m - 1);
        let schedules: [(&str, Vec<u64>); 3] = [
            ("early-kill", vec![early]),
            ("late-kill", vec![late]),
            // Re-kill the restored process at the same boundary, then
            // again later: checkpoints of checkpoints must compose.
            (
                "double-kill-chain",
                vec![early.min(mid), early.min(mid), mid.max(early)],
            ),
        ];
        for (name, kills) in schedules {
            results.push(run_case(
                &format!("{kb}kB/{name}"),
                &inp,
                &straight,
                &kills,
            )?);
        }
    }

    // Crash-during-outage: the kill lands at a boundary inside a station
    // outage (overlapping the PR 1 fault plans).
    let kb = memory_kbs[0];
    let base = ChaosInputs::fig11_cell(kb, FaultPlan::none());
    let unit_secs = base.cfg.time_unit.secs();
    let plan = outage_plan(&base.trace, unit_secs, seed);
    let inp = ChaosInputs { plan, ..base };
    let m = inp.max_unit();
    let kill = boundary_inside_outage(&inp.plan, unit_secs, m).ok_or(SnapshotError::Corrupt {
        context: "chaos: no unit boundary inside any station outage",
    })?;
    let straight = run_straight(&inp)?;
    results.push(run_case(
        &format!("{kb}kB/outage-overlap-kill"),
        &inp,
        &straight,
        &[kill],
    )?);

    Ok(results)
}

/// Render sweep results as the `BENCH_chaos.json` document, stamped
/// with the measuring `host`.
pub fn results_json(
    mode: &str,
    host: &BenchHost,
    method: Method,
    results: &[CaseResult],
) -> String {
    Value::object([
        ("schema".to_owned(), Value::str(SCHEMA)),
        ("mode".to_owned(), Value::str(mode)),
        ("host".to_owned(), host.to_json_value()),
        ("method".to_owned(), Value::str(method.name())),
        (
            "cases".to_owned(),
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::object([
                            ("id".to_owned(), Value::str(&r.id)),
                            (
                                "kills".to_owned(),
                                Value::Array(r.kills.iter().map(|&u| Value::int(u)).collect()),
                            ),
                            (
                                "snapshot_bytes".to_owned(),
                                Value::Array(
                                    r.snapshot_bytes.iter().map(|&b| Value::int(b)).collect(),
                                ),
                            ),
                            ("matched".to_owned(), Value::Bool(r.matched)),
                            ("conservation".to_owned(), Value::Bool(r.conservation)),
                            ("wall_secs".to_owned(), Value::Number(r.wall_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}
