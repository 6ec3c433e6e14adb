//! The three workloads: what one round runs, how it is checked, and the
//! numbers an untraced or a traced run reports.

use crate::adapter::{self, CellRun, FaultsRun, Method, Summary};
use crate::profile::{self, Clock, Profiler, FIXED_LAYERS, HOOKS};
use crate::reference;
use dtnflow_bench::timing::Stopwatch;
use std::rc::Rc;

/// The figure seed the committed fig11 goldens were made with.
pub const DEFAULT_SEED: u64 = 0xF11;

/// The fig11 memory cells each round runs (kB). One cell keeps a round
/// short enough that a run holds several rounds, so medians are steady.
pub const CELLS: [u64; 1] = [2_000];

/// Set-up is measured this many times before the timed rounds, which
/// add one sample each; `setup_s` is the median of them all.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Flow,
    Baselines,
    FaultsCkpt,
}

pub const WORKLOADS: [(&str, Workload); 3] = [
    ("fig11-flow", Workload::Flow),
    ("fig11-baselines", Workload::Baselines),
    ("fig11-flow-faults-ckpt", Workload::FaultsCkpt),
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn methods(self) -> &'static [Method] {
        match self {
            Workload::Baselines => &adapter::BASELINES,
            _ => &[Method::Flow],
        }
    }
}

// ---- correctness --------------------------------------------------------

const GOLDENS: [&str; 4] = [
    include_str!("../../crates/bench/tests/goldens/fig11a_quick.csv"),
    include_str!("../../crates/bench/tests/goldens/fig11b_quick.csv"),
    include_str!("../../crates/bench/tests/goldens/fig11c_quick.csv"),
    include_str!("../../crates/bench/tests/goldens/fig11d_quick.csv"),
];

/// The golden fig11-format row (success, delay, forwarding ops, total
/// cost) of `method` at `memory_kb`, joined from the four panels.
fn golden_row(method: Method, memory_kb: u64) -> Option<String> {
    let cells: Option<Vec<String>> = GOLDENS
        .iter()
        .map(|table| {
            let mut lines = table.lines();
            let col = lines.next()?.split(',').position(|h| h == method.name())?;
            let row = lines.find(|l| l.split(',').next() == Some(&memory_kb.to_string()))?;
            row.split(',').nth(col).map(str::to_owned)
        })
        .collect();
    cells.map(|c| c.join(","))
}

/// Operations attempted and failed, with the reasons for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; it fails if any of `problems` is listed.
    fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAIL {what}: {p}");
            }
        }
    }
}

/// Conservation, plus the golden row under the figure seed.
fn cell_problems(run: &CellRun, method: Method, memory_kb: u64, seed: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if !run.art.conservation_holds() {
        bad.push("packet conservation broken".to_owned());
    }
    if seed == DEFAULT_SEED {
        match golden_row(method, memory_kb) {
            Some(want) if want == run.art.csv_row => {}
            Some(want) => bad.push(format!("row {} != golden {want}", run.art.csv_row)),
            None => bad.push("no golden row".to_owned()),
        }
    }
    bad
}

// ---- rounds -------------------------------------------------------------

/// One cell run of a round.
pub struct Ran {
    pub method: Method,
    pub memory_kb: u64,
    pub run: CellRun,
}

/// Everything one round produced; times are on the round's clock.
pub struct Round {
    pub prof: Rc<Profiler>,
    /// Whole round, set-up included.
    pub total_s: f64,
    pub setup_s: f64,
    /// Simulation time: the round minus set-up and the benchmark's own
    /// outcome encoding.
    pub sim_s: f64,
    pub cells: Vec<Ran>,
    pub faults: Option<FaultsRun>,
    /// Static events of every cell run (for faults-ckpt, of one lineage).
    pub static_events: u64,
}

fn setup_of(prof: &Profiler) -> f64 {
    profile::SETUP.iter().map(|&s| prof.busy(s)).sum()
}

/// Run `w` once over [`CELLS`] with inputs from `seed`, timed on `clock`.
fn round(w: Workload, seed: u64, shards: usize, traced: bool, clock: Clock) -> Round {
    let prof = Rc::new(Profiler::new(Method::ALL.len(), clock));
    let t0 = prof.now();
    let mut cells = Vec::new();
    let mut faults = None;
    let mut static_events = 0;
    if w == Workload::FaultsCkpt {
        let inputs = adapter::build_inputs(&CELLS, seed, true, &prof);
        static_events = adapter::static_events(&inputs.trace, &inputs.cells[0]);
        let inp = adapter::chaos_inputs(inputs);
        let run = if traced {
            adapter::run_faults_traced(&inp, &prof)
        } else {
            adapter::run_faults(&inp, &prof)
        };
        faults = Some(run.unwrap_or_else(|e| panic!("faults-ckpt snapshot error: {e}")));
    } else {
        let inputs = adapter::build_inputs(&CELLS, seed, false, &prof);
        for cell in &inputs.cells {
            for &method in w.methods() {
                let run = adapter::run_cell(&inputs.trace, cell, method, shards, &prof, traced);
                static_events += adapter::static_events(&inputs.trace, cell);
                cells.push(Ran {
                    method,
                    memory_kb: cell.memory_kb,
                    run,
                });
            }
        }
    }
    let total_s = prof.now() - t0;
    let setup_s = setup_of(&prof);
    Round {
        sim_s: total_s - setup_s - prof.busy(profile::COLLECT),
        total_s,
        setup_s,
        cells,
        faults,
        static_events,
        prof,
    }
}

/// Set-up only: build the inputs and start (then drop) every session a
/// round would run.
fn setup_once(w: Workload, seed: u64) -> f64 {
    let prof = Profiler::new(Method::ALL.len(), Clock::ThreadCpu);
    if w == Workload::FaultsCkpt {
        let inp = adapter::chaos_inputs(adapter::build_inputs(&CELLS, seed, true, &prof));
        adapter::start_faults(&inp, &prof);
    } else {
        let inputs = adapter::build_inputs(&CELLS, seed, false, &prof);
        for cell in &inputs.cells {
            for &m in w.methods() {
                adapter::start_cell(&inputs.trace, cell, m, &prof);
            }
        }
    }
    setup_of(&prof)
}

/// Check every operation of `r` and count it in `tally`.
fn check_round(r: &Round, seed: u64, tally: &mut Tally) {
    for c in &r.cells {
        let what = format!("{} {} kB", c.method.name(), c.memory_kb);
        tally.op(&what, cell_problems(&c.run, c.method, c.memory_kb, seed));
    }
    if let Some(f) = &r.faults {
        let mut bad = Vec::new();
        if !f.straight.art.conservation_holds() {
            bad.push("straight lineage breaks packet conservation".to_owned());
        }
        tally.op("faults-ckpt straight lineage", bad);
        let mut bad = Vec::new();
        if !f.restored.conservation_holds() {
            bad.push("restored lineage breaks packet conservation".to_owned());
        }
        if !f.restored.matches(&f.straight.art) {
            bad.push("restored lineage differs from the straight run".to_owned());
        }
        if f.snapshot_bytes.is_empty() {
            bad.push("no checkpoint was taken".to_owned());
        }
        tally.op("faults-ckpt restored lineage", bad);
    }
}

/// Each cell's state must be byte-equal to the reference round's.
fn check_equal(what: &str, r: &Round, reference: &Round, tally: &mut Tally) {
    for (c, want) in r.cells.iter().zip(&reference.cells) {
        let bad =
            if c.run.art.state == want.run.art.state && c.run.art.csv_row == want.run.art.csv_row {
                Vec::new()
            } else {
                vec![format!("{what}: outputs differ from the reference")]
            };
        tally.op(
            &format!("{} {} kB vs reference", c.method.name(), c.memory_kb),
            bad,
        );
    }
    if let (Some(f), Some(g)) = (&r.faults, &reference.faults) {
        let mut bad = Vec::new();
        if f.mid != g.mid {
            bad.push(format!("{what}: mid-run snapshot bytes differ"));
        }
        if !f.straight.art.matches(&g.straight.art) || !f.restored.matches(&g.restored) {
            bad.push(format!("{what}: lineage outputs differ"));
        }
        tally.op("faults-ckpt vs reference", bad);
    }
}

// ---- reports ------------------------------------------------------------

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Outcome summaries of the round's cells; for faults-ckpt, of the
/// straight lineage (the restored one is checked equal to it).
fn summaries(r: &Round) -> Vec<Summary> {
    match &r.faults {
        Some(f) => vec![f.straight.summary],
        None => r.cells.iter().map(|c| c.run.summary).collect(),
    }
}

/// Simulated outcomes, averaged over the round's cells.
fn outcomes(r: &Round) -> (f64, f64, f64) {
    let summaries = summaries(r);
    let n = summaries.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Summary) -> f64| summaries.iter().map(f).sum::<f64>() / n;
    (
        mean(&|s| s.success_rate),
        mean(&|s| s.average_delay_secs / 60.0),
        mean(&|s| s.total_cost),
    )
}

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The untraced run: set-up `SETUP_REPS` times, then rounds until
/// `seconds` of wall time are used up.
///
/// Rounds and set-up are timed in thread CPU time (see
/// [`Clock::ThreadCpu`]); every workload runs on this one thread. The
/// reference kernel runs before the set-up samples, after them and after
/// every round. Each time is scaled by [`reference::NOMINAL_S`] over the
/// mean of the two kernel runs around it, which gives its seconds at the
/// nominal host speed.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    let clock = Stopwatch::start();
    let mut tally = Tally::default();
    let mut kernel_s = vec![reference::kernel_time()];
    // Scale for a time measured since the last kernel run, which it makes.
    let scale = |kernel_s: &mut Vec<f64>| {
        let before = kernel_s[kernel_s.len() - 1];
        let after = reference::kernel_time();
        kernel_s.push(after);
        reference::NOMINAL_S / ((before + after) / 2.0)
    };
    let raw_setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(w, seed)).collect();
    let s = scale(&mut kernel_s);
    let mut setups: Vec<f64> = raw_setups.iter().map(|t| t * s).collect();
    let (mut sims, mut raw_sims) = (Vec::new(), Vec::new());
    // Outcomes and peak memory are taken from the first round: the peak
    // of one pass over the workload. Later rounds only add allocator
    // reuse effects, and their number depends on host speed.
    let mut first = None;
    loop {
        let started = clock.elapsed_secs();
        let r = round(w, seed, 1, false, Clock::ThreadCpu);
        check_round(&r, seed, &mut tally);
        if first.is_none() {
            first = Some((outcomes(&r), peak_rss_mb()));
        }
        let (sim_s, setup_s) = (r.sim_s, r.setup_s);
        drop(r);
        let s = scale(&mut kernel_s);
        sims.push(sim_s * s);
        setups.push(setup_s * s);
        raw_sims.push(sim_s);
        let took = clock.elapsed_secs() - started;
        if clock.elapsed_secs() + took > seconds {
            break;
        }
    }
    let ((success, delay, cost), peak_rss) =
        first.unwrap_or_else(|| unreachable!("the loop runs at least one round"));
    let pass_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let notes = vec![
        format!(
            "rounds {} wall_s {:.3} raw_cpu_s {raw_sims:?} raw_setup_s {raw_setups:?}",
            sims.len(),
            clock.elapsed_secs()
        ),
        format!("kernel_s {kernel_s:?}"),
        format!("norm_cpu_s {sims:?} norm_setup_s {setups:?}"),
    ];
    Report {
        metrics: vec![
            metric("norm_cpu_s", median(&sims), "s"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("success_rate", success, "ratio"),
            metric("avg_delay_min", delay, "min"),
            metric("total_cost", cost, "ops"),
            metric("pass_share", pass_share, "ratio"),
        ],
        tally,
        notes,
    }
}

/// Names of the five baselines as used in metric names.
fn baseline_key(m: Method) -> String {
    m.name().to_lowercase()
}

/// Hooks reported for DTN-FLOW, and the subset reported for the baselines.
const FLOW_HOOKS: usize = 10;
const BASELINE_HOOKS: usize = 5;

/// The traced run: one untraced round, then the same round with the
/// router and sink wrapped; the two must agree byte for byte. Per-layer
/// numbers come from the traced round only.
///
/// On `fig11-flow` it then runs the same cell on a 2-shard plan (the
/// default in-unit dispatch, one worker per core of this 2-core host),
/// untraced and traced, and both must equal the 1-shard outputs byte for
/// byte. Its host time swings by 2x between runs on a shared host, far
/// beyond any end-to-end bound, so it is reported here, unbounded, as the
/// `shard2.*` metrics, not as a workload of its own.
pub fn run_traced(w: Workload, seed: u64) -> Report {
    let mut tally = Tally::default();
    let plain = round(w, seed, 1, false, Clock::Wall);
    check_round(&plain, seed, &mut tally);
    let t = round(w, seed, 1, true, Clock::Wall);
    check_round(&t, seed, &mut tally);
    check_equal("traced vs untraced", &t, &plain, &mut tally);
    // A second untraced round after the traced one: the first round of a
    // process runs on a cold heap, so the overhead ratio compares the
    // traced round with the mean of the two rounds around it.
    let after = round(w, seed, 1, false, Clock::Wall);
    check_round(&after, seed, &mut tally);
    let untraced_wall = (plain.sim_s + after.sim_s) / 2.0;
    drop(after);
    let shard2 = (w == Workload::Flow).then(|| {
        let untraced = round(w, seed, 2, false, Clock::Wall);
        check_round(&untraced, seed, &mut tally);
        check_equal("2-shard vs 1-shard", &untraced, &plain, &mut tally);
        let traced = round(w, seed, 2, true, Clock::Wall);
        check_round(&traced, seed, &mut tally);
        check_equal("traced 2-shard vs 1-shard", &traced, &plain, &mut tally);
        (untraced.sim_s, traced.prof)
    });
    drop(plain.cells);
    let p = &t.prof;

    let route_cache = if w == Workload::Baselines {
        (0, 0)
    } else {
        let faults = w == Workload::FaultsCkpt;
        let prof = Profiler::new(1, Clock::Wall);
        let inputs = adapter::build_inputs(&CELLS, seed, faults, &prof);
        adapter::route_cache_counters(&inputs, faults)
    };

    let mut m = vec![
        metric("mobility.synth_s", p.busy(profile::SYNTH), "s"),
        metric("sim.workload_gen_s", p.busy(profile::WORKLOAD_GEN), "s"),
        metric("sim.fault_plan_s", p.busy(profile::FAULT_PLAN), "s"),
        metric("sim.session_start_s", p.busy(profile::SESSION_START), "s"),
    ];

    let flow = adapter::method_index(Method::Flow);
    for (h, hook) in HOOKS.iter().enumerate().take(FLOW_HOOKS) {
        let slot = profile::hook_slot(flow, h);
        let (busy, calls) = (p.busy(slot), p.calls(slot));
        m.push(metric(format!("dtnflow.{hook}.busy_s"), busy, "s"));
        m.push(metric(
            format!("dtnflow.{hook}.calls"),
            calls as f64,
            "count",
        ));
        m.push(metric(
            format!("dtnflow.{hook}.ns_per_call"),
            busy * 1e9 / calls.max(1) as f64,
            "ns",
        ));
    }
    let summaries = summaries(&t);
    let sum = |f: fn(&Summary) -> u64| summaries.iter().map(f).sum::<u64>();
    let (fwd, delivered) = (sum(|s| s.forwarding_ops), sum(|s| s.delivered));
    let flow_ratio = if w == Workload::Baselines {
        0.0
    } else {
        fwd as f64 / delivered.max(1) as f64
    };
    m.push(metric("dtnflow.fwd_ops_per_delivered", flow_ratio, "ratio"));
    let (hits, misses) = route_cache;
    m.push(metric(
        "dtnflow.route_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));

    for (h, hook) in HOOKS.iter().enumerate().take(BASELINE_HOOKS) {
        let slots = adapter::BASELINES
            .iter()
            .map(|&b| profile::hook_slot(adapter::method_index(b), h));
        let busy: f64 = slots.clone().map(|s| p.busy(s)).sum();
        let calls: u64 = slots.map(|s| p.calls(s)).sum();
        m.push(metric(format!("baselines.{hook}.busy_s"), busy, "s"));
        m.push(metric(
            format!("baselines.{hook}.calls"),
            calls as f64,
            "count",
        ));
        m.push(metric(
            format!("baselines.{hook}.ns_per_call"),
            busy * 1e9 / calls.max(1) as f64,
            "ns",
        ));
    }
    for &b in &adapter::BASELINES {
        let i = adapter::method_index(b);
        let busy: f64 = (0..HOOKS.len())
            .map(|h| p.busy(profile::hook_slot(i, h)))
            .sum();
        m.push(metric(
            format!("baselines.{}.busy_s", baseline_key(b)),
            busy,
            "s",
        ));
    }

    let events = match &t.faults {
        // The straight lineage dispatches every static event; the
        // restored one only those after its snapshot.
        Some(f) => 2 * t.static_events - f.dispatched_at_mid,
        None => t.static_events,
    };
    let engine = p.busy(profile::ENGINE);
    m.push(metric("sim.engine_self_s", engine, "s"));
    m.push(metric(
        "sim.engine_ns_per_event",
        engine * 1e9 / events.max(1) as f64,
        "ns",
    ));
    m.push(metric("sim.finish_s", p.busy(profile::FINISH), "s"));
    m.push(metric("sim.delivered", delivered as f64, "count"));
    m.push(metric("sim.expired", sum(|s| s.expired) as f64, "count"));
    m.push(metric("sim.forwarding_ops", fwd as f64, "count"));

    let obs_busy = p.busy(profile::OBS_RECORD);
    let obs_calls = p.calls(profile::OBS_RECORD);
    m.push(metric("obs.record.busy_s", obs_busy, "s"));
    m.push(metric("obs.record.calls", obs_calls as f64, "count"));
    m.push(metric(
        "obs.record.ns_per_event",
        obs_busy * 1e9 / obs_calls.max(1) as f64,
        "ns",
    ));
    let dropped = t.faults.as_ref().map_or(0, |f| f.straight.events_dropped);
    m.push(metric("obs.events_dropped", dropped as f64, "count"));

    let sizes = t.faults.as_ref().map_or(&[][..], |f| &f.snapshot_bytes[..]);
    let encode = p.busy(profile::SNAPSHOT_ENCODE);
    let bytes_total: u64 = sizes.iter().sum();
    m.push(metric("snapshot.encode_s", encode, "s"));
    m.push(metric(
        "snapshot.encode_calls",
        p.calls(profile::SNAPSHOT_ENCODE) as f64,
        "count",
    ));
    m.push(metric("snapshot.bytes_total", bytes_total as f64, "B"));
    m.push(metric(
        "snapshot.bytes_max",
        sizes.iter().copied().max().unwrap_or(0) as f64,
        "B",
    ));
    m.push(metric(
        "snapshot.encode_mb_per_s",
        if encode > 0.0 {
            bytes_total as f64 / 1e6 / encode
        } else {
            0.0
        },
        "MB/s",
    ));
    m.push(metric(
        "snapshot.restore_s",
        p.busy(profile::SNAPSHOT_RESTORE),
        "s",
    ));

    let (wall2, engine2, unit2) = shard2.as_ref().map_or((0.0, 0.0, 0.0), |(wall, p2)| {
        let unit = p2.busy(profile::hook_slot(flow, 4));
        (*wall, p2.busy(profile::ENGINE), unit)
    });
    m.push(metric("shard2.wall_s", wall2, "s"));
    m.push(metric("shard2.speedup", untraced_wall / wall2, "ratio"));
    m.push(metric("shard2.engine_self_s", engine2, "s"));
    m.push(metric("shard2.on_time_unit.busy_s", unit2, "s"));

    let attributed = p.total_busy();
    let traced_sim = t.total_s - t.setup_s - p.busy(profile::COLLECT);
    m.push(metric("trace.wall_s", t.total_s, "s"));
    m.push(metric(
        "trace.attributed_share",
        attributed / t.total_s,
        "ratio",
    ));
    m.push(metric("trace.unattributed_s", t.total_s - attributed, "s"));
    m.push(metric(
        "trace.overhead_ratio",
        traced_sim / untraced_wall,
        "ratio",
    ));

    Report {
        notes: attribution_table(p, t.total_s),
        metrics: m,
        tally,
    }
}

/// Busy seconds and share of traced wall per layer, largest first, with
/// the unattributed remainder last.
fn attribution_table(p: &Profiler, wall: f64) -> Vec<String> {
    let mut rows: Vec<(String, f64, u64)> = FIXED_LAYERS
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), p.busy(i), p.calls(i)))
        .collect();
    for (mi, m) in Method::ALL.iter().enumerate() {
        let group = if *m == Method::Flow {
            "dtnflow".to_owned()
        } else {
            format!("baselines.{}", baseline_key(*m))
        };
        for (h, hook) in HOOKS.iter().enumerate() {
            let slot = profile::hook_slot(mi, h);
            rows.push((format!("{group}.{hook}"), p.busy(slot), p.calls(slot)));
        }
    }
    rows.retain(|r| r.2 > 0);
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = vec![format!(
        "{:<36} {:>10} {:>7} {:>12}",
        "layer", "busy_s", "share", "calls"
    )];
    for (name, busy, calls) in rows {
        out.push(format!(
            "{name:<36} {busy:>10.4} {:>6.2}% {calls:>12}",
            100.0 * busy / wall
        ));
    }
    let rest = wall - p.total_busy();
    out.push(format!(
        "{:<36} {rest:>10.4} {:>6.2}%",
        "(unattributed)",
        100.0 * rest / wall
    ));
    out
}
