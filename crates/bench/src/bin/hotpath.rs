//! Hot-path microbenchmarks pinning the dense-ID storage perf trajectory.
//!
//! ```text
//! hotpath [--quick] [--out FILE]
//! hotpath --check NEW --against BASELINE [--strict]
//!
//! --quick    fewer samples / smaller op batches (CI smoke mode)
//! --out      where to write BENCH_hotpath.json
//!            (default: results/BENCH_hotpath.json)
//! --check    compare a freshly generated BENCH_hotpath.json against a
//!            committed baseline: any bench slower by more than 2x is
//!            reported as a regression. Soft gate by default (exit 0);
//!            --strict exits 1 on regression.
//! ```
//!
//! An unknown flag, a flag missing its file, or `--check` without
//! `--against` prints the usage lines and exits with status 2.
//!
//! Each bench isolates one inner loop that the fig11-class sweeps spend
//! their time in (§IV-C table maintenance, §IV-D carrier selection):
//!
//! * `carrier_selection` — best connected carrier toward a destination
//!   landmark, served from the incrementally maintained [`RankIndex`]
//!   the router now keeps (DESIGN.md §14). Before this index the same
//!   bench scanned every node's Markov transit probability per packet
//!   (~1.15 µs/op); the committed baseline pins the improvement.
//! * `rank_index_maintenance` — the price of keeping that index fresh:
//!   one depart + arrive cycle (remove + reinsert a node's score keys).
//! * `route_cache_lookup` — one next-hop decision through the real
//!   `FlowRouter` route cache, with a periodic epoch flush so the miss
//!   path (full `choose_next_in` recompute) stays in the measurement.
//! * `deadline_queue_cycle` — steady-state `DeadlineQueue` push + drain
//!   tick, the world's packet-expiry schedule at TTL depth.
//! * `routing_table_recompute` — one `RoutingTable::recompute` pass over
//!   a fully-claimed distance-vector table.
//! * `ewma_fold` — a unit's worth of `BandwidthMatrix` arrival recording
//!   plus the end-of-unit EWMA fold across the landmark matrix.
//! * `markov_update` — order-1 `MarkovPredictor::observe` on a synthetic
//!   landmark walk.
//! * `dense_map_churn` — insert/lookup/iterate/remove cycle on the
//!   `DenseMap` that backs all of the above.
//! * `snapshot_codec` — decode then re-encode the router, world and obs
//!   sections of the tiny mid-run checkpoint (the `chaos_tiny13_mid`
//!   golden's state), so the `--strict` gate covers codec speed.
//!
//! Wall-clock readings come from the bench crate's quarantined
//! [`Stopwatch`]; results are medians over repeated samples so a single
//! scheduler hiccup cannot move the pinned numbers by much. The output
//! carries the measuring host (cores, build profile, git revision).

use dtnflow_bench::chaos::{outage_plan, run_segment, ChaosInputs, SegmentEnd};
use dtnflow_bench::host::bench_host;
use dtnflow_bench::timing::Stopwatch;
use dtnflow_core::dense::DenseMap;
use dtnflow_core::ids::LandmarkId;
use dtnflow_core::{DeadlineQueue, RankIndex};
use dtnflow_obs::json::{parse, Value};
use dtnflow_obs::{BenchHost, Recorder};
use dtnflow_predictor::MarkovPredictor;
use dtnflow_router::{BandwidthMatrix, FlowConfig, FlowRouter, RoutingTable};
use dtnflow_sim::{FaultPlan, World};
use dtnflow_snapshot::{Reader, SnapshotFile, Writer};
use std::hint::black_box;
use std::path::PathBuf;

/// JSON schema tag for `BENCH_hotpath.json`.
const SCHEMA: &str = "dtnflow-hotpath-bench-v2";
/// Landmark-set size for every synthetic workload (campus-scenario scale).
const NUM_LANDMARKS: usize = 40;
/// Node count for the carrier-selection scan.
const NUM_NODES: usize = 200;
/// A bench is a regression when it is more than this factor slower.
const REGRESSION_FACTOR: f64 = 2.0;

struct BenchResult {
    id: &'static str,
    ns_per_op: f64,
    ops_per_sec: f64,
    ops: u64,
    samples: usize,
}

/// Deterministic 64-bit LCG; the benches must not depend on ambient
/// randomness (detlint D-rules) and do not need statistical quality.
struct Lcg(u64);

impl Lcg {
    fn next_lm(&mut self, n: usize) -> LandmarkId {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        LandmarkId(((self.0 >> 33) % n as u64) as u16)
    }
}

/// Run `op` in `ops`-sized batches `samples` times; report the median.
fn run_bench(
    id: &'static str,
    samples: usize,
    ops: u64,
    mut op: impl FnMut(u64) -> u64,
) -> BenchResult {
    let mut per_op_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let sw = Stopwatch::start();
        let mut sink = 0u64;
        for i in 0..ops {
            sink = sink.wrapping_add(op(i));
        }
        black_box(sink);
        per_op_ns.push(sw.elapsed_secs() * 1e9 / ops as f64);
    }
    per_op_ns.sort_by(f64::total_cmp);
    let ns_per_op = per_op_ns[per_op_ns.len() / 2];
    BenchResult {
        id,
        ns_per_op,
        ops_per_sec: 1e9 / ns_per_op,
        ops,
        samples,
    }
}

/// Synthetic predictor population for the carrier-selection benches:
/// `NUM_NODES` order-1 Markov predictors trained on deterministic walks.
fn trained_predictors() -> Vec<MarkovPredictor> {
    let mut rng = Lcg(0x5EED_CA44);
    let mut nodes: Vec<MarkovPredictor> = (0..NUM_NODES)
        .map(|_| MarkovPredictor::with_landmarks(1, NUM_LANDMARKS))
        .collect();
    for p in nodes.iter_mut() {
        for _ in 0..64 {
            p.observe(rng.next_lm(NUM_LANDMARKS));
        }
    }
    nodes
}

/// File every node's positive-probability score keys into `rank`
/// (group 0), the way `FlowRouter::rank_update` does on arrival.
fn file_all(rank: &mut RankIndex, nodes: &[MarkovPredictor], dist: &mut Vec<(LandmarkId, f64)>) {
    for (n, pred) in nodes.iter().enumerate() {
        pred.distribution_into(dist);
        for &(target, p) in dist.iter() {
            if p > 0.0 {
                rank.insert(0, target.0, p, n as u32);
            }
        }
    }
}

/// §IV-D: pick the best connected carrier for a destination landmark.
/// Pre-index era this was an argmax scan over every node's predicted
/// transit probability (~1.15 µs/op at 200 nodes); now it is the head
/// of the maintained rank list — the committed baseline pins the gap.
fn bench_carrier_selection(samples: usize, ops: u64) -> BenchResult {
    let nodes = trained_predictors();
    let mut rank = RankIndex::new(1);
    let mut dist = Vec::new();
    file_all(&mut rank, &nodes, &mut dist);
    run_bench("carrier_selection", samples, ops, move |i| {
        let dst = LandmarkId((i % NUM_LANDMARKS as u64) as u16);
        rank.ranked(0, dst.0)
            .first()
            .map_or(0, |e| u64::from(e.member))
    })
}

/// The cost of keeping the rank index fresh: one depart + arrive cycle
/// (remove then reinsert a node's score keys), the router's incremental
/// maintenance work per contact event.
fn bench_rank_index_maintenance(samples: usize, ops: u64) -> BenchResult {
    let nodes = trained_predictors();
    let mut rank = RankIndex::new(1);
    let mut dist = Vec::new();
    file_all(&mut rank, &nodes, &mut dist);
    run_bench("rank_index_maintenance", samples, ops, move |i| {
        let n = (i % NUM_NODES as u64) as u32;
        nodes[n as usize].distribution_into(&mut dist);
        for &(target, p) in dist.iter() {
            if p > 0.0 {
                rank.remove(0, target.0, p, n);
            }
        }
        for &(target, p) in dist.iter() {
            if p > 0.0 {
                rank.insert(0, target.0, p, n);
            }
        }
        rank.len() as u64
    })
}

/// One next-hop decision through the real `FlowRouter` route cache over
/// a fully-claimed table. Every 256th op flushes the cache (a station
/// up/down epoch bump) so the measurement keeps the miss path — a full
/// `choose_next_in` recompute — in the mix.
fn bench_route_cache_lookup(samples: usize, ops: u64) -> BenchResult {
    let mut router = FlowRouter::new(FlowConfig::default(), NUM_NODES, NUM_LANDMARKS);
    let mut table = RoutingTable::new(LandmarkId(0), NUM_LANDMARKS);
    for from in 1..NUM_LANDMARKS as u16 {
        for dest in 1..NUM_LANDMARKS as u16 {
            if from != dest {
                let delay = f64::from(from) * 17.0 + f64::from(dest) * 3.0 + 60.0;
                table.set_claim(LandmarkId(from), LandmarkId(dest), delay, u64::from(from));
            }
        }
    }
    table.recompute(&|lm| 30.0 + f64::from(lm.0) * 5.0);
    router.bench_install_table(LandmarkId(0), table);
    run_bench("route_cache_lookup", samples, ops, move |i| {
        if i % 256 == 0 {
            router.bench_flush_route_cache();
        }
        let dst = LandmarkId((i % (NUM_LANDMARKS as u64 - 1) + 1) as u16);
        router
            .bench_route_lookup(LandmarkId(0), dst)
            .map_or(0, |l| u64::from(l.0))
    })
}

/// Steady-state deadline-queue tick: one push at TTL depth plus a
/// drain of everything due, the world's per-unit packet-expiry schedule.
fn bench_deadline_queue_cycle(samples: usize, ops: u64) -> BenchResult {
    // A TTL-deep backlog of in-order deadlines, like multi-day TTLs over
    // 1 s ticks.
    const TTL: u64 = 4_096;
    let mut queue = DeadlineQueue::new();
    for t in 0..TTL {
        queue.push(t + TTL, t, t);
    }
    let mut tick = 0u64;
    run_bench("deadline_queue_cycle", samples, ops, move |_| {
        tick += 1;
        let now = TTL + tick;
        queue.push(now + TTL, TTL + tick, tick);
        let mut fired = 0;
        while let Some(e) = queue.pop_due(now) {
            fired += e.payload;
        }
        fired
    })
}

/// §IV-C: one distance-vector relaxation pass over a table whose every
/// destination has a claim from every neighbor.
fn bench_routing_table_recompute(samples: usize, ops: u64) -> BenchResult {
    let mut table = RoutingTable::new(LandmarkId(0), NUM_LANDMARKS);
    for from in 1..NUM_LANDMARKS as u16 {
        for dest in 1..NUM_LANDMARKS as u16 {
            if from != dest {
                let delay = f64::from(from) * 17.0 + f64::from(dest) * 3.0 + 60.0;
                table.set_claim(LandmarkId(from), LandmarkId(dest), delay, u64::from(from));
            }
        }
    }
    let link_delay = |lm: LandmarkId| 30.0 + f64::from(lm.0) * 5.0;
    run_bench("routing_table_recompute", samples, ops, move |_| {
        table.recompute(&link_delay);
        table.revision()
    })
}

/// §IV-C bandwidth estimation: a unit's arrivals plus the end-of-unit
/// EWMA fold over the full landmark-pair matrix.
fn bench_ewma_fold(samples: usize, ops: u64) -> BenchResult {
    let mut table = BandwidthMatrix::new(NUM_LANDMARKS, 0.3);
    let mut rng = Lcg(0xE3A4_F01D);
    run_bench("ewma_fold", samples, ops, move |_| {
        for _ in 0..NUM_LANDMARKS {
            let me = rng.next_lm(NUM_LANDMARKS);
            let from = rng.next_lm(NUM_LANDMARKS);
            table.record_arrival_from(me, from);
        }
        table.end_of_unit_all();
        table.incoming(LandmarkId(0), LandmarkId(1)).to_bits()
    })
}

/// §IV-B: one order-1 Markov transition-table update per observed visit.
fn bench_markov_update(samples: usize, ops: u64) -> BenchResult {
    let mut pred = MarkovPredictor::with_landmarks(1, NUM_LANDMARKS);
    let mut rng = Lcg(0x0B5E_77ED);
    run_bench("markov_update", samples, ops, move |_| {
        pred.observe(rng.next_lm(NUM_LANDMARKS));
        pred.observations() as u64
    })
}

/// The storage primitive itself: insert, point-lookup, ordered iteration,
/// and removal on a `DenseMap` of landmark-id keys.
fn bench_dense_map_churn(samples: usize, ops: u64) -> BenchResult {
    let mut map: DenseMap<u16, u64> = DenseMap::new();
    let mut rng = Lcg(0xD15E_0001);
    run_bench("dense_map_churn", samples, ops, move |i| {
        let k = rng.next_lm(NUM_LANDMARKS).0;
        map.insert(k, i);
        let mut acc = map.get(k).copied().unwrap_or(0);
        if i % 8 == 0 {
            acc = acc.wrapping_add(map.iter().map(|(_, v)| *v).sum());
        }
        if i % 4 == 0 {
            map.remove(k);
        }
        acc
    })
}

fn bench_snapshot_codec(samples: usize, ops: u64) -> BenchResult {
    let base = ChaosInputs::tiny(13, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), 13);
    let flow = FlowConfig::with_degradation();
    let inp = ChaosInputs { plan, flow, ..base };
    let Ok(SegmentEnd::Paused(bytes)) = run_segment(&inp, None, Some(inp.max_unit() / 2)) else {
        panic!("the tiny run pauses at its mid-run boundary");
    };
    let file = SnapshotFile::parse(&bytes).expect("checkpoint parses");
    let section = |name| Reader::new(&file.section(name).expect("section").payload);
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    run_bench("snapshot_codec", samples, ops, |_| {
        let mut r = section("router");
        let router = FlowRouter::restore_state(&mut r, inp.flow.clone(), n, l);
        let world = World::decode_state(&mut section("world"), inp.cfg.clone(), n, l);
        let rec = Recorder::decode(&mut section("obs"));
        let mut w = Writer::new();
        router.expect("router decodes").save_state(&mut w);
        world.expect("world decodes").encode_state(&mut w);
        rec.expect("recorder decodes").encode(&mut w);
        w.len() as u64
    })
}

fn results_json(mode: &str, host: &BenchHost, results: &[BenchResult]) -> String {
    Value::object([
        ("schema".to_owned(), Value::str(SCHEMA)),
        ("mode".to_owned(), Value::str(mode)),
        ("host".to_owned(), host.to_json_value()),
        (
            "benches".to_owned(),
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::object([
                            ("id".to_owned(), Value::str(r.id)),
                            ("ns_per_op".to_owned(), Value::Number(r.ns_per_op)),
                            ("ops_per_sec".to_owned(), Value::Number(r.ops_per_sec)),
                            ("ops".to_owned(), Value::int(r.ops)),
                            ("samples".to_owned(), Value::int(r.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

/// Extract `(id, ns_per_op)` pairs from a `BENCH_hotpath.json` document.
fn load_benches(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let benches = doc
        .get("benches")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `benches` array"))?;
    benches
        .iter()
        .map(|b| {
            let id = b
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: bench without `id`"))?;
            let ns = b
                .get("ns_per_op")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: bench `{id}` without `ns_per_op`"))?;
            Ok((id.to_owned(), ns))
        })
        .collect()
}

/// Compare a fresh run against the committed baseline. Returns the number
/// of >2x regressions. A baseline bench that is *absent* from the
/// candidate is a hard error, not a pass: a renamed or dropped bench
/// would otherwise silently unpin its perf trajectory.
fn check(new_path: &str, base_path: &str) -> Result<usize, String> {
    if !std::path::Path::new(base_path).exists() {
        return Err(format!(
            "baseline `{base_path}` does not exist — the regression gate has \
             nothing to compare against. Commit one with \
             `cargo run --release -p dtnflow-bench --bin hotpath -- --out {base_path}`."
        ));
    }
    let new = load_benches(new_path)?;
    let base = load_benches(base_path)?;
    let missing: Vec<&str> = base
        .iter()
        .filter(|(bid, _)| !new.iter().any(|(id, _)| id == bid))
        .map(|(bid, _)| bid.as_str())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "baseline bench(es) missing from candidate `{new_path}`: {} — a \
             renamed or dropped bench must re-pin the baseline `{base_path}`.",
            missing.join(", ")
        ));
    }
    let mut regressions = 0;
    for (id, ns) in &new {
        let Some((_, base_ns)) = base.iter().find(|(bid, _)| bid == id) else {
            println!("NEW        {id}: {ns:.1} ns/op (no baseline entry)");
            continue;
        };
        let ratio = ns / base_ns;
        if ratio > REGRESSION_FACTOR {
            regressions += 1;
            println!("REGRESSION {id}: {base_ns:.1} -> {ns:.1} ns/op ({ratio:.2}x slower)");
        } else {
            println!("OK         {id}: {base_ns:.1} -> {ns:.1} ns/op ({ratio:.2}x)");
        }
    }
    Ok(regressions)
}

const USAGE: &str = "usage: hotpath [--quick] [--out FILE]\n       hotpath --check NEW --against BASELINE [--strict]";

/// Report a command-line error with the usage lines and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut strict = false;
    let mut out = PathBuf::from("results/BENCH_hotpath.json");
    let mut check_new: Option<String> = None;
    let mut check_base: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // A flag's value: the next argument, unless it is another flag.
        let mut file = |flag: &str| match it.next().filter(|v| !v.starts_with("--")) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{flag} requires a file argument")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--strict" => strict = true,
            "--out" => out = PathBuf::from(file("--out")),
            "--check" => check_new = Some(file("--check")),
            "--against" => check_base = Some(file("--against")),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(new_path) = check_new {
        let base_path =
            check_base.unwrap_or_else(|| usage_error("--check requires --against BASELINE"));
        match check(&new_path, &base_path) {
            Ok(0) => println!("hotpath check: no regressions > {REGRESSION_FACTOR}x"),
            Ok(n) => {
                println!("hotpath check: {n} regression(s) > {REGRESSION_FACTOR}x");
                if strict {
                    std::process::exit(1);
                }
                println!("(soft gate: not failing; pass --strict to enforce)");
            }
            Err(e) => {
                eprintln!("hotpath check: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let (samples, ops) = if quick { (3, 2_000) } else { (7, 20_000) };
    let mode = if quick { "quick" } else { "full" };
    let results = [
        bench_carrier_selection(samples, ops),
        bench_rank_index_maintenance(samples, ops),
        bench_route_cache_lookup(samples, ops),
        bench_deadline_queue_cycle(samples, ops),
        bench_routing_table_recompute(samples, ops / 10),
        bench_ewma_fold(samples, ops / 10),
        bench_markov_update(samples, ops),
        bench_dense_map_churn(samples, ops),
        bench_snapshot_codec(samples, ops / 20),
    ];
    for r in &results {
        println!(
            "{:<24} {:>12.1} ns/op {:>14.0} ops/s ({} ops x {} samples)",
            r.id, r.ns_per_op, r.ops_per_sec, r.ops, r.samples
        );
    }
    let json = results_json(mode, &bench_host(), &results);
    if let Some(dir) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        }
    }
    match std::fs::write(&out, json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}
