//! Hot-path microbenchmarks pinning the per-contact and per-unit inner
//! loops of the simulation.
//!
//! ```text
//! hotpath [--quick] [--out FILE]
//! hotpath --check NEW --against BASELINE
//!
//! --quick    fewer samples / smaller op batches (CI smoke mode)
//! --out      where to write BENCH_hotpath.json
//!            (default: results/BENCH_hotpath.json)
//! --check    compare a freshly generated BENCH_hotpath.json against a
//!            committed baseline: a bench slower by more than 2x is run
//!            once more, in quick mode, and is a regression only when
//!            that re-run is more than 2x slower too.
//! ```
//!
//! Exit status (shared by every harness binary, see `dtnflow_bench::cli`):
//! 0 ok; 1 when `--check` finds a regression; 2 on a usage error (an
//! unknown flag, a flag missing its file, `--check` without `--against`),
//! an unwritable `--out`, or a missing or malformed `--check` file.
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
//!   path (full `choose_next_uncached` recompute) stays in the
//!   measurement.
//! * `deadline_queue_cycle` — steady-state `DeadlineQueue` push + drain
//!   tick, the world's packet-expiry schedule at TTL depth.
//! * `routing_table_recompute` — one `RoutingTable::recompute` pass over
//!   a fully-claimed distance-vector table.
//! * `ewma_fold` — a unit's worth of `BandwidthMatrix` arrival recording
//!   plus the end-of-unit EWMA fold across the landmark matrix.
//! * `markov_update` — order-1 `MarkovPredictor::observe` on a synthetic
//!   landmark walk.
//! * `markov_predict` — `predict` plus `distribution_into` on trained
//!   order-1 predictors, the questions `on_arrive` and the rank index ask.
//! * `table_exchange` — the §IV-C.2 vector exchange: `snapshot` and
//!   `table_size` of a fully-claimed table, as `on_depart` packs it, then
//!   `receive` into the next landmark's table, as `on_arrive` does.
//! * `dense_map_churn` — insert/lookup/iterate/remove cycle on the
//!   `DenseMap` that backs all of the above.
//! * `dense_set_queue` — a packet queue: one insert and one removal per
//!   op on a `DenseSet` of 1 500 ids, in the append, interior, first
//!   and last shares counted over all of DTN-FLOW's sets on the fig11
//!   2000 kB cell, with a periodic ascending walk.
//! * `snapshot_codec` — decode then re-encode the router, world and obs
//!   sections of the tiny mid-run checkpoint (the `chaos_tiny13_mid`
//!   golden's state), so the regression gate covers codec speed.
//! * `station_rebucket` — the station rebuild a unit boundary, a
//!   station-down or a retry runs, over every station of the same
//!   restored state, each destination group on the route cache's miss
//!   path. Its `ns_per_op` and `ops_per_sec` count station packets
//!   rebuilt.
//!
//! Each bench carries a `layer` tag: the `per_layer` metric of the
//! repository's `BENCHMARK.json` whose time its loop models, so a leaf
//! regression reads against that layer's share of a real run.
//!
//! Wall-clock readings come from the bench crate's quarantined
//! [`Stopwatch`]; results are medians over repeated samples so a single
//! scheduler hiccup cannot move the pinned numbers by much. Full mode
//! runs the whole battery seven times, two minutes apart, and keeps
//! each bench's second-slowest pass: the host's speed swings about 2x
//! over minutes, passes spread over twelve minutes reach its slow
//! phase, and one slow stretch alone does not set the pin, so a full
//! run writes the committed pin as it stands. `--quick` runs the
//! battery once. `--check` re-runs a bench
//! that reads over 2x its pin once before it counts a regression, and
//! prints both readings, so a blip shorter than one bench does not fail
//! the gate; a slow phase of the host that outlasts the re-run still
//! can. The output carries the measuring host (cores, build profile,
//! git revision).

use dtnflow_bench::chaos::{outage_plan, run_segment, ChaosInputs, SegmentEnd};
use dtnflow_bench::cli::{self, Args};
use dtnflow_bench::timing::Stopwatch;
use dtnflow_core::dense::{DenseMap, DenseSet};
use dtnflow_core::ids::{LandmarkId, PacketId};
use dtnflow_core::{DeadlineQueue, RankIndex};
use dtnflow_obs::json::{parse, Value};
use dtnflow_obs::Recorder;
use dtnflow_predictor::MarkovPredictor;
use dtnflow_router::{BandwidthMatrix, FlowConfig, FlowRouter, RoutingTable, StoredVector};
use dtnflow_sim::{FaultPlan, World};
use dtnflow_snapshot::{Reader, SnapshotFile, Writer};
use std::hint::black_box;
use std::time::Duration;

/// JSON schema tag for `BENCH_hotpath.json`.
const SCHEMA: &str = "dtnflow-hotpath-bench-v3";
/// Landmark-set size for every synthetic workload (campus-scenario scale).
const NUM_LANDMARKS: usize = 40;
/// Node count for the carrier-selection scan.
const NUM_NODES: usize = 200;
/// A bench is a regression when it is more than this factor slower.
const REGRESSION_FACTOR: f64 = 2.0;
/// Full mode runs the whole battery this many times, [`PASS_PAUSE`]
/// apart, and keeps each bench's second-slowest pass. A pass takes
/// well under a second, so back-to-back passes would all sample one
/// phase of the host; spread over twelve minutes they reach its slow
/// phase too.
const FULL_PASSES: usize = 7;
/// The pause between full-mode passes.
const PASS_PAUSE: Duration = Duration::from_secs(120);
/// `(samples, base op count, passes)` of quick mode, which `--check`
/// also uses to re-run a bench that reads over its bound.
const QUICK: (usize, u64, usize) = (3, 2_000, 1);
/// The same for full mode.
const FULL: (usize, u64, usize) = (7, 20_000, FULL_PASSES);

/// `per_layer` metrics of `BENCHMARK.json` that the benches model.
const ON_ARRIVE: &str = "dtnflow.on_arrive.busy_s";
const ON_DEPART: &str = "dtnflow.on_depart.busy_s";
const ON_TIME_UNIT: &str = "dtnflow.on_time_unit.busy_s";
const ON_STATION_DOWN: &str = "dtnflow.on_station_down.busy_s";

/// Every bench: its id, the `per_layer` metric whose time its loop
/// models, its op count as a divisor of the mode's base count, and the
/// function that returns its median ns/op.
type Bench = (&'static str, &'static str, u64, fn(usize, u64) -> f64);

#[rustfmt::skip]
const BENCHES: [Bench; 13] = [
    ("carrier_selection", ON_ARRIVE, 1, bench_carrier_selection),
    // The arrival's insert half; the departure removes the same keys.
    (
        "rank_index_maintenance",
        ON_ARRIVE,
        1,
        bench_rank_index_maintenance,
    ),
    ("route_cache_lookup", ON_ARRIVE, 1, bench_route_cache_lookup),
    (
        "deadline_queue_cycle",
        "sim.engine_self_s",
        1,
        bench_deadline_queue_cycle,
    ),
    (
        "routing_table_recompute",
        ON_TIME_UNIT,
        10,
        bench_routing_table_recompute,
    ),
    ("ewma_fold", ON_TIME_UNIT, 10, bench_ewma_fold),
    ("markov_update", ON_ARRIVE, 1, bench_markov_update),
    ("markov_predict", ON_ARRIVE, 1, bench_markov_predict),
    // Two of its three calls pack the departing node's vector.
    ("table_exchange", ON_DEPART, 1, bench_table_exchange),
    // The packet indexes the uplink and downlink move packets between.
    ("dense_map_churn", ON_ARRIVE, 1, bench_dense_map_churn),
    // The packet queues behind every store and bucket, under the op
    // mix counted for DTN-FLOW's sets.
    ("dense_set_queue", ON_ARRIVE, 1, bench_dense_set_queue),
    (
        "snapshot_codec",
        "snapshot.encode_s",
        20,
        bench_snapshot_codec,
    ),
    // Most rebuckets run on station-down; unit boundaries and retries
    // run the same rebuild.
    ("station_rebucket", ON_STATION_DOWN, 1, bench_station_rebucket),
];

/// Deterministic 64-bit LCG; the benches must not depend on ambient
/// randomness (detlint D-rules) and do not need statistical quality.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn next_lm(&mut self, n: usize) -> LandmarkId {
        LandmarkId((self.next() % n as u64) as u16)
    }
}

/// Run `op` in `ops`-sized batches `samples` times; return the median
/// ns/op.
fn run_bench(samples: usize, ops: u64, mut op: impl FnMut(u64) -> u64) -> f64 {
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
    per_op_ns[per_op_ns.len() / 2]
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

/// The trained population with every node's positive-probability score
/// keys filed in one rank index (group 0), the way
/// `FlowRouter::rank_update` files them on arrival.
fn filed_rank() -> (Vec<MarkovPredictor>, RankIndex) {
    let nodes = trained_predictors();
    let mut rank = RankIndex::new(1);
    let mut dist = Vec::new();
    for (n, pred) in nodes.iter().enumerate() {
        pred.distribution_into(&mut dist);
        for &(target, p) in dist.iter() {
            if p > 0.0 {
                rank.insert(0, target.0, p, n as u32);
            }
        }
    }
    (nodes, rank)
}

/// §IV-D: pick the best connected carrier for a destination landmark.
/// Pre-index era this was an argmax scan over every node's predicted
/// transit probability (~1.15 µs/op at 200 nodes); now it is the head
/// of the maintained rank list — the committed baseline pins the gap.
fn bench_carrier_selection(samples: usize, ops: u64) -> f64 {
    let (_, rank) = filed_rank();
    run_bench(samples, ops, move |i| {
        let dst = LandmarkId((i % NUM_LANDMARKS as u64) as u16);
        rank.ranked(0, dst.0)
            .first()
            .map_or(0, |e| u64::from(e.member))
    })
}

/// The cost of keeping the rank index fresh: one depart + arrive cycle
/// (remove then reinsert a node's score keys), the router's incremental
/// maintenance work per contact event.
fn bench_rank_index_maintenance(samples: usize, ops: u64) -> f64 {
    let (nodes, mut rank) = filed_rank();
    let mut dist = Vec::new();
    run_bench(samples, ops, move |i| {
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

/// Landmark 0's table with a claim from every neighbor for every
/// destination, relaxed once.
fn claimed_table() -> RoutingTable {
    let mut table = RoutingTable::new(LandmarkId(0), NUM_LANDMARKS);
    for from in 1..NUM_LANDMARKS as u16 {
        for dest in 1..NUM_LANDMARKS as u16 {
            if from != dest {
                let delay = f64::from(from) * 17.0 + f64::from(dest) * 3.0 + 60.0;
                table.set_claim(LandmarkId(from), LandmarkId(dest), delay, u64::from(from));
            }
        }
    }
    table.recompute(&link_delay);
    table
}

fn link_delay(lm: LandmarkId) -> f64 {
    30.0 + f64::from(lm.0) * 5.0
}

/// One next-hop decision through the real `FlowRouter` route cache over
/// a fully-claimed table. Every 256th op flushes the cache (a station
/// up/down epoch bump) so the measurement keeps the miss path — a full
/// `choose_next_uncached` recompute — in the mix.
fn bench_route_cache_lookup(samples: usize, ops: u64) -> f64 {
    let mut router = FlowRouter::new(FlowConfig::default(), NUM_NODES, NUM_LANDMARKS);
    router.bench_install_table(LandmarkId(0), claimed_table());
    run_bench(samples, ops, move |i| {
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
fn bench_deadline_queue_cycle(samples: usize, ops: u64) -> f64 {
    // A TTL-deep backlog of in-order deadlines, like multi-day TTLs over
    // 1 s ticks.
    const TTL: u64 = 4_096;
    let mut queue = DeadlineQueue::new();
    for t in 0..TTL {
        queue.push(t + TTL, t, t);
    }
    let mut tick = 0u64;
    run_bench(samples, ops, move |_| {
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
fn bench_routing_table_recompute(samples: usize, ops: u64) -> f64 {
    let mut table = claimed_table();
    run_bench(samples, ops, move |_| {
        table.recompute(&link_delay);
        table.revision()
    })
}

/// §IV-C bandwidth estimation: a unit's arrivals plus the end-of-unit
/// EWMA fold over the full landmark-pair matrix.
fn bench_ewma_fold(samples: usize, ops: u64) -> f64 {
    let mut table = BandwidthMatrix::new(NUM_LANDMARKS, 0.3);
    let mut rng = Lcg(0xE3A4_F01D);
    run_bench(samples, ops, move |_| {
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
fn bench_markov_update(samples: usize, ops: u64) -> f64 {
    let mut pred = MarkovPredictor::with_landmarks(1, NUM_LANDMARKS);
    let mut rng = Lcg(0x0B5E_77ED);
    run_bench(samples, ops, move |_| {
        pred.observe(rng.next_lm(NUM_LANDMARKS));
        pred.observations() as u64
    })
}

/// §IV-B: the transit prediction `on_arrive` makes after observing a
/// visit, plus the successor distribution the rank index files, across
/// a population of trained predictors in different contexts.
fn bench_markov_predict(samples: usize, ops: u64) -> f64 {
    let nodes = trained_predictors();
    let mut dist = Vec::new();
    run_bench(samples, ops, move |i| {
        let pred = &nodes[(i % NUM_NODES as u64) as usize];
        let next = pred.predict().map_or(0, |(lm, _)| u64::from(lm.0));
        pred.distribution_into(&mut dist);
        next + dist.len() as u64
    })
}

/// §IV-C.2: a departing node packs its landmark's distance vector
/// (`snapshot` + `table_size`, as `on_depart` does) and the next
/// landmark stores it (`receive`, as `on_arrive` does). The sequence
/// number rises every op, so each vector is accepted.
fn bench_table_exchange(samples: usize, ops: u64) -> f64 {
    let sender = claimed_table();
    let mut receiver = RoutingTable::new(LandmarkId(1), NUM_LANDMARKS);
    let mut seq = 0;
    run_bench(samples, ops, move |_| {
        seq += 1;
        let delays = sender.snapshot();
        let entries = sender.table_size() as u64;
        receiver.receive(LandmarkId(0), StoredVector { seq, delays });
        entries + receiver.revision()
    })
}

/// The storage primitive itself: insert, point-lookup, ordered iteration,
/// and removal on a `DenseMap` of landmark-id keys.
fn bench_dense_map_churn(samples: usize, ops: u64) -> f64 {
    let mut map: DenseMap<u16, u64> = DenseMap::new();
    let mut rng = Lcg(0xD15E_0001);
    run_bench(samples, ops, move |i| {
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

/// A packet queue under the operation mix counted over all of
/// DTN-FLOW's `DenseSet`s on the fig11 2000 kB cell (every insert and
/// remove of one benchmark round, CHANGES.md; which callers issue which
/// operations is not attributed): 58 % of inserts append above the
/// last member and 41 % land inside the set (the last 1 %, below the
/// first member, is left out); 40 % of removes take the first member,
/// 4 % the last and 56 % one inside. The queue is a
/// `DenseSet<PacketId>` of 1 500 ids, and each op inserts one id and
/// removes one. An interior remove takes a member drawn uniformly
/// across the live slice; an interior insert re-adds the latest
/// interior id removed that still lies inside (an append when none
/// does). Every 64th op walks the queue in ascending order, as the
/// stores' forwarding scans do.
fn bench_dense_set_queue(samples: usize, ops: u64) -> f64 {
    const DEPTH: usize = 1_500;
    let mut queue = DenseSet::new();
    for id in 0..DEPTH as u32 {
        queue.insert(PacketId(id));
    }
    // Interior ids removed and not re-added yet, latest last.
    let mut holes: Vec<PacketId> = Vec::with_capacity(2 * DEPTH);
    let (mut next, mut rng) = (DEPTH as u32, Lcg(0xD15E_7001));
    run_bench(samples, ops, move |i| {
        let live = queue.as_slice();
        let (first, last) = (live[0], live[live.len() - 1]);
        let hole = if rng.next() % 99 < 41 {
            std::iter::from_fn(|| holes.pop()).find(|&h| first < h && h < last)
        } else {
            None
        };
        queue.insert(hole.unwrap_or_else(|| {
            next += 1;
            PacketId(next - 1)
        }));
        let live = queue.as_slice();
        let victim = match rng.next() % 100 {
            0..=39 => live[0],
            40..=43 => live[live.len() - 1],
            _ => {
                let inner = live[1 + rng.next() as usize % (live.len() - 2)];
                holes.push(inner);
                inner
            }
        };
        queue.remove(victim);
        if holes.len() == 2 * DEPTH {
            holes.drain(..DEPTH);
        }
        let mut acc = u64::from(victim.0);
        if i % 64 == 0 {
            acc += queue.iter().map(|p| u64::from(p.0)).sum::<u64>();
        }
        acc
    })
}

/// The tiny degradation cell paused at its mid-run boundary, with its
/// checkpoint (the `chaos_tiny13_mid` golden's state).
fn tiny_mid_run() -> (ChaosInputs, SnapshotFile) {
    let base = ChaosInputs::tiny(13, FaultPlan::none());
    let plan = outage_plan(&base.trace, base.cfg.time_unit.secs(), 13);
    let flow = FlowConfig::with_degradation();
    let inp = ChaosInputs { plan, flow, ..base };
    let Ok(SegmentEnd::Paused(bytes)) = run_segment(&inp, None, Some(inp.max_unit() / 2)) else {
        panic!("the tiny run pauses at its mid-run boundary");
    };
    let file = SnapshotFile::parse(&bytes).expect("checkpoint parses");
    (inp, file)
}

fn bench_snapshot_codec(samples: usize, ops: u64) -> f64 {
    let (inp, file) = tiny_mid_run();
    let section = |name| Reader::new(&file.section(name).expect("section").payload);
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    run_bench(samples, ops, |_| {
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

/// The station rebuild (`FlowRouter::rebucket`) of every station in the
/// tiny cell's restored mid-run state. Each op bumps the route epoch
/// first, as a station fault does, so every destination group takes the
/// route cache's miss path. Reports ns per station packet rebuilt.
fn bench_station_rebucket(samples: usize, ops: u64) -> f64 {
    let (inp, file) = tiny_mid_run();
    let section = |name| Reader::new(&file.section(name).expect("section").payload);
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    let mut router = FlowRouter::restore_state(&mut section("router"), inp.flow.clone(), n, l)
        .expect("router decodes");
    let world =
        World::decode_state(&mut section("world"), inp.cfg.clone(), n, l).expect("world decodes");
    let stations: Vec<LandmarkId> = (0..l).map(LandmarkId::from).collect();
    let held: usize = stations
        .iter()
        .map(|&s| world.station_packet_count(s))
        .sum();
    assert!(held > 0, "the mid-run stations hold packets");
    let per_op = run_bench(samples, ops, |_| {
        router.bench_flush_route_cache();
        for &lm in &stations {
            router.bench_rebucket(&world, lm);
        }
        router.stats().fallback_reroutes
    });
    per_op / held as f64
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
/// of >2x regressions. A bench over the bound is run once more, in
/// quick mode, and counts only when the re-run is over the bound too.
/// A baseline bench that is *absent* from the candidate is a hard
/// error, not a pass: a renamed or dropped bench would otherwise
/// silently unpin its perf trajectory.
fn check(new_path: &str, base_path: &str) -> Result<usize, String> {
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
        let first = format!("{base_ns:.1} -> {ns:.1} ns/op ({ratio:.2}x)");
        if ratio <= REGRESSION_FACTOR {
            println!("OK         {id}: {first}");
            continue;
        }
        let (samples, ops, _) = QUICK;
        let rerun = BENCHES
            .iter()
            .find(|b| b.0 == id)
            .map(|&(_, _, ops_div, bench)| bench(samples, ops / ops_div));
        match rerun {
            Some(again) if again / base_ns <= REGRESSION_FACTOR => println!(
                "OK         {id}: {first}, re-run {again:.1} ns/op ({:.2}x)",
                again / base_ns
            ),
            Some(again) => {
                regressions += 1;
                println!(
                    "REGRESSION {id}: {first}, re-run {again:.1} ns/op ({:.2}x slower)",
                    again / base_ns
                );
            }
            None => {
                regressions += 1;
                println!("REGRESSION {id}: {first}, no such bench to re-run");
            }
        }
    }
    Ok(regressions)
}

const USAGE: &str =
    "usage: hotpath [--quick] [--out FILE]\n       hotpath --check NEW --against BASELINE";

fn main() {
    let mut args = Args::from_env(USAGE);
    let quick = args.switch("--quick");
    let out = args.value("--out");
    let check_new = args.value("--check");
    let check_base = args.value("--against");
    let [] = args.finish();

    match (check_new, check_base) {
        (Some(new_path), Some(base_path)) => match check(&new_path, &base_path) {
            Ok(0) => println!("hotpath check: no regressions > {REGRESSION_FACTOR}x"),
            Ok(n) => {
                println!("hotpath check: {n} regression(s) > {REGRESSION_FACTOR}x");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("hotpath check: {e}");
                std::process::exit(2);
            }
        },
        (None, None) => run(quick, out.as_deref()),
        _ => args.fail("--check and --against go together"),
    }
}

/// Run every bench (quick: one pass; full: [`FULL_PASSES`] passes over
/// the whole battery, [`PASS_PAUSE`] apart, each bench's second-slowest
/// pass kept) and write the report to `out`.
fn run(quick: bool, out: Option<&str>) {
    let out = cli::out_file(out.unwrap_or("results/BENCH_hotpath.json"));
    let (samples, ops, passes) = if quick { QUICK } else { FULL };
    let mut runs = vec![Vec::with_capacity(passes); BENCHES.len()];
    for pass in 1..=passes {
        if pass > 1 {
            println!("pausing {} s before pass {pass}", PASS_PAUSE.as_secs());
            std::thread::sleep(PASS_PAUSE);
        }
        for (&(id, _, ops_div, bench), runs) in BENCHES.iter().zip(&mut runs) {
            let ns_per_op = bench(samples, ops / ops_div);
            println!("pass {pass}/{passes} {id:<24} {ns_per_op:>12.1} ns/op");
            runs.push(ns_per_op);
        }
    }
    let benches = BENCHES
        .iter()
        .zip(runs)
        .map(|(&(id, layer, ops_div, _), mut runs)| {
            let ops = ops / ops_div;
            runs.sort_by(f64::total_cmp);
            let ns_per_op = runs[runs.len().saturating_sub(2)];
            let ops_per_sec = 1e9 / ns_per_op;
            let kept = if passes > 1 { "second-slowest" } else { "one" };
            println!(
                "{id:<24} {ns_per_op:>12.1} ns/op {ops_per_sec:>14.0} ops/s \
             ({ops} ops x {samples} samples, {kept} of {passes} pass(es))"
            );
            Value::object([
                ("id".to_owned(), Value::str(id)),
                ("layer".to_owned(), Value::str(layer)),
                ("ns_per_op".to_owned(), Value::Number(ns_per_op)),
                ("ops_per_sec".to_owned(), Value::Number(ops_per_sec)),
                ("ops".to_owned(), Value::int(ops)),
                ("samples".to_owned(), Value::int(samples as u64)),
                ("passes".to_owned(), Value::int(passes as u64)),
            ])
        });
    let benches = Value::Array(benches.collect());
    cli::write_bench(&out, SCHEMA, quick, vec![("benches", benches)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layer tag names a `per_layer` metric of `BENCHMARK.json`.
    #[test]
    fn every_layer_tag_is_a_benchmark_layer() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let layers: Vec<&str> = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("a per_layer array")
            .iter()
            .filter_map(|m| m.get("name").and_then(Value::as_str))
            .collect();
        for (id, layer, ..) in BENCHES {
            assert!(
                layers.contains(&layer),
                "{id}: `{layer}` is not a per_layer metric"
            );
        }
    }
}
