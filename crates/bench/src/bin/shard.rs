//! Sharded-engine scaling benchmark: cores-vs-wall curve for the fig11
//! campus cell under the DESIGN.md §13 shard runtime.
//!
//! ```text
//! shard [--quick] [--out FILE]
//!
//! --quick  one memory point instead of three (CI smoke mode)
//! --out    where to write BENCH_shard.json
//!          (default: results/BENCH_shard.json)
//! ```
//!
//! For each shard count in {1, 2, 4, 8} the bench runs the fig11 campus
//! memory cell(s) with DTN-FLOW (the only router whose unit-boundary
//! work fans out per landmark), records wall-clock time, and
//! byte-compares every output — the metrics CSV row and the canonical
//! observability snapshot JSON — against the sequential (shards = 1)
//! run. `identical` must be true for every row no matter the host; the
//! speedup column is only meaningful when `host_cores` exceeds the
//! shard count, and each curve entry records the host's core count so a
//! 1-core CI runner's flat curve cannot be mistaken for a scaling
//! regression.

use dtnflow_bench::runners::{run_method, Method};
use dtnflow_bench::scenarios::Scenario;
use dtnflow_bench::timing::Stopwatch;
use dtnflow_obs::json::Value;
use dtnflow_obs::{Recorder, DEFAULT_RING_CAPACITY};
use dtnflow_sim::{RunSpec, ShardExec};
use std::path::PathBuf;

/// JSON schema tag for `BENCH_shard.json`.
const SCHEMA: &str = "dtnflow-shard-bench-v3";
/// The cores-vs-wall curve's x axis.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct ShardResult {
    shards: usize,
    wall_secs: f64,
    speedup_vs_1: f64,
    identical: bool,
}

/// Run every memory point at `shards` shards; returns total wall time
/// and the concatenated comparable artifacts (metrics row + snapshot
/// JSON per point).
fn run_curve_point(scenario: &Scenario, memory_kbs: &[u64], shards: usize) -> (f64, String) {
    let sw = Stopwatch::start();
    let mut artifacts = String::new();
    for &kb in memory_kbs {
        let cfg = scenario
            .base_cfg
            .clone()
            .with_memory_kb(kb)
            .with_seed(0xF11);
        let wl = scenario.workload(&cfg);
        let spec = RunSpec::new(&scenario.trace, &cfg)
            .workload(&wl)
            .sink(Box::new(Recorder::new(DEFAULT_RING_CAPACITY)))
            .shards(shards);
        let (outcome, snapshot) = run_method(spec, Method::Flow);
        let s = outcome.summary;
        artifacts.push_str(&format!(
            "{kb},{:.3},{:.0},{},{:.0}\n{}\n",
            s.success_rate,
            s.average_delay_secs / 60.0,
            s.forwarding_ops,
            s.total_cost,
            snapshot.unwrap_or_default().to_json()
        ));
    }
    (sw.elapsed_secs(), artifacts)
}

fn results_json(
    mode: &str,
    host_cores: usize,
    memory_kbs: &[u64],
    results: &[ShardResult],
) -> String {
    Value::object([
        ("schema".to_owned(), Value::str(SCHEMA)),
        ("mode".to_owned(), Value::str(mode)),
        ("host_cores".to_owned(), Value::int(host_cores as u64)),
        ("scenario".to_owned(), Value::str("fig11-campus")),
        ("method".to_owned(), Value::str(Method::Flow.name())),
        (
            "memory_kbs".to_owned(),
            Value::Array(memory_kbs.iter().map(|&kb| Value::int(kb)).collect()),
        ),
        (
            "curve".to_owned(),
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::object([
                            ("shards".to_owned(), Value::int(r.shards as u64)),
                            ("host_cores".to_owned(), Value::int(host_cores as u64)),
                            ("wall_secs".to_owned(), Value::Number(r.wall_secs)),
                            ("speedup_vs_1".to_owned(), Value::Number(r.speedup_vs_1)),
                            ("identical".to_owned(), Value::Bool(r.identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = PathBuf::from("results/BENCH_shard.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(it.next().expect("--out requires a file argument")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: shard [--quick] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let memory_kbs: &[u64] = if quick {
        &[2_000]
    } else {
        &[1_200, 2_000, 3_000]
    };
    let mode = if quick { "quick" } else { "full" };
    let host_cores = ShardExec::host().threads();
    let scenario = Scenario::campus();
    println!("host cores: {host_cores}; scenario: fig11-campus ({mode})");

    let mut results: Vec<ShardResult> = Vec::new();
    let mut baseline: Option<(f64, String)> = None;
    let mut all_identical = true;
    for shards in SHARD_COUNTS {
        let (wall_secs, artifacts) = run_curve_point(&scenario, memory_kbs, shards);
        let (base_wall, identical) = match &baseline {
            None => {
                baseline = Some((wall_secs, artifacts));
                (wall_secs, true)
            }
            Some((w, base_art)) => (*w, artifacts == *base_art),
        };
        all_identical &= identical;
        let speedup = base_wall / wall_secs.max(1e-9);
        println!(
            "shards={shards:<2} wall={wall_secs:>7.2}s speedup={speedup:>5.2}x identical={identical}"
        );
        results.push(ShardResult {
            shards,
            wall_secs,
            speedup_vs_1: speedup,
            identical,
        });
    }

    let json = results_json(mode, host_cores, memory_kbs, &results);
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
    if !all_identical {
        eprintln!("FAIL: sharded outputs differ from the sequential run");
        std::process::exit(1);
    }
}
