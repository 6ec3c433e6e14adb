//! Regenerate the DTN-FLOW paper's tables and figures.
//!
//! ```text
//! experiments [IDS...] [--quick] [--obs] [--shards N] [--out DIR] [--list]
//!
//! IDS      experiment ids (table1 fig2 ... deploy ablation sched) or `all`
//! --quick  shrink parameter sweeps (smoke mode)
//! --obs    attach a flight recorder to the simulation-heavy sweeps and
//!          dump per-cell observability reports (<id>_obs.json/.csv) plus
//!          a BENCH_obs.json timing baseline
//! --shards run the comparison sweeps under an N-shard runtime
//!          (DESIGN.md §13); every output is byte-identical to N=1
//! --out    output directory for .txt/.csv results (default: results)
//! --list   print the known ids and exit
//! ```

use dtnflow_bench::experiments::{
    run_experiment_sharded, run_experiment_with_obs_sharded, ObsCell, ALL_IDS,
};
use dtnflow_bench::timing::Stopwatch;
use dtnflow_obs::{bench_json, report_json, BenchEntry, Snapshot};
use std::path::{Path, PathBuf};

/// The per-landmark counter tables of every cell, concatenated as CSV.
fn obs_csv(cells: &[ObsCell]) -> String {
    cells
        .iter()
        .map(|c| format!("# {}\n{}", c.label, c.snapshot.to_csv()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn write_obs_files(out_dir: &Path, id: &str, cells: &[ObsCell]) {
    let pairs: Vec<(String, Snapshot)> = cells
        .iter()
        .map(|c| (c.label.clone(), c.snapshot.clone()))
        .collect();
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
        return;
    }
    let json_path = out_dir.join(format!("{id}_obs.json"));
    if let Err(e) = std::fs::write(&json_path, report_json(id, &pairs)) {
        eprintln!("warning: could not save {}: {e}", json_path.display());
    }
    let csv_path = out_dir.join(format!("{id}_obs.csv"));
    if let Err(e) = std::fs::write(&csv_path, obs_csv(cells)) {
        eprintln!("warning: could not save {}: {e}", csv_path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut quick = false;
    let mut obs = false;
    let mut shards = 1usize;
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--obs" => obs = true,
            "--shards" => {
                shards = it
                    .next()
                    .expect("--shards requires a count argument")
                    .parse()
                    .expect("--shards requires a positive integer");
                assert!(shards >= 1, "--shards requires a positive integer");
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().expect("--out requires a directory argument"));
            }
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: experiments [IDS...|all] [--quick] [--obs] [--out DIR] [--list]");
        eprintln!("known ids: {}", ALL_IDS.join(" "));
        std::process::exit(2);
    }
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment id `{id}`; known: {}", ALL_IDS.join(" "));
            std::process::exit(2);
        }
    }

    let mut bench_entries: Vec<BenchEntry> = Vec::new();
    for id in &ids {
        let started = Stopwatch::start();
        println!("=== {id} ===");
        let (tables, cells) = if obs {
            run_experiment_with_obs_sharded(id, quick, shards)
        } else {
            (run_experiment_sharded(id, quick, shards), Vec::new())
        };
        for table in &tables {
            println!("{}", table.render());
            if let Err(e) = table.save(&out_dir) {
                eprintln!("warning: could not save {}: {e}", table.id);
            }
        }
        if !cells.is_empty() {
            write_obs_files(&out_dir, id, &cells);
        }
        if obs {
            bench_entries.push(BenchEntry {
                id: id.clone(),
                wall_secs: started.elapsed_secs(),
                events_recorded: cells.iter().map(|c| c.snapshot.events_recorded).sum(),
                events_dropped: cells.iter().map(|c| c.snapshot.events_dropped).sum(),
            });
        }
        println!(
            "({id} finished in {:.1}s; results under {})\n",
            started.elapsed_secs(),
            out_dir.display()
        );
    }
    if obs && !bench_entries.is_empty() {
        let path = out_dir.join("BENCH_obs.json");
        if let Err(e) = std::fs::write(&path, bench_json(&bench_entries)) {
            eprintln!("warning: could not save {}: {e}", path.display());
        }
    }
}
