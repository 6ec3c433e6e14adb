//! Regenerate the DTN-FLOW paper's tables and figures.
//!
//! ```text
//! experiments [IDS...] [--quick] [--obs] [--shards N] [--out DIR] [--list]
//!
//! IDS      experiment ids (table1 fig2 ... deploy ablation sched) or `all`
//! --quick  shrink parameter sweeps (smoke mode)
//! --obs    attach a flight recorder to the simulation-heavy sweeps and
//!          dump per-cell observability reports (<id>_obs.json/.csv) plus
//!          a BENCH_obs.json timing baseline stamped with the host's
//!          cores, build profile and the working directory's git
//!          revision (`-dirty` with uncommitted changes)
//! --shards run the simulation sweeps (fig11–fig14, resilience) under
//!          an N-shard runtime (DESIGN.md §13); every output is
//!          byte-identical to N=1
//! --out    output directory for .txt/.csv results (default: results)
//! --list   print the known ids and exit
//! ```
//!
//! A missing or malformed flag value, an unknown flag or an unknown id
//! prints the usage line and exits with status 2.

use dtnflow_bench::experiments::{run_experiment, ExperimentOpts, ObsCell, ALL_IDS};
use dtnflow_bench::host::bench_host;
use dtnflow_bench::timing::Stopwatch;
use dtnflow_obs::{bench_json, report_json, BenchEntry, Snapshot};
use std::path::{Path, PathBuf};

const USAGE: &str =
    "usage: experiments [IDS...|all] [--quick] [--obs] [--shards N] [--out DIR] [--list]";

/// Report a command-line error with the usage line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    eprintln!("known ids: {}", ALL_IDS.join(" "));
    std::process::exit(2);
}

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
    let mut opts = ExperimentOpts::FULL;
    let mut out_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // A flag's value: the next argument, unless it is another flag.
        let mut value = || it.next().filter(|v| !v.starts_with("--"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--obs" => opts.obs = true,
            "--shards" => match value().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.shards = n,
                _ => usage_error("--shards requires a positive integer"),
            },
            "--out" => match value() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => usage_error("--out requires a directory argument"),
            },
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => usage_error(&format!("unknown flag `{other}`")),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage_error("no experiment ids given");
    }
    if let Some(id) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        usage_error(&format!("unknown experiment id `{id}`"));
    }

    let mut bench_entries: Vec<BenchEntry> = Vec::new();
    for id in &ids {
        let started = Stopwatch::start();
        println!("=== {id} ===");
        let (tables, cells) = run_experiment(id, &opts);
        for table in &tables {
            println!("{}", table.render());
            if let Err(e) = table.save(&out_dir) {
                eprintln!("warning: could not save {}: {e}", table.id);
            }
        }
        if !cells.is_empty() {
            write_obs_files(&out_dir, id, &cells);
        }
        if opts.obs {
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
    if opts.obs && !bench_entries.is_empty() {
        let path = out_dir.join("BENCH_obs.json");
        if let Err(e) = std::fs::write(&path, bench_json(&bench_host(), &bench_entries)) {
            eprintln!("warning: could not save {}: {e}", path.display());
        }
    }
}
