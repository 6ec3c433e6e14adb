//! Regenerate the DTN-FLOW paper's tables and figures.
//!
//! ```text
//! experiments [IDS...] [--quick] [--obs] [--out DIR] [--list]
//!
//! IDS      experiment ids (table1 fig2 ... deploy ablation sched) or `all`
//! --quick  shrink parameter sweeps (smoke mode)
//! --obs    attach a flight recorder to the simulation-heavy sweeps and
//!          dump per-cell observability reports (<id>_obs.json/.csv) plus
//!          a BENCH_obs.json timing baseline stamped with the host's
//!          cores, build profile and the working directory's git
//!          revision (`-dirty` with uncommitted changes)
//! --out    output directory for .txt/.csv results (default: results)
//! --list   print the known ids and exit
//! ```
//!
//! Exit status (shared by every harness binary, see `dtnflow_bench::cli`):
//! 0 ok; 2 on a usage error (a missing or malformed flag value, an
//! unknown flag or id) or an output directory that cannot be written.

use dtnflow_bench::cli::{self, Args};
use dtnflow_bench::experiments::{run_experiment, ExperimentOpts, ObsCell, ALL_IDS};
use dtnflow_bench::host::bench_host;
use dtnflow_bench::timing::Stopwatch;
use dtnflow_obs::{bench_json, report_json, BenchEntry, Snapshot};
use std::path::Path;

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
    cli::write(
        &out_dir.join(format!("{id}_obs.json")),
        &report_json(id, &pairs),
    );
    cli::write(&out_dir.join(format!("{id}_obs.csv")), &obs_csv(cells));
}

fn main() {
    let mut args = Args::from_env(format!(
        "usage: experiments [IDS...|all] [--quick] [--obs] [--out DIR] [--list]\n\
         known ids: {}",
        ALL_IDS.join(" ")
    ));
    let opts = ExperimentOpts {
        quick: args.switch("--quick"),
        obs: args.switch("--obs"),
    };
    let out_dir = args.value("--out");
    let list = args.switch("--list");
    let mut ids = args.positionals();
    if list {
        for id in ALL_IDS {
            println!("{id}");
        }
        return;
    }
    if ids.iter().any(|id| id == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    if ids.is_empty() {
        args.fail("no experiment ids given");
    }
    if let Some(id) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        args.fail(&format!("unknown experiment id `{id}`"));
    }
    let out_dir = cli::out_dir(out_dir.as_deref().unwrap_or("results"));

    let mut bench_entries: Vec<BenchEntry> = Vec::new();
    for id in &ids {
        let started = Stopwatch::start();
        println!("=== {id} ===");
        let (tables, cells) = run_experiment(id, &opts);
        for table in &tables {
            println!("{}", table.render());
            if let Err(e) = table.save(&out_dir) {
                cli::unwritable(&out_dir, e);
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
        cli::write(
            &out_dir.join("BENCH_obs.json"),
            &bench_json(&bench_host(), &bench_entries),
        );
    }
}
