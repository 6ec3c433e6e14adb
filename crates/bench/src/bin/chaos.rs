//! Chaos-recovery sweep: kill/restore the fig11 campus cell at seeded
//! unit boundaries and demand byte-identical outcomes (DESIGN.md §11).
//!
//! ```text
//! chaos [--quick] [--seed N] [--out FILE]
//!
//! --quick    one memory point instead of three (CI smoke mode)
//! --seed     kill-schedule seed (default 0xC4A05)
//! --out      where to write BENCH_chaos.json
//!            (default: results/BENCH_chaos.json)
//! ```
//!
//! Exit status 1 when any case diverges from the uninterrupted run or
//! breaks packet conservation; 2 on usage or I/O errors (a missing or
//! malformed flag value prints the usage line).

use dtnflow_bench::chaos::{results_json, sweep};
use dtnflow_bench::host::bench_host;
use dtnflow_bench::runners::Method;
use std::path::PathBuf;

const USAGE: &str = "usage: chaos [--quick] [--seed N] [--out FILE]";

/// Report a command-line error with the usage line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed: u64 = 0xC4A05;
    let mut out = PathBuf::from("results/BENCH_chaos.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // A flag's value: the next argument, unless it is another flag.
        let mut value = || it.next().filter(|v| !v.starts_with("--"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => match value().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => seed = n,
                _ => usage_error("--seed requires a u64 argument"),
            },
            "--out" => match value() {
                Some(file) => out = PathBuf::from(file),
                None => usage_error("--out requires a file argument"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let mode = if quick { "quick" } else { "full" };
    let results = match sweep(quick, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos sweep failed: {e}");
            std::process::exit(2);
        }
    };
    let mut failures = 0usize;
    for r in &results {
        let verdict = if r.matched && r.conservation {
            "OK        "
        } else {
            failures += 1;
            "DIVERGED  "
        };
        println!(
            "{verdict} {:<28} kills {:?} snapshots {:?} B ({:.1}s)",
            r.id, r.kills, r.snapshot_bytes, r.wall_secs
        );
    }
    let json = results_json(mode, &bench_host(), Method::Flow, &results);
    if let Some(dir) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        }
    }
    match std::fs::write(&out, json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(2);
        }
    }
    if failures > 0 {
        println!("chaos: {failures} case(s) diverged");
        std::process::exit(1);
    }
    println!("chaos: all {} case(s) byte-identical", results.len());
}
