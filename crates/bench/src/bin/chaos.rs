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
//! Exit status (shared by every harness binary, see `dtnflow_bench::cli`):
//! 0 ok; 1 when a restore fails or any case diverges from the
//! uninterrupted run or breaks packet conservation; 2 on a usage error
//! (an unknown flag, a missing or malformed value) or an unwritable
//! `--out`.

use dtnflow_bench::chaos::{cases_json, sweep, SCHEMA};
use dtnflow_bench::cli::{self, Args};
use dtnflow_bench::runners::Method;
use dtnflow_obs::json::Value;

fn main() {
    let mut args = Args::from_env("usage: chaos [--quick] [--seed N] [--out FILE]");
    let quick = args.switch("--quick");
    let seed: u64 = args.parsed("--seed").unwrap_or(0xC4A05);
    let out = args.value("--out");
    let [] = args.finish();
    let out = cli::out_file(out.as_deref().unwrap_or("results/BENCH_chaos.json"));

    let results = match sweep(quick, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos sweep failed: {e}");
            std::process::exit(1);
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
    let fields = vec![
        ("method", Value::str(Method::Flow.name())),
        ("cases", cases_json(&results)),
    ];
    cli::write_bench(&out, SCHEMA, quick, fields);
    if failures > 0 {
        println!("chaos: {failures} case(s) diverged");
        std::process::exit(1);
    }
    println!("chaos: all {} case(s) byte-identical", results.len());
}
