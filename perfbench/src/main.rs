//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one fig11 workload and prints, last on stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. Exits
//! 1 when any correctness check fails and 2 on bad arguments.

use dtnflow_perfbench::workloads::{self, Metric, Report, Workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: (String, Workload),
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?;
                workload = Some((value.clone(), w));
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit being measured, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn host_stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"nproc\": {nproc}, \"profile\": {}, \"git\": {}, \"rustc\": {}}}",
        json_str(&args.workload.0),
        u8::from(args.trace),
        args.seed,
        json_str(profile),
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
    )
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("# host {}", host_stamp(&args));
    let w = args.workload.1;
    let report = if args.trace {
        workloads::run_traced(w, args.seed)
    } else {
        workloads::run_untraced(w, args.seed, args.seconds)
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
