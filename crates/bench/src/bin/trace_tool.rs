//! Trace tooling for the DTN-FLOW workspace.
//!
//! ```text
//! trace-tool gen <campus|bus|deployment> [--seed N] [--out FILE]
//! trace-tool stats <FILE|campus|bus|deployment>
//! trace-tool validate <FILE>
//! trace-tool predict <FILE|campus|bus|deployment> [--max-k K]
//! ```
//!
//! `gen` writes a trace in the v1 text format; `stats` prints the Table-I
//! style summary plus the busiest landmarks and links; `validate` parses
//! a file and reports problems; `predict` evaluates the order-k and
//! back-off predictors on the trace (the Fig. 6 analysis for your data).
//!
//! Exit status (shared by every harness binary, see `dtnflow_bench::cli`):
//! 0 ok; 1 on an unreadable or malformed trace file; 2 on a usage error
//! (a missing or extra subcommand argument, an unknown flag, a flag with
//! a missing or malformed value) or an unwritable `--out`.

use dtnflow_bench::cli::{self, Args};
use dtnflow_core::time::DAY;
use dtnflow_mobility::synth::bus::{BusConfig, BusModel};
use dtnflow_mobility::synth::campus::{CampusConfig, CampusModel};
use dtnflow_mobility::synth::deployment::{DeploymentConfig, DeploymentModel};
use dtnflow_mobility::{io, stats, Trace};
use dtnflow_predictor::{accuracy_five_num, evaluate_fallback, evaluate_order_k};
use std::process::exit;

const USAGE: &str = "usage:\n  trace-tool gen <campus|bus|deployment> [--seed N] [--out FILE]\n  \
    trace-tool stats <FILE|campus|bus|deployment>\n  \
    trace-tool validate <FILE>\n  \
    trace-tool predict <FILE|campus|bus|deployment> [--max-k K]";

fn builtin(name: &str, seed: Option<u64>) -> Option<Trace> {
    match name {
        "campus" => Some(
            CampusModel::new(CampusConfig {
                seed: seed.unwrap_or(CampusConfig::default().seed),
                ..CampusConfig::default()
            })
            .generate(),
        ),
        "bus" => Some(
            BusModel::new(BusConfig {
                seed: seed.unwrap_or(BusConfig::default().seed),
                ..BusConfig::default()
            })
            .generate(),
        ),
        "deployment" => Some(
            DeploymentModel::new(DeploymentConfig {
                seed: seed.unwrap_or(DeploymentConfig::default().seed),
                ..DeploymentConfig::default()
            })
            .generate(),
        ),
        _ => None,
    }
}

fn load(source: &str) -> Trace {
    if let Some(t) = builtin(source, None) {
        return t;
    }
    let text = std::fs::read_to_string(source).unwrap_or_else(|e| {
        eprintln!("cannot read {source}: {e}");
        exit(1);
    });
    io::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {source}: {e}");
        exit(1);
    })
}

fn cmd_gen(args: &mut Args) {
    let seed = args.parsed("--seed");
    let out = args.value("--out");
    let [kind] = args.finish();
    let out = out.map(cli::out_file);
    let Some(trace) = builtin(&kind, seed) else {
        args.fail(&format!(
            "unknown generator `{kind}` (campus|bus|deployment)"
        ));
    };
    let text = io::to_text(&trace);
    match out {
        Some(path) => {
            cli::write(&path, &text);
            eprintln!(
                "wrote {}: {} nodes, {} landmarks, {} visits",
                path.display(),
                trace.num_nodes(),
                trace.num_landmarks(),
                trace.visits().len()
            );
        }
        None => print!("{text}"),
    }
}

fn cmd_stats(args: &mut Args) {
    let [source] = args.finish();
    let trace = load(&source);
    let c = stats::characteristics(&trace);
    println!("trace     {}", c.name);
    println!("nodes     {}", c.nodes);
    println!("landmarks {}", c.landmarks);
    println!("duration  {:.1} days", c.duration_days);
    println!("visits    {}", c.visits);
    println!(
        "transits  {} ({:.2} per node per day)",
        c.transits, c.transit_rate
    );

    println!("\nmost visited landmarks:");
    for (lm, visits) in stats::landmark_popularity(&trace).into_iter().take(8) {
        let conc = stats::visit_concentration(&trace, lm, 0.2);
        println!(
            "  {lm}: {visits} visits ({:.0}% from the top-20% of nodes)",
            conc * 100.0
        );
    }

    let unit = DAY;
    let b = stats::link_bandwidths(&trace, unit);
    let links = b.ordered_links();
    println!("\nbusiest transit links (per day):");
    for (from, to, bw) in links.iter().take(8) {
        println!(
            "  {from} -> {to}: {bw:.2} (reverse {:.2})",
            b.get(*to, *from)
        );
    }
    if !links.is_empty() {
        println!(
            "\nmatching-link symmetry correlation: {:.3}",
            b.matching_link_symmetry()
        );
    }
}

fn cmd_validate(args: &mut Args) {
    let [path] = args.finish();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    match io::from_text(&text) {
        Ok(t) => println!(
            "OK: {} nodes, {} landmarks, {} visits, {:.1} days",
            t.num_nodes(),
            t.num_landmarks(),
            t.visits().len(),
            t.duration().as_days()
        ),
        Err(e) => {
            eprintln!("INVALID: {e}");
            exit(1);
        }
    }
}

fn cmd_predict(args: &mut Args) {
    let max_k: usize = args.parsed("--max-k").unwrap_or(3);
    let [source] = args.finish();
    if max_k == 0 {
        args.fail("--max-k must be at least 1");
    }
    let trace = load(&source);
    println!("order-k Markov predictor accuracy on `{}`:", trace.name());
    for k in 1..=max_k {
        let r = evaluate_order_k(&trace, k);
        let mean = r.mean_node_accuracy().unwrap_or(0.0);
        println!("  k={k}: mean {mean:.3} ({} attempts)", r.attempts);
    }
    let fb = evaluate_fallback(&trace, max_k);
    println!(
        "  back-off (max k={max_k}): mean {:.3}",
        fb.mean_node_accuracy().unwrap_or(0.0)
    );
    if let Some(f) = accuracy_five_num(&evaluate_order_k(&trace, 1)) {
        println!(
            "  per-node (k=1): min {:.2} | q1 {:.2} | mean {:.2} | q3 {:.2} | max {:.2}",
            f.min, f.q1, f.mean, f.q3, f.max
        );
    }
}

fn main() {
    let mut args = Args::from_env(USAGE);
    match args.command().as_deref() {
        Some("gen") => cmd_gen(&mut args),
        Some("stats") => cmd_stats(&mut args),
        Some("validate") => cmd_validate(&mut args),
        Some("predict") => cmd_predict(&mut args),
        _ => args.fail("missing or unknown subcommand"),
    }
}
