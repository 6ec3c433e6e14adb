//! Campus data collection — the paper's §V-C deployment scenario: every
//! building generates reports that must reach the library, carried only by
//! the phones of nine students going about their day.
//!
//! ```text
//! cargo run --release --example campus_data_collection
//! ```

use dtn_flow::mobility::synth::deployment::LIBRARY;
use dtn_flow::prelude::*;

fn main() {
    let trace = DeploymentModel::new(DeploymentConfig::default()).generate();
    let mut cfg = SimConfig::deployment();
    // Give every packet its full TTL window, like the real deployment.
    cfg.gen_tail_margin = cfg.ttl;

    // All packets target the library.
    let workload = Workload::sink(&cfg, trace.num_landmarks(), trace.duration(), LIBRARY);
    println!(
        "collecting {} reports from {} buildings into the library...",
        workload.len(),
        trace.num_landmarks() - 1
    );

    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let outcome = RunSpec::new(&trace, &cfg)
        .workload(&workload)
        .run(&mut router);
    let m = &outcome.metrics;

    println!("success rate  {:.3}", m.success_rate());
    if let Some(f) = m.delay_summary() {
        println!(
            "delay (min)   min {:.0} | q1 {:.0} | mean {:.0} | q3 {:.0} | max {:.0}",
            f.min / 60.0,
            f.q1 / 60.0,
            f.mean / 60.0,
            f.q3 / 60.0,
            f.max / 60.0
        );
    }

    // Which inter-building flows carried the data? (Fig. 16b)
    println!("\nmajor transit links (>= 0.14 transits/unit):");
    let n = trace.num_landmarks();
    let mut links = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let bw = router.bandwidth(LandmarkId::from(i), LandmarkId::from(j));
                if bw >= 0.14 {
                    links.push((i, j, bw));
                }
            }
        }
    }
    links.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    for (i, j, bw) in links.iter().take(8) {
        println!("  l{i} -> l{j}: {bw:.2}");
    }

    // How does each building reach the library? (Table X)
    println!("\nroutes to the library:");
    for l in 1..n {
        let rows = router.routing_rows(LandmarkId::from(l));
        if let Some((_, next, delay)) = rows.iter().find(|(d, _, _)| *d == LIBRARY) {
            println!("  l{l} -> via {next} ({:.0} min expected)", delay / 60.0);
        } else {
            println!("  l{l} -> (no route learned)");
        }
    }
}
