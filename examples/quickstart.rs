//! Quickstart: generate a small campus trace, run DTN-FLOW over it, and
//! print the paper's four evaluation metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dtn_flow::prelude::*;

fn main() {
    // 1. A mobility trace: 20 synthetic students across 10 campus
    //    buildings for 12 days. Any `Trace` works here — load your own
    //    association logs with `dtn_flow::mobility::io::from_text`.
    let trace = CampusModel::new(CampusConfig::tiny()).generate();
    println!(
        "trace: {} nodes, {} landmarks, {} visits, {} transits",
        trace.num_nodes(),
        trace.num_landmarks(),
        trace.visits().len(),
        trace.transits().len()
    );

    // 2. Experiment settings (the paper's DART defaults, lighter load).
    let cfg = SimConfig {
        packets_per_landmark_per_day: 50.0,
        ..SimConfig::dart()
    };

    // 3. The DTN-FLOW router: landmark stations, bandwidth measurement,
    //    distance-vector routing, transit-prediction carrier selection.
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );

    // 4. Run and report.
    let outcome = RunSpec::new(&trace, &cfg).run(&mut router);
    let m = &outcome.metrics;
    println!("generated        {}", m.generated);
    println!("success rate     {:.3}", m.success_rate());
    println!("average delay    {:.0} min", m.average_delay_secs() / 60.0);
    println!("forwarding cost  {} ops", m.forwarding_ops);
    println!("total cost       {:.0} ops", m.total_cost());

    // The routing tables the landmarks learned are inspectable:
    let rows = router.routing_rows(LandmarkId(0));
    println!("\nrouting table on l0 ({} destinations):", rows.len());
    for (dest, next, delay) in rows.iter().take(5) {
        println!("  -> {dest} via {next} (expected {:.1} h)", delay / 3_600.0);
    }
}
