//! Rural inter-village communication — the paper's motivating application
//! (§I): villages linked only by buses that pass a market-town hub. The
//! example pits DTN-FLOW against PROPHET and direct delivery on the same
//! bus trace and prints the comparison.
//!
//! ```text
//! cargo run --release --example rural_villages
//! ```

use dtn_flow::prelude::*;

fn main() {
    // Villages = bus stops; bus lines only meet at the hub, so most
    // village pairs need inter-landmark relaying.
    let bus_cfg = BusConfig::default();
    let garage = bus_cfg.garage();
    let trace = BusModel::new(bus_cfg).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 200.0,
        ..SimConfig::dnet()
    };
    // The garage is not a village: it neither sends nor receives.
    let workload =
        Workload::uniform_excluding(&cfg, trace.num_landmarks(), trace.duration(), &[garage]);
    println!(
        "{} villages, {} buses, {} messages to route\n",
        trace.num_landmarks() - 1,
        trace.num_nodes(),
        workload.len()
    );

    println!(
        "{:<10} {:>9} {:>12} {:>12}",
        "method", "success", "delay (min)", "fwd ops"
    );
    let show = |name: &str, outcome: &SimOutcome| {
        println!(
            "{:<10} {:>9.3} {:>12.0} {:>12}",
            name,
            outcome.metrics.success_rate(),
            outcome.metrics.average_delay_secs() / 60.0,
            outcome.metrics.forwarding_ops
        );
    };

    // The same trace, config and workload for every router.
    let spec = || RunSpec::new(&trace, &cfg).workload(&workload);

    let mut flow = FlowRouter::new(
        FlowConfig::with_all_extensions(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let flow_out = spec().run(&mut flow);
    show("DTN-FLOW", &flow_out);

    let mut prophet = UtilityRouter::new(Prophet::new(trace.num_nodes(), trace.num_landmarks()));
    let prophet_out = spec().run(&mut prophet);
    show("PROPHET", &prophet_out);

    let mut direct = Direct::new();
    let direct_out = spec().run(&mut direct);
    show("direct", &direct_out);

    // The architectural point: how many DTN-FLOW deliveries crossed at
    // least one intermediate landmark — traffic no single bus could serve?
    let relayed = flow_out
        .packets
        .iter()
        .filter(|p| matches!(p.loc, PacketLoc::Delivered(_)) && p.visited.len() >= 2)
        .count();
    println!(
        "\n{relayed} of {} DTN-FLOW deliveries were relayed through intermediate villages",
        flow_out.metrics.delivered
    );
    println!(
        "dead ends rescued: {}, routing loops noticed: {}",
        flow.stats().dead_ends_detected,
        flow.stats().loops_detected
    );
}
