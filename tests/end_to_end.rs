//! Cross-crate integration: the full pipeline from trace generation
//! through simulation, for every router, with conservation invariants.

use dtn_flow::prelude::*;

fn tiny_campus() -> Trace {
    CampusModel::new(CampusConfig::tiny()).generate()
}

fn light_cfg() -> SimConfig {
    SimConfig {
        packets_per_landmark_per_day: 30.0,
        ..SimConfig::dart()
    }
}

/// Every packet ends in exactly one of: delivered, expired, lost to an
/// injected fault, or still live somewhere; counts reconcile with the
/// metrics.
fn assert_conservation(outcome: &SimOutcome) {
    let ttl = light_cfg().ttl;
    let m = &outcome.metrics;
    let mut delivered = 0u64;
    let mut expired = 0u64;
    let mut lost = 0u64;
    let mut live = 0u64;
    for p in &outcome.packets {
        match p.loc {
            PacketLoc::Delivered(at) => {
                delivered += 1;
                assert!(at >= p.created, "delivery before creation");
                assert!(
                    at.since(p.created) <= ttl,
                    "delivered after TTL: {:?}",
                    p.id
                );
            }
            PacketLoc::Expired => expired += 1,
            PacketLoc::Lost => lost += 1,
            _ => live += 1,
        }
    }
    assert_eq!(delivered, m.delivered);
    assert_eq!(expired, m.expired);
    assert_eq!(lost, m.lost(), "Lost packets must match outage+churn loss");
    assert_eq!(delivered + expired + lost + live, m.generated);
    assert_eq!(m.delays.len() as u64, m.delivered);
}

#[test]
fn flow_router_end_to_end() {
    let trace = tiny_campus();
    let cfg = light_cfg();
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let outcome = RunSpec::new(&trace, &cfg).run(&mut router);
    assert!(outcome.metrics.generated > 100);
    assert!(outcome.metrics.delivered > 0, "FLOW must deliver something");
    assert_conservation(&outcome);
    // Station relaying really happened: some delivery visited >= 2
    // stations.
    assert!(outcome
        .packets
        .iter()
        .any(|p| matches!(p.loc, PacketLoc::Delivered(_)) && p.visited.len() >= 2));
}

#[test]
fn every_baseline_end_to_end() {
    let trace = tiny_campus();
    let cfg = light_cfg();
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(UtilityRouter::new(SimBet::new(
            trace.num_nodes(),
            trace.num_landmarks(),
        ))),
        Box::new(UtilityRouter::new(Prophet::new(
            trace.num_nodes(),
            trace.num_landmarks(),
        ))),
        Box::new(UtilityRouter::new(Pgr::new(
            trace.num_nodes(),
            trace.num_landmarks(),
        ))),
        Box::new(UtilityRouter::new(GeoComm::new(
            trace.num_nodes(),
            trace.num_landmarks(),
        ))),
        Box::new(UtilityRouter::new(Per::new(
            trace.num_nodes(),
            trace.num_landmarks(),
        ))),
        Box::new(Direct::new()),
    ];
    for mut router in routers {
        let outcome = RunSpec::new(&trace, &cfg).run(router.as_mut());
        assert!(
            outcome.metrics.delivered > 0,
            "{} delivered nothing",
            router.name()
        );
        assert_conservation(&outcome);
    }
}

#[test]
fn fault_injected_run_conserves_and_still_delivers() {
    let trace = tiny_campus();
    let cfg = light_cfg();
    let plan = FaultPlan::generate(
        &FaultConfig {
            station_outage_duty: 0.2,
            node_failures_per_day: 0.5,
            contact_truncation_rate: 0.15,
            record_loss_rate: 0.1,
            seed: 0xFA,
            ..FaultConfig::default()
        },
        &trace,
    );
    assert!(!plan.is_empty());
    let mut router = FlowRouter::new(
        FlowConfig::with_degradation(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let outcome = RunSpec::new(&trace, &cfg).faults(&plan).run(&mut router);
    assert_conservation(&outcome);
    assert!(
        outcome.metrics.delivered > 0,
        "faulted FLOW must still deliver"
    );
    assert!(
        outcome.metrics.lost() > 0,
        "this fault plan must cost something"
    );
}

#[test]
fn relaying_beats_direct_delivery() {
    let trace = tiny_campus();
    let cfg = light_cfg();
    let mut flow = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let flow_out = RunSpec::new(&trace, &cfg).run(&mut flow);
    let mut direct = Direct::new();
    let direct_out = RunSpec::new(&trace, &cfg).run(&mut direct);
    assert!(
        flow_out.metrics.success_rate() > direct_out.metrics.success_rate(),
        "FLOW {} vs direct {}",
        flow_out.metrics.success_rate(),
        direct_out.metrics.success_rate()
    );
}

#[test]
fn single_copy_semantics_hold() {
    // Forwarding ops per delivered packet equal its hop count; no packet
    // is ever duplicated, so hops == ops attributable to it.
    let trace = tiny_campus();
    let cfg = light_cfg();
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let outcome = RunSpec::new(&trace, &cfg).run(&mut router);
    let total_hops: u64 = outcome.packets.iter().map(|p| p.hops as u64).sum();
    assert_eq!(total_hops, outcome.metrics.forwarding_ops);
}

#[test]
fn landmark_pipeline_from_raw_places() {
    // Raw place stats -> selection -> division -> every trace position is
    // assigned to exactly one subarea.
    let trace = tiny_campus();
    let stats: Vec<PlaceStat> = (0..trace.num_landmarks())
        .map(|l| PlaceStat {
            position: trace.positions()[l],
            visits: trace
                .visits()
                .iter()
                .filter(|v| v.landmark.index() == l)
                .count() as u64,
        })
        .collect();
    let selected = select_landmarks(&stats, &SelectionConfig::default());
    assert!(!selected.is_empty());
    let sites: Vec<_> = selected.iter().map(|&i| stats[i].position).collect();
    let division = SubareaDivision::new(sites);
    for p in trace.positions() {
        let lm = division.assign(*p);
        assert!(lm.index() < division.len());
    }
}
