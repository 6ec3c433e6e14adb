//! Reproducibility: equal seeds give bit-identical outcomes, different
//! seeds differ, across trace generation, workloads, and full runs.

use dtn_flow::prelude::*;

fn run_flow(seed: u64) -> SimOutcome {
    let trace = CampusModel::new(CampusConfig::tiny()).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 25.0,
        ..SimConfig::dart()
    }
    .with_seed(seed);
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    RunSpec::new(&trace, &cfg).run(&mut router)
}

#[test]
fn same_seed_same_everything() {
    let a = run_flow(42);
    let b = run_flow(42);
    assert_eq!(a.metrics.generated, b.metrics.generated);
    assert_eq!(a.metrics.delivered, b.metrics.delivered);
    assert_eq!(a.metrics.expired, b.metrics.expired);
    assert_eq!(a.metrics.forwarding_ops, b.metrics.forwarding_ops);
    assert_eq!(a.metrics.delays, b.metrics.delays);
    assert_eq!(a.packets.len(), b.packets.len());
    for (pa, pb) in a.packets.iter().zip(&b.packets) {
        assert_eq!(pa.loc, pb.loc);
        assert_eq!(pa.visited, pb.visited);
        assert_eq!(pa.hops, pb.hops);
    }
}

#[test]
fn different_seed_different_workload() {
    let a = run_flow(1);
    let b = run_flow(2);
    // Same trace, different packet schedule: some outcome differs.
    let same = a.metrics.delivered == b.metrics.delivered
        && a.metrics.forwarding_ops == b.metrics.forwarding_ops
        && a.metrics.delays == b.metrics.delays;
    assert!(!same, "different seeds produced identical runs");
}

#[test]
fn trace_generation_is_pure() {
    let a = CampusModel::new(CampusConfig::tiny()).generate();
    let b = CampusModel::new(CampusConfig::tiny()).generate();
    assert_eq!(a.visits(), b.visits());
    assert_eq!(a.positions(), b.positions());
    let bus_a = BusModel::new(BusConfig::tiny()).generate();
    let bus_b = BusModel::new(BusConfig::tiny()).generate();
    assert_eq!(bus_a.visits(), bus_b.visits());
}

#[test]
fn workload_is_pure() {
    let cfg = SimConfig::dart().with_seed(9);
    let a = Workload::uniform(&cfg, 10, DAY.mul(8));
    let b = Workload::uniform(&cfg, 10, DAY.mul(8));
    assert_eq!(a.events(), b.events());
}

#[test]
fn fault_injected_runs_are_deterministic() {
    let trace = CampusModel::new(CampusConfig::tiny()).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 25.0,
        ..SimConfig::dart()
    }
    .with_seed(7);
    let fc = FaultConfig {
        station_outage_duty: 0.25,
        node_failures_per_day: 1.0,
        contact_truncation_rate: 0.2,
        record_loss_rate: 0.1,
        seed: 0xD7,
        ..FaultConfig::default()
    };
    let plan_a = FaultPlan::generate(&fc, &trace);
    let plan_b = FaultPlan::generate(&fc, &trace);
    assert_eq!(plan_a, plan_b, "plan generation must be pure");
    let go = |plan: &FaultPlan| {
        let mut router = FlowRouter::new(
            FlowConfig::with_degradation(),
            trace.num_nodes(),
            trace.num_landmarks(),
        );
        RunSpec::new(&trace, &cfg).faults(plan).run(&mut router)
    };
    let a = go(&plan_a);
    let b = go(&plan_b);
    assert_eq!(a.metrics.delivered, b.metrics.delivered);
    assert_eq!(a.metrics.lost_to_outage, b.metrics.lost_to_outage);
    assert_eq!(a.metrics.lost_to_churn, b.metrics.lost_to_churn);
    assert_eq!(a.metrics.retries, b.metrics.retries);
    assert_eq!(a.metrics.delays, b.metrics.delays);
    for (pa, pb) in a.packets.iter().zip(&b.packets) {
        assert_eq!(pa.loc, pb.loc);
        assert_eq!(pa.visited, pb.visited);
        assert_eq!(pa.hops, pb.hops);
    }
}

#[test]
fn baseline_runs_are_deterministic_too() {
    let trace = BusModel::new(BusConfig::tiny()).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 25.0,
        ..SimConfig::dnet()
    };
    let go = || {
        let mut r = UtilityRouter::new(Per::new(trace.num_nodes(), trace.num_landmarks()));
        RunSpec::new(&trace, &cfg).run(&mut r).metrics
    };
    let a = go();
    let b = go();
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.forwarding_ops, b.forwarding_ops);
    assert_eq!(a.delays, b.delays);
}
