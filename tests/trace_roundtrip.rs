//! Trace serialization: a generated trace survives the text format, and a
//! reloaded trace simulates identically to the original.

use dtn_flow::mobility::io;
use dtn_flow::prelude::*;

#[test]
fn generated_traces_roundtrip_through_text() {
    for trace in [
        CampusModel::new(CampusConfig::tiny()).generate(),
        BusModel::new(BusConfig::tiny()).generate(),
        DeploymentModel::new(DeploymentConfig::default()).generate(),
    ] {
        let text = io::to_text(&trace);
        let back = io::from_text(&text).expect("roundtrip parses");
        assert_eq!(back.name(), trace.name());
        assert_eq!(back.num_nodes(), trace.num_nodes());
        assert_eq!(back.num_landmarks(), trace.num_landmarks());
        assert_eq!(back.visits(), trace.visits());
        assert_eq!(back.positions(), trace.positions());
    }
}

#[test]
fn reloaded_trace_simulates_identically() {
    let trace = CampusModel::new(CampusConfig::tiny()).generate();
    let reloaded = io::from_text(&io::to_text(&trace)).unwrap();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 25.0,
        ..SimConfig::dart()
    };
    let go = |t: &Trace| {
        let mut r = FlowRouter::new(FlowConfig::default(), t.num_nodes(), t.num_landmarks());
        RunSpec::new(t, &cfg).run(&mut r).metrics
    };
    let a = go(&trace);
    let b = go(&reloaded);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.forwarding_ops, b.forwarding_ops);
    assert_eq!(a.delays, b.delays);
}

#[test]
fn transit_statistics_survive_roundtrip() {
    use dtn_flow::mobility::stats;
    let trace = BusModel::new(BusConfig::tiny()).generate();
    let back = io::from_text(&io::to_text(&trace)).unwrap();
    let unit = SimDuration::from_days(0.5);
    let a = stats::link_bandwidths(&trace, unit);
    let b = stats::link_bandwidths(&back, unit);
    for i in 0..trace.num_landmarks() {
        for j in 0..trace.num_landmarks() {
            let (li, lj) = (LandmarkId::from(i), LandmarkId::from(j));
            assert_eq!(a.get(li, lj), b.get(li, lj));
        }
    }
}
