//! Engine conservation invariant, checked with the flight recorder
//! attached: every generated packet must end the run in exactly one of
//! the terminal or live states,
//!
//! ```text
//! generated == delivered + expired + lost_to_outage + lost_to_churn + live
//! ```
//!
//! both with faults off and with heavy station/node faults on. When the
//! books don't balance, the recorded event stream localises the leak: the
//! failure message prints the full per-packet event history of every
//! packet whose trace disagrees with its final state.

use dtn_flow::prelude::*;

/// A 16-day, 3-landmark corridor: node 0 commutes l0 → l1 → l0, node 1
/// commutes l1 → l2 → l1, so l1 is the interchange every cross-corridor
/// packet must flow through.
fn corridor() -> Trace {
    let mut v = Vec::new();
    for d in 0..16u64 {
        let base = d * 86_400;
        v.push(Visit::new(
            NodeId(0),
            LandmarkId(0),
            SimTime(base + 1_000),
            SimTime(base + 10_000),
        ));
        v.push(Visit::new(
            NodeId(0),
            LandmarkId(1),
            SimTime(base + 20_000),
            SimTime(base + 30_000),
        ));
        v.push(Visit::new(
            NodeId(0),
            LandmarkId(0),
            SimTime(base + 40_000),
            SimTime(base + 50_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            LandmarkId(1),
            SimTime(base + 32_000),
            SimTime(base + 42_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            LandmarkId(2),
            SimTime(base + 52_000),
            SimTime(base + 62_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            LandmarkId(1),
            SimTime(base + 72_000),
            SimTime(base + 82_000),
        ));
    }
    let positions = (0..3)
        .map(|i| dtn_flow::core::geometry::Point::new(i as f64 * 500.0, 0.0))
        .collect();
    Trace::new("conservation-corridor", 2, 3, positions, v).expect("valid corridor trace")
}

fn cfg() -> SimConfig {
    SimConfig {
        packets_per_landmark_per_day: 6.0,
        ttl: DAY.mul(6),
        time_unit: DAY,
        seed: 11,
        ..SimConfig::default()
    }
}

/// The packet an event concerns, if any.
fn pkt_of(ev: &SimEvent) -> Option<PacketId> {
    match *ev {
        SimEvent::PacketGenerated { pkt, .. }
        | SimEvent::PacketForwarded { pkt, .. }
        | SimEvent::PacketDelivered { pkt, .. }
        | SimEvent::PacketExpired { pkt, .. }
        | SimEvent::PacketLost { pkt, .. }
        | SimEvent::MisTransit { pkt, .. }
        | SimEvent::RetryQueued { pkt, .. } => Some(pkt),
        _ => None,
    }
}

/// Check the conservation equation on `out`, using the recorder to write
/// an actionable failure message if a packet leaks.
fn assert_conserved(mut out: SimOutcome, name: &str) {
    let rec = out
        .trace
        .take()
        .and_then(Recorder::downcast)
        .expect("recorder sink attached");

    let m = &out.metrics;
    let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
    let accounted = m.delivered + m.expired + m.lost_to_outage + m.lost_to_churn + live;

    // Cross-check the event stream against the engine's own counters: the
    // recorder saw every lifecycle event, so its fold must agree exactly.
    let t = &rec.metrics().totals;
    assert_eq!(
        t.generated, m.generated,
        "{name}: event-stream generated count"
    );
    assert_eq!(
        t.delivered, m.delivered,
        "{name}: event-stream delivered count"
    );
    assert_eq!(t.expired, m.expired, "{name}: event-stream expired count");
    assert_eq!(
        t.lost_outage, m.lost_to_outage,
        "{name}: event-stream outage losses"
    );
    assert_eq!(
        t.lost_churn, m.lost_to_churn,
        "{name}: event-stream churn losses"
    );

    if accounted != m.generated {
        // Localise the leak: rebuild each packet's fate from its events
        // and print the histories that disagree with the final state.
        use std::collections::BTreeMap;
        let mut hist: BTreeMap<PacketId, Vec<String>> = BTreeMap::new();
        for ev in rec.events() {
            if let Some(pkt) = pkt_of(ev) {
                hist.entry(pkt).or_default().push(ev.to_string());
            }
        }
        let mut report = String::new();
        for (i, p) in out.packets.iter().enumerate() {
            let id = PacketId(i as u32);
            let terminal = matches!(
                p.loc,
                PacketLoc::Delivered(_) | PacketLoc::Expired | PacketLoc::Lost
            );
            let saw_terminal = hist.get(&id).is_some_and(|h| {
                h.iter().any(|line| {
                    line.contains("packet_delivered")
                        || line.contains("packet_expired")
                        || line.contains("packet_lost")
                })
            });
            if terminal != saw_terminal {
                report.push_str(&format!("\n{id} final={:?} events:\n", p.loc));
                for line in hist.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                    report.push_str("  ");
                    report.push_str(line);
                    report.push('\n');
                }
            }
        }
        panic!(
            "{name}: conservation broken: generated {} != delivered {} + expired {} \
             + lost_to_outage {} + lost_to_churn {} + live {live}\nleaking packets:{report}",
            m.generated, m.delivered, m.expired, m.lost_to_outage, m.lost_to_churn
        );
    }
}

fn run_conserved(plan: &FaultPlan, name: &str) {
    let trace = corridor();
    let cfg = cfg();
    let mut router = FlowRouter::new(
        FlowConfig::with_degradation(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let out = RunSpec::new(&trace, &cfg)
        .faults(plan)
        .sink(Box::new(Recorder::new(1 << 16)))
        .run(&mut router);
    assert!(
        out.metrics.generated > 0,
        "{name}: workload generated nothing"
    );
    assert_conserved(out, name);
}

#[test]
fn packets_are_conserved_without_faults() {
    run_conserved(&FaultPlan::none(), "no-faults");
}

#[test]
fn packets_are_conserved_under_faults() {
    let trace = corridor();
    for seed in [1u64, 7, 42] {
        let fc = FaultConfig {
            station_outage_duty: 0.35,
            mean_outage_secs: 20_000.0,
            node_failures_per_day: 1.5,
            mean_node_downtime_secs: 15_000.0,
            contact_truncation_rate: 0.25,
            record_loss_rate: 0.2,
            seed,
        };
        let plan = FaultPlan::generate(&fc, &trace);
        assert!(!plan.is_empty(), "fault plan for seed {seed} is empty");
        run_conserved(&plan, &format!("faults-seed-{seed}"));
    }
}
