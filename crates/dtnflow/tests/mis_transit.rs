//! §IV-D mis-transit regression: a carrier that transits to the *wrong*
//! landmark uploads its packets there only when that landmark's expected
//! delay to the destination beats the delay stamped on the packet —
//! otherwise it keeps carrying them. The flight recorder's `MisTransit`
//! events pin the decision either way.
//!
//! Topology: 4 landmarks. Node 0 shuttles l0→l1 daily (so l0 routes
//! l3-bound packets via l1); node 1 shuttles l1→l3→l1 (so l1 reaches l3).
//! On day 8, node 0 picks up an l0→l3 packet and then deviates to l2.
//!
//! * With a third node running fast l2↔l3 round trips, l2's expected
//!   delay to l3 is far below the stamped one → upload at l2.
//! * Without it, l2 has zero bandwidth anywhere → infinite delay → the
//!   carrier keeps the packet.

use dtnflow_core::config::SimConfig;
use dtnflow_core::geometry::Point;
use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::packet::PacketLoc;
use dtnflow_core::time::{SimTime, DAY};
use dtnflow_mobility::{Trace, Visit};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::workload::GenEvent;
use dtnflow_sim::{Recorder, RunSpec, SimEvent, SimOutcome, Workload};

const L0: LandmarkId = LandmarkId(0);
const L1: LandmarkId = LandmarkId(1);
const L2: LandmarkId = LandmarkId(2);
const L3: LandmarkId = LandmarkId(3);

/// Eight training days plus the day-8 deviation. `with_shuttle` adds the
/// l2↔l3 ferry that makes l2 an attractive upload point.
fn scenario(with_shuttle: bool) -> Trace {
    let mut v = Vec::new();
    for d in 0..8u64 {
        let base = d * 86_400;
        // Node 0: l0 morning → l1 midday, home overnight.
        v.push(Visit::new(
            NodeId(0),
            L0,
            SimTime(base + 1_000),
            SimTime(base + 5_000),
        ));
        v.push(Visit::new(
            NodeId(0),
            L1,
            SimTime(base + 20_000),
            SimTime(base + 25_000),
        ));
        // Node 1: l1 → l3 → l1 daily.
        v.push(Visit::new(
            NodeId(1),
            L1,
            SimTime(base + 30_000),
            SimTime(base + 35_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            L3,
            SimTime(base + 50_000),
            SimTime(base + 55_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            L1,
            SimTime(base + 70_000),
            SimTime(base + 75_000),
        ));
        if with_shuttle {
            // Node 2: three fast l2 ↔ l3 round trips per day.
            for k in 0..3u64 {
                let o = base + 10_000 + k * 20_000;
                v.push(Visit::new(NodeId(2), L2, SimTime(o), SimTime(o + 3_000)));
                v.push(Visit::new(
                    NodeId(2),
                    L3,
                    SimTime(o + 6_000),
                    SimTime(o + 9_000),
                ));
            }
        }
    }
    // Day 8: node 0 picks up at l0, then deviates to l2 instead of l1.
    let base = 8 * 86_400;
    v.push(Visit::new(
        NodeId(0),
        L0,
        SimTime(base + 1_000),
        SimTime(base + 5_000),
    ));
    v.push(Visit::new(
        NodeId(0),
        L2,
        SimTime(base + 20_000),
        SimTime(base + 25_000),
    ));
    if with_shuttle {
        for k in 0..3u64 {
            let o = base + 30_000 + k * 20_000;
            v.push(Visit::new(NodeId(2), L2, SimTime(o), SimTime(o + 3_000)));
            v.push(Visit::new(
                NodeId(2),
                L3,
                SimTime(o + 6_000),
                SimTime(o + 9_000),
            ));
        }
    }
    let num_nodes = if with_shuttle { 3 } else { 2 };
    let positions = (0..4).map(|i| Point::new(i as f64 * 500.0, 0.0)).collect();
    Trace::new("mis-transit", num_nodes, 4, positions, v).expect("valid scenario trace")
}

/// One l0 → l3 packet, generated just before node 0's day-8 pickup.
fn run(with_shuttle: bool) -> SimOutcome {
    let trace = scenario(with_shuttle);
    let cfg = SimConfig {
        ttl: DAY.mul(6),
        time_unit: DAY,
        seed: 11,
        ..SimConfig::default()
    };
    let wl = Workload::from_events(
        vec![GenEvent {
            at: SimTime(8 * 86_400 + 500),
            src: L0,
            dst: L3,
        }],
        SimTime(0),
    );
    let mut router = FlowRouter::new(FlowConfig::default(), trace.num_nodes(), 4);
    RunSpec::new(&trace, &cfg)
        .workload(&wl)
        .sink(Box::new(Recorder::new(4_096)))
        .run(&mut router)
}

#[test]
fn wrong_landmark_with_better_delay_uploads() {
    let mut out = run(true);
    let rec = out
        .trace
        .take()
        .and_then(Recorder::downcast)
        .expect("recorder sink attached");
    let decisions: Vec<bool> = rec
        .events()
        .filter_map(|ev| match *ev {
            SimEvent::MisTransit { lm, uploaded, .. } if lm == L2 => Some(uploaded),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, vec![true], "one upload decision at l2");

    let p = &out.packets[0];
    assert!(
        p.visited.contains(&L2),
        "packet must be uploaded at the mis-transit landmark: visited {:?}",
        p.visited
    );
    // The l2↔l3 ferry then completes the delivery.
    assert!(
        matches!(p.loc, PacketLoc::Delivered(_)),
        "ferry delivers it: loc {:?}",
        p.loc
    );
}

#[test]
fn wrong_landmark_with_worse_delay_keeps_carrying() {
    let mut out = run(false);
    let rec = out
        .trace
        .take()
        .and_then(Recorder::downcast)
        .expect("recorder sink attached");
    let decisions: Vec<bool> = rec
        .events()
        .filter_map(|ev| match *ev {
            SimEvent::MisTransit { lm, uploaded, .. } if lm == L2 => Some(uploaded),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, vec![false], "one keep-carrying decision at l2");

    let p = &out.packets[0];
    assert!(
        !p.visited.contains(&L2),
        "an isolated l2 must not receive the packet: visited {:?}",
        p.visited
    );
    // The packet rides out the rest of the trace on its carrier.
    assert_eq!(p.loc, PacketLoc::OnNode(NodeId(0)));
}
