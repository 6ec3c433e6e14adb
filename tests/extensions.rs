//! The §IV-E extensions exercised through the public API: dead-end
//! prevention, loop detection/correction, load balancing, and routing to
//! mobile nodes.

use dtn_flow::prelude::*;
use dtn_flow::router::LoopInjection;
use dtn_flow::sim::World;

fn bus_trace() -> Trace {
    BusModel::new(BusConfig {
        garage_prob: 0.2,
        ..BusConfig::tiny()
    })
    .generate()
}

fn bus_cfg() -> SimConfig {
    SimConfig {
        packets_per_landmark_per_day: 40.0,
        ..SimConfig::dnet()
    }
}

#[test]
fn dead_end_prevention_detects_garage_trips() {
    let trace = bus_trace();
    let cfg = bus_cfg();
    let flow = FlowConfig {
        dead_end: Some(2.0),
        ..FlowConfig::default()
    };
    let mut router = FlowRouter::new(flow, trace.num_nodes(), trace.num_landmarks());
    let _ = RunSpec::new(&trace, &cfg).run(&mut router);
    assert!(
        router.stats().dead_ends_detected > 0,
        "garage-heavy trace must trigger detections"
    );
}

#[test]
fn loop_injection_is_noticed_with_correction_enabled() {
    let trace = bus_trace();
    let cfg = bus_cfg();
    let total_units = trace.duration().secs() / cfg.time_unit.secs();
    let flow = FlowConfig {
        loop_correction: true,
        inject_loops: vec![LoopInjection {
            at_unit: total_units / 2,
            members: vec![LandmarkId(0), LandmarkId(1)],
            dest: LandmarkId(4),
        }],
        ..FlowConfig::default()
    };
    let mut router = FlowRouter::new(flow, trace.num_nodes(), trace.num_landmarks());
    // Exclude the (undeliverable) garage from the workload.
    let garage = LandmarkId::from(trace.num_landmarks() - 1);
    let wl = Workload::uniform_excluding(&cfg, trace.num_landmarks(), trace.duration(), &[garage]);
    let out = RunSpec::new(&trace, &cfg).workload(&wl).run(&mut router);
    // The run completes and still delivers; detection may or may not fire
    // depending on whether the falsified detour is ever attractive, but
    // delivery must not collapse.
    assert!(
        out.metrics.success_rate() > 0.3,
        "success {}",
        out.metrics.success_rate()
    );
}

#[test]
fn load_balancing_reroutes_under_pressure() {
    let trace = bus_trace();
    let mut cfg = bus_cfg();
    cfg.packets_per_landmark_per_day = 600.0;
    let flow = FlowConfig {
        load_balance: true,
        ..FlowConfig::default()
    };
    let mut router = FlowRouter::new(flow, trace.num_nodes(), trace.num_landmarks());
    let out = RunSpec::new(&trace, &cfg).run(&mut router);
    assert!(out.metrics.delivered > 0);
    assert!(
        router.stats().lb_reroutes > 0,
        "overload must push packets onto backup next hops"
    );
}

#[test]
fn send_to_node_delivers_to_a_mobile_node() {
    // Drive the §IV-E.4 extension mid-run via a wrapper router.
    struct Sender {
        inner: FlowRouter,
        created: Vec<PacketId>,
    }
    impl Router for Sender {
        fn name(&self) -> &'static str {
            "sender"
        }
        fn uses_stations(&self) -> bool {
            true
        }
        fn on_arrive(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
            self.inner.on_arrive(w, n, l);
        }
        fn on_depart(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
            self.inner.on_depart(w, n, l);
        }
        fn on_packet_generated(&mut self, w: &mut World, p: PacketId) {
            self.inner.on_packet_generated(w, p);
        }
        fn on_timer(&mut self, w: &mut World, t: u64) {
            self.inner.on_timer(w, t);
        }
        fn on_time_unit(&mut self, w: &mut World, u: u64) {
            self.inner.on_time_unit(w, u);
            // The tiny bus trace spans ~12 half-day units; send from the
            // hub (every route passes it) once registrations exist.
            if u >= 4
                && self.created.is_empty()
                && !self.inner.registered_landmarks(NodeId(1)).is_empty()
            {
                self.created = self.inner.send_to_node(w, LandmarkId(0), NodeId(1));
            }
        }
    }
    // Default (rarely-garaged) tiny bus trace so node 1 keeps circulating.
    let trace = BusModel::new(BusConfig::tiny()).generate();
    let cfg = bus_cfg();
    let mut router = Sender {
        inner: FlowRouter::new(
            FlowConfig::default(),
            trace.num_nodes(),
            trace.num_landmarks(),
        ),
        created: Vec::new(),
    };
    let out = RunSpec::new(&trace, &cfg).run(&mut router);
    assert!(
        !router.created.is_empty(),
        "registrations should exist by unit 20"
    );
    let delivered = router
        .created
        .iter()
        .any(|&p| matches!(out.packets[p.index()].loc, PacketLoc::Delivered(_)));
    assert!(delivered, "at least one copy must reach node 1");
    // Node-addressed copies never count as landmark deliveries at their
    // via landmark.
    for &p in &router.created {
        let pkt = &out.packets[p.index()];
        assert_eq!(pkt.dst_node, Some(NodeId(1)));
    }
}
