//! The traced run is only worth reading if wrapping changes nothing.
//!
//! On the tiny chaos cell under a fault plan, at 1 and 2 shards, a run
//! whose router and sink are wrapped must produce byte-identical outputs
//! to an unwrapped run, and the router under the wrapper must receive
//! exactly the same calls. A method the wrapper forgot to forward would
//! fall back to the trait default: `uses_stations` would flip the
//! station mode, a fault hook would become a no-op, and a missing
//! `on_time_unit_sharded` would silently route unit boundaries through
//! the sequential `on_time_unit` instead of the shard fan-out.

use dtnflow_bench::chaos::{self, ChaosInputs};
use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
use dtnflow_obs::{Recorder, TraceSink, DEFAULT_RING_CAPACITY};
use dtnflow_perfbench::adapter::{self, Method, TimedRouter, TimedSink};
use dtnflow_perfbench::profile::{self, Clock, Profiler};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{
    FaultConfig, FaultPlan, Router, ShardExec, ShardPlan, Sharding, SimSession, World,
};
use dtnflow_snapshot::Writer;
use std::rc::Rc;

/// Index of `on_time_unit_sharded` in [`Spy::calls`]; the others follow
/// the profiler's hook order.
const SHARDED: usize = 11;

/// Counts every hook call before forwarding it to DTN-FLOW.
struct Spy {
    inner: FlowRouter,
    calls: [u64; 12],
}

impl Spy {
    fn new(inp: &ChaosInputs) -> Spy {
        Spy {
            inner: FlowRouter::new(
                inp.flow.clone(),
                inp.trace.num_nodes(),
                inp.trace.num_landmarks(),
            ),
            calls: [0; 12],
        }
    }
}

impl Router for Spy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn uses_stations(&self) -> bool {
        self.inner.uses_stations()
    }
    fn on_arrive(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
        self.calls[0] += 1;
        self.inner.on_arrive(w, n, l);
    }
    fn on_depart(&mut self, w: &mut World, n: NodeId, l: LandmarkId) {
        self.calls[1] += 1;
        self.inner.on_depart(w, n, l);
    }
    fn on_encounter(&mut self, w: &mut World, a: NodeId, b: NodeId, l: LandmarkId) {
        self.calls[2] += 1;
        self.inner.on_encounter(w, a, b, l);
    }
    fn on_packet_generated(&mut self, w: &mut World, p: PacketId) {
        self.calls[3] += 1;
        self.inner.on_packet_generated(w, p);
    }
    fn on_time_unit(&mut self, w: &mut World, u: u64) {
        self.calls[4] += 1;
        self.inner.on_time_unit(w, u);
    }
    fn on_time_unit_sharded(&mut self, w: &mut World, u: u64, s: &Sharding<'_>) {
        self.calls[SHARDED] += 1;
        self.inner.on_time_unit_sharded(w, u, s);
    }
    fn on_timer(&mut self, w: &mut World, t: u64) {
        self.calls[5] += 1;
        self.inner.on_timer(w, t);
    }
    fn on_station_down(&mut self, w: &mut World, l: LandmarkId) {
        self.calls[6] += 1;
        self.inner.on_station_down(w, l);
    }
    fn on_station_up(&mut self, w: &mut World, l: LandmarkId) {
        self.calls[7] += 1;
        self.inner.on_station_up(w, l);
    }
    fn on_node_fail(&mut self, w: &mut World, n: NodeId, at: Option<LandmarkId>) {
        self.calls[8] += 1;
        self.inner.on_node_fail(w, n, at);
    }
    fn on_node_recover(&mut self, w: &mut World, n: NodeId) {
        self.calls[9] += 1;
        self.inner.on_node_recover(w, n);
    }
    fn on_observe(&mut self, w: &mut World, i: usize) {
        self.calls[10] += 1;
        self.inner.on_observe(w, i);
    }
}

/// The tiny chaos cell under the faults-ckpt fault rates, with DTN-FLOW's
/// graceful degradation on.
fn faulty_tiny(seed: u64) -> ChaosInputs {
    let base = ChaosInputs::tiny(seed, FaultPlan::none());
    let fc = FaultConfig {
        station_outage_duty: 0.2,
        node_failures_per_day: 0.25,
        contact_truncation_rate: 0.1,
        record_loss_rate: 0.1,
        seed,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::generate(&fc, &base.trace);
    ChaosInputs {
        plan,
        flow: FlowConfig::with_degradation(),
        ..base
    }
}

/// Outcome bytes (metrics + every packet) and the recorder's report.
fn run<R: Router + ?Sized>(
    inp: &ChaosInputs,
    router: &mut R,
    sink: Box<dyn TraceSink>,
    shards: usize,
) -> (Vec<u8>, String) {
    let mut s = SimSession::start_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        router,
        Some(sink),
        ShardPlan::contiguous(inp.trace.num_landmarks(), shards),
        ShardExec::new(shards),
    );
    s.run_to_end();
    let out = s.finish();
    let mut w = Writer::new();
    out.metrics.encode(&mut w);
    for p in &out.packets {
        p.encode(&mut w);
    }
    let rec = out
        .trace
        .and_then(Recorder::downcast)
        .expect("the recorder survives the wrapper");
    (w.into_bytes(), rec.snapshot().to_json())
}

#[test]
fn wrapped_runs_are_byte_identical_and_see_every_call() {
    for shards in [1, 2] {
        let inp = faulty_tiny(7);
        assert!(!inp.plan.station_outages.is_empty() && !inp.plan.node_outages.is_empty());

        let mut bare = Spy::new(&inp);
        let sink = Box::new(Recorder::new(DEFAULT_RING_CAPACITY));
        let plain = run(&inp, &mut bare, sink, shards);

        let prof = Rc::new(Profiler::new(Method::ALL.len(), Clock::Wall));
        let mut spied = Spy::new(&inp);
        let mut timed = TimedRouter::new(&mut spied, &prof, Method::Flow);
        assert!(timed.uses_stations(), "uses_stations must be forwarded");
        let sink = TimedSink::new(Box::new(Recorder::new(DEFAULT_RING_CAPACITY)), prof.clone());
        let wrapped = run(&inp, &mut timed, Box::new(sink), shards);

        assert!(
            plain.0 == wrapped.0,
            "{shards} shard(s): outcome bytes differ"
        );
        assert_eq!(
            plain.1, wrapped.1,
            "{shards} shard(s): recorder reports differ"
        );
        assert_eq!(
            bare.calls, spied.calls,
            "{shards} shard(s): hook calls differ"
        );
        assert_eq!(
            spied.calls[4], 0,
            "unit boundaries go through the sharded hook"
        );
        assert!(spied.calls[SHARDED] > 0);
        for hook in 6..=9 {
            assert!(spied.calls[hook] > 0, "fault hook {hook} never fired");
        }

        // The profiler counted exactly what the router received; the
        // sharded unit hook is reported as `on_time_unit`.
        let flow = adapter::method_index(Method::Flow);
        for hook in 0..=10 {
            let want = if hook == 4 {
                spied.calls[SHARDED]
            } else {
                spied.calls[hook]
            };
            assert_eq!(
                prof.calls(profile::hook_slot(flow, hook)),
                want,
                "hook {hook}"
            );
        }
        assert!(prof.calls(profile::OBS_RECORD) > 0);
    }
}

#[test]
fn traced_checkpoints_and_restore_match_chaos() {
    let inp = faulty_tiny(11);
    let plain = adapter::run_faults(&inp, &Profiler::new(Method::ALL.len(), Clock::Wall))
        .expect("untraced");
    let prof = Rc::new(Profiler::new(Method::ALL.len(), Clock::Wall));
    let traced = adapter::run_faults_traced(&inp, &prof).expect("traced");
    assert!(!plain.mid.is_empty());
    assert!(plain.mid == traced.mid, "mid-run snapshots differ");
    assert_eq!(plain.snapshot_bytes, traced.snapshot_bytes);
    assert_eq!(plain.dispatched_at_mid, traced.dispatched_at_mid);
    assert!(plain.restored.matches(&plain.straight.art));
    assert!(traced.restored.matches(&plain.straight.art));
    assert!(traced.straight.art.matches(&plain.straight.art));
    let straight = chaos::run_straight(&inp).expect("chaos straight run");
    assert!(straight.matches(&plain.straight.art));
    assert!(prof.busy(profile::SNAPSHOT_RESTORE) > 0.0);
}
