//! Tracing must be a pure observer: attaching a sink (even a tiny,
//! constantly-wrapping flight-recorder ring) must not perturb the
//! simulation in any way, for arbitrary traces, workloads, and fault
//! plans. Also pins the ring-bound guarantee end-to-end.

use dtn_flow::prelude::*;
use proptest::prelude::*;

/// A random but *valid* trace (same shape as `invariants_props`).
fn arb_trace() -> impl Strategy<Value = Trace> {
    let nodes = 2usize..6;
    let landmarks = 2usize..7;
    (
        nodes,
        landmarks,
        proptest::collection::vec(0u64..2_000, 1..40),
        0u64..u64::MAX,
    )
        .prop_map(|(num_nodes, num_landmarks, raw, salt)| {
            let mut visits = Vec::new();
            for n in 0..num_nodes {
                let mut t = (salt % 1_000) + n as u64;
                for (i, r) in raw.iter().enumerate() {
                    if i % num_nodes != n {
                        continue;
                    }
                    let lm = ((r ^ salt) as usize + i) % num_landmarks;
                    let gap = 100 + (r % 1_500);
                    let stay = 200 + ((r * 7 + salt) % 3_000);
                    t += gap;
                    visits.push(Visit::new(
                        NodeId::from(n),
                        LandmarkId::from(lm),
                        SimTime(t),
                        SimTime(t + stay),
                    ));
                    t += stay;
                }
            }
            let positions = (0..num_landmarks)
                .map(|i| dtn_flow::core::geometry::Point::new(i as f64 * 50.0, 0.0))
                .collect();
            Trace::new("obs-prop", num_nodes, num_landmarks, positions, visits)
                .expect("constructed trace is valid")
        })
}

fn prop_cfg(ttl_secs: u64, rate: f64) -> SimConfig {
    SimConfig {
        packets_per_landmark_per_day: rate,
        ttl: SimDuration::from_secs(ttl_secs),
        time_unit: SimDuration::from_secs(900),
        node_memory: 8 * 1_024,
        warmup_fraction: 0.1,
        ..SimConfig::default()
    }
}

fn build(trace: &Trace) -> FlowRouter {
    FlowRouter::new(
        FlowConfig::with_degradation(),
        trace.num_nodes(),
        trace.num_landmarks(),
    )
}

/// `true` when the two outcomes agree on every observable: metrics and
/// per-packet fates.
fn same_outcome(a: &SimOutcome, b: &SimOutcome) -> Result<(), String> {
    if format!("{:?}", a.metrics) != format!("{:?}", b.metrics) {
        return Err(format!(
            "metrics diverge:\n  untraced: {:?}\n  traced:   {:?}",
            a.metrics, b.metrics
        ));
    }
    if a.packets.len() != b.packets.len() {
        return Err("packet count diverges".into());
    }
    for (i, (pa, pb)) in a.packets.iter().zip(&b.packets).enumerate() {
        if pa.loc != pb.loc || pa.visited != pb.visited || pa.hops != pb.hops {
            return Err(format!("packet {i} diverges: {pa:?} vs {pb:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// A tiny ring that wraps constantly still leaves the run untouched.
    #[test]
    fn tracing_does_not_perturb_the_simulation(
        trace in arb_trace(),
        ttl in 4_000u64..40_000,
        rate in 50.0f64..800.0,
        fseed in 0u64..100,
        capacity in 1usize..96,
    ) {
        let cfg = prop_cfg(ttl, rate);
        let fc = FaultConfig {
            station_outage_duty: 0.3,
            mean_outage_secs: 2_000.0,
            node_failures_per_day: 2.0,
            mean_node_downtime_secs: 1_500.0,
            contact_truncation_rate: 0.2,
            record_loss_rate: 0.15,
            seed: fseed,
        };
        let plan = FaultPlan::generate(&fc, &trace);

        let mut r1 = build(&trace);
        let untraced = RunSpec::new(&trace, &cfg).faults(&plan).run(&mut r1);
        prop_assert!(untraced.trace.is_none(), "untraced run must carry no sink");

        let mut r2 = build(&trace);
        let mut traced = RunSpec::new(&trace, &cfg)
            .faults(&plan)
            .sink(Box::new(Recorder::new(capacity)))
            .run(&mut r2);
        if let Err(why) = same_outcome(&untraced, &traced) {
            prop_assert!(false, "tracing perturbed the run: {why}");
        }

        // The ring honours its bound and its books balance.
        let rec = traced.trace.take().and_then(Recorder::downcast)
            .expect("recorder comes back from a traced run");
        prop_assert!(rec.len() <= capacity.max(1), "ring exceeded its bound");
        prop_assert!(rec.recorded() >= rec.len() as u64);
        prop_assert!(rec.recorded() == rec.dropped() + rec.len() as u64,
            "recorded ({}) != dropped ({}) + retained ({})",
            rec.recorded(), rec.dropped(), rec.len());
    }

    /// A `NoopSink` (tracing attached but discarded) is equally invisible.
    #[test]
    fn noop_sink_is_invisible(
        trace in arb_trace(),
        ttl in 4_000u64..30_000,
        rate in 50.0f64..500.0,
    ) {
        let cfg = prop_cfg(ttl, rate);

        let mut r1 = build(&trace);
        let untraced = RunSpec::new(&trace, &cfg).run(&mut r1);
        let mut r2 = build(&trace);
        let traced = RunSpec::new(&trace, &cfg)
            .sink(Box::new(NoopSink))
            .run(&mut r2);
        if let Err(why) = same_outcome(&untraced, &traced) {
            prop_assert!(false, "noop sink perturbed the run: {why}");
        }
    }
}
