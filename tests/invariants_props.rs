//! Property-based invariants: random small traces and workloads, every
//! router, and the conservation/ordering rules that must always hold.

use dtn_flow::prelude::*;
use proptest::prelude::*;

/// A random but *valid* trace: per node, a sorted sequence of
/// non-overlapping visits to random landmarks.
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
            Trace::new("prop", num_nodes, num_landmarks, positions, visits)
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

fn check_invariants(outcome: &SimOutcome, ttl: SimDuration, name: &str) {
    let m = &outcome.metrics;
    let mut delivered = 0u64;
    let mut expired = 0u64;
    let mut lost = 0u64;
    let mut live = 0u64;
    for p in &outcome.packets {
        match p.loc {
            PacketLoc::Delivered(at) => {
                delivered += 1;
                // Delivery within TTL and after creation.
                prop_assert_eq_like(at >= p.created, name, "delivered before created");
                prop_assert_eq_like(at.since(p.created) <= ttl, name, "delivered after TTL");
            }
            PacketLoc::Expired => expired += 1,
            PacketLoc::Lost => lost += 1,
            _ => live += 1,
        }
        // Visited landmark paths only ever grow with station visits and
        // never contain an out-of-range landmark.
        for lm in &p.visited {
            prop_assert_eq_like(lm.index() < 64, name, "landmark id in range");
        }
    }
    assert_eq!(delivered, m.delivered, "{name}: delivered mismatch");
    assert_eq!(expired, m.expired, "{name}: expired mismatch");
    assert_eq!(lost, m.lost(), "{name}: lost mismatch");
    assert_eq!(
        delivered + expired + lost + live,
        m.generated,
        "{name}: conservation"
    );
    assert_eq!(m.delays.len() as u64, m.delivered, "{name}: delay count");
    let total_hops: u64 = outcome.packets.iter().map(|p| p.hops as u64).sum();
    assert_eq!(
        total_hops, m.forwarding_ops,
        "{name}: hops must equal forwarding ops (single copy)"
    );
}

fn prop_assert_eq_like(cond: bool, name: &str, what: &str) {
    assert!(cond, "{name}: {what}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn flow_invariants_on_random_traces(
        trace in arb_trace(),
        ttl in 2_000u64..40_000,
        rate in 20.0f64..2_000.0,
    ) {
        let cfg = prop_cfg(ttl, rate);
        let mut router = FlowRouter::new(
            FlowConfig::with_all_extensions(),
            trace.num_nodes(),
            trace.num_landmarks(),
        );
        let outcome = RunSpec::new(&trace, &cfg).run(&mut router);
        check_invariants(&outcome, cfg.ttl, "FLOW");
    }

    #[test]
    fn baseline_invariants_on_random_traces(
        trace in arb_trace(),
        ttl in 2_000u64..40_000,
        rate in 20.0f64..2_000.0,
        which in 0usize..3,
    ) {
        let cfg = prop_cfg(ttl, rate);
        let (n, l) = (trace.num_nodes(), trace.num_landmarks());
        let mut router: Box<dyn Router> = match which {
            0 => Box::new(UtilityRouter::new(Prophet::new(n, l))),
            1 => Box::new(UtilityRouter::new(Per::new(n, l))),
            _ => Box::new(UtilityRouter::new(SimBet::new(n, l))),
        };
        let outcome = RunSpec::new(&trace, &cfg).run(router.as_mut());
        check_invariants(&outcome, cfg.ttl, router.name());
    }

    #[test]
    fn fault_plans_are_deterministic(
        trace in arb_trace(),
        seed in 0u64..1_000,
    ) {
        let fc = FaultConfig {
            station_outage_duty: 0.25,
            node_failures_per_day: 1.0,
            contact_truncation_rate: 0.2,
            record_loss_rate: 0.1,
            seed,
            ..FaultConfig::default()
        };
        let a = FaultPlan::generate(&fc, &trace);
        let b = FaultPlan::generate(&fc, &trace);
        prop_assert!(a == b, "same (seed, config, trace) must give one plan");
    }

    #[test]
    fn fault_runs_same_plan_same_outcome(
        trace in arb_trace(),
        ttl in 4_000u64..40_000,
        fseed in 0u64..100,
    ) {
        let cfg = prop_cfg(ttl, 200.0);
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
        let go = || {
            let mut router = FlowRouter::new(
                FlowConfig::with_degradation(),
                trace.num_nodes(),
                trace.num_landmarks(),
            );
            RunSpec::new(&trace, &cfg).faults(&plan).run(&mut router)
        };
        let a = go();
        let b = go();
        prop_assert!(a.metrics.delivered == b.metrics.delivered);
        prop_assert!(a.metrics.lost_to_outage == b.metrics.lost_to_outage);
        prop_assert!(a.metrics.lost_to_churn == b.metrics.lost_to_churn);
        prop_assert!(a.metrics.retries == b.metrics.retries);
        prop_assert!(a.packets.len() == b.packets.len());
        for (pa, pb) in a.packets.iter().zip(&b.packets) {
            prop_assert!(pa.loc == pb.loc);
            prop_assert!(pa.visited == pb.visited);
            prop_assert!(pa.hops == pb.hops);
        }
        check_invariants(&a, cfg.ttl, "FLOW+faults");
    }

    #[test]
    fn zero_rate_faults_identical_to_no_faults(
        trace in arb_trace(),
        ttl in 4_000u64..40_000,
        rate in 20.0f64..500.0,
    ) {
        let cfg = prop_cfg(ttl, rate);
        let plan = FaultPlan::generate(&FaultConfig::default(), &trace);
        prop_assert!(plan.is_empty());
        let build = || FlowRouter::new(
            FlowConfig::with_degradation(),
            trace.num_nodes(),
            trace.num_landmarks(),
        );
        let mut r1 = build();
        let clean = RunSpec::new(&trace, &cfg).run(&mut r1);
        let mut r2 = build();
        let faulted = RunSpec::new(&trace, &cfg).faults(&plan).run(&mut r2);
        // Byte-identical outcomes: same counters, same per-packet fates.
        prop_assert!(clean.metrics.generated == faulted.metrics.generated);
        prop_assert!(clean.metrics.delivered == faulted.metrics.delivered);
        prop_assert!(clean.metrics.expired == faulted.metrics.expired);
        prop_assert!(clean.metrics.forwarding_ops == faulted.metrics.forwarding_ops);
        prop_assert!(clean.metrics.delays == faulted.metrics.delays);
        prop_assert!(faulted.metrics.lost() == 0);
        prop_assert!(clean.packets.len() == faulted.packets.len());
        for (pa, pb) in clean.packets.iter().zip(&faulted.packets) {
            prop_assert!(pa.loc == pb.loc);
            prop_assert!(pa.visited == pb.visited);
            prop_assert!(pa.hops == pb.hops);
        }
    }

    #[test]
    fn flow_invariants_under_faults(
        trace in arb_trace(),
        ttl in 4_000u64..40_000,
        fseed in 0u64..50,
    ) {
        let cfg = prop_cfg(ttl, 300.0);
        let fc = FaultConfig {
            station_outage_duty: 0.4,
            mean_outage_secs: 1_500.0,
            node_failures_per_day: 4.0,
            mean_node_downtime_secs: 1_000.0,
            contact_truncation_rate: 0.3,
            record_loss_rate: 0.25,
            seed: fseed,
        };
        let plan = FaultPlan::generate(&fc, &trace);
        let mut router = FlowRouter::new(
            FlowConfig::with_degradation(),
            trace.num_nodes(),
            trace.num_landmarks(),
        );
        let outcome = RunSpec::new(&trace, &cfg).faults(&plan).run(&mut router);
        check_invariants(&outcome, cfg.ttl, "FLOW+heavy-faults");
    }

    #[test]
    fn markov_probabilities_are_a_distribution(
        seq in proptest::collection::vec(0u16..12, 2..200),
        k in 1usize..4,
    ) {
        let mut p = MarkovPredictor::new(k);
        for &s in &seq {
            p.observe(LandmarkId(s));
        }
        let dist = p.distribution();
        let total: f64 = dist.iter().map(|&(_, q)| q).sum();
        prop_assert!(dist.iter().all(|&(_, q)| (0.0..=1.0).contains(&q)));
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
        if let Some((best, q)) = p.predict() {
            // The argmax is in the distribution with the same probability.
            prop_assert!(dist.iter().any(|&(lm, qq)| lm == best && (qq - q).abs() < 1e-12));
            prop_assert!(dist.iter().all(|&(_, qq)| qq <= q + 1e-12));
        }
    }

    #[test]
    fn visit_history_averages_bound_by_extremes(
        stays in proptest::collection::vec((0u16..4, 100u64..10_000), 1..50),
    ) {
        let mut h = VisitHistory::new(4);
        let mut t = 0u64;
        for &(lm, d) in &stays {
            h.record(LandmarkId(lm), SimTime(t), SimTime(t + d));
            t += d + 10;
        }
        let overall = h.avg_stay_overall().unwrap().secs();
        let min = stays.iter().map(|&(_, d)| d).min().unwrap();
        let max = stays.iter().map(|&(_, d)| d).max().unwrap();
        prop_assert!(overall >= min.saturating_sub(1) && overall <= max);
    }
}
