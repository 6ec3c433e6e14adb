//! Wildlife tracking — the ZebraNet-style application the paper cites
//! (§I): collared animals wander between waterholes; their loggers
//! opportunistically haul data to a ranger base station. This example
//! builds the mobility trace by hand through the public API, runs the
//! paper's landmark-selection procedure on raw place statistics, and then
//! routes the collected logs with DTN-FLOW.
//!
//! ```text
//! cargo run --release --example wildlife_tracking
//! ```

use dtn_flow::core::geometry::Point;
use dtn_flow::core::rngutil::{log_normal, rng_for, weighted_choice, zipf_weights};
use dtn_flow::prelude::*;
use rand::Rng;

const ANIMALS: usize = 24;
const WATERHOLES: usize = 9; // index 0 is the ranger base station
const DAYS: u64 = 30;

/// Hand-rolled semi-Markov wildlife mobility: each animal favours a home
/// range of waterholes, visiting 2–4 per day with long drinking stays.
fn wildlife_trace() -> Trace {
    let mut layout = rng_for(7, "wildlife-layout");
    let positions: Vec<Point> = (0..WATERHOLES)
        .map(|_| {
            Point::new(
                layout.random::<f64>() * 8_000.0,
                layout.random::<f64>() * 8_000.0,
            )
        })
        .collect();

    let mut visits = Vec::new();
    for a in 0..ANIMALS {
        let mut rng = rng_for(7, &format!("animal-{a}"));
        // Home-range preferences: a Zipf over a rotated waterhole order,
        // plus the base station for herds that graze near the rangers.
        let zipf = zipf_weights(WATERHOLES, 1.1);
        let offset = rng.random_range(0..WATERHOLES);
        let mut weights = vec![0.0; WATERHOLES];
        for (k, w) in zipf.iter().enumerate() {
            weights[(k + offset) % WATERHOLES] = *w;
        }
        let mut t = a as u64 * 600; // stagger starts
        let mut current = usize::MAX;
        for _day in 0..DAYS {
            let outings = 2 + rng.random_range(0..3);
            for _ in 0..outings {
                let mut w = weights.clone();
                if current != usize::MAX {
                    w[current] = 0.0;
                }
                let next = weighted_choice(&mut rng, &w);
                // Trek between waterholes: 1–5 hours.
                t += (3_600.0 * (1.0 + rng.random::<f64>() * 4.0)) as u64;
                let stay = (60.0 * log_normal(&mut rng, 90.0, 0.5)) as u64;
                visits.push(Visit::new(
                    NodeId::from(a),
                    LandmarkId::from(next),
                    SimTime(t),
                    SimTime(t + stay),
                ));
                t += stay;
                current = next;
            }
            // Overnight away from any waterhole.
            t += 8 * 3_600;
        }
    }
    Trace::new("wildlife", ANIMALS, WATERHOLES, positions, visits).expect("wildlife trace is valid")
}

fn main() {
    let trace = wildlife_trace();
    println!(
        "wildlife trace: {} animals, {} waterholes, {} visits",
        trace.num_nodes(),
        trace.num_landmarks(),
        trace.visits().len()
    );

    // Landmark selection (paper §IV-A.1) from raw place statistics: keep
    // the popular waterholes at least 500 m apart.
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
    let selected = select_landmarks(
        &stats,
        &SelectionConfig {
            min_distance: 500.0,
            ..SelectionConfig::default()
        },
    );
    println!(
        "landmark selection keeps {} of {WATERHOLES} waterholes",
        selected.len()
    );

    // Route every waterhole's sensor logs to the base station (l0).
    let base = LandmarkId(0);
    let cfg = SimConfig {
        packets_per_landmark_per_day: 30.0,
        ttl: DAY.mul(6),
        time_unit: DAY,
        node_memory: 200 * 1_024,
        ..SimConfig::default()
    };
    let workload = Workload::sink(&cfg, trace.num_landmarks(), trace.duration(), base);
    let mut router = FlowRouter::new(
        FlowConfig::with_all_extensions(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let out = RunSpec::new(&trace, &cfg)
        .workload(&workload)
        .run(&mut router);
    println!(
        "\nlog collection: {:.1}% of {} readings reached the rangers, median haul {:.1} h",
        100.0 * out.metrics.success_rate(),
        out.metrics.generated,
        out.metrics
            .delay_summary()
            .map(|f| (f.q1 + f.q3) / 2.0 / 3_600.0)
            .unwrap_or(0.0)
    );

    // The §IV-E.4 extension: address a packet to a *collared animal* (a
    // mobile node) via its frequently visited waterholes.
    for animal in [NodeId(0), NodeId(5)] {
        let regs = router.registered_landmarks(animal).to_vec();
        println!(
            "animal {animal} frequents {:?}; rangers can reach it there",
            regs.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        );
    }
}
