//! The recorded event stream is byte-stable: running the same scenario
//! with the same seed twice (in this process or any other) must produce
//! an identical rendered event log and an identical snapshot JSON/CSV.
//! Any ambient nondeterminism (hash ordering, wall-clock time, global
//! RNG) sneaking into the tracer or the engine shows up here as a byte
//! diff.

use dtn_flow::prelude::*;

fn scenario() -> (Trace, SimConfig) {
    let mut v = Vec::new();
    for d in 0..10u64 {
        let base = d * 86_400;
        v.push(Visit::new(
            NodeId(0),
            LandmarkId(0),
            SimTime(base + 1_000),
            SimTime(base + 9_000),
        ));
        v.push(Visit::new(
            NodeId(0),
            LandmarkId(1),
            SimTime(base + 18_000),
            SimTime(base + 26_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            LandmarkId(1),
            SimTime(base + 28_000),
            SimTime(base + 36_000),
        ));
        v.push(Visit::new(
            NodeId(1),
            LandmarkId(2),
            SimTime(base + 45_000),
            SimTime(base + 53_000),
        ));
    }
    let positions = (0..3)
        .map(|i| dtn_flow::core::geometry::Point::new(i as f64 * 400.0, 0.0))
        .collect();
    let trace = Trace::new("stability", 2, 3, positions, v).expect("valid trace");
    let cfg = SimConfig {
        packets_per_landmark_per_day: 8.0,
        ttl: DAY.mul(4),
        time_unit: DAY,
        seed: 23,
        ..SimConfig::default()
    };
    (trace, cfg)
}

fn record_once() -> Recorder {
    let (trace, cfg) = scenario();
    let fc = FaultConfig {
        station_outage_duty: 0.2,
        mean_outage_secs: 15_000.0,
        node_failures_per_day: 0.5,
        mean_node_downtime_secs: 10_000.0,
        contact_truncation_rate: 0.1,
        record_loss_rate: 0.1,
        seed: 5,
    };
    let plan = FaultPlan::generate(&fc, &trace);
    let mut router = FlowRouter::new(
        FlowConfig::with_degradation(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let mut out = RunSpec::new(&trace, &cfg)
        .faults(&plan)
        .sink(Box::new(Recorder::new(1 << 16)))
        .run(&mut router);
    out.trace
        .take()
        .and_then(Recorder::downcast)
        .expect("recorder sink attached")
}

#[test]
fn recorded_stream_is_byte_stable() {
    let a = record_once();
    let b = record_once();

    let log_a = a.render_log();
    assert!(!log_a.is_empty(), "scenario recorded no events");
    assert_eq!(log_a, b.render_log(), "rendered event logs diverge");
    assert_eq!(a.recorded(), b.recorded());
    assert_eq!(a.dropped(), b.dropped());

    assert_eq!(
        a.snapshot().to_json(),
        b.snapshot().to_json(),
        "snapshot JSON diverges"
    );
    assert_eq!(
        a.snapshot().to_csv(),
        b.snapshot().to_csv(),
        "snapshot CSV diverges"
    );
}

const PINNED_FIRST_LINE: &str = "@0 unit_boundary u0";
const PINNED_LINE_COUNT: usize = 931;
const PINNED_LOG_FNV1A: u64 = 0x854b_485b_24c9_bf2c;
const PINNED_SNAPSHOT_FNV1A: u64 = 0x89cd_63f1_f572_7d75;

/// FNV-1a 64 over the log bytes: a tiny, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cross-*process* byte stability: the log below was recorded by an
/// earlier build in a different process; every future process must
/// reproduce it bit-for-bit. If an intentional engine or tracer change
/// shifts the stream, re-pin these constants — any *unintentional* diff
/// is a nondeterminism bug.
#[test]
fn recorded_stream_is_byte_stable_across_processes() {
    let rec = record_once();
    let log = rec.render_log();
    let first = log.lines().next().expect("log is non-empty");
    assert_eq!(first, PINNED_FIRST_LINE, "first event diverged");
    assert_eq!(
        log.lines().count(),
        PINNED_LINE_COUNT,
        "event count diverged"
    );
    assert_eq!(
        fnv1a(log.as_bytes()),
        PINNED_LOG_FNV1A,
        "log bytes diverged"
    );
    assert_eq!(
        fnv1a(rec.snapshot().to_json().as_bytes()),
        PINNED_SNAPSHOT_FNV1A,
        "snapshot JSON bytes diverged"
    );
}

/// Observe points drive the gauge exports end-to-end: a traced run with
/// `observe_points > 0` must surface per-landmark route coverage in the
/// snapshot. It rides the `on_observe` emission path, so it never
/// appears in untraced or zero-observe-point runs.
#[test]
fn observe_points_populate_route_gauges() {
    let (trace, mut cfg) = scenario();
    cfg.observe_points = 4;
    let plan = FaultPlan::generate(&FaultConfig::default(), &trace);
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        trace.num_nodes(),
        trace.num_landmarks(),
    );
    let mut out = RunSpec::new(&trace, &cfg)
        .faults(&plan)
        .sink(Box::new(Recorder::new(1 << 16)))
        .run(&mut router);
    let rec = out
        .trace
        .take()
        .and_then(Recorder::downcast)
        .expect("recorder sink attached");
    let snap = rec.snapshot();
    assert!(!snap.route_coverage.is_empty(), "no coverage gauge rows");
    // The gauge must survive the JSON round trip the validator checks.
    let json = snap.to_json();
    assert!(json.contains("\"coverage\""), "coverage missing from JSON");
}

/// The log renders in simulation order with non-decreasing timestamps —
/// the property downstream diff tooling relies on.
#[test]
fn recorded_stream_is_time_ordered() {
    let rec = record_once();
    let mut last = SimTime(0);
    for ev in rec.events() {
        assert!(
            ev.at() >= last,
            "event out of order: {ev} after t={}",
            last.secs()
        );
        last = ev.at();
    }
}

/// Re-pin helper after an *intentional* stream change:
/// `cargo test --test obs_trace_stability -- --ignored --nocapture probe_pins`
#[test]
#[ignore = "probe: prints pin constants"]
fn probe_pins() {
    let rec = record_once();
    let log = rec.render_log();
    println!("FIRST: {:?}", log.lines().next().unwrap());
    println!("COUNT: {}", log.lines().count());
    println!("LOG_FNV: {:#x}", fnv1a(log.as_bytes()));
    println!(
        "SNAP_FNV: {:#x}",
        fnv1a(rec.snapshot().to_json().as_bytes())
    );
}
