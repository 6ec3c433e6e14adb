//! Criterion benchmarks for whole simulation runs at test scale: the
//! engine + DTN-FLOW and the engine + a baseline, on the tiny synthetic
//! traces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtnflow_baselines::{Prophet, UtilityRouter};
use dtnflow_core::config::SimConfig;
use dtnflow_mobility::synth::bus::{BusConfig, BusModel};
use dtnflow_mobility::synth::campus::{CampusConfig, CampusModel};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::RunSpec;

fn bench_flow_runs(c: &mut Criterion) {
    let campus = CampusModel::new(CampusConfig::tiny()).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 50.0,
        ..SimConfig::dart()
    };
    c.bench_function("simulator/flow-tiny-campus", |b| {
        b.iter(|| {
            let mut r = FlowRouter::new(
                FlowConfig::default(),
                campus.num_nodes(),
                campus.num_landmarks(),
            );
            black_box(RunSpec::new(&campus, &cfg).run(&mut r).metrics.delivered)
        });
    });
}

fn bench_baseline_runs(c: &mut Criterion) {
    let campus = CampusModel::new(CampusConfig::tiny()).generate();
    let cfg = SimConfig {
        packets_per_landmark_per_day: 50.0,
        ..SimConfig::dart()
    };
    c.bench_function("simulator/prophet-tiny-campus", |b| {
        b.iter(|| {
            let mut r =
                UtilityRouter::new(Prophet::new(campus.num_nodes(), campus.num_landmarks()));
            black_box(RunSpec::new(&campus, &cfg).run(&mut r).metrics.delivered)
        });
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("simulator/gen-tiny-campus-trace", |b| {
        b.iter(|| {
            black_box(
                CampusModel::new(CampusConfig::tiny())
                    .generate()
                    .visits()
                    .len(),
            )
        });
    });
    c.bench_function("simulator/gen-tiny-bus-trace", |b| {
        b.iter(|| black_box(BusModel::new(BusConfig::tiny()).generate().visits().len()));
    });
}

criterion_group!(
    benches,
    bench_flow_runs,
    bench_baseline_runs,
    bench_trace_generation
);
criterion_main!(benches);
