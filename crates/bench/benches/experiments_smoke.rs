//! Criterion smoke benchmarks over the experiment harness itself: one
//! cheap experiment per paper-artifact family, so `cargo bench` exercises
//! every reproduction path end-to-end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtnflow_bench::experiments::{run_experiment, ExperimentOpts};

fn bench_analysis_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in ["table1", "fig6", "fig7"] {
        group.bench_function(id, |b| {
            b.iter(|| black_box(run_experiment(id, &ExperimentOpts::QUICK).0.len()));
        });
    }
    group.finish();
}

fn bench_deploy_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    group.bench_function("deploy", |b| {
        b.iter(|| black_box(run_experiment("deploy", &ExperimentOpts::QUICK).0.len()));
    });
    group.finish();
}

criterion_group!(benches, bench_analysis_experiments, bench_deploy_experiment);
criterion_main!(benches);
