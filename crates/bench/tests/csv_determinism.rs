//! Byte-equal CSV determinism: running the same experiment twice in one
//! process must produce identical bytes. This is the regression net for
//! the detlint D1 rule — `std::collections::HashMap` seeds its hasher
//! per *instance*, so any iteration order leaking into results shows up
//! as a diff between two in-process runs.

use dtnflow_bench::experiments::{run_experiment, ExperimentOpts};

/// All tables of one experiment, concatenated as CSV bytes.
fn csv_of(id: &str, quick: bool) -> String {
    let opts = if quick {
        ExperimentOpts::QUICK
    } else {
        ExperimentOpts::FULL
    };
    run_experiment(id, &opts)
        .0
        .iter()
        .map(|t| format!("# {}\n{}", t.id, t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_byte_equal(id: &str, quick: bool) {
    let first = csv_of(id, quick);
    let second = csv_of(id, quick);
    assert!(
        first == second,
        "experiment `{id}` is not run-to-run deterministic: CSV outputs differ"
    );
    assert!(!first.is_empty(), "experiment `{id}` produced no CSV");
}

/// Cheap analysis experiments: always run, even in debug builds.
#[test]
fn trace_analysis_and_routing_are_byte_deterministic() {
    assert_byte_equal("table1", true);
    assert_byte_equal("fig7", true);
}

/// The full fault-injection sweep (PR 1) through the same net.
#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn resilience_is_byte_deterministic() {
    assert_byte_equal("resilience", true);
}

/// Observability must not perturb results: the experiment tables with a
/// flight recorder attached are byte-identical to the plain run, and the
/// obs run actually records events.
fn assert_obs_transparent(id: &str) {
    let plain = csv_of(id, true);
    let traced = ExperimentOpts {
        obs: true,
        ..ExperimentOpts::QUICK
    };
    let (tables, cells) = run_experiment(id, &traced);
    let observed = tables
        .iter()
        .map(|t| format!("# {}\n{}", t.id, t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        plain == observed,
        "experiment `{id}`: tables differ with tracing on vs off"
    );
    assert!(!cells.is_empty(), "experiment `{id}` returned no obs cells");
    assert!(
        cells.iter().all(|c| c.snapshot.events_recorded > 0),
        "experiment `{id}`: a traced cell recorded no events"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn fig12_tables_identical_with_tracing_on() {
    assert_obs_transparent("fig12");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn resilience_tables_identical_with_tracing_on() {
    assert_obs_transparent("resilience");
}
