//! One module per paper artifact group. Every function returns plain
//! [`Table`]s so the binary can print and save them uniformly.

pub mod ablation;
pub mod comparison;
pub mod deployment;
pub mod division;
pub mod extensions;
pub mod prediction;
pub mod resilience;
pub mod routing;
pub mod scheduling;
pub mod trace_analysis;

use crate::report::Table;
use dtnflow_obs::Snapshot;

/// One experiment cell's observability export: the cell label (sweep
/// point × method) and its flight-recorder snapshot.
#[derive(Debug, Clone)]
pub struct ObsCell {
    pub label: String,
    pub snapshot: Snapshot,
}

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table6",
    "table7",
    "table8",
    "deploy",
    "ablation",
    "sched",
    "resilience",
];

/// Run one experiment by id. `quick` shrinks sweeps for smoke testing.
/// Panics on an unknown id (the binary validates beforehand).
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "table1" => trace_analysis::table1(),
        "fig2" => trace_analysis::fig2(),
        "fig3" => trace_analysis::fig3(),
        "fig4" => trace_analysis::fig4(),
        "fig5" => division::fig5(),
        "fig6" => prediction::fig6(),
        "fig7" => routing::fig7(),
        "fig8" => routing::fig8(),
        "fig11" => comparison::memory_sweep_campus(quick),
        "fig12" => comparison::memory_sweep_bus(quick),
        "fig13" => comparison::rate_sweep_campus(quick),
        "fig14" => comparison::rate_sweep_bus(quick),
        "table6" => extensions::table6(quick),
        "table7" => extensions::table7(),
        "table8" => extensions::table8(quick),
        "deploy" => deployment::deploy(),
        "ablation" => ablation::ablation(quick),
        "sched" => scheduling::sched(quick),
        "resilience" => resilience::resilience(quick),
        other => panic!("unknown experiment id `{other}`; known: {ALL_IDS:?}"),
    }
}

/// Like [`run_experiment`], but the comparison sweeps run under a shard
/// runtime (DESIGN.md §13). Tables are byte-identical for every `shards`
/// value; experiments without per-landmark unit work ignore the setting.
pub fn run_experiment_sharded(id: &str, quick: bool, shards: usize) -> Vec<Table> {
    match id {
        "fig11" => comparison::memory_sweep_campus_sharded(quick, shards),
        "fig12" => comparison::memory_sweep_bus_sharded(quick, shards),
        "fig13" => comparison::rate_sweep_campus_sharded(quick, shards),
        "fig14" => comparison::rate_sweep_bus_sharded(quick, shards),
        other => run_experiment(other, quick),
    }
}

/// Like [`run_experiment`], but the simulation-heavy sweeps also attach a
/// flight recorder per cell and return the observability snapshots.
/// Experiments without traced variants fall back to [`run_experiment`]
/// with no cells. Tables are byte-identical with tracing on and off.
pub fn run_experiment_with_obs(id: &str, quick: bool) -> (Vec<Table>, Vec<ObsCell>) {
    match id {
        "fig11" => comparison::memory_sweep_campus_obs(quick),
        "fig12" => comparison::memory_sweep_bus_obs(quick),
        "fig13" => comparison::rate_sweep_campus_obs(quick),
        "fig14" => comparison::rate_sweep_bus_obs(quick),
        "resilience" => resilience::resilience_obs(quick),
        other => (run_experiment(other, quick), Vec::new()),
    }
}

/// [`run_experiment_with_obs`] under a shard runtime. Tables *and*
/// snapshots are byte-identical for every `shards` value.
pub fn run_experiment_with_obs_sharded(
    id: &str,
    quick: bool,
    shards: usize,
) -> (Vec<Table>, Vec<ObsCell>) {
    match id {
        "fig11" => comparison::memory_sweep_campus_obs_sharded(quick, shards),
        "fig12" => comparison::memory_sweep_bus_obs_sharded(quick, shards),
        "fig13" => comparison::rate_sweep_campus_obs_sharded(quick, shards),
        "fig14" => comparison::rate_sweep_bus_obs_sharded(quick, shards),
        other => run_experiment_with_obs(other, quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids = ALL_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_IDS.len());
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_experiment("fig99", true);
    }
}
