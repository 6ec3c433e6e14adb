//! One module per paper artifact group. Every function returns plain
//! [`Table`]s so the binary can print and save them uniformly; the
//! simulation sweeps also return one [`ObsCell`] per traced run.

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
use dtnflow_core::config::SimConfig;
use dtnflow_mobility::Trace;
use dtnflow_obs::{Recorder, Snapshot, DEFAULT_RING_CAPACITY};
use dtnflow_sim::RunSpec;

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

/// How to run an experiment: the `experiments` binary's `--quick` and
/// `--obs` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOpts {
    /// Shrink sweeps for smoke testing.
    pub quick: bool,
    /// Attach a flight recorder to every cell of the simulation sweeps
    /// (figs. 11–14 and resilience) and return its snapshot. Tables are
    /// byte-identical with tracing on and off.
    pub obs: bool,
}

impl ExperimentOpts {
    /// Full sweeps, no tracing.
    pub const FULL: ExperimentOpts = ExperimentOpts {
        quick: false,
        obs: false,
    };

    /// [`ExperimentOpts::FULL`] with `quick` set.
    pub const QUICK: ExperimentOpts = ExperimentOpts {
        quick: true,
        ..ExperimentOpts::FULL
    };

    /// A run over `trace` under `cfg`, with a flight recorder attached
    /// when `obs` is set.
    pub(crate) fn spec<'a>(&self, trace: &'a Trace, cfg: &'a SimConfig) -> RunSpec<'a> {
        let spec = RunSpec::new(trace, cfg);
        if self.obs {
            spec.sink(Box::new(Recorder::new(DEFAULT_RING_CAPACITY)))
        } else {
            spec
        }
    }
}

/// Run one experiment by id: its tables, plus one observability cell per
/// simulation when `opts.obs` is set and the experiment is one of the
/// traced sweeps (other experiments return no cells). Panics on an
/// unknown id (the binary validates beforehand).
pub fn run_experiment(id: &str, opts: &ExperimentOpts) -> (Vec<Table>, Vec<ObsCell>) {
    match id {
        "fig11" => comparison::fig11(opts),
        "fig12" => comparison::fig12(opts),
        "fig13" => comparison::fig13(opts),
        "fig14" => comparison::fig14(opts),
        "resilience" => resilience::resilience(opts),
        other => (untraced_experiment(other, opts.quick), Vec::new()),
    }
}

/// The experiments that never attach a sink.
fn untraced_experiment(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "table1" => trace_analysis::table1(),
        "fig2" => trace_analysis::fig2(),
        "fig3" => trace_analysis::fig3(),
        "fig4" => trace_analysis::fig4(),
        "fig5" => division::fig5(),
        "fig6" => prediction::fig6(),
        "fig7" => routing::fig7(),
        "fig8" => routing::fig8(),
        "table6" => extensions::table6(quick),
        "table7" => extensions::table7(),
        "table8" => extensions::table8(quick),
        "deploy" => deployment::deploy(),
        "ablation" => ablation::ablation(quick),
        "sched" => scheduling::sched(quick),
        other => panic!("unknown experiment id `{other}`; known: {ALL_IDS:?}"),
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
        run_experiment("fig99", &ExperimentOpts::QUICK);
    }
}
