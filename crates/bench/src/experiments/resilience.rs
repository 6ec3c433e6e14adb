//! Resilience under injected faults: sweep station-outage duty × node
//! churn and compare DTN-FLOW's graceful degradation (staleness decay,
//! down-landmark fallback, stranded-packet retries) against baseline
//! routers that ignore the fault hooks entirely.
//!
//! The interesting claim is the *shape* of the curve: DTN-FLOW depends on
//! landmark stations, so naive station loss could cliff its delivery rate
//! to zero; with degradation it should instead decay smoothly as outage
//! duty grows, while still surfacing what the faults cost it
//! (`lost: outage/churn`, retries, recovery time).

use crate::experiments::{ExperimentOpts, ObsCell};
use crate::report::Table;
use crate::runners::{parallel_map, Method};
use crate::scenarios::Scenario;
use dtnflow_core::metrics::MetricsSummary;
use dtnflow_obs::{Recorder, Snapshot};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{FaultConfig, FaultPlan, Router, RunSpec};

/// DTN-FLOW plus two station-less baselines: the baselines carry packets
/// only on nodes, so station outages cost them nothing and they anchor
/// the "no cliff" comparison.
const METHODS: [Method; 3] = [Method::Flow, Method::Prophet, Method::SimBet];

const FAULT_SEED: u64 = 0xFA_17;

fn fault_cfg(duty: f64, churn_per_day: f64) -> FaultConfig {
    FaultConfig {
        station_outage_duty: duty,
        node_failures_per_day: churn_per_day,
        seed: FAULT_SEED,
        ..FaultConfig::default()
    }
}

/// Run one cell. DTN-FLOW runs with graceful degradation enabled (the
/// point of the experiment); the baselines inherit the no-op fault hooks
/// from the `Router` trait. The snapshot is present when `spec` carries a
/// recorder.
fn run_cell(spec: RunSpec<'_>, method: Method) -> (MetricsSummary, Option<Snapshot>) {
    let (nodes, landmarks) = (spec.trace().num_nodes(), spec.trace().num_landmarks());
    let mut router: Box<dyn Router> = match method {
        Method::Flow => Box::new(FlowRouter::new(
            FlowConfig::with_degradation(),
            nodes,
            landmarks,
        )),
        m => m.build(nodes, landmarks),
    };
    let out = spec.run(router.as_mut());
    let snapshot = out.trace.and_then(Recorder::downcast).map(|r| r.snapshot());
    (out.metrics.summary(), snapshot)
}

/// The resilience sweep: outage duty × churn rate × method, per trace.
/// With `opts.obs` the sweep also exports one observability snapshot per
/// cell; the table itself must be byte-identical either way.
pub fn resilience(opts: &ExperimentOpts) -> (Vec<Table>, Vec<ObsCell>) {
    let duties: Vec<f64> = if opts.quick {
        vec![0.0, 0.2]
    } else {
        vec![0.0, 0.1, 0.2, 0.3]
    };
    let churns: Vec<f64> = if opts.quick {
        vec![0.0]
    } else {
        vec![0.0, 0.25]
    };
    let mut t = Table::new(
        "resilience",
        "Delivery under station outages and node churn",
        &[
            "trace",
            "outage duty",
            "churn/day",
            "method",
            "success rate",
            "lost: outage",
            "lost: churn",
            "retries",
            "avg recovery (min)",
        ],
    );
    let mut cells: Vec<ObsCell> = Vec::new();
    for s in [Scenario::bus(), Scenario::campus()] {
        let cfg = s.cfg(0x7E51);
        let wl = s.workload(&cfg);
        let jobs: Vec<(f64, f64, Method)> = duties
            .iter()
            .flat_map(|&d| {
                churns
                    .iter()
                    .flat_map(move |&c| METHODS.iter().map(move |&m| (d, c, m)))
            })
            .collect();
        let runs: Vec<(MetricsSummary, Option<Snapshot>)> =
            parallel_map(&jobs, |&(duty, churn, method)| {
                let plan = FaultPlan::generate(&fault_cfg(duty, churn), &s.trace);
                run_cell(
                    opts.spec(&s.trace, &cfg).workload(&wl).faults(&plan),
                    method,
                )
            });
        for (&(duty, churn, method), (r, snap)) in jobs.iter().zip(&runs) {
            t.row(vec![
                s.name.to_string(),
                format!("{duty:.2}"),
                format!("{churn:.2}"),
                method.name().to_string(),
                format!("{:.3}", r.success_rate),
                r.lost_to_outage.to_string(),
                r.lost_to_churn.to_string(),
                r.retries.to_string(),
                format!("{:.0}", r.average_recovery_secs / 60.0),
            ]);
            if let Some(snap) = snap {
                cells.push(ObsCell {
                    label: format!("{}/duty{duty:.2}/churn{churn:.2}/{}", s.name, method.name()),
                    snapshot: snap.clone(),
                });
            }
        }
    }
    t.note("DTN-FLOW should degrade smoothly with outage duty, not cliff to zero");
    (vec![t], cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cfgs_are_valid() {
        for duty in [0.0, 0.1, 0.2, 0.3] {
            for churn in [0.0, 0.25] {
                fault_cfg(duty, churn).validate().unwrap();
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn quick_sweep_shows_graceful_degradation() {
        let t = &resilience(&ExperimentOpts::QUICK).0[0];
        // 2 traces x 2 duties x 1 churn x 3 methods.
        assert_eq!(t.len(), 12);
        // The acceptance check: at 20% outage duty DTN-FLOW still
        // delivers a sizeable share — no cliff to zero — and the fault
        // accounting actually fired.
        for trace_idx in 0..2usize {
            let base = trace_idx * 6;
            let healthy: f64 = t.cell(base, 4).parse().unwrap();
            let faulted: f64 = t.cell(base + 3, 4).parse().unwrap();
            assert!(healthy > 0.0, "fault-free run must deliver");
            assert!(
                faulted > 0.25 * healthy,
                "20% outage duty must not cliff delivery: {faulted} vs {healthy}"
            );
            let lost_outage: u64 = t.cell(base + 3, 5).parse().unwrap();
            assert!(lost_outage > 0, "outages must cost something");
        }
    }
}
