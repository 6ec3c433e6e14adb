//! Method construction, single-run execution, and the parallel sweep
//! helper used by every experiment.

use dtnflow_baselines::{GeoComm, Per, Pgr, Prophet, SimBet, UtilityRouter};
use dtnflow_core::metrics::MetricsSummary;
use dtnflow_core::time::SimDuration;
use dtnflow_obs::{Recorder, Snapshot};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{Router, RunSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The six methods of the paper's comparison (§V-A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Flow,
    SimBet,
    Prophet,
    Pgr,
    GeoComm,
    Per,
}

impl Method {
    /// All six, in the paper's figure-legend order.
    pub const ALL: [Method; 6] = [
        Method::Flow,
        Method::SimBet,
        Method::Prophet,
        Method::Pgr,
        Method::GeoComm,
        Method::Per,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Flow => "DTN-FLOW",
            Method::SimBet => "SimBet",
            Method::Prophet => "PROPHET",
            Method::Pgr => "PGR",
            Method::GeoComm => "GeoComm",
            Method::Per => "PER",
        }
    }

    /// Build a fresh router instance for a network of the given size.
    pub fn build(self, num_nodes: usize, num_landmarks: usize) -> Box<dyn Router> {
        match self {
            Method::Flow => Box::new(FlowRouter::new(
                FlowConfig::default(),
                num_nodes,
                num_landmarks,
            )),
            Method::SimBet => Box::new(UtilityRouter::new(SimBet::new(num_nodes, num_landmarks))),
            Method::Prophet => Box::new(UtilityRouter::new(Prophet::new(num_nodes, num_landmarks))),
            Method::Pgr => Box::new(UtilityRouter::new(Pgr::new(num_nodes, num_landmarks))),
            Method::GeoComm => Box::new(UtilityRouter::new(GeoComm::new(num_nodes, num_landmarks))),
            Method::Per => Box::new(UtilityRouter::new(Per::new(num_nodes, num_landmarks))),
        }
    }
}

/// The outcome of one (method, config) run.
#[derive(Debug, Clone, Copy)]
pub struct MethodOutcome {
    pub method: Method,
    pub summary: MetricsSummary,
    /// Overall average delay counting undelivered packets at the
    /// experiment duration (the paper's "O. Delay", Table VII).
    pub overall_delay_secs: f64,
}

/// Run one method as `spec` describes. The snapshot is present exactly
/// when the spec's sink is a [`Recorder`]; a sink never perturbs the
/// outcome, and neither does the shard count (the `csv_determinism`,
/// `obs_props` and `shard_differential` suites enforce both).
pub fn run_method(spec: RunSpec<'_>, method: Method) -> (MethodOutcome, Option<Snapshot>) {
    let trace = spec.trace();
    let mut router = method.build(trace.num_nodes(), trace.num_landmarks());
    let out = spec.run(router.as_mut());
    let outcome = MethodOutcome {
        method,
        summary: out.metrics.summary(),
        overall_delay_secs: out
            .metrics
            .overall_average_delay_secs(SimDuration::from_secs(trace.duration().secs())),
    };
    let snapshot = out.trace.and_then(Recorder::downcast).map(|r| r.snapshot());
    (outcome, snapshot)
}

/// Map a function over items using all available cores (sweep points are
/// independent simulations). Result order matches input order, and the
/// whole computation is deterministic regardless of thread count.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                results.lock().push((i, r));
            });
        }
    })
    .expect("sweep worker panicked");
    let mut collected = results.into_inner();
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Empty input is fine.
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn methods_have_distinct_names() {
        let mut names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn run_method_produces_consistent_outcome() {
        let s = Scenario::bus();
        let mut cfg = s.cfg(5);
        cfg.packets_per_landmark_per_day = 20.0;
        let wl = s.workload(&cfg);
        let a = run_method(RunSpec::new(&s.trace, &cfg).workload(&wl), Method::Flow).0;
        let b = run_method(RunSpec::new(&s.trace, &cfg).workload(&wl), Method::Flow).0;
        assert_eq!(a.summary.generated, b.summary.generated);
        assert_eq!(a.summary.delivered, b.summary.delivered);
        assert!(a.summary.success_rate > 0.0);
        assert!(a.overall_delay_secs >= a.summary.average_delay_secs);
    }
}
