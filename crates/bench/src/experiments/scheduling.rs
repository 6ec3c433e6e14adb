//! The §IV-D.5 communication scheduler under radio contention: sweep the
//! per-landmark per-unit radio budget and watch throughput degrade
//! gracefully (prioritizing minimum-remaining-TTL packets).

use crate::report::Table;
use crate::runners::parallel_map;
use crate::scenarios::Scenario;
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::RunSpec;

/// Radio-budget sweep on the bus scenario.
pub fn sched(quick: bool) -> Vec<Table> {
    let budgets: Vec<Option<u64>> = if quick {
        vec![None, Some(2_000), Some(250)]
    } else {
        vec![
            None,
            Some(8_000),
            Some(4_000),
            Some(2_000),
            Some(1_000),
            Some(500),
            Some(250),
        ]
    };
    let s = Scenario::bus();
    let mut t = Table::new(
        "sched",
        "Radio-budget scheduling (section IV-D.5): throughput under contention",
        &[
            "radio budget (pkts/unit/landmark)",
            "success rate",
            "avg delay (min)",
            "forwarding ops",
        ],
    );
    let runs = parallel_map(&budgets, |&budget| {
        let mut cfg = s.cfg(0x5C8ED);
        cfg.radio_budget_per_unit = budget;
        let wl = s.workload(&cfg);
        let mut router = FlowRouter::new(
            FlowConfig::default(),
            s.trace.num_nodes(),
            s.trace.num_landmarks(),
        );
        RunSpec::new(&s.trace, &cfg)
            .workload(&wl)
            .run(&mut router)
            .metrics
    });
    for (budget, m) in budgets.iter().zip(&runs) {
        t.row(vec![
            budget.map_or("unlimited".to_string(), |b| b.to_string()),
            format!("{:.3}", m.success_rate()),
            format!("{:.0}", m.average_delay_secs() / 60.0),
            m.forwarding_ops.to_string(),
        ]);
    }
    t.note("upload cap K=50 per contact applies whenever the radio is contended");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn tighter_budgets_reduce_throughput() {
        let t = &sched(true)[0];
        assert_eq!(t.len(), 3);
        let unlimited: f64 = t.cell(0, 1).parse().unwrap();
        let tight: f64 = t.cell(2, 1).parse().unwrap();
        assert!(
            unlimited > tight,
            "unlimited {unlimited} must beat tight {tight}"
        );
        assert!(tight > 0.0, "the scheduler must still deliver something");
    }
}
