//! Ablations of DTN-FLOW's design choices (beyond the paper's own
//! experiments): predictor order, link-delay model, accuracy-weighted
//! carrier ranking, and mis-transit tolerance.

use crate::report::Table;
use crate::runners::parallel_map;
use crate::scenarios::Scenario;
use dtnflow_router::config::AccuracyFactors;
use dtnflow_router::{FlowConfig, FlowRouter, HybridFlowRouter, LinkDelayModel};
use dtnflow_sim::{Router, RunSpec};

/// Run DTN-FLOW variants on both traces.
pub fn ablation(quick: bool) -> Vec<Table> {
    let variants: Vec<(&str, FlowConfig)> = vec![
        ("default (k=1, interval, acc)", FlowConfig::default()),
        (
            "order k=2",
            FlowConfig {
                order_k: 2,
                ..FlowConfig::default()
            },
        ),
        (
            "throughput delay model",
            FlowConfig {
                delay_model: LinkDelayModel::Throughput,
                ..FlowConfig::default()
            },
        ),
        (
            "no accuracy weighting",
            FlowConfig {
                // Frozen at 1.0: carriers ranked by predicted probability
                // alone (ablates §IV-D.4).
                accuracy: AccuracyFactors {
                    init: 1.0,
                    up: 1.0,
                    down: 1.0,
                    floor: 1.0,
                },
                ..FlowConfig::default()
            },
        ),
        (
            "mis-transit tolerance 0.5",
            FlowConfig {
                mis_transit_tolerance: 0.5,
                ..FlowConfig::default()
            },
        ),
    ];

    let mut t = Table::new(
        "ablation",
        "DTN-FLOW design-choice ablations",
        &[
            "trace",
            "variant",
            "success rate",
            "avg delay (min)",
            "forwarding ops",
        ],
    );
    let scenarios = if quick {
        vec![Scenario::bus()]
    } else {
        vec![Scenario::campus(), Scenario::bus()]
    };
    for s in scenarios {
        let cfg = s.cfg(0xAB1A);
        let wl = s.workload(&cfg);
        let runs = parallel_map(&variants, |(_, fc)| {
            let mut router =
                FlowRouter::new(fc.clone(), s.trace.num_nodes(), s.trace.num_landmarks());
            RunSpec::new(&s.trace, &cfg)
                .workload(&wl)
                .run(&mut router)
                .metrics
        });
        for ((label, _), m) in variants.iter().zip(&runs) {
            t.row(vec![
                s.name.to_string(),
                label.to_string(),
                format!("{:.3}", m.success_rate()),
                format!("{:.0}", m.average_delay_secs() / 60.0),
                m.forwarding_ops.to_string(),
            ]);
        }
        // The section-VI future-work extension: node-to-node handoffs.
        let mut hybrid = HybridFlowRouter::new(
            FlowConfig::default(),
            s.trace.num_nodes(),
            s.trace.num_landmarks(),
        );
        let m = RunSpec::new(&s.trace, &cfg)
            .workload(&wl)
            .run(&mut hybrid)
            .metrics;
        let _ = hybrid.name();
        t.row(vec![
            s.name.to_string(),
            format!("hybrid n2n ({} handoffs)", hybrid.handoffs()),
            format!("{:.3}", m.success_rate()),
            format!("{:.0}", m.average_delay_secs() / 60.0),
            m.forwarding_ops.to_string(),
        ]);
    }
    t.note("interval vs throughput delay models rank paths identically; differences come from TTL-feasibility scaling");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn ablation_runs_all_variants() {
        let t = &ablation(true)[0];
        assert_eq!(t.len(), 6);
        // Every variant still delivers a reasonable share on the bus trace.
        for r in 0..t.len() {
            let s: f64 = t.cell(r, 2).parse().unwrap();
            assert!(s > 0.3, "variant {} success {s}", t.cell(r, 1));
        }
    }
}
