//! The §IV-E extension experiments: Table VI (dead-end prevention),
//! Table VII (routing-loop detection and correction), and Tables VIII/IX
//! (load balancing).

use crate::report::Table;
use crate::runners::parallel_map;
use crate::scenarios::Scenario;
use dtnflow_core::config::SimConfig;
use dtnflow_core::ids::LandmarkId;
use dtnflow_core::time::SimDuration;
use dtnflow_mobility::stats;
use dtnflow_router::{FlowConfig, FlowRouter, LoopInjection};
use dtnflow_sim::RunSpec;

struct FlowRun {
    success: f64,
    avg_delay_secs: f64,
    overall_delay_secs: f64,
    dead_ends: u64,
    loops_detected: u64,
    lb_reroutes: u64,
}

fn run_flow(s: &Scenario, cfg: &SimConfig, flow: FlowConfig) -> FlowRun {
    let wl = s.workload(cfg);
    let mut router = FlowRouter::new(flow, s.trace.num_nodes(), s.trace.num_landmarks());
    let out = RunSpec::new(&s.trace, cfg).workload(&wl).run(&mut router);
    FlowRun {
        success: out.metrics.success_rate(),
        avg_delay_secs: out.metrics.average_delay_secs(),
        overall_delay_secs: out
            .metrics
            .overall_average_delay_secs(SimDuration::from_secs(s.trace.duration().secs())),
        dead_ends: router.stats().dead_ends_detected,
        loops_detected: router.stats().loops_detected,
        lb_reroutes: router.stats().lb_reroutes,
    }
}

/// Table VI: dead-end prevention — hit rate and average delay for the
/// original algorithm (ORG) and γ ∈ {2, 3, 4, 5}.
pub fn table6(quick: bool) -> Vec<Table> {
    let gammas: Vec<f64> = if quick {
        vec![2.0, 4.0]
    } else {
        vec![2.0, 3.0, 4.0, 5.0]
    };
    let mut t = Table::new(
        "table6",
        "Dead-end prevention (Table VI)",
        &[
            "trace",
            "config",
            "success rate",
            "avg delay (min)",
            "dead ends detected",
        ],
    );
    for s in [Scenario::campus(), Scenario::bus()] {
        let cfg = s.cfg(0x7AB6);
        let mut variants: Vec<(String, FlowConfig)> =
            vec![("ORG".to_string(), FlowConfig::default())];
        for &g in &gammas {
            variants.push((
                format!("gamma={g}"),
                FlowConfig {
                    dead_end: Some(g),
                    ..FlowConfig::default()
                },
            ));
        }
        let runs = parallel_map(&variants, |(_, fc)| run_flow(&s, &cfg, fc.clone()));
        for ((label, _), r) in variants.iter().zip(&runs) {
            t.row(vec![
                s.name.to_string(),
                label.clone(),
                format!("{:.3}", r.success),
                format!("{:.0}", r.avg_delay_secs / 60.0),
                r.dead_ends.to_string(),
            ]);
        }
    }
    t.note("paper: prevention raises hit rate / lowers delay, best at gamma=2");
    vec![t]
}

/// Build `n` injected 2-member loops from the busiest landmarks toward
/// unpopular destinations, re-injected at several time units so the
/// corruption persists like the paper's "purposely created loops".
fn make_loops(s: &Scenario, n: usize) -> Vec<LoopInjection> {
    let pop = stats::landmark_popularity(&s.trace);
    let eligible: Vec<LandmarkId> = pop
        .iter()
        .map(|&(l, _)| l)
        .filter(|l| !s.excluded.contains(l))
        .collect();
    let total_units = s.trace.duration().secs() / s.base_cfg.time_unit.secs().max(1);
    let inject_units: Vec<u64> = [0.35, 0.55, 0.75]
        .iter()
        .map(|f| ((total_units as f64) * f) as u64)
        .collect();
    let mut out = Vec::new();
    for i in 0..n {
        let a = eligible[(2 * i) % eligible.len()];
        let b = eligible[(2 * i + 1) % eligible.len()];
        let dest = eligible[eligible.len() - 1 - (i % 3)];
        for &u in &inject_units {
            out.push(LoopInjection {
                at_unit: u,
                members: vec![a, b],
                dest,
            });
        }
    }
    out
}

/// Table VII: routing-loop detection and correction with 2 and 3 injected
/// loops, with (W) and without (ORG) the correction mechanism.
pub fn table7() -> Vec<Table> {
    let mut t = Table::new(
        "table7",
        "Routing loop detection and correction (Table VII)",
        &[
            "trace",
            "config",
            "success rate",
            "overall delay (min)",
            "loops detected",
        ],
    );
    for s in [Scenario::campus(), Scenario::bus()] {
        let cfg = s.cfg(0x7AB7);
        let mut variants: Vec<(String, FlowConfig)> =
            vec![("no loops".into(), FlowConfig::default())];
        for n in [2usize, 3] {
            let inject = make_loops(&s, n);
            variants.push((
                format!("ORG-{n}"),
                FlowConfig {
                    loop_correction: false,
                    inject_loops: inject.clone(),
                    ..FlowConfig::default()
                },
            ));
            variants.push((
                format!("W-{n}"),
                FlowConfig {
                    loop_correction: true,
                    inject_loops: inject,
                    ..FlowConfig::default()
                },
            ));
        }
        let runs = parallel_map(&variants, |(_, fc)| run_flow(&s, &cfg, fc.clone()));
        for ((label, _), r) in variants.iter().zip(&runs) {
            t.row(vec![
                s.name.to_string(),
                label.clone(),
                format!("{:.3}", r.success),
                format!("{:.0}", r.overall_delay_secs / 60.0),
                r.loops_detected.to_string(),
            ]);
        }
    }
    t.note("paper: W-x hit rates close to the no-loop case; ORG-x lower");
    vec![t]
}

/// Tables VIII and IX: load balancing at overload packet rates
/// (1100..=1500), with (W) and without (W/O) the backup-next-hop
/// mechanism — success rates and average delays.
pub fn table8(quick: bool) -> Vec<Table> {
    let rates: Vec<f64> = if quick {
        vec![1_100.0, 1_500.0]
    } else {
        vec![1_100.0, 1_200.0, 1_300.0, 1_400.0, 1_500.0]
    };
    let mut succ = Table::new(
        "table8-success",
        "Load balancing: success rate at overload rates (Table VIII)",
        &["trace", "rate", "W/O-Balance", "W-Balance", "reroutes"],
    );
    let mut delay = Table::new(
        "table8-delay",
        "Load balancing: average delay (min) at overload rates (Table IX)",
        &["trace", "rate", "W/O-Balance", "W-Balance"],
    );
    for s in [Scenario::campus(), Scenario::bus()] {
        let jobs: Vec<(f64, bool)> = rates
            .iter()
            .flat_map(|&r| [(r, false), (r, true)])
            .collect();
        let runs = parallel_map(&jobs, |&(r, balance)| {
            let cfg = s.cfg(0x7AB8).with_packet_rate(r);
            let flow = FlowConfig {
                load_balance: balance,
                ..FlowConfig::default()
            };
            run_flow(&s, &cfg, flow)
        });
        for (i, &rate) in rates.iter().enumerate() {
            let wo = &runs[2 * i];
            let w = &runs[2 * i + 1];
            succ.row(vec![
                s.name.to_string(),
                format!("{rate:.0}"),
                format!("{:.3}", wo.success),
                format!("{:.3}", w.success),
                w.lb_reroutes.to_string(),
            ]);
            delay.row(vec![
                s.name.to_string(),
                format!("{rate:.0}"),
                format!("{:.0}", wo.avg_delay_secs / 60.0),
                format!("{:.0}", w.avg_delay_secs / 60.0),
            ]);
        }
    }
    succ.note("paper: balancing raises success under overload");
    delay.note("paper: balancing lowers delay under overload");
    vec![succ, delay]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_specs_are_wellformed() {
        let s = Scenario::bus();
        let loops = make_loops(&s, 3);
        // 3 loops x 3 injection units.
        assert_eq!(loops.len(), 9);
        for l in &loops {
            assert_eq!(l.members.len(), 2);
            assert_ne!(l.members[0], l.members[1]);
            assert!(!s.excluded.contains(&l.dest));
            assert!(!l.members.contains(&l.dest));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn table6_quick_runs_on_bus_shape() {
        // Only assert structure here (full numbers come from the binary);
        // use the quick variant to keep the test fast.
        let t = &table6(true)[0];
        // 2 traces x (ORG + 2 gammas).
        assert_eq!(t.len(), 6);
        assert_eq!(t.cell(0, 1), "ORG");
        // Detections occur once enabled.
        let dead_ends: u64 = t.cell(1, 4).parse().unwrap();
        assert!(dead_ends > 0);
    }
}
