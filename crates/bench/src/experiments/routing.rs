//! Fig. 7 (the distance-vector update worked example / Table IV) and
//! Fig. 8 (routing-table coverage and stability over ten observation
//! points).

use crate::report::Table;
use crate::scenarios::Scenario;
use dtnflow_core::ids::LandmarkId;
use dtnflow_router::{FlowConfig, FlowRouter, RoutingTable, StoredVector};
use dtnflow_sim::RunSpec;

fn vector(num: usize, pairs: &[(u16, f64)], seq: u64) -> StoredVector {
    let mut delays = vec![f64::INFINITY; num];
    for &(d, v) in pairs {
        delays[d as usize] = v;
    }
    StoredVector { seq, delays }
}

/// Fig. 7 / Table IV: the paper's literal routing-table update example.
/// Landmark l0 has neighbours l1 (link 8), l7 (link 6), l6 (link 7);
/// receiving l6's vector must produce the paper's final entries.
pub fn fig7() -> Vec<Table> {
    let num = 10;
    let mut rt = RoutingTable::new(LandmarkId(0), num);
    let link = |l: LandmarkId| -> f64 {
        match l.0 {
            1 => 8.0,
            7 => 6.0,
            6 => 7.0,
            _ => f64::INFINITY,
        }
    };
    rt.receive(LandmarkId(1), vector(num, &[(1, 0.0)], 1));
    rt.receive(
        LandmarkId(7),
        vector(num, &[(7, 0.0), (4, 14.0), (9, 28.0)], 1),
    );
    rt.recompute(&link);

    let mut before = Table::new(
        "fig7-before",
        "Routing table on l0 before l6's vector (Fig. 7 initial state)",
        &["destination", "next hop", "overall delay"],
    );
    for (dest, next, delay) in rt.rows() {
        before.row(vec![
            dest.to_string(),
            next.to_string(),
            format!("{delay:.0}"),
        ]);
    }

    rt.receive(
        LandmarkId(6),
        vector(num, &[(6, 0.0), (3, 10.0), (9, 30.0), (4, 11.0)], 1),
    );
    rt.recompute(&link);

    let mut after = Table::new(
        "fig7-after",
        "Routing table on l0 after l6's vector (Fig. 7 result)",
        &["destination", "next hop", "overall delay"],
    );
    for (dest, next, delay) in rt.rows() {
        after.row(vec![
            dest.to_string(),
            next.to_string(),
            format!("{delay:.0}"),
        ]);
    }
    after.note("paper's final entries: (1,1,8) (3,6,17) (4,6,18) (7,7,6) (9,7,34)");
    vec![before, after]
}

/// Fig. 8: average routing-table coverage and stability at ten evenly
/// spaced observation points, per trace.
pub fn fig8() -> Vec<Table> {
    let mut out = Vec::new();
    for s in [Scenario::campus(), Scenario::bus()] {
        let mut cfg = s.cfg(0xF168);
        cfg.observe_points = 10;
        // Routing-table dynamics do not depend on the packet workload;
        // keep it light so the experiment is fast.
        cfg.packets_per_landmark_per_day = 1.0;
        let wl = s.workload(&cfg);
        let mut router = FlowRouter::new(
            FlowConfig::default(),
            s.trace.num_nodes(),
            s.trace.num_landmarks(),
        );
        let _ = RunSpec::new(&s.trace, &cfg).workload(&wl).run(&mut router);
        let mut t = Table::new(
            format!("fig8-{}", s.name),
            format!("Routing table coverage and stability ({})", s.name),
            &["observation", "avg coverage", "avg stability"],
        );
        for row in router.observations() {
            t.row(vec![
                (row.index + 1).to_string(),
                format!("{:.3}", row.avg_coverage),
                format!("{:.3}", row.avg_stability),
            ]);
        }
        t.note("paper: coverage near 1 and stability near 1 after the first points");
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_matches_paper_entries() {
        let tables = fig7();
        let after = &tables[1];
        let find = |dest: &str| -> (String, String) {
            for r in 0..after.len() {
                if after.cell(r, 0) == dest {
                    return (after.cell(r, 1).to_string(), after.cell(r, 2).to_string());
                }
            }
            panic!("destination {dest} missing");
        };
        assert_eq!(find("l1"), ("l1".to_string(), "8".to_string()));
        assert_eq!(find("l3"), ("l6".to_string(), "17".to_string()));
        assert_eq!(find("l4"), ("l6".to_string(), "18".to_string()));
        assert_eq!(find("l7"), ("l7".to_string(), "6".to_string()));
        assert_eq!(find("l9"), ("l7".to_string(), "34".to_string()));
        // Before the update, l3 was unknown and l4 went via l7 at 20.
        let before = &tables[0];
        assert!(!(0..before.len()).any(|r| before.cell(r, 0) == "l3"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn fig8_converges() {
        for t in fig8() {
            assert_eq!(t.len(), 10);
            let cov: f64 = t.cell(t.len() - 1, 1).parse().unwrap();
            let stab: f64 = t.cell(t.len() - 1, 2).parse().unwrap();
            assert!(cov > 0.8, "{}: coverage {cov}", t.id);
            // Our per-unit transit counts are smaller than the real
            // traces', so tables stay somewhat noisier than the paper's
            // near-1 stability.
            assert!(stab > 0.55, "{}: stability {stab}", t.id);
        }
    }
}
