//! The §V-C real-deployment experiment: Fig. 16(a) success rate and delay
//! distribution, Fig. 16(b) transit-link bandwidths, and Table X routing
//! tables, on the nine-phone / eight-building campus scenario where every
//! packet targets the library.

use crate::report::Table;
use crate::scenarios::Scenario;
use dtnflow_core::ids::LandmarkId;
use dtnflow_core::metrics::FiveNum;
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{RunSpec, Workload};

/// Run the deployment and emit Fig. 16(a), Fig. 16(b) and Table X.
pub fn deploy() -> Vec<Table> {
    let s = Scenario::deployment();
    let mut cfg = s.cfg(0xDE16);
    // Every deployment packet gets its full TTL window (the paper reports
    // the absolute success rate of the whole deployment).
    cfg.gen_tail_margin = cfg.ttl;
    let sink = Scenario::deployment_sink();
    let wl = Workload::sink(&cfg, s.trace.num_landmarks(), s.trace.duration(), sink);
    let mut router = FlowRouter::new(
        FlowConfig::default(),
        s.trace.num_nodes(),
        s.trace.num_landmarks(),
    );
    let out = RunSpec::new(&s.trace, &cfg).workload(&wl).run(&mut router);

    // Fig. 16(a): success rate + delay five-number summary (minutes).
    let mut a = Table::new(
        "fig16a",
        "Deployment: success rate and delay distribution (Fig. 16a)",
        &["metric", "value"],
    );
    a.row(vec![
        "success rate".into(),
        format!("{:.3}", out.metrics.success_rate()),
    ]);
    let delays_min: Vec<f64> = out
        .metrics
        .delays
        .iter()
        .map(|&d| d as f64 / 60.0)
        .collect();
    if let Some(f) = FiveNum::of(&delays_min) {
        for (name, v) in [
            ("delay min (min)", f.min),
            ("delay q1 (min)", f.q1),
            ("delay mean (min)", f.mean),
            ("delay q3 (min)", f.q3),
            ("delay max (min)", f.max),
        ] {
            a.row(vec![name.into(), format!("{v:.0}")]);
        }
    }
    a.row(vec![
        "transits used".into(),
        s.trace.transits().len().to_string(),
    ]);
    a.note("paper: >82% success, >75% of packets within 1400 min, mean ~1000 min");

    // Fig. 16(b): the measured transit-link bandwidths above the paper's
    // display threshold (0.14 transits/unit).
    let mut b = Table::new(
        "fig16b",
        "Deployment: bandwidths of major transit links (Fig. 16b)",
        &["link", "bandwidth (transits/unit)"],
    );
    let n = s.trace.num_landmarks();
    let mut links: Vec<(LandmarkId, LandmarkId, f64)> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let (li, lj) = (LandmarkId::from(i), LandmarkId::from(j));
                let bw = router.bandwidth(li, lj);
                if bw >= 0.14 {
                    links.push((li, lj, bw));
                }
            }
        }
    }
    links.sort_by(|x, y| y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
    for (li, lj, bw) in &links {
        b.row(vec![format!("{li}->{lj}"), format!("{bw:.2}")]);
    }
    b.note("l0 = library, l1/l2 = major departments: their links dominate");

    // Table X: routing tables of three landmarks.
    let mut x = Table::new(
        "tableX",
        "Deployment: routing tables on three landmarks (Table X)",
        &["landmark", "destination", "next hop", "delay (min)"],
    );
    for lm in [LandmarkId(3), LandmarkId(5), LandmarkId(7)] {
        for (dest, next, delay) in router.routing_rows(lm) {
            x.row(vec![
                lm.to_string(),
                dest.to_string(),
                next.to_string(),
                format!("{:.0}", delay / 60.0),
            ]);
        }
    }
    x.note("paper: next hops follow the highest-bandwidth links of Fig. 16b");

    vec![a, b, x]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn deployment_reproduces_paper_shape() {
        let tables = deploy();
        let a = &tables[0];
        let success: f64 = a.cell(0, 1).parse().unwrap();
        assert!(success > 0.7, "success {success}");
        // Fig. 16(b) shows at least a few major links, topped by
        // library/department links.
        let b = &tables[1];
        assert!(b.len() >= 4, "links {}", b.len());
        let hot = ["l0", "l1", "l2"];
        let top_link = b.cell(0, 0);
        assert!(
            hot.iter().filter(|h| top_link.contains(*h)).count() >= 2,
            "top link {top_link}"
        );
        // Table X: every listed landmark can reach the library.
        let x = &tables[2];
        for lm in ["l3", "l5", "l7"] {
            assert!(
                (0..x.len()).any(|r| x.cell(r, 0) == lm && x.cell(r, 1) == "l0"),
                "{lm} must have a route to the library"
            );
        }
    }
}
