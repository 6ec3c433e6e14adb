//! Byte-equal pins of quick experiment runs against committed goldens.
//!
//! The fig11 goldens were captured from the tree-backed storage
//! immediately before the dense-ID refactor (`DenseMap`/`DenseSet`/
//! `LinkMatrix` replacing the ordered-tree hot-path containers): that
//! refactor is only legal because ascending-id iteration reproduces the
//! `BTreeMap` orders bit for bit. The others pin the trace statistics
//! (Table I), the predictor sweeps (Fig. 4), the bus and deployment
//! traces (Figs. 16, Table X), the extension tables (VI–VIII), the
//! fault sweep and the ablation, so a change to a config default, a
//! generator parameter or an extension threshold shows up here as a
//! byte diff, not a silent drift.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//! `cargo run --release --bin experiments -- <experiment> --quick --out /tmp/g`
//! and copy `/tmp/g/<table>.csv` over `tests/goldens/<table>_quick.csv`.

use dtnflow_bench::experiments::{run_experiment, ExperimentOpts};

/// `(experiment, table, golden CSV)`.
const GOLDENS: [(&str, &str, &str); 16] = [
    ("fig11", "fig11a", include_str!("goldens/fig11a_quick.csv")),
    ("fig11", "fig11b", include_str!("goldens/fig11b_quick.csv")),
    ("fig11", "fig11c", include_str!("goldens/fig11c_quick.csv")),
    ("fig11", "fig11d", include_str!("goldens/fig11d_quick.csv")),
    ("table1", "table1", include_str!("goldens/table1_quick.csv")),
    ("fig4", "fig4a", include_str!("goldens/fig4a_quick.csv")),
    ("fig4", "fig4b", include_str!("goldens/fig4b_quick.csv")),
    ("deploy", "fig16a", include_str!("goldens/fig16a_quick.csv")),
    ("deploy", "fig16b", include_str!("goldens/fig16b_quick.csv")),
    ("deploy", "tableX", include_str!("goldens/tableX_quick.csv")),
    ("table6", "table6", include_str!("goldens/table6_quick.csv")),
    ("table7", "table7", include_str!("goldens/table7_quick.csv")),
    (
        "table8",
        "table8-success",
        include_str!("goldens/table8-success_quick.csv"),
    ),
    (
        "table8",
        "table8-delay",
        include_str!("goldens/table8-delay_quick.csv"),
    ),
    (
        "resilience",
        "resilience",
        include_str!("goldens/resilience_quick.csv"),
    ),
    (
        "ablation",
        "ablation",
        include_str!("goldens/ablation_quick.csv"),
    ),
];

#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn quick_experiments_match_goldens_byte_for_byte() {
    let mut experiments: Vec<&str> = GOLDENS.iter().map(|&(e, _, _)| e).collect();
    experiments.dedup();
    for experiment in experiments {
        let (tables, _) = run_experiment(experiment, &ExperimentOpts::QUICK);
        for &(_, id, want) in GOLDENS.iter().filter(|g| g.0 == experiment) {
            let table = tables
                .iter()
                .find(|t| t.id == id)
                .unwrap_or_else(|| panic!("{experiment} produced no table `{id}`"));
            let got = table.to_csv();
            assert!(
                got == want,
                "table `{id}` drifted from its golden:\n--- golden\n{want}\n--- got\n{got}"
            );
        }
    }
}
