//! Byte-equal pin of the quick fig11 sweep against committed goldens.
//!
//! The dense-ID storage refactor (`DenseMap`/`DenseSet`/`LinkMatrix`
//! replacing the ordered-tree hot-path containers) is only legal because
//! it is observationally invisible: ascending-id iteration reproduces the
//! `BTreeMap` orders bit for bit. These goldens were captured from the
//! tree-backed implementation immediately before the swap; any future
//! storage change that moves a float accumulation or reorders a
//! tie-break shows up here as a byte diff, not a silent drift.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//! `cargo run --release --bin experiments -- fig11 --quick --out /tmp/g`
//! and copy `/tmp/g/fig11{a,b,c,d}.csv` over `tests/goldens/`.

use dtnflow_bench::experiments::{run_experiment, ExperimentOpts};

const GOLDENS: [(&str, &str); 4] = [
    ("fig11a", include_str!("goldens/fig11a_quick.csv")),
    ("fig11b", include_str!("goldens/fig11b_quick.csv")),
    ("fig11c", include_str!("goldens/fig11c_quick.csv")),
    ("fig11d", include_str!("goldens/fig11d_quick.csv")),
];

#[test]
#[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
fn fig11_quick_matches_pretree_goldens_byte_for_byte() {
    let (tables, _) = run_experiment("fig11", &ExperimentOpts::QUICK);
    for (id, want) in GOLDENS {
        let table = tables
            .iter()
            .find(|t| t.id == id)
            .unwrap_or_else(|| panic!("fig11 produced no table `{id}`"));
        let got = table.to_csv();
        assert!(
            got == want,
            "table `{id}` drifted from the pre-refactor golden:\n--- golden\n{want}\n--- got\n{got}"
        );
    }
}
