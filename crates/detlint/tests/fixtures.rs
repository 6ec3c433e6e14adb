//! End-to-end rule coverage over the fixture workspaces in
//! `tests/fixtures/`. Each fixture is a miniature repo layout (never
//! compiled — the walker only reads the files), so these tests exercise
//! the full pipeline: walking, crate classification, lexing, item
//! parsing, rule matching, cross-file bindings, and waivers.

use detlint::config::{Config, EnumTagBinding, FieldLiteralBinding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `(file, line, rule)` triples, in detlint's deterministic order.
fn check(name: &str) -> Vec<(String, u32, String)> {
    detlint::check_root(&fixture(name))
        .expect("fixture scan")
        .into_iter()
        .map(|d| (d.file, d.line, d.rule))
        .collect()
}

fn check_with(name: &str, cfg: &Config) -> Vec<(String, u32, String)> {
    detlint::check_root_with(&fixture(name), cfg)
        .expect("fixture scan")
        .into_iter()
        .map(|d| (d.file, d.line, d.rule))
        .collect()
}

fn triple(file: &str, line: u32, rule: &str) -> (String, u32, String) {
    (file.to_string(), line, rule.to_string())
}

#[test]
fn violations_fixture_flags_each_rule_in_scope() {
    let got = check("violations");
    let want = vec![
        // bench: out of D1/P1 scope, D2 still applies.
        triple("crates/bench/src/lib.rs", 7, "D2"),
        triple("crates/bench/src/lib.rs", 8, "D2"),
        // sim/src: everything fires.
        triple("crates/sim/src/engine.rs", 2, "D1"),
        triple("crates/sim/src/engine.rs", 5, "D1"),
        triple("crates/sim/src/engine.rs", 5, "D1"),
        triple("crates/sim/src/engine.rs", 6, "D2"),
        triple("crates/sim/src/engine.rs", 7, "P1"),
        triple("crates/sim/src/engine.rs", 8, "P2"),
        triple("crates/sim/src/engine.rs", 9, "P1"),
        // sim/tests: P1 exempt, P2 and D1 are not.
        triple("crates/sim/tests/it.rs", 5, "P2"),
        triple("crates/sim/tests/it.rs", 6, "D1"),
        // snapshot: codec crate is in D1 and P1 scope (decode paths must
        // return typed errors, not unwrap).
        triple("crates/snapshot/src/lib.rs", 3, "D1"),
        triple("crates/snapshot/src/lib.rs", 6, "D1"),
        triple("crates/snapshot/src/lib.rs", 6, "D1"),
        triple("crates/snapshot/src/lib.rs", 7, "P1"),
    ];
    assert_eq!(got, want);
}

#[test]
fn waivers_fixture_suppresses_exactly_what_it_says() {
    let got = check("waivers");
    let want = vec![
        // Line 3 (trailing waiver) and line 5 (own-line waiver above)
        // are suppressed; a wrong-rule waiver leaves its D2 standing and
        // is itself stale (W1); a malformed waiver leaves its D2
        // standing and is reported as W0.
        triple("crates/sim/src/lib.rs", 6, "D2"),
        triple("crates/sim/src/lib.rs", 6, "W1"),
        triple("crates/sim/src/lib.rs", 7, "D2"),
        triple("crates/sim/src/lib.rs", 7, "W0"),
    ];
    assert_eq!(got, want);
}

#[test]
fn core_bad_fixture_fires_d1_p1_s1_in_the_hotpath_crate() {
    // `dtnflow-core` joined D1/P1 scope when the timing wheel and rank
    // index put it on the forwarding path (it was already C1/S1).
    let got = check("core/bad");
    let want = vec![
        triple("crates/dtnflow-core/src/lib.rs", 4, "D1"),
        triple("crates/dtnflow-core/src/lib.rs", 9, "S1"),
        triple("crates/dtnflow-core/src/lib.rs", 25, "D1"),
        triple("crates/dtnflow-core/src/lib.rs", 26, "P1"),
    ];
    assert_eq!(got, want);
}

#[test]
fn core_clean_fixture_passes_with_rebuilt_field_waivers() {
    // A wheel-shaped codec: canonical entry list on the wire, slot
    // placement rebuilt on decode behind a reasoned S1 waiver.
    assert_eq!(check("core/clean"), Vec::new());
}

#[test]
fn clean_fixture_has_no_findings() {
    // Includes `crates/sim/src/dense_ok.rs`: the approved dense containers
    // (`DenseMap`/`DenseSet`/`LinkMatrix`) never trip D1.
    assert_eq!(check("clean"), Vec::new());
}

#[test]
fn s1_fixture_flags_each_missing_codec_direction() {
    let got = check("s1/bad");
    let want = vec![
        // `hops` written but never read back; `ttl` in neither
        // direction; `seen` read back but never written.
        triple("crates/snapshot/src/lib.rs", 7, "S1"),
        triple("crates/snapshot/src/lib.rs", 8, "S1"),
        triple("crates/snapshot/src/lib.rs", 28, "S1"),
    ];
    assert_eq!(got, want);

    let diags = detlint::check_root(&fixture("s1/bad")).expect("fixture scan");
    assert!(
        diags[0].message.contains("hops") && diags[0].message.contains("decode path"),
        "S1 names the field and the missing direction: {}",
        diags[0].message
    );
    assert!(
        diags[2].message.contains("seen") && diags[2].message.contains("encode path"),
        "S1 names the field and the missing direction: {}",
        diags[2].message
    );
}

#[test]
fn s1_clean_fixture_passes_via_completeness_waiver() {
    // Complete codec, a reasoned S1 waiver on a derived-cache field, and
    // a codec-less struct: all quiet.
    assert_eq!(check("s1/clean"), Vec::new());
}

fn x1_fixture_config() -> Config {
    Config {
        enum_bindings: vec![EnumTagBinding {
            enum_name: "FixEvent".into(),
            tags_const: "FIX_TAGS".into(),
            fns: vec!["FixEvent::kind_index".into()],
        }],
        field_bindings: vec![FieldLiteralBinding {
            struct_name: "FixRow".into(),
            fn_name: "fix_row_csv".into(),
        }],
        ..Config::default()
    }
}

#[test]
fn x1_fixture_flags_tag_table_and_writer_drift() {
    let got = check_with("x1/bad", &x1_fixture_config());
    let want = vec![
        // `MisTransit` has no tag.
        triple("crates/obs/src/lib.rs", 7, "X1"),
        // The table is unsorted AND carries the orphan `restored`.
        triple("crates/obs/src/lib.rs", 12, "X1"),
        triple("crates/obs/src/lib.rs", 12, "X1"),
        // `kind_index` hides `PacketLost` behind a catch-all arm.
        triple("crates/obs/src/lib.rs", 16, "X1"),
        // `fix_row_csv`: `delivered` in the header but not the code,
        // `expired` in neither.
        triple("crates/obs/src/lib.rs", 33, "X1"),
        triple("crates/obs/src/lib.rs", 33, "X1"),
    ];
    assert_eq!(got, want);
}

#[test]
fn x1_clean_fixture_is_bijective_and_quiet() {
    assert_eq!(check_with("x1/clean", &x1_fixture_config()), Vec::new());
}

#[test]
fn x1_default_bindings_silently_skip_foreign_trees() {
    // Under the default config none of the `SimEvent`/`Snapshot`
    // bindings resolve inside this fixture tree: that is a silent skip,
    // not a storm of X0s (fixtures and downstream users are not the
    // live workspace).
    assert_eq!(check("x1/bad"), Vec::new());
}

#[test]
fn c1_fixture_flags_each_parallel_hazard() {
    let got = check("c1/bad");
    let want = vec![
        triple("crates/sim/src/lib.rs", 4, "C1"),  // static mut
        triple("crates/sim/src/lib.rs", 6, "C1"),  // Mutex static
        triple("crates/sim/src/lib.rs", 8, "C1"),  // thread_local!
        triple("crates/sim/src/lib.rs", 9, "C1"),  // RefCell static inside it
        triple("crates/sim/src/lib.rs", 13, "C1"), // thread::spawn
        triple("crates/sim/src/lib.rs", 14, "C1"), // mpsc channel
        triple("crates/sim/src/lib.rs", 19, "C1"), // float sum over .values()
        triple("crates/sim/src/lib.rs", 23, "C1"), // float fold over .values()
        triple("crates/sim/src/lib.rs", 27, "C1"), // thread::scope
    ];
    assert_eq!(got, want);
}

#[test]
fn c1_clean_fixture_allows_shardsafe_counterparts() {
    // Immutable statics, `'static` lifetimes, slice-ordered float sums,
    // integer reductions over map values, and threading in test code.
    assert_eq!(check("c1/clean"), Vec::new());
}

#[test]
fn w1_fixture_separates_stale_from_live_waivers() {
    let got = check("w1/bad");
    let want = vec![
        // A trailing waiver whose violation was fixed, and an own-line
        // waiver whose covered (next) line no longer violates anything —
        // W1 anchors at the covered line, where the fix happened.
        triple("crates/sim/src/lib.rs", 5, "W1"),
        triple("crates/sim/src/lib.rs", 10, "W1"),
    ];
    assert_eq!(got, want);
    assert_eq!(check("w1/clean"), Vec::new());
}

#[test]
fn d1_message_names_the_approved_dense_containers() {
    let diags = detlint::check_root(&fixture("violations")).expect("fixture scan");
    let d1_map = diags
        .iter()
        .find(|d| d.rule == "D1" && d.message.contains("HashMap"))
        .expect("a HashMap D1 finding");
    assert!(
        d1_map.message.contains("DenseMap") && d1_map.message.contains("LinkMatrix"),
        "D1 should steer toward the dense hot-path containers: {}",
        d1_map.message
    );
}

#[test]
fn json_output_is_well_formed() {
    let diags = detlint::check_root(&fixture("waivers")).expect("fixture scan");
    let json = detlint::diag::to_json(&diags);
    assert!(
        json.starts_with(&format!(
            "{{\"schema_version\":{},",
            detlint::diag::JSON_SCHEMA_VERSION
        )),
        "report is a versioned envelope: {json}"
    );
    assert!(json.contains("\"diagnostics\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"rule\":\"W0\""));
    assert!(json.contains("\"rule\":\"W1\""));
    assert!(json.contains("\"line\":6"));
}
