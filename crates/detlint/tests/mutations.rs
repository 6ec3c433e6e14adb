//! Seeded-mutation proofs that the item-aware rule packs have teeth
//! against the *live* sources: each test takes a real workspace file,
//! asserts it scans clean as-is, applies the one-line mutation a tired
//! refactor would make, and asserts exactly the right rule turns red.

use detlint::config::{Config, FileContext};
use detlint::{rules, Diagnostic, FileAnalysis};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn live_source(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("read live source {rel}: {e}"))
}

/// Single-file scan under the default config, as `scan_file` would see
/// the file during a workspace walk.
fn scan(rel: &str, src: &str) -> Vec<Diagnostic> {
    let cfg = Config::default();
    let rel = PathBuf::from(rel);
    let ctx = FileContext::classify(&rel, &cfg);
    rules::scan_file(&rel, &ctx, src)
}

/// Cross-file scan of a single analysis set under the default config
/// (the `X1` bindings that don't resolve in the set silently skip).
fn scan_cross(rel: &str, src: &str) -> Vec<Diagnostic> {
    let cfg = Config::default();
    let rel = PathBuf::from(rel);
    let ctx = FileContext::classify(&rel, &cfg);
    let fa = FileAnalysis::new(&rel, ctx, src);
    let analyses = [fa];
    let raw = rules::cross_file_rules(&analyses, &cfg);
    rules::finalize(&analyses, raw)
}

#[test]
fn deleting_a_codec_line_turns_s1_red() {
    let rel = "crates/dtnflow-core/src/packet.rs";
    let src = live_source(rel);
    assert_eq!(scan(rel, &src), Vec::new(), "live {rel} must scan clean");

    let needle = "self.hops.encode(w);";
    assert!(src.contains(needle), "mutation anchor moved in {rel}");
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains(needle))
        .map(|l| format!("{l}\n"))
        .collect();

    let diags = scan(rel, &mutated);
    let s1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S1").collect();
    assert_eq!(s1.len(), 1, "exactly one S1 after dropping hops: {diags:?}");
    assert!(
        s1[0].message.contains("hops") && s1[0].message.contains("encode path"),
        "S1 names the dropped field and direction: {}",
        s1[0].message
    );
}

#[test]
fn deleting_the_wheel_base_from_its_codec_turns_s1_red() {
    // The deadline queue's codec writes the sorted entry list; its only
    // directly-serialized field is `base`. A refactor that drops the
    // base write desynchronizes every restored schedule.
    let rel = "crates/dtnflow-core/src/deadline.rs";
    let src = live_source(rel);
    assert_eq!(scan(rel, &src), Vec::new(), "live {rel} must scan clean");

    let needle = "self.base.encode(w);";
    assert!(src.contains(needle), "mutation anchor moved in {rel}");
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains(needle))
        .map(|l| format!("{l}\n"))
        .collect();

    let diags = scan(rel, &mutated);
    let s1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S1").collect();
    assert_eq!(s1.len(), 1, "exactly one S1 after dropping base: {diags:?}");
    assert!(
        s1[0].message.contains("base") && s1[0].message.contains("encode path"),
        "S1 names the dropped field and direction: {}",
        s1[0].message
    );
}

#[test]
fn deleting_the_rank_index_from_the_router_codec_turns_s1_red() {
    // `FlowRouter::save_state` serializes the carrier rank index; a
    // checkpoint that forgets it would restore a router that never
    // assigns packets to carriers again.
    let rel = "crates/dtnflow/src/router.rs";
    let src = live_source(rel);
    assert_eq!(scan(rel, &src), Vec::new(), "live {rel} must scan clean");

    let needle = "self.rank.encode(w);";
    assert!(src.contains(needle), "mutation anchor moved in {rel}");
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains(needle))
        .map(|l| format!("{l}\n"))
        .collect();

    let diags = scan(rel, &mutated);
    let s1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S1").collect();
    assert_eq!(s1.len(), 1, "exactly one S1 after dropping rank: {diags:?}");
    assert!(
        s1[0].message.contains("rank") && s1[0].message.contains("encode path"),
        "S1 names the dropped field and direction: {}",
        s1[0].message
    );

    // The route-cache hit counter travels through the landmark codec
    // the same way: dropping it must fire too (restored lineages would
    // report diverged observability totals).
    let needle = "self.cache_hits.encode(w);";
    assert!(src.contains(needle), "mutation anchor moved in {rel}");
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains(needle))
        .map(|l| format!("{l}\n"))
        .collect();
    let diags = scan(rel, &mutated);
    let s1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S1").collect();
    assert_eq!(
        s1.len(),
        1,
        "exactly one S1 after dropping cache_hits: {diags:?}"
    );
    assert!(
        s1[0].message.contains("cache_hits") && s1[0].message.contains("encode path"),
        "S1 names the dropped field and direction: {}",
        s1[0].message
    );
}

#[test]
fn deleting_a_kind_tag_turns_x1_red() {
    let rel = "crates/obs/src/event.rs";
    let src = live_source(rel);
    assert_eq!(
        scan_cross(rel, &src),
        Vec::new(),
        "live {rel} must satisfy the SimEvent ↔ KIND_TAGS binding alone"
    );

    let needle = "\"mis_transit\",";
    assert!(src.contains(needle), "mutation anchor moved in {rel}");
    let mutated: String = src
        .lines()
        .filter(|l| l.trim() != needle)
        .map(|l| format!("{l}\n"))
        .collect();

    let diags = scan_cross(rel, &mutated);
    let x1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "X1").collect();
    assert_eq!(
        x1.len(),
        1,
        "exactly one X1 after dropping the tag: {diags:?}"
    );
    assert!(
        x1[0].message.contains("mis_transit") && x1[0].message.contains("MisTransit"),
        "X1 names the tagless variant: {}",
        x1[0].message
    );
}

#[test]
fn adding_a_thread_spawn_outside_the_allowlist_turns_c1_red() {
    // The live sanctioned site scans clean with its real thread::spawn…
    let sanctioned = "crates/shard/src/exec.rs";
    let src = live_source(sanctioned);
    assert!(
        src.contains("thread::scope"),
        "mutation anchor moved in {sanctioned}"
    );
    assert_eq!(
        scan(sanctioned, &src),
        Vec::new(),
        "live {sanctioned} must scan clean under the allowlist"
    );

    // …but the identical spawn dropped into any other live C1-scope
    // file fires exactly one C1: the allowlist does not leak.
    for rel in ["crates/shard/src/plan.rs", "crates/sim/src/engine.rs"] {
        let src = live_source(rel);
        assert_eq!(scan(rel, &src), Vec::new(), "live {rel} must scan clean");
        let mutated = format!("pub fn sneak() {{ std::thread::spawn(|| {{}}); }}\n{src}");
        let diags = scan(rel, &mutated);
        let c1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "C1").collect();
        assert_eq!(
            c1.len(),
            1,
            "exactly one C1 after the ad-hoc spawn in {rel}: {diags:?}"
        );
        assert_eq!(c1[0].line, 1);
        assert!(
            c1[0].message.contains("thread::spawn"),
            "C1 names the hazard: {}",
            c1[0].message
        );
    }

    // And even in the sanctioned file, a static mut still turns red:
    // the waiver covers threading arms only.
    let mutated = format!("static mut SHARED: u64 = 0;\n{}", live_source(sanctioned));
    let diags = scan(sanctioned, &mutated);
    assert_eq!(
        diags.iter().filter(|d| d.rule == "C1").count(),
        1,
        "static mut must fire inside the sanctioned file: {diags:?}"
    );
}

#[test]
fn adding_a_static_mut_turns_c1_red() {
    let rel = "crates/sim/src/engine.rs";
    let src = live_source(rel);
    assert_eq!(scan(rel, &src), Vec::new(), "live {rel} must scan clean");

    let mutated = format!("static mut SHARED: u64 = 0;\n{src}");
    let diags = scan(rel, &mutated);
    let c1: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "C1").collect();
    assert_eq!(
        c1.len(),
        1,
        "exactly one C1 after the static mut: {diags:?}"
    );
    assert_eq!(c1[0].line, 1);
    assert!(
        c1[0].message.contains("static mut"),
        "C1 names the hazard: {}",
        c1[0].message
    );
    assert_eq!(
        diags.len(),
        1,
        "the mutation must not disturb anything else: {diags:?}"
    );
}
