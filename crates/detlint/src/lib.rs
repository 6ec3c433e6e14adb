//! `detlint`: workspace-local determinism & panic-safety static analysis.
//!
//! The DTN-FLOW reproduction's scientific output — the delivery-rate and
//! delay curves of Figs. 8–13 — must be bit-reproducible from a seed.
//! PR 1 fixed a cross-process nondeterminism bug by hand (`std`
//! `HashMap` iteration order leaking a per-process hasher seed into
//! experiment CSVs); this crate turns that review lesson into mechanical
//! enforcement, the way production network daemons gate merges on lints
//! rather than reviewer vigilance.
//!
//! Since PR 6 the linter is *item-aware*: a hand-rolled parser
//! (`items.rs`, no `syn`) lifts structs/enums/impls/fns with their
//! fields, variants and body spans out of the token stream, and three
//! rule packs check invariants a flat token scan cannot see.
//!
//! ## Rules
//!
//! | Rule | What it forbids | Where |
//! |------|-----------------|-------|
//! | `D1` | `std::collections::{HashMap,HashSet}` (randomized iteration order) | outcome-affecting crates: `dtnflow`, `baselines`, `sim`, `predictor`, `landmark` |
//! | `D2` | ambient nondeterminism: `Instant::now`, `SystemTime::now`, `thread_rng`, `rand::random`/`rand::rng`, `RandomState`, `DefaultHasher` | everywhere |
//! | `P1` | `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` | non-test simulator & router code (`sim`, `dtnflow`) |
//! | `P2` | NaN-unsafe `partial_cmp(..).unwrap()` / `.expect(..)` (use `total_cmp`) | everywhere, tests included |
//! | `S1` | a struct field missing from its snapshot codec (`encode`/`decode`, `save_state`/`restore_state`, `encode_*`/`decode_*`): silent restore divergence | non-test code, everywhere |
//! | `X1` | schema drift: `SimEvent` variants ↔ `KIND_TAGS` ↔ `kind_index`/codec/`Display` no longer bijective, or a CSV/JSON writer missing a bound struct's field | config-driven bindings, cross-file |
//! | `X0` | a half-resolved `X1` binding (type or fn renamed without updating detlint's `Config`): the rule must fail loud, not rot away | wherever a binding partially matches |
//! | `C1` | parallel-unreadiness: `static mut` / interior-mutable statics / `thread_local!`, ad-hoc `thread::spawn`/`rayon`/`mpsc`, float `sum`/`product`/`fold` over non-index-ordered iterators | non-test code in outcome-affecting crates + the root package |
//! | `W1` | a stale waiver: its rule no longer fires on its line | everywhere (unwaivable, like `W0`) |
//!
//! `assert!`-family macros are deliberately *not* covered by `P1`: they
//! state invariants, and removing them would hide bugs instead of
//! surfacing them.
//!
//! ## Waivers
//!
//! A violation is silenced by a line comment on the same line:
//!
//! ```text
//! let t = Instant::now(); // detlint: allow(D2, reason = "wall-clock bench reporting only")
//! ```
//!
//! The `reason` is mandatory; a waiver without one does not suppress
//! anything and is itself reported (`W0`), so waivers stay auditable.
//!
//! ## Running
//!
//! ```text
//! cargo run -p detlint -- check [--root DIR] [--json]
//! ```
//!
//! Diagnostics are `file:line:rule: message`, one per line (or a
//! versioned JSON envelope with `--json`, see
//! [`diag::JSON_SCHEMA_VERSION`]); the exit code is non-zero when
//! anything fires. The in-tree self-check test runs the same scan over
//! the live workspace, so `cargo test -q` fails on any new violation.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use config::Config;
pub use diag::Diagnostic;
pub use items::FileAnalysis;

/// Scan a workspace root with the default [`Config`] and return all
/// diagnostics, sorted by `(file, line, rule, message)`.
pub fn check_root(root: &Path) -> Result<Vec<Diagnostic>, std::io::Error> {
    check_root_with(root, &Config::default())
}

/// Lex and item-parse every Rust source under `root`. The analyses
/// feed the rule passes; tests also use them directly (e.g. to assert
/// the `X1` bindings still resolve against the live tree).
pub fn analyze_root(root: &Path, cfg: &Config) -> Result<Vec<FileAnalysis>, std::io::Error> {
    let files = walk::rust_sources(root, cfg)?;
    let mut analyses = Vec::with_capacity(files.len());
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let ctx = config::FileContext::classify(&rel, cfg);
        analyses.push(FileAnalysis::new(&rel, ctx, &src));
    }
    Ok(analyses)
}

/// Scan a workspace root with an explicit configuration: per-file
/// rules, cross-file schema rules, then waiver application and the
/// deterministic sort.
pub fn check_root_with(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, std::io::Error> {
    let analyses = analyze_root(root, cfg)?;
    let mut raw = Vec::new();
    for fa in &analyses {
        raw.extend(rules::file_rules(fa));
    }
    raw.extend(rules::cross_file_rules(&analyses, cfg));
    Ok(rules::finalize(&analyses, raw))
}
