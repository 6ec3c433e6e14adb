//! The rule engine.
//!
//! Three passes over [`FileAnalysis`] data:
//!
//! 1. [`file_rules`] — per-file token rules (`D1`, `D2`, `P1`, `P2`,
//!    `W0`, `C1`) and the item-aware codec-completeness pack (`S1`).
//! 2. [`cross_file_rules`] — workspace-wide schema-exhaustiveness
//!    (`X1`, with `X0` for half-resolved bindings).
//! 3. [`finalize`] — stale-waiver detection (`W1`), waiver application,
//!    and the deterministic `(file, line, rule, message)` sort.

use crate::config::{Config, FileContext};
use crate::diag::Diagnostic;
use crate::items::{attr_marks_test, snake, FileAnalysis, FnItem, StructItem};
use crate::lexer::{SpannedTok, Tok};
use std::collections::BTreeSet;
use std::path::Path;

/// Idents that, called as macros (`ident!`), violate `P1`.
const P1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Idents that, called as methods (`.ident(`), violate `P1`.
const P1_METHODS: &[&str] = &["unwrap", "expect"];

/// Bare idents that violate `D2` wherever they appear in code.
const D2_IDENTS: &[&str] = &["thread_rng", "RandomState", "DefaultHasher"];

/// `A::b` paths that violate `D2`.
const D2_PATHS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("rand", "random"),
    ("rand", "rng"),
];

/// Bare idents that violate `C1`: ad-hoc parallelism primitives whose
/// scheduling order would leak into outcomes.
const C1_IDENTS: &[&str] = &["rayon", "mpsc", "crossbeam", "parking_lot"];

/// `thread::member` calls that violate `C1`.
const C1_THREAD_MEMBERS: &[&str] = &["spawn", "scope", "Builder"];

/// Interior-mutability types that make a `static` shared mutable state.
const C1_INTERIOR_MUTABLE: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
    "Condvar",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// Iterator sources whose order is not a stable index order; a float
/// reduction drawn from one of these is flagged by `C1`.
const C1_UNORDERED_SOURCES: &[&str] = &[
    "values",
    "into_values",
    "keys",
    "into_keys",
    "par_iter",
    "into_par_iter",
    "par_bridge",
];

/// Scan one file's source and return its finalized diagnostics. This is
/// the single-file convenience path (no cross-file `X1` and no other
/// files' waivers); [`crate::check_root`] runs the full pipeline.
pub fn scan_file(rel: &Path, ctx: &FileContext, src: &str) -> Vec<Diagnostic> {
    let fa = FileAnalysis::new(rel, ctx.clone(), src);
    let raw = file_rules(&fa);
    finalize(std::slice::from_ref(&fa), raw)
}

/// Per-file rules, *before* waivers are applied.
pub fn file_rules(fa: &FileAnalysis) -> Vec<Diagnostic> {
    let ctx = &fa.ctx;
    let toks = &fa.lexed.tokens;
    let mut raw: Vec<Diagnostic> = Vec::new();
    let push = |line: u32, rule: &str, message: String, raw: &mut Vec<Diagnostic>| {
        raw.push(Diagnostic {
            file: fa.file.clone(),
            line,
            rule: rule.to_string(),
            message,
        });
    };

    // Malformed waivers are always reported: a waiver that silently
    // fails to parse would silently fail to waive.
    for (line, err) in &fa.lexed.waiver_errors {
        push(
            *line,
            "W0",
            format!("malformed detlint waiver: {err}"),
            &mut raw,
        );
    }

    let mut depth: u32 = 0;
    // Brace depths at which a test region (a `#[cfg(test)]` mod or a
    // `#[test]` fn body) opened; inside any of them P1/C1 are off.
    let mut test_regions: Vec<u32> = Vec::new();
    // A test-marking attribute was seen; the next `{` opens its region.
    let mut armed = false;
    // Token indices already claimed by a P2 match (so the trailing
    // `.unwrap(` is not double-reported under P1).
    let mut claimed: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let SpannedTok { line, tok } = &toks[i];
        let line = *line;
        match tok {
            Tok::Punct('#') => {
                if let Some(consumed) = attribute_span(toks, i) {
                    if attr_marks_test(&toks[i..i + consumed]) {
                        armed = true;
                    }
                    i += consumed;
                    continue;
                }
            }
            Tok::Punct('{') => {
                if armed {
                    test_regions.push(depth);
                    armed = false;
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if test_regions.last() == Some(&depth) {
                    test_regions.pop();
                }
            }
            Tok::Punct(';') => {
                // `#[cfg(test)] use …;` — the attribute never opens a
                // block; disarm so an unrelated later `{` is not tagged.
                armed = false;
            }
            Tok::Ident(id) => {
                let in_test = ctx.is_test_file || !test_regions.is_empty();

                // --- P2: partial_cmp(..).unwrap() / .expect(..) -------
                if id == "partial_cmp" && is_method_call(toks, i) {
                    if let Some((end, panicky)) = call_then_panicky(toks, i) {
                        if panicky {
                            claimed.push(end); // the unwrap/expect ident
                            push(
                                line,
                                "P2",
                                "NaN-unsafe comparison: `partial_cmp(..).unwrap()` panics on NaN; \
                                 use `f64::total_cmp` (or handle the `None`)"
                                    .into(),
                                &mut raw,
                            );
                        }
                    }
                }

                // --- D1: std HashMap/HashSet ---------------------------
                if ctx.d1_applies && (id == "HashMap" || id == "HashSet") {
                    push(
                        line,
                        "D1",
                        format!(
                            "`{id}` iteration order is seeded per process and can leak into \
                             outcomes; use `Dense{0}`/`LinkMatrix` (id-keyed hot paths) or \
                             `BTree{0}`, or waive with a proof iteration order never escapes",
                            &id[4..]
                        ),
                        &mut raw,
                    );
                }

                // --- D2: ambient nondeterminism ------------------------
                if D2_IDENTS.iter().any(|d| d == id) {
                    push(
                        line,
                        "D2",
                        format!(
                            "`{id}` injects ambient nondeterminism; derive randomness from \
                                 the experiment seed (`rngutil::rng_for`)"
                        ),
                        &mut raw,
                    );
                }
                if let Some((_, b)) = D2_PATHS.iter().find(|(a, _)| a == id) {
                    if path_member_is(toks, i, b) {
                        push(
                            line,
                            "D2",
                            format!(
                                "`{id}::{b}` reads ambient state (clock/OS entropy); simulation \
                                 code must use `SimTime` / seeded RNGs"
                            ),
                            &mut raw,
                        );
                    }
                }

                // --- P1: panics in non-test router/simulator code ------
                if ctx.p1_applies && !in_test {
                    if P1_MACROS.iter().any(|m| m == id) && next_is(toks, i, '!') {
                        push(
                            line,
                            "P1",
                            format!(
                                "`{id}!` in non-test {} code; return a typed error or make \
                                     the invariant unrepresentable",
                                ctx.crate_name
                            ),
                            &mut raw,
                        );
                    }
                    if P1_METHODS.iter().any(|m| m == id)
                        && is_method_call(toks, i)
                        && next_is(toks, i, '(')
                        && !claimed.contains(&i)
                    {
                        push(
                            line,
                            "P1",
                            format!(
                                "`.{id}()` in non-test {} code; propagate the error or \
                                     carry the invariant in the type",
                                ctx.crate_name
                            ),
                            &mut raw,
                        );
                    }
                }

                // --- C1: parallel-readiness ----------------------------
                if ctx.c1_applies && !in_test {
                    c1_checks(toks, i, id, line, ctx, &mut raw, &push);
                }
            }
            _ => {}
        }
        i += 1;
    }

    // --- S1: codec completeness over the item model --------------------
    if !ctx.is_test_file {
        s1_codec_completeness(fa, &mut raw);
    }

    raw
}

/// The `C1` pack, dispatched on one ident token.
fn c1_checks(
    toks: &[SpannedTok],
    i: usize,
    id: &str,
    line: u32,
    ctx: &FileContext,
    raw: &mut Vec<Diagnostic>,
    push: &impl Fn(u32, &str, String, &mut Vec<Diagnostic>),
) {
    match id {
        "static" => {
            // (`'static` lifetimes lex as `Tok::Lifetime`, never here.)
            if let Some(SpannedTok {
                tok: Tok::Ident(next),
                ..
            }) = toks.get(i + 1)
            {
                if next == "mut" {
                    push(
                        line,
                        "C1",
                        format!(
                            "`static mut` is shared mutable state; all {} mutation must \
                             be owned by explicit state so no thread interleaving can \
                             reach an outcome — thread state through explicit parameters",
                            ctx.crate_name
                        ),
                        raw,
                    );
                } else if let Some(cell) = static_interior_mutable(toks, i) {
                    push(
                        line,
                        "C1",
                        format!(
                            "`static` with interior mutability (`{cell}`) is cross-thread \
                             shared state; pass state explicitly or waive with a proof \
                             it never affects outcomes"
                        ),
                        raw,
                    );
                }
            }
        }
        "thread_local" if next_is(toks, i, '!') => {
            push(
                line,
                "C1",
                "`thread_local!` state diverges across threads; derive state \
                 explicitly from the run inputs"
                    .into(),
                raw,
            );
        }
        "thread" => {
            if let Some(m) = C1_THREAD_MEMBERS
                .iter()
                .find(|m| path_member_is(toks, i, m))
            {
                push(
                    line,
                    "C1",
                    format!(
                        "`thread::{m}` is ad-hoc threading; outcome-affecting code stays \
                         single-threaded so event order stays reproducible"
                    ),
                    raw,
                );
            }
        }
        _ if C1_IDENTS.contains(&id) => {
            push(
                line,
                "C1",
                format!(
                    "`{id}` introduces scheduling-order nondeterminism; outcome-affecting \
                     code stays single-threaded"
                ),
                raw,
            );
        }
        "sum" | "product"
            if is_method_call(toks, i)
                && turbofish_is_float(toks, i)
                && unordered_source_behind(toks, i) =>
        {
            push(
                line,
                "C1",
                format!(
                    "float `.{id}()` over a non-index-ordered iterator; float addition is \
                     not associative, so a reordered reduction changes the result — \
                     collect into an index-ordered Vec first (or waive with an ordering \
                     proof)"
                ),
                raw,
            );
        }
        "fold"
            if is_method_call(toks, i)
                && next_is(toks, i, '(')
                && fold_init_is_float(toks, i)
                && unordered_source_behind(toks, i) =>
        {
            push(
                line,
                "C1",
                "float `.fold(..)` over a non-index-ordered iterator; float addition is \
                 not associative, so a reordered reduction changes the result — collect \
                 into an index-ordered Vec first (or waive with an ordering proof)"
                    .into(),
                raw,
            );
        }
        _ => {}
    }
}

/// From a `static` keyword, look ahead (bounded, to the `=` or `;`) for
/// an interior-mutability type name.
fn static_interior_mutable(toks: &[SpannedTok], i: usize) -> Option<&'static str> {
    for t in toks.iter().take((i + 64).min(toks.len())).skip(i + 1) {
        match &t.tok {
            Tok::Punct('=') | Tok::Punct(';') | Tok::Punct('{') => return None,
            Tok::Ident(id) => {
                if let Some(cell) = C1_INTERIOR_MUTABLE.iter().find(|c| *c == id) {
                    return Some(cell);
                }
            }
            _ => {}
        }
    }
    None
}

/// `.sum::<f64>()` / `.product::<f32>()` turbofish detection.
fn turbofish_is_float(toks: &[SpannedTok], i: usize) -> bool {
    path_member_is(toks, i, "f64") || path_member_is(toks, i, "f32") || {
        // `::<f64>` — the member check expects an ident at i+3; with a
        // turbofish there is a `<` first.
        toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.tok == Tok::Punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.tok == Tok::Punct('<'))
            && toks
                .get(i + 4)
                .is_some_and(|t| matches!(&t.tok, Tok::Ident(x) if x == "f64" || x == "f32"))
    }
}

/// Whether `.fold(` starts with a float accumulator (`0.0`, `-1.5`,
/// `(0.0, …)`, `0f64`).
fn fold_init_is_float(toks: &[SpannedTok], i: usize) -> bool {
    for t in toks.iter().take((i + 6).min(toks.len())).skip(i + 2) {
        match &t.tok {
            Tok::Num(_) => return t.tok.is_float(),
            Tok::Punct('-') | Tok::Punct('(') => continue,
            _ => return false,
        }
    }
    false
}

/// Backward scan (bounded to the statement start) for an iterator
/// source with no stable index order feeding this reduction.
fn unordered_source_behind(toks: &[SpannedTok], i: usize) -> bool {
    let floor = i.saturating_sub(96);
    for j in (floor..i).rev() {
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') => return false,
            Tok::Ident(id)
                if C1_UNORDERED_SOURCES.iter().any(|s| s == id) && is_method_call(toks, j) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Which codec direction a fn name serves.
#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Encode,
    Decode,
}

/// Whether `name` is a codec fn for `dir`.
fn is_codec_name(name: &str, dir: Dir) -> bool {
    let (exact, state, prefix) = match dir {
        Dir::Encode => ("encode", "save_state", "encode_"),
        Dir::Decode => ("decode", "restore_state", "decode_"),
    };
    name == exact || name == state || name.starts_with(prefix)
}

/// Codec fns bound to a struct: methods on it (any codec-ish name) plus
/// same-file free fns named exactly `encode_<snake>`/`decode_<snake>`.
fn codec_fns<'a>(fa: &'a FileAnalysis, st: &StructItem, dir: Dir) -> Vec<&'a FnItem> {
    let free_name = format!(
        "{}{}",
        match dir {
            Dir::Encode => "encode_",
            Dir::Decode => "decode_",
        },
        snake(&st.name)
    );
    fa.items
        .fns
        .iter()
        .filter(|f| match &f.owner {
            Some(owner) => owner == &st.name && is_codec_name(&f.name, dir),
            None => f.name == free_name,
        })
        .collect()
}

/// Union of idents over the body spans of a fn set.
fn union_idents<'a>(fa: &'a FileAnalysis, fns: &[&FnItem]) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    for f in fns {
        for t in &fa.lexed.tokens[f.body.clone()] {
            if let Tok::Ident(id) = &t.tok {
                out.insert(id.as_str());
            }
        }
    }
    out
}

/// `S1`: every field of a struct with codec fns must be referenced in
/// each direction that exists, else a checkpoint round-trip silently
/// drops or corrupts it.
fn s1_codec_completeness(fa: &FileAnalysis, raw: &mut Vec<Diagnostic>) {
    for st in &fa.items.structs {
        if st.fields.is_empty() {
            continue;
        }
        let enc = codec_fns(fa, st, Dir::Encode);
        let dec = codec_fns(fa, st, Dir::Decode);
        if enc.is_empty() && dec.is_empty() {
            continue;
        }
        let enc_ids = union_idents(fa, &enc);
        let dec_ids = union_idents(fa, &dec);
        let fn_list = |fns: &[&FnItem]| {
            fns.iter()
                .map(|f| format!("`{}`", f.name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        for field in &st.fields {
            if field.name.starts_with('_') {
                continue;
            }
            let miss_enc = !enc.is_empty() && !enc_ids.contains(field.name.as_str());
            let miss_dec = !dec.is_empty() && !dec_ids.contains(field.name.as_str());
            if !(miss_enc || miss_dec) {
                continue;
            }
            let missing = match (miss_enc, miss_dec) {
                (true, true) => format!(
                    "encode ({}) or decode ({}) paths",
                    fn_list(&enc),
                    fn_list(&dec)
                ),
                (true, false) => format!("encode path ({})", fn_list(&enc)),
                (false, true) => format!("decode path ({})", fn_list(&dec)),
                _ => unreachable!(),
            };
            raw.push(Diagnostic {
                file: fa.file.clone(),
                line: field.line,
                rule: "S1".into(),
                message: format!(
                    "field `{}` of `{}` is not referenced by its {missing}; a checkpoint \
                     round-trip would silently drop it — update the codec or waive here \
                     stating how the field is rebuilt",
                    field.name, st.name
                ),
            });
        }
    }
}

/// Resolution state of one `X1` binding, for the self-check that the
/// live bindings never silently rot away wholesale.
#[derive(Debug)]
pub struct BindingStatus {
    /// Human-readable binding name, e.g. `SimEvent ↔ KIND_TAGS`.
    pub desc: String,
    /// All named pieces were found in the analysed workspace.
    pub resolved: bool,
}

/// Find fns matching a `"Owner::name"` / bare-name spec (live files
/// only — test helpers must never satisfy a schema binding).
fn fn_matches<'a>(analyses: &'a [FileAnalysis], spec: &str) -> Vec<(&'a FileAnalysis, &'a FnItem)> {
    let (owner, name) = match spec.split_once("::") {
        Some((o, n)) => (Some(o), n),
        None => (None, spec),
    };
    let mut out = Vec::new();
    for fa in analyses {
        if fa.ctx.is_test_file {
            continue;
        }
        for f in &fa.items.fns {
            if f.name == name && f.owner.as_deref() == owner {
                out.push((fa, f));
            }
        }
    }
    out
}

/// Cross-file rules (`X1` schema exhaustiveness, `X0` binding rot),
/// *before* waivers.
pub fn cross_file_rules(analyses: &[FileAnalysis], cfg: &Config) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for b in &cfg.enum_bindings {
        check_enum_binding(analyses, b, &mut raw);
    }
    for b in &cfg.field_bindings {
        check_field_binding(analyses, b, &mut raw);
    }
    raw
}

/// Per-binding resolution report (see [`BindingStatus`]).
pub fn binding_report(analyses: &[FileAnalysis], cfg: &Config) -> Vec<BindingStatus> {
    let mut out = Vec::new();
    for b in &cfg.enum_bindings {
        let enum_ok = find_enum(analyses, &b.enum_name).is_some();
        let const_ok = find_const(analyses, &b.tags_const).is_some();
        let fns_ok = b.fns.iter().all(|s| !fn_matches(analyses, s).is_empty());
        out.push(BindingStatus {
            desc: format!("{} ↔ {}", b.enum_name, b.tags_const),
            resolved: enum_ok && const_ok && fns_ok,
        });
    }
    for b in &cfg.field_bindings {
        let struct_ok = find_struct(analyses, &b.struct_name).is_some();
        let fn_ok = !fn_matches(analyses, &b.fn_name).is_empty();
        out.push(BindingStatus {
            desc: format!("{} ↔ {}", b.struct_name, b.fn_name),
            resolved: struct_ok && fn_ok,
        });
    }
    out
}

fn find_enum<'a>(
    analyses: &'a [FileAnalysis],
    name: &str,
) -> Option<(&'a FileAnalysis, &'a crate::items::EnumItem)> {
    analyses
        .iter()
        .filter(|fa| !fa.ctx.is_test_file)
        .find_map(|fa| {
            fa.items
                .enums
                .iter()
                .find(|e| e.name == name)
                .map(|e| (fa, e))
        })
}

fn find_struct<'a>(
    analyses: &'a [FileAnalysis],
    name: &str,
) -> Option<(&'a FileAnalysis, &'a StructItem)> {
    analyses
        .iter()
        .filter(|fa| !fa.ctx.is_test_file)
        .find_map(|fa| {
            fa.items
                .structs
                .iter()
                .find(|s| s.name == name)
                .map(|s| (fa, s))
        })
}

fn find_const<'a>(
    analyses: &'a [FileAnalysis],
    name: &str,
) -> Option<(&'a FileAnalysis, &'a crate::items::ConstItem)> {
    analyses
        .iter()
        .filter(|fa| !fa.ctx.is_test_file)
        .find_map(|fa| {
            fa.items
                .consts
                .iter()
                .find(|c| c.name == name)
                .map(|c| (fa, c))
        })
}

fn check_enum_binding(
    analyses: &[FileAnalysis],
    b: &crate::config::EnumTagBinding,
    raw: &mut Vec<Diagnostic>,
) {
    let en = find_enum(analyses, &b.enum_name);
    let tags = find_const(analyses, &b.tags_const);
    let fns: Vec<(&str, Vec<(&FileAnalysis, &FnItem)>)> = b
        .fns
        .iter()
        .map(|s| (s.as_str(), fn_matches(analyses, s)))
        .collect();
    let resolved = usize::from(en.is_some())
        + usize::from(tags.is_some())
        + fns.iter().filter(|(_, m)| !m.is_empty()).count();
    if resolved == 0 {
        // Nothing in this tree knows the binding (e.g. fixture
        // workspaces): silently out of scope.
        return;
    }
    // A partially-resolved binding is itself a finding: a rename must
    // update the binding, not quietly disable the rule.
    let anchor = en
        .map(|(fa, e)| (fa.file.clone(), e.line))
        .or_else(|| tags.map(|(fa, c)| (fa.file.clone(), c.line)))
        .or_else(|| {
            fns.iter()
                .find_map(|(_, m)| m.first().map(|(fa, f)| (fa.file.clone(), f.line)))
        })
        .expect("resolved > 0");
    let mut x0 = |what: String| {
        raw.push(Diagnostic {
            file: anchor.0.clone(),
            line: anchor.1,
            rule: "X0".into(),
            message: format!(
                "schema binding `{} ↔ {}` is half-resolved: {what} was not found — \
                 update the binding in detlint's Config alongside the rename",
                b.enum_name, b.tags_const
            ),
        });
    };
    let Some((efa, en)) = en else {
        x0(format!("enum `{}`", b.enum_name));
        return;
    };
    let Some((cfa, tags)) = tags else {
        x0(format!("const `{}`", b.tags_const));
        return;
    };
    for (spec, m) in &fns {
        if m.is_empty() {
            x0(format!("fn `{spec}`"));
        }
    }

    // Tag table must stay strictly sorted (flat per-kind counters are
    // iterated in tag order; binary searches rely on it).
    if !tags.strs.windows(2).all(|w| w[0] < w[1]) {
        raw.push(Diagnostic {
            file: cfa.file.clone(),
            line: tags.line,
            rule: "X1".into(),
            message: format!(
                "tag table `{}` is not strictly sorted; kind indices are positions in \
                 this table, so order is part of the checkpoint format",
                b.tags_const
            ),
        });
    }

    // Variants ↔ tags must be bijective under snake_case.
    let tag_set: BTreeSet<&str> = tags.strs.iter().map(String::as_str).collect();
    let variant_tags: BTreeSet<String> = en.variants.iter().map(|v| snake(&v.name)).collect();
    for v in &en.variants {
        if !tag_set.contains(snake(&v.name).as_str()) {
            raw.push(Diagnostic {
                file: efa.file.clone(),
                line: v.line,
                rule: "X1".into(),
                message: format!(
                    "variant `{}::{}` has no `{}` entry `{}`; every event kind needs a \
                     stable tag or per-kind counters and codecs silently disagree",
                    b.enum_name,
                    v.name,
                    b.tags_const,
                    snake(&v.name)
                ),
            });
        }
    }
    for t in &tags.strs {
        if !variant_tags.contains(t.as_str()) {
            raw.push(Diagnostic {
                file: cfa.file.clone(),
                line: tags.line,
                rule: "X1".into(),
                message: format!(
                    "`{}` entry `{t}` matches no `{}` variant; remove it or add the \
                     variant — orphan tags shift every kind index after them",
                    b.tags_const, b.enum_name
                ),
            });
        }
    }

    // Every bound fn must mention every variant (exhaustive matches
    // over `SimEvent` are what keep `kind_index`/codec/Display honest).
    for (spec, matches) in &fns {
        for (ffa, f) in matches {
            let ids = union_idents(ffa, &[f]);
            for v in &en.variants {
                if !ids.contains(v.name.as_str()) {
                    raw.push(Diagnostic {
                        file: ffa.file.clone(),
                        line: f.line,
                        rule: "X1".into(),
                        message: format!(
                            "`{spec}` does not mention variant `{}::{}`; this fn is bound \
                             as kind-exhaustive, so a missing arm breaks the schema",
                            b.enum_name, v.name
                        ),
                    });
                }
            }
        }
    }
}

fn check_field_binding(
    analyses: &[FileAnalysis],
    b: &crate::config::FieldLiteralBinding,
    raw: &mut Vec<Diagnostic>,
) {
    let st = find_struct(analyses, &b.struct_name);
    let fns = fn_matches(analyses, &b.fn_name);
    let resolved = usize::from(st.is_some()) + usize::from(!fns.is_empty());
    if resolved == 0 {
        return;
    }
    if st.is_none() || fns.is_empty() {
        let (file, line) = st
            .map(|(fa, s)| (fa.file.clone(), s.line))
            .or_else(|| fns.first().map(|(fa, f)| (fa.file.clone(), f.line)))
            .expect("resolved > 0");
        let what = if st.is_none() {
            format!("struct `{}`", b.struct_name)
        } else {
            format!("fn `{}`", b.fn_name)
        };
        raw.push(Diagnostic {
            file,
            line,
            rule: "X0".into(),
            message: format!(
                "schema binding `{} ↔ {}` is half-resolved: {what} was not found — \
                 update the binding in detlint's Config alongside the rename",
                b.struct_name, b.fn_name
            ),
        });
        return;
    }
    let (_, st) = st.expect("checked");
    for (ffa, f) in &fns {
        let ids = union_idents(ffa, &[f]);
        let mut words: BTreeSet<&str> = BTreeSet::new();
        for t in &ffa.lexed.tokens[f.body.clone()] {
            if let Tok::Str(s) = &t.tok {
                words.extend(s.split(|c: char| !c.is_alphanumeric() && c != '_'));
            }
        }
        for field in &st.fields {
            if field.name.starts_with('_') {
                continue;
            }
            let in_literal = words.contains(field.name.as_str());
            let in_code = ids.contains(field.name.as_str());
            if in_literal && in_code {
                continue;
            }
            let gap = match (in_literal, in_code) {
                (false, false) => "neither its schema strings nor its code",
                (false, true) => "its schema strings (column/key missing)",
                (true, false) => "its code (value never written)",
                _ => unreachable!(),
            };
            raw.push(Diagnostic {
                file: ffa.file.clone(),
                line: f.line,
                rule: "X1".into(),
                message: format!(
                    "`{}` emits the `{}` schema but field `{}` appears in {gap}; \
                     extend the writer or waive here explaining the omission",
                    b.fn_name, b.struct_name, field.name
                ),
            });
        }
    }
}

/// Final pass: report stale waivers (`W1`), apply waivers (`W0`/`W1`
/// are unwaivable), and sort deterministically.
pub fn finalize(analyses: &[FileAnalysis], mut raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    // A waiver is stale when its rule does not fire on its line in the
    // *pre-waiver* diagnostics: either the code was fixed or it moved.
    let mut stale = Vec::new();
    for fa in analyses {
        for (line, waivers) in &fa.lexed.waivers {
            for w in waivers {
                let used = raw
                    .iter()
                    .any(|d| d.rule == w.rule && d.line == *line && d.file == fa.file);
                if !used {
                    stale.push(Diagnostic {
                        file: fa.file.clone(),
                        line: *line,
                        rule: "W1".into(),
                        message: format!(
                            "stale waiver: `{}` does not fire on this line (fixed, or the \
                             code moved out from under the comment); delete the waiver",
                            w.rule
                        ),
                    });
                }
            }
        }
    }
    raw.extend(stale);

    raw.retain(|d| {
        if d.rule == "W0" || d.rule == "W1" {
            return true; // waiver hygiene cannot be waived
        }
        let waived = analyses.iter().any(|fa| {
            fa.file == d.file
                && fa
                    .lexed
                    .waivers
                    .get(&d.line)
                    .is_some_and(|ws| ws.iter().any(|w| w.rule == d.rule))
        });
        !waived
    });

    // Deterministic output order: multi-rule hits on one line must not
    // depend on rule-pack evaluation order.
    raw.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    raw
}

/// `.ident` — the token before is a dot (method call, not a free fn).
fn is_method_call(toks: &[SpannedTok], i: usize) -> bool {
    i > 0 && toks[i - 1].tok == Tok::Punct('.')
}

/// The token after `i` is the given punct.
fn next_is(toks: &[SpannedTok], i: usize, p: char) -> bool {
    toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct(p))
}

/// `ident :: member` — path access to a specific member.
fn path_member_is(toks: &[SpannedTok], i: usize, member: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.tok == Tok::Punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.tok == Tok::Punct(':'))
        && toks
            .get(i + 3)
            .is_some_and(|t| t.tok == Tok::Ident(member.to_string()))
}

/// From an ident at `i` followed by a call `(...)`, find whether the call
/// is chained into `.unwrap` / `.expect`. Returns the index of that
/// trailing method ident and whether it is panicky.
fn call_then_panicky(toks: &[SpannedTok], i: usize) -> Option<(usize, bool)> {
    if !next_is(toks, i, '(') {
        return None;
    }
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // After the close paren: `.unwrap` / `.expect` ?
    if toks.get(j + 1).is_some_and(|t| t.tok == Tok::Punct('.')) {
        if let Some(SpannedTok {
            tok: Tok::Ident(m), ..
        }) = toks.get(j + 2)
        {
            if m == "unwrap" || m == "expect" {
                return Some((j + 2, true));
            }
        }
    }
    Some((j, false))
}

/// An attribute starting at `#`: return how many tokens it spans
/// (`#` `[` … `]`), or `None` if this `#` is not an attribute.
fn attribute_span(toks: &[SpannedTok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.tok == Tok::Punct('!')) {
        j += 1; // inner attribute `#![…]`
    }
    if !toks.get(j).is_some_and(|t| t.tok == Tok::Punct('[')) {
        return None;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j - i + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, EnumTagBinding, FieldLiteralBinding};
    use std::path::PathBuf;

    fn scan(path: &str, src: &str) -> Vec<Diagnostic> {
        let rel = PathBuf::from(path);
        let ctx = FileContext::classify(&rel, &Config::default());
        scan_file(&rel, &ctx, src)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    fn analysis(path: &str, src: &str) -> FileAnalysis {
        let rel = PathBuf::from(path);
        let ctx = FileContext::classify(&rel, &Config::default());
        FileAnalysis::new(&rel, ctx, src)
    }

    #[test]
    fn d1_fires_only_in_scoped_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&scan("crates/sim/src/lib.rs", src)), vec!["D1"]);
        assert!(scan("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn p1_skips_cfg_test_modules_and_test_files() {
        let src = concat!(
            "fn live() { x.unwrap(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { y.unwrap(); panic!(\"in test\"); }\n",
            "}\n",
            "fn live2() { panic!(\"boom\"); }\n",
        );
        let d = scan("crates/dtnflow/src/x.rs", src);
        assert_eq!(rules(&d), vec!["P1", "P1"]);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 6);
        assert!(scan("crates/dtnflow/tests/x.rs", src).is_empty());
    }

    #[test]
    fn p2_beats_p1_and_fires_everywhere() {
        let src = "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        // In a P1 crate the unwrap is reported once, as P2.
        assert_eq!(rules(&scan("crates/sim/src/x.rs", src)), vec!["P2"]);
        // Outside P1 scope — and even in test files — P2 still fires.
        assert_eq!(rules(&scan("crates/bench/src/x.rs", src)), vec!["P2"]);
        assert_eq!(rules(&scan("crates/bench/tests/x.rs", src)), vec!["P2"]);
        // total_cmp is the fix and is clean.
        let fixed = "fn f() { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(scan("crates/sim/src/x.rs", fixed).is_empty());
        // partial_cmp without a panicky tail is fine.
        let handled = "fn f() { a.partial_cmp(b).unwrap_or(Ordering::Equal); }\n";
        assert!(scan("crates/sim/src/x.rs", handled).is_empty());
    }

    #[test]
    fn d2_catches_clocks_and_rngs() {
        let src = concat!(
            "let t = Instant::now();\n",
            "let s = std::time::SystemTime::now();\n",
            "let r = rand::random::<f64>();\n",
            "let g = thread_rng();\n",
        );
        let d = scan("crates/mobility/src/x.rs", src);
        assert_eq!(rules(&d), vec!["D2", "D2", "D2", "D2"]);
    }

    #[test]
    fn waivers_suppress_exactly_their_rule_and_line() {
        let src = concat!(
            "let t = Instant::now(); // detlint: allow(D2, reason = \"bench wall-clock\")\n",
            "let u = Instant::now(); // detlint: allow(P1, reason = \"wrong rule\")\n",
            "let v = Instant::now(); // detlint: allow(D2)\n",
        );
        let d = scan("crates/bench/src/x.rs", src);
        // Line 1 waived (used → no W1); line 2's wrong-rule waiver leaves
        // the D2 standing and is itself stale (W1); line 3's malformed
        // waiver leaves the D2 standing and is reported (W0).
        assert_eq!(rules(&d), vec!["D2", "W1", "D2", "W0"]);
        assert_eq!(d.iter().filter(|x| x.rule == "D2").count(), 2);
    }

    #[test]
    fn own_line_waiver_covers_the_next_line() {
        let src = concat!(
            "// detlint: allow(D2, reason = \"quarantined wall-clock helper\")\n",
            "let t = Instant::now();\n",
            "let u = Instant::now();\n",
        );
        let d = scan("crates/bench/src/x.rs", src);
        // Line 2 is waived by the comment above it; line 3 is not.
        assert_eq!(rules(&d), vec!["D2"]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn stale_waiver_is_w1_and_unwaivable() {
        let src = "fn f() {} // detlint: allow(D2, reason = \"nothing here fires D2\")\n";
        let d = scan("crates/sim/src/x.rs", src);
        assert_eq!(rules(&d), vec!["W1"]);
        assert_eq!(d[0].line, 1);
        // Waiving the W1 itself does not work: waiver hygiene rules
        // would otherwise waive each other into silence.
        let src2 = concat!(
            "// detlint: allow(W1, reason = \"please ignore\")\n",
            "fn f() {} // detlint: allow(D2, reason = \"stale\")\n",
        );
        let d2 = scan("crates/sim/src/x.rs", src2);
        assert!(rules(&d2).contains(&"W1"));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = concat!(
            "// HashMap Instant::now() unwrap() panic!\n",
            "let s = \"HashMap thread_rng() partial_cmp\";\n",
            "let r = r#\"SystemTime::now()\"#;\n",
            "/* todo! unreachable! */\n",
        );
        assert!(scan("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_like_names_are_not_unwrap() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.expect_err(\"e\"); }\n";
        assert!(scan("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_still_counts_as_live_code() {
        let src = concat!(
            "#[cfg(not(test))]\n",
            "mod live {\n",
            "    fn f() { x.unwrap(); }\n",
            "}\n",
        );
        assert_eq!(rules(&scan("crates/sim/src/x.rs", src)), vec!["P1"]);
    }

    #[test]
    fn multiline_p2_is_matched() {
        let src = concat!(
            "links.sort_by(|a, b| {\n",
            "    b.2.partial_cmp(&a.2)\n",
            "        .unwrap()\n",
            "        .then(a.0.cmp(&b.0))\n",
            "});\n",
        );
        let d = scan("crates/mobility/src/x.rs", src);
        assert_eq!(rules(&d), vec!["P2"]);
        assert_eq!(d[0].line, 2, "anchored at the partial_cmp call");
    }

    // --- C1 ------------------------------------------------------------

    #[test]
    fn c1_flags_shared_mutable_statics() {
        let d = scan(
            "crates/sim/src/x.rs",
            concat!(
                "static mut SHARED: u64 = 0;\n",
                "static CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n",
                "static COUNT: AtomicU64 = AtomicU64::new(0);\n",
                "thread_local! { static TL: RefCell<u64> = RefCell::new(0); }\n",
            ),
        );
        // Line 4: thread_local! plus the interior-mutable static inside.
        assert_eq!(rules(&d), vec!["C1", "C1", "C1", "C1", "C1"]);
        // Plain immutable statics and `'static` lifetimes are fine.
        let ok = concat!(
            "static NAMES: [&str; 2] = [\"a\", \"b\"];\n",
            "fn f(s: &'static str) -> &'static str { s }\n",
        );
        assert!(scan("crates/sim/src/x.rs", ok).is_empty());
    }

    #[test]
    fn c1_flags_adhoc_threading_but_not_in_tests() {
        let src = concat!(
            "fn f() { std::thread::spawn(|| {}); }\n",
            "fn g() { let (tx, rx) = mpsc::channel(); }\n",
            "fn h() { rayon::join(a, b); }\n",
        );
        let d = scan("crates/sim/src/x.rs", src);
        assert_eq!(rules(&d), vec!["C1", "C1", "C1"]);
        // Out of C1 scope (bench) and in test files: allowed.
        assert!(scan("crates/bench/src/x.rs", src).is_empty());
        assert!(scan("crates/sim/tests/x.rs", src).is_empty());
    }

    #[test]
    fn c1_flags_unordered_float_reduction_only() {
        // Unordered source + float reduction: fires.
        let bad = "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n";
        assert_eq!(rules(&scan("crates/sim/src/x.rs", bad)), vec!["C1"]);
        let bad_fold = "fn f(m: &M) -> f64 { m.values().fold(0.0, |a, b| a + b) }\n";
        assert_eq!(rules(&scan("crates/sim/src/x.rs", bad_fold)), vec!["C1"]);
        // Index-ordered source: fine.
        let ok = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert!(scan("crates/sim/src/x.rs", ok).is_empty());
        // Integer reduction over an unordered source: associative, fine.
        let ok_int = "fn f(m: &M) -> u64 { m.values().sum::<u64>() }\n";
        assert!(scan("crates/sim/src/x.rs", ok_int).is_empty());
        let ok_int_fold = "fn f(m: &M) -> u64 { m.values().fold(0, |a, b| a + b) }\n";
        assert!(scan("crates/sim/src/x.rs", ok_int_fold).is_empty());
    }

    // --- S1 ------------------------------------------------------------

    #[test]
    fn s1_flags_field_missing_from_codec() {
        let src = concat!(
            "pub struct Blob {\n",
            "    pub a: u32,\n",
            "    pub b: u32,\n",
            "}\n",
            "impl Blob {\n",
            "    pub fn encode(&self, w: &mut W) { w.put_u32(self.a); }\n",
            "    pub fn decode(r: &mut R) -> Blob { Blob { a: r.u32(), b: 0 } }\n",
            "}\n",
        );
        let d = scan("crates/snapshot/src/x.rs", src);
        assert_eq!(rules(&d), vec!["S1"]);
        assert_eq!(d[0].line, 3, "anchored at the field declaration");
        assert!(d[0].message.contains("`b`") && d[0].message.contains("encode"));
    }

    #[test]
    fn s1_checks_each_direction_independently() {
        // Only an encode side exists (decode is rebuilt elsewhere):
        // missing fields are reported against encode only.
        let src = concat!(
            "pub struct State { pub x: u32, pub y: u32 }\n",
            "impl State {\n",
            "    pub fn save_state(&self, w: &mut W) { w.put_u32(self.x); }\n",
            "}\n",
        );
        let d = scan("crates/sim/src/x.rs", src);
        assert_eq!(rules(&d), vec!["S1"]);
        assert!(d[0].message.contains("`y`"));
        assert!(d[0].message.contains("save_state"));
    }

    #[test]
    fn s1_unions_split_codecs_and_binds_free_fns() {
        // Codec split across helpers: the union covers all fields.
        let src = concat!(
            "pub struct NodeState { pub id: u32, pub seen: Vec<u32> }\n",
            "fn encode_node_state(s: &NodeState, w: &mut W) { w.put(s.id); w.put(&s.seen); }\n",
            "fn decode_node_state(r: &mut R) -> NodeState {\n",
            "    NodeState { id: r.u32(), seen: r.vec() }\n",
            "}\n",
        );
        assert!(scan("crates/dtnflow/src/x.rs", src).is_empty());
        // A closure-driven `*_with` codec is a codec like any other: the
        // field it never references is reported.
        let dense = concat!(
            "pub struct DenseMap { pub slots: Vec<u32>, pub live: u32 }\n",
            "impl DenseMap {\n",
            "    pub fn encode_with(&self, w: &mut W, f: impl Fn(&T)) { f(&self.slots) }\n",
            "}\n",
        );
        let d = scan("crates/dtnflow-core/src/x.rs", dense);
        assert_eq!(rules(&d), vec!["S1"]);
        assert!(d[0].message.contains("`live`") && d[0].message.contains("encode_with"));
    }

    #[test]
    fn s1_skips_structs_without_codecs_and_underscore_fields() {
        let src = "pub struct Plain { pub a: u32 }\nfn other() {}\n";
        assert!(scan("crates/sim/src/x.rs", src).is_empty());
        let underscore = concat!(
            "pub struct P { pub a: u32, _pad: u32 }\n",
            "impl P { pub fn encode(&self, w: &mut W) { w.put(self.a) } }\n",
        );
        assert!(scan("crates/sim/src/x.rs", underscore).is_empty());
    }

    // --- X1 ------------------------------------------------------------

    fn x1_config() -> Config {
        Config {
            enum_bindings: vec![EnumTagBinding {
                enum_name: "Ev".into(),
                tags_const: "TAGS".into(),
                fns: vec!["Ev::kind_index".into()],
            }],
            field_bindings: vec![FieldLiteralBinding {
                struct_name: "Row".into(),
                fn_name: "row_csv".into(),
            }],
            ..Config::default()
        }
    }

    fn x1_diags(src: &str) -> Vec<Diagnostic> {
        let fa = analysis("crates/obs/src/x.rs", src);
        let analyses = vec![fa];
        let raw = cross_file_rules(&analyses, &x1_config());
        finalize(&analyses, raw)
    }

    #[test]
    fn x1_catches_missing_tag_orphan_tag_and_unsorted_table() {
        let src = concat!(
            "pub enum Ev { Alpha, Gamma }\n",
            "pub const TAGS: [&str; 2] = [\"gamma\", \"alpha\"];\n", // unsorted
            "impl Ev {\n",
            "    pub fn kind_index(&self) -> usize {\n",
            "        match self { Ev::Alpha => 0, Ev::Gamma => 1 }\n",
            "    }\n",
            "}\n",
        );
        let d = x1_diags(src);
        assert_eq!(rules(&d), vec!["X1"], "unsorted table: {d:?}");
        // Bijection violations: Beta has no tag, `zeta` has no variant.
        let src2 = concat!(
            "pub enum Ev { Alpha, Beta }\n",
            "pub const TAGS: [&str; 2] = [\"alpha\", \"zeta\"];\n",
            "impl Ev {\n",
            "    pub fn kind_index(&self) -> usize {\n",
            "        match self { Ev::Alpha => 0, Ev::Beta => 1 }\n",
            "    }\n",
            "}\n",
        );
        let d2 = x1_diags(src2);
        assert_eq!(rules(&d2), vec!["X1", "X1"]);
        assert!(d2.iter().any(|x| x.message.contains("Beta")));
        assert!(d2.iter().any(|x| x.message.contains("zeta")));
    }

    #[test]
    fn x1_catches_non_exhaustive_bound_fn() {
        let src = concat!(
            "pub enum Ev { Alpha, Beta }\n",
            "pub const TAGS: [&str; 2] = [\"alpha\", \"beta\"];\n",
            "impl Ev {\n",
            "    pub fn kind_index(&self) -> usize {\n",
            "        match self { Ev::Alpha => 0, _ => 1 }\n", // Beta unnamed
            "    }\n",
            "}\n",
        );
        let d = x1_diags(src);
        assert_eq!(rules(&d), vec!["X1"]);
        assert!(d[0].message.contains("kind_index") && d[0].message.contains("Beta"));
    }

    #[test]
    fn x1_field_literal_binding_checks_strings_and_code() {
        let clean = concat!(
            "pub struct Row { pub gen: u32, pub lost: u32 }\n",
            "pub fn row_csv(r: &Row) -> String {\n",
            "    format!(\"gen,lost\\n{},{}\", r.gen, r.lost)\n",
            "}\n",
        );
        assert!(x1_diags(clean).is_empty());
        // Column missing from the header string → X1.
        let missing_col = concat!(
            "pub struct Row { pub gen: u32, pub lost: u32 }\n",
            "pub fn row_csv(r: &Row) -> String {\n",
            "    format!(\"gen\\n{},{}\", r.gen, r.lost)\n",
            "}\n",
        );
        let d = x1_diags(missing_col);
        assert_eq!(rules(&d), vec!["X1"]);
        assert!(d[0].message.contains("lost") && d[0].message.contains("column/key missing"));
    }

    #[test]
    fn x0_reports_half_resolved_bindings_but_skips_foreign_trees() {
        // Nothing resolves: out of scope (fixture trees hit this).
        assert!(x1_diags("pub fn unrelated() {}\n").is_empty());
        // Enum present but const renamed: X0, so the binding cannot rot.
        let renamed = concat!(
            "pub enum Ev { Alpha }\n",
            "pub const TAG_NAMES: [&str; 1] = [\"alpha\"];\n",
            "impl Ev { pub fn kind_index(&self) -> usize { match self { Ev::Alpha => 0 } } }\n",
        );
        let d = x1_diags(renamed);
        assert_eq!(rules(&d), vec!["X0"]);
        assert!(d[0].message.contains("TAGS"));
    }

    // --- ordering ------------------------------------------------------

    #[test]
    fn multi_rule_hits_on_one_line_sort_deterministically() {
        // One line fires D1, D2 and P1: output must be rule-sorted, not
        // pack-evaluation-ordered.
        let src = "fn f() { let m: HashMap<u32, u32> = x.unwrap(); thread_rng(); }\n";
        let d = scan("crates/sim/src/x.rs", src);
        assert_eq!(rules(&d), vec!["D1", "D2", "P1"]);
        // And a full-pipeline variant with two files out of name order.
        let fa_b = analysis("crates/sim/src/b.rs", "fn f() { x.unwrap(); }\n");
        let fa_a = analysis("crates/sim/src/a.rs", "fn g() { y.unwrap(); }\n");
        let analyses = vec![fa_b, fa_a];
        let mut raw = Vec::new();
        for fa in &analyses {
            raw.extend(file_rules(fa));
        }
        let out = finalize(&analyses, raw);
        let files: Vec<&str> = out.iter().map(|x| x.file.as_str()).collect();
        assert_eq!(files, vec!["crates/sim/src/a.rs", "crates/sim/src/b.rs"]);
    }
}
