//! Which rules apply where: rule→crate scoping, path exclusions, and
//! the cross-file schema bindings the `X1` pack checks.

use std::path::Path;

/// An enum ↔ tag-table ↔ exhaustive-match binding for `X1`: the enum's
/// variants, the string entries of `tags_const`, and the match arms of
/// each listed fn must stay bijective.
#[derive(Debug, Clone)]
pub struct EnumTagBinding {
    pub enum_name: String,
    /// Const holding one snake_case tag string per variant, sorted.
    pub tags_const: String,
    /// Fns that must mention every variant: `"Owner::name"` for methods
    /// (impl self-type qualified), bare `"name"` for free fns.
    pub fns: Vec<String>,
}

/// A struct ↔ string-schema binding for `X1`: every field of
/// `struct_name` must appear as a word inside the string literals of
/// `fn_name`'s body (CSV headers, JSON key tables).
#[derive(Debug, Clone)]
pub struct FieldLiteralBinding {
    pub struct_name: String,
    /// `"Owner::name"` or bare free-fn name, as for [`EnumTagBinding`].
    pub fn_name: String,
}

/// Linter configuration. The defaults encode this repository's policy;
/// tests construct custom configs to point at fixture trees.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) whose iteration order can
    /// escape into experiment outcomes: `D1` (no `HashMap`/`HashSet`)
    /// applies to these.
    pub d1_crates: Vec<String>,
    /// Crates whose non-test code must not panic: `P1` scope.
    pub p1_crates: Vec<String>,
    /// Crates that must stay thread-safe in outcome: `C1` (no shared
    /// mutable statics, no ad-hoc threading, no unordered float
    /// reduction) applies to their non-test code.
    pub c1_crates: Vec<String>,
    /// Enum ↔ tag-table bindings checked by `X1`.
    pub enum_bindings: Vec<EnumTagBinding>,
    /// Struct ↔ string-schema bindings checked by `X1`.
    pub field_bindings: Vec<FieldLiteralBinding>,
    /// Directory names skipped entirely while walking.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect();
        Config {
            d1_crates: s(&[
                "dtnflow",
                "dtnflow-core",
                "baselines",
                "sim",
                "predictor",
                "landmark",
                "obs",
                "snapshot",
            ]),
            p1_crates: s(&["sim", "dtnflow", "dtnflow-core", "obs", "snapshot", "shard"]),
            // Everything that can touch an experiment outcome, plus the
            // root package: none of them may accumulate shared-state or
            // order-sensitive float habits.
            c1_crates: s(&[
                "dtnflow",
                "dtnflow-core",
                "baselines",
                "sim",
                "predictor",
                "landmark",
                "mobility",
                "obs",
                "snapshot",
                "shard",
                ".",
            ]),
            enum_bindings: vec![EnumTagBinding {
                enum_name: "SimEvent".into(),
                tags_const: "KIND_TAGS".into(),
                fns: s(&[
                    "SimEvent::kind_index",
                    "SimEvent::at",
                    "SimEvent::encode",
                    "SimEvent::decode",
                    "SimEvent::fmt",
                ]),
            }],
            field_bindings: vec![
                FieldLiteralBinding {
                    struct_name: "LandmarkCounters".into(),
                    fn_name: "Snapshot::to_csv".into(),
                },
                FieldLiteralBinding {
                    struct_name: "LandmarkCounters".into(),
                    fn_name: "landmark_row_json".into(),
                },
                FieldLiteralBinding {
                    struct_name: "Totals".into(),
                    fn_name: "Snapshot::to_json_value".into(),
                },
                FieldLiteralBinding {
                    struct_name: "BenchEntry".into(),
                    fn_name: "bench_json".into(),
                },
                FieldLiteralBinding {
                    struct_name: "BenchHost".into(),
                    fn_name: "BenchHost::to_json_value".into(),
                },
            ],
            // `fixtures` holds deliberate violations for detlint's own
            // tests; `vendor` is third-party API stubs; `results` is
            // experiment output.
            skip_dirs: s(&["target", "vendor", ".git", "fixtures", "results"]),
        }
    }
}

/// Per-file facts the rule engine needs: which crate the file belongs to
/// and whether the whole file is test/bench code.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name (`crates/<name>/...`), or `"."` for the root
    /// package (`src/`, `tests/`, `examples/` at the workspace root).
    pub crate_name: String,
    /// Whole file is test or bench code (`tests/`, `benches/` dirs).
    pub is_test_file: bool,
    pub d1_applies: bool,
    pub p1_applies: bool,
    pub c1_applies: bool,
}

impl FileContext {
    /// Classify a workspace-relative path.
    pub fn classify(rel: &Path, cfg: &Config) -> FileContext {
        let comps: Vec<&str> = rel
            .components()
            .filter_map(|c| c.as_os_str().to_str())
            .collect();
        let crate_name = match comps.as_slice() {
            ["crates", name, ..] => (*name).to_string(),
            _ => ".".to_string(),
        };
        let is_test_file = comps
            .iter()
            .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
        let d1_applies = cfg.d1_crates.contains(&crate_name);
        let p1_applies = cfg.p1_crates.contains(&crate_name);
        let c1_applies = cfg.c1_crates.contains(&crate_name);
        FileContext {
            crate_name,
            is_test_file,
            d1_applies,
            p1_applies,
            c1_applies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn classifies_crate_and_test_paths() {
        let cfg = Config::default();
        let c = FileContext::classify(&PathBuf::from("crates/sim/src/engine.rs"), &cfg);
        assert_eq!(c.crate_name, "sim");
        assert!(!c.is_test_file);
        assert!(c.d1_applies && c.p1_applies);

        let t = FileContext::classify(&PathBuf::from("crates/sim/tests/props.rs"), &cfg);
        assert!(t.is_test_file);

        let b = FileContext::classify(&PathBuf::from("crates/bench/src/report.rs"), &cfg);
        assert_eq!(b.crate_name, "bench");
        assert!(!b.d1_applies && !b.p1_applies && !b.c1_applies);

        let r = FileContext::classify(&PathBuf::from("tests/determinism.rs"), &cfg);
        assert_eq!(r.crate_name, ".");
        assert!(r.is_test_file);
        assert!(r.c1_applies, "root package is in C1 scope");

        let x = FileContext::classify(&PathBuf::from("crates/shard/src/lib.rs"), &cfg);
        assert!(x.c1_applies, "shard crate is in C1 scope");
        assert!(x.p1_applies, "shard crate is in P1 scope");

        let e = FileContext::classify(&PathBuf::from("examples/quickstart.rs"), &cfg);
        assert!(e.is_test_file, "examples are demo code, not hot paths");
    }
}
