//! Argument handling of the `chaos`, `shard`, `hotpath` and `trace-tool`
//! binaries: a missing or malformed flag value exits 2 with the usage
//! line (never a panic). Every invocation here fails in argument parsing,
//! so none of them runs a sweep, a bench or a trace generator.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

/// Each invocation exits 2 and its stderr names every `flags` entry.
fn assert_usage_errors(bin: &str, cases: &[&[&str]], flags: &[&str]) {
    for args in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{args:?}: no usage line:\n{stderr}"
        );
        for flag in flags {
            assert!(
                stderr.contains(flag),
                "{args:?}: usage does not name {flag}:\n{stderr}"
            );
        }
    }
}

#[test]
fn chaos_bad_arguments_exit_2_with_usage() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_chaos"),
        &[
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seed"],
            &["--seed", "--quick"],
            &["--out"],
            &["--quick", "--out", "--seed", "3"],
            &["--bogus"],
        ],
        &["--quick", "--seed", "--out"],
    );
}

#[test]
fn shard_bad_arguments_exit_2_with_usage() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_shard"),
        &[&["--out"], &["--out", "--quick"], &["--bogus"]],
        &["--quick", "--out"],
    );
}

#[test]
fn hotpath_bad_arguments_exit_2_with_usage() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_hotpath"),
        &[
            &["--check"],
            &["--check", "--strict"],
            &["--check", "new.json"],
            &["--check", "new.json", "--against"],
            &["--out"],
            &["--quick", "--out", "--strict"],
            &["--bogus"],
        ],
        &["--quick", "--out", "--check", "--against", "--strict"],
    );
}

#[test]
fn trace_tool_bad_arguments_exit_2_with_usage() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_trace-tool"),
        &[
            &["gen", "campus", "--seed", "x"],
            &["gen", "campus", "--seed"],
            &["gen", "campus", "--seed", "--out", "t.txt"],
            &["gen", "campus", "--out"],
            &["predict", "campus", "--max-k", "two"],
            &["predict", "campus", "--max-k", "0"],
            &["gen"],
            &["bogus"],
            &[],
        ],
        &["gen", "stats", "validate", "predict", "--seed", "--max-k"],
    );
}
