//! Argument handling of the `chaos`, `hotpath` and `trace-tool`
//! binaries: a missing or malformed flag value, an undeclared flag or a
//! stray argument exits 2 with the usage line (never a panic), and so
//! does an output that cannot be written. Every invocation here fails
//! before any work starts, so none of them runs a sweep, a bench or a
//! trace generator.

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
        &["--quick", "--out", "--check", "--against"],
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
            &["gen", "campus", "--sed", "5", "--out", "t.txt"],
            &["gen", "campus", "extra"],
            &["stats", "campus", "--bogus"],
            &["gen"],
            &["bogus"],
            &[],
        ],
        &["gen", "stats", "validate", "predict", "--seed", "--max-k"],
    );
}

#[test]
fn unwritable_outputs_exit_2_before_any_work() {
    let cases: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_chaos"), &["--quick", "--out"]),
        (env!("CARGO_BIN_EXE_hotpath"), &["--quick", "--out"]),
        (
            env!("CARGO_BIN_EXE_trace-tool"),
            &["gen", "campus", "--out"],
        ),
    ];
    // A regular file, under which no output directory can be made.
    let file = std::env::temp_dir().join(format!("dtnflow-harness-cli-{}", std::process::id()));
    std::fs::write(&file, "").expect("temp file");
    let path = file.join("out").display().to_string();
    for (bin, args) in cases {
        let out = run(bin, &[args, &[path.as_str()]].concat());
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: {:?}",
            out.status
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&path),
            "{bin}: the error does not name {path}"
        );
        // Nothing ran: every harness reports its work on stdout.
        assert!(out.stdout.is_empty(), "{bin} started work");
    }
    let _ = std::fs::remove_file(&file);
}
