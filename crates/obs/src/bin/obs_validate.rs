//! `obs-validate` — check emitted observability JSON against its schema.
//!
//! Usage: `obs-validate FILE...`
//!
//! Each file must parse as JSON and carry a known `schema` tag
//! (`dtnflow-obs-snapshot-v1`, `dtnflow-obs-report-v1`, or
//! `dtnflow-obs-bench-v2`); the document is then structurally validated.
//! A bench document must name its host (cores, build profile, git
//! revision).
//! Exits non-zero on the first problem, printing one line per file.
//! CI runs this against the output of a traced quick experiment.

use std::process::ExitCode;

use dtnflow_obs::snapshot::{BENCH_SCHEMA, REPORT_SCHEMA, SNAPSHOT_SCHEMA};
use dtnflow_obs::{json, schema};

fn validate_file(path: &str) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("JSON parse failed: {e}"))?;
    schema::validate_any(&doc)?;
    match doc.get("schema").and_then(json::Value::as_str) {
        Some(SNAPSHOT_SCHEMA) => Ok("snapshot"),
        Some(REPORT_SCHEMA) => Ok("report"),
        Some(BENCH_SCHEMA) => Ok("bench"),
        _ => Ok("unknown"),
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: obs-validate FILE...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &paths {
        match validate_file(path) {
            Ok(kind) => println!("{path}: OK ({kind})"),
            Err(msg) => {
                eprintln!("{path}: INVALID — {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
