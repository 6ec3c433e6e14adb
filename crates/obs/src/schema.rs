//! Structural validation for the JSON documents this crate emits.
//!
//! Used by the `obs-validate` binary (CI runs it against a real traced
//! experiment) and by tests. Validation is structural, not exhaustive: it
//! checks the schema tag, required keys, types, and cross-field
//! consistency such as histogram lengths.

use crate::json::Value;
use crate::metrics::DELAY_BUCKET_EDGES_SECS;
use crate::snapshot::{BENCH_SCHEMA, REPORT_SCHEMA, SNAPSHOT_SCHEMA};

fn require<'v>(doc: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    doc.get(key)
        .ok_or_else(|| format!("{what}: missing key {key:?}"))
}

fn require_count(doc: &Value, key: &str, what: &str) -> Result<u64, String> {
    let n = require(doc, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: {key:?} is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{what}: {key:?} is not a non-negative integer"));
    }
    Ok(n as u64)
}

fn require_number(doc: &Value, key: &str, what: &str) -> Result<f64, String> {
    require(doc, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: {key:?} is not a number"))
}

fn require_array<'v>(doc: &'v Value, key: &str, what: &str) -> Result<&'v [Value], String> {
    require(doc, key, what)?
        .as_array()
        .ok_or_else(|| format!("{what}: {key:?} is not an array"))
}

/// Validate a single-run snapshot document (`dtnflow-obs-snapshot-v1`).
pub fn validate_snapshot(doc: &Value) -> Result<(), String> {
    let what = "snapshot";
    let schema = require(doc, "schema", what)?.as_str();
    if schema != Some(SNAPSHOT_SCHEMA) {
        return Err(format!(
            "{what}: schema tag {schema:?} != {SNAPSHOT_SCHEMA:?}"
        ));
    }
    let recorded = require_count(doc, "events_recorded", what)?;
    let dropped = require_count(doc, "events_dropped", what)?;
    require_count(doc, "ring_capacity", what)?;
    if dropped > recorded {
        return Err(format!(
            "{what}: events_dropped {dropped} > events_recorded {recorded}"
        ));
    }

    let totals = require(doc, "totals", what)?;
    for key in [
        "generated",
        "delivered",
        "expired",
        "lost_outage",
        "lost_churn",
        "forwards",
        "contacts_opened",
        "contacts_closed",
        "expired_on_node",
    ] {
        require_count(totals, key, "snapshot.totals")?;
    }

    for row in require_array(doc, "landmarks", what)? {
        let inner = "snapshot.landmarks[]";
        for key in [
            "lm",
            "generated",
            "uplinks",
            "downlinks",
            "delivered",
            "expired",
            "lost",
            "mis_transits",
            "mis_transit_uploads",
            "retries",
            "table_exchanges",
            "queue_depth",
            "queue_peak",
        ] {
            require_count(row, key, inner)?;
        }
    }

    for link in require_array(doc, "bandwidth", what)? {
        let inner = "snapshot.bandwidth[]";
        require_count(link, "from", inner)?;
        require_count(link, "to", inner)?;
        require_number(link, "value", inner)?;
    }

    for cov in require_array(doc, "route_coverage", what)? {
        let inner = "snapshot.route_coverage[]";
        require_count(cov, "lm", inner)?;
        let c = require_number(cov, "coverage", inner)?;
        if !(0.0..=1.0).contains(&c) {
            return Err(format!("{inner}: coverage {c} outside [0, 1]"));
        }
        require_count(cov, "revision", inner)?;
    }

    let delay = require(doc, "delay_histogram", what)?;
    let edges = require_array(delay, "edges_secs", "snapshot.delay_histogram")?;
    let counts = require_array(delay, "counts", "snapshot.delay_histogram")?;
    if edges.len() != DELAY_BUCKET_EDGES_SECS.len() {
        return Err(format!(
            "snapshot.delay_histogram: {} edges, expected {}",
            edges.len(),
            DELAY_BUCKET_EDGES_SECS.len()
        ));
    }
    if counts.len() != edges.len() + 1 {
        return Err(format!(
            "snapshot.delay_histogram: {} counts, expected {} (edges + overflow)",
            counts.len(),
            edges.len() + 1
        ));
    }

    let hops = require(doc, "hop_histogram", what)?;
    let hop_counts = require_array(hops, "counts", "snapshot.hop_histogram")?;
    if hop_counts.is_empty() {
        return Err("snapshot.hop_histogram: empty counts".to_owned());
    }
    Ok(())
}

/// Validate a multi-cell experiment report (`dtnflow-obs-report-v1`).
pub fn validate_report(doc: &Value) -> Result<(), String> {
    let what = "report";
    let schema = require(doc, "schema", what)?.as_str();
    if schema != Some(REPORT_SCHEMA) {
        return Err(format!(
            "{what}: schema tag {schema:?} != {REPORT_SCHEMA:?}"
        ));
    }
    require(doc, "experiment", what)?
        .as_str()
        .ok_or_else(|| format!("{what}: experiment is not a string"))?;
    let cells = require_array(doc, "cells", what)?;
    if cells.is_empty() {
        return Err(format!("{what}: no cells"));
    }
    for cell in cells {
        require(cell, "label", "report.cells[]")?
            .as_str()
            .ok_or_else(|| "report.cells[]: label is not a string".to_owned())?;
        let snap = require(cell, "snapshot", "report.cells[]")?;
        validate_snapshot(snap)?;
    }
    Ok(())
}

/// Validate the `BENCH_obs.json` timing baseline (`dtnflow-obs-bench-v2`):
/// the host it was measured on, then one entry per experiment.
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    let what = "bench";
    let schema = require(doc, "schema", what)?.as_str();
    if schema != Some(BENCH_SCHEMA) {
        return Err(format!("{what}: schema tag {schema:?} != {BENCH_SCHEMA:?}"));
    }
    let host = require(doc, "host", what)?;
    let inner = "bench.host";
    if require_count(host, "cores", inner)? < 1 {
        return Err(format!("{inner}: cores must be at least 1"));
    }
    for key in ["profile", "git_revision"] {
        let v = require(host, key, inner)?
            .as_str()
            .ok_or_else(|| format!("{inner}: {key} is not a string"))?;
        if v.is_empty() {
            return Err(format!("{inner}: empty {key}"));
        }
    }
    for entry in require_array(doc, "entries", what)? {
        let inner = "bench.entries[]";
        require(entry, "id", inner)?
            .as_str()
            .ok_or_else(|| format!("{inner}: id is not a string"))?;
        let wall = require_number(entry, "wall_secs", inner)?;
        if wall < 0.0 {
            return Err(format!("{inner}: negative wall_secs {wall}"));
        }
        require_count(entry, "events_recorded", inner)?;
        require_count(entry, "events_dropped", inner)?;
    }
    Ok(())
}

/// Dispatch on the document's `schema` tag.
pub fn validate_any(doc: &Value) -> Result<(), String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(SNAPSHOT_SCHEMA) => validate_snapshot(doc),
        Some(REPORT_SCHEMA) => validate_report(doc),
        Some(BENCH_SCHEMA) => validate_bench(doc),
        Some(other) => Err(format!("unknown schema tag {other:?}")),
        None => Err("document has no \"schema\" string field".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::ObsMetrics;
    use crate::snapshot::{bench_json, report_json, BenchEntry, BenchHost, Snapshot};

    fn empty_snapshot() -> Snapshot {
        Snapshot::from_metrics(&ObsMetrics::new(), 0, 0, 16)
    }

    #[test]
    fn emitted_documents_validate() {
        let snap = empty_snapshot();
        validate_any(&parse(&snap.to_json()).unwrap()).unwrap();
        let report = report_json("resilience", &[("cell".to_owned(), empty_snapshot())]);
        validate_any(&parse(&report).unwrap()).unwrap();
        validate_any(&parse(&sample_bench()).unwrap()).unwrap();
    }

    fn sample_bench() -> String {
        let host = BenchHost {
            cores: 2,
            profile: "release".to_owned(),
            git_revision: "0123abc".to_owned(),
        };
        bench_json(
            &host,
            &[BenchEntry {
                id: "resilience".to_owned(),
                wall_secs: 0.25,
                events_recorded: 3,
                events_dropped: 1,
            }],
        )
    }

    #[test]
    fn bench_requires_its_host() {
        let good = sample_bench();
        validate_bench(&parse(&good).unwrap()).unwrap();
        for bad in [
            good.replace("\"host\"", "\"hosts\""),
            good.replace("\"cores\": 2", "\"cores\": 0"),
            good.replace("\"profile\": \"release\"", "\"profile\": 1"),
            good.replace("\"git_revision\": \"0123abc\"", "\"git_revision\": \"\""),
            good.replace("\"git_revision\"", "\"revision\""),
        ] {
            assert_ne!(bad, good, "the tamper must hit the document");
            assert!(validate_bench(&parse(&bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn tampered_documents_fail() {
        let snap = empty_snapshot();
        let good = snap.to_json();
        // Wrong schema tag.
        let bad = good.replace(SNAPSHOT_SCHEMA, "nonsense-v9");
        assert!(validate_any(&parse(&bad).unwrap()).is_err());
        // Dropped > recorded.
        let bad = good.replace("\"events_dropped\": 0", "\"events_dropped\": 99");
        assert!(validate_snapshot(&parse(&bad).unwrap()).is_err());
        // Missing required key.
        let bad = good.replace("\"totals\"", "\"totalz\"");
        assert!(validate_snapshot(&parse(&bad).unwrap()).is_err());
        // Negative count.
        let bad = good.replace("\"events_recorded\": 0", "\"events_recorded\": -1");
        assert!(validate_snapshot(&parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn report_requires_cells() {
        let doc = parse(&format!(
            "{{\"schema\":\"{REPORT_SCHEMA}\",\"experiment\":\"x\",\"cells\":[]}}"
        ))
        .unwrap();
        assert!(validate_report(&doc).is_err());
    }
}
