//! Point-in-time export of the observability registries.
//!
//! A `Snapshot` is plain data: what the recorder saw, flattened into
//! sorted rows ready for JSON (schema `dtnflow-obs-snapshot-v1`) or CSV.
//! Rendering is fully deterministic — BTreeMap-ordered rows, integral
//! numbers without fractions, shortest-round-trip floats.

use crate::json::Value;
use crate::metrics::{LandmarkCounters, ObsMetrics, Totals, DELAY_BUCKET_EDGES_SECS};

/// Schema tag embedded in every snapshot JSON document.
pub const SNAPSHOT_SCHEMA: &str = "dtnflow-obs-snapshot-v1";
/// Schema tag for a multi-cell experiment observability report.
pub const REPORT_SCHEMA: &str = "dtnflow-obs-report-v1";
/// Schema tag for the `BENCH_obs.json` throughput/timing baseline.
pub const BENCH_SCHEMA: &str = "dtnflow-obs-bench-v2";

/// One per-landmark row in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkRow {
    pub lm: u16,
    pub counters: LandmarkCounters,
}

/// Exported observability state for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Total events observed (including those evicted from the ring).
    pub events_recorded: u64,
    /// Events evicted from the bounded ring buffer.
    pub events_dropped: u64,
    /// Configured ring capacity.
    pub ring_capacity: u64,
    /// Event counts per kind tag, sorted by tag.
    pub event_counts: Vec<(String, u64)>,
    /// Per-landmark counter rows, sorted by landmark id.
    pub landmarks: Vec<LandmarkRow>,
    /// Latest EWMA bandwidth per directed link, sorted by (from, to).
    pub bandwidth: Vec<(u16, u16, f64)>,
    /// Latest (coverage, revision) per landmark, sorted by landmark id.
    pub route_coverage: Vec<(u16, f64, u64)>,
    /// Delivery-delay histogram counts (edges in
    /// [`DELAY_BUCKET_EDGES_SECS`] plus one overflow bucket).
    pub delay_hist: Vec<u64>,
    /// Delivery hop-count histogram (0..=15, then 16+).
    pub hop_hist: Vec<u64>,
    /// Run-wide totals.
    pub totals: Totals,
}

impl Snapshot {
    /// Flatten folded metrics plus ring statistics into a snapshot.
    pub fn from_metrics(
        metrics: &ObsMetrics,
        events_recorded: u64,
        events_dropped: u64,
        ring_capacity: u64,
    ) -> Snapshot {
        Snapshot {
            events_recorded,
            events_dropped,
            ring_capacity,
            event_counts: metrics
                .event_counts
                .iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            landmarks: metrics
                .landmarks
                .iter()
                .map(|(lm, &counters)| LandmarkRow { lm, counters })
                .collect(),
            bandwidth: metrics.bandwidth.iter().collect(),
            route_coverage: metrics
                .coverage
                .iter()
                .map(|(lm, &(coverage, revision))| (lm, coverage, revision))
                .collect(),
            delay_hist: metrics.delay_hist.to_vec(),
            hop_hist: metrics.hop_hist.to_vec(),
            totals: metrics.totals,
        }
    }

    /// Build the JSON value tree for this snapshot.
    pub fn to_json_value(&self) -> Value {
        let t = &self.totals;
        Value::object([
            ("schema".to_owned(), Value::str(SNAPSHOT_SCHEMA)),
            (
                "events_recorded".to_owned(),
                Value::int(self.events_recorded),
            ),
            ("events_dropped".to_owned(), Value::int(self.events_dropped)),
            ("ring_capacity".to_owned(), Value::int(self.ring_capacity)),
            (
                "event_counts".to_owned(),
                Value::object(
                    self.event_counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::int(*v))),
                ),
            ),
            (
                "totals".to_owned(),
                Value::object([
                    ("generated".to_owned(), Value::int(t.generated)),
                    ("delivered".to_owned(), Value::int(t.delivered)),
                    ("expired".to_owned(), Value::int(t.expired)),
                    ("lost_outage".to_owned(), Value::int(t.lost_outage)),
                    ("lost_churn".to_owned(), Value::int(t.lost_churn)),
                    ("forwards".to_owned(), Value::int(t.forwards)),
                    ("contacts_opened".to_owned(), Value::int(t.contacts_opened)),
                    ("contacts_closed".to_owned(), Value::int(t.contacts_closed)),
                    ("expired_on_node".to_owned(), Value::int(t.expired_on_node)),
                ]),
            ),
            (
                "landmarks".to_owned(),
                Value::Array(self.landmarks.iter().map(landmark_row_json).collect()),
            ),
            (
                "bandwidth".to_owned(),
                Value::Array(
                    self.bandwidth
                        .iter()
                        .map(|&(from, to, value)| {
                            Value::object([
                                ("from".to_owned(), Value::int(u64::from(from))),
                                ("to".to_owned(), Value::int(u64::from(to))),
                                ("value".to_owned(), Value::Number(value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "route_coverage".to_owned(),
                Value::Array(
                    self.route_coverage
                        .iter()
                        .map(|&(lm, coverage, revision)| {
                            Value::object([
                                ("lm".to_owned(), Value::int(u64::from(lm))),
                                ("coverage".to_owned(), Value::Number(coverage)),
                                ("revision".to_owned(), Value::int(revision)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "delay_histogram".to_owned(),
                Value::object([
                    (
                        "edges_secs".to_owned(),
                        Value::Array(
                            DELAY_BUCKET_EDGES_SECS
                                .iter()
                                .map(|&e| Value::int(e))
                                .collect(),
                        ),
                    ),
                    (
                        "counts".to_owned(),
                        Value::Array(self.delay_hist.iter().map(|&c| Value::int(c)).collect()),
                    ),
                ]),
            ),
            (
                "hop_histogram".to_owned(),
                Value::object([(
                    "counts".to_owned(),
                    Value::Array(self.hop_hist.iter().map(|&c| Value::int(c)).collect()),
                )]),
            ),
        ])
    }

    /// Pretty-printed JSON document (schema `dtnflow-obs-snapshot-v1`).
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// Per-landmark counter rows as CSV (header + one row per landmark).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "landmark,generated,uplinks,downlinks,delivered,expired,lost,\
             mis_transits,mis_transit_uploads,retries,table_exchanges,queue_depth,queue_peak\n",
        );
        for row in &self.landmarks {
            let c = &row.counters;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                row.lm,
                c.generated,
                c.uplinks,
                c.downlinks,
                c.delivered,
                c.expired,
                c.lost,
                c.mis_transits,
                c.mis_transit_uploads,
                c.retries,
                c.table_exchanges,
                c.queue_depth,
                c.queue_peak,
            ));
        }
        out
    }
}

fn landmark_row_json(row: &LandmarkRow) -> Value {
    let c = &row.counters;
    Value::object([
        ("lm".to_owned(), Value::int(u64::from(row.lm))),
        ("generated".to_owned(), Value::int(c.generated)),
        ("uplinks".to_owned(), Value::int(c.uplinks)),
        ("downlinks".to_owned(), Value::int(c.downlinks)),
        ("delivered".to_owned(), Value::int(c.delivered)),
        ("expired".to_owned(), Value::int(c.expired)),
        ("lost".to_owned(), Value::int(c.lost)),
        ("mis_transits".to_owned(), Value::int(c.mis_transits)),
        (
            "mis_transit_uploads".to_owned(),
            Value::int(c.mis_transit_uploads),
        ),
        ("retries".to_owned(), Value::int(c.retries)),
        ("table_exchanges".to_owned(), Value::int(c.table_exchanges)),
        ("queue_depth".to_owned(), Value::int(c.queue_depth)),
        ("queue_peak".to_owned(), Value::int(c.queue_peak)),
    ])
}

/// Build a multi-cell experiment report document
/// (schema `dtnflow-obs-report-v1`): one labelled snapshot per
/// experiment cell (sweep point × method).
pub fn report_json(experiment: &str, cells: &[(String, Snapshot)]) -> String {
    Value::object([
        ("schema".to_owned(), Value::str(REPORT_SCHEMA)),
        ("experiment".to_owned(), Value::str(experiment)),
        (
            "cells".to_owned(),
            Value::Array(
                cells
                    .iter()
                    .map(|(label, snap)| {
                        Value::object([
                            ("label".to_owned(), Value::str(label)),
                            ("snapshot".to_owned(), snap.to_json_value()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

/// One entry in the `BENCH_obs.json` timing baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub id: String,
    /// Wall-clock seconds for the experiment (nondeterministic by design;
    /// excluded from determinism tests).
    pub wall_secs: f64,
    pub events_recorded: u64,
    pub events_dropped: u64,
}

/// The machine and build a `BENCH_*.json` file was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchHost {
    /// Cores available to the measuring process.
    pub cores: u64,
    /// Build profile of the measuring binary (`release` or `debug`).
    pub profile: String,
    /// Git revision of the measured tree (`unknown` outside a checkout).
    pub git_revision: String,
}

impl BenchHost {
    /// The `host` object every committed `BENCH_*.json` file carries.
    pub fn to_json_value(&self) -> Value {
        Value::object([
            ("cores".to_owned(), Value::int(self.cores)),
            ("profile".to_owned(), Value::str(&self.profile)),
            ("git_revision".to_owned(), Value::str(&self.git_revision)),
        ])
    }
}

/// Build the `BENCH_obs.json` document (schema `dtnflow-obs-bench-v2`).
pub fn bench_json(host: &BenchHost, entries: &[BenchEntry]) -> String {
    Value::object([
        ("schema".to_owned(), Value::str(BENCH_SCHEMA)),
        ("host".to_owned(), host.to_json_value()),
        (
            "entries".to_owned(),
            Value::Array(
                entries
                    .iter()
                    .map(|e| {
                        Value::object([
                            ("id".to_owned(), Value::str(&e.id)),
                            ("wall_secs".to_owned(), Value::Number(e.wall_secs)),
                            ("events_recorded".to_owned(), Value::int(e.events_recorded)),
                            ("events_dropped".to_owned(), Value::int(e.events_dropped)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Place, SimEvent};
    use crate::json;
    use dtnflow_core::ids::{LandmarkId, PacketId};
    use dtnflow_core::time::SimTime;

    fn sample_snapshot() -> Snapshot {
        let mut m = ObsMetrics::new();
        m.apply(&SimEvent::PacketGenerated {
            at: SimTime(10),
            pkt: PacketId(0),
            src: LandmarkId(0),
            dst: LandmarkId(1),
            start: Some(Place::Pending(LandmarkId(0))),
        });
        m.apply(&SimEvent::BandwidthUpdated {
            at: SimTime(900),
            from: LandmarkId(0),
            to: LandmarkId(1),
            value: 0.25,
        });
        Snapshot::from_metrics(&m, 2, 0, 1024)
    }

    #[test]
    fn json_parses_and_carries_schema() {
        let snap = sample_snapshot();
        let doc = json::parse(&snap.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(SNAPSHOT_SCHEMA)
        );
        assert_eq!(
            doc.get("events_recorded").and_then(Value::as_f64),
            Some(2.0)
        );
        let lms = doc.get("landmarks").and_then(Value::as_array).unwrap();
        assert_eq!(lms.len(), 1);
        assert_eq!(lms[0].get("generated").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn json_rendering_is_stable() {
        let snap = sample_snapshot();
        assert_eq!(snap.to_json(), snap.to_json());
    }

    #[test]
    fn csv_has_one_row_per_landmark() {
        let snap = sample_snapshot();
        let csv = snap.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("landmark,generated"));
        assert!(lines[1].starts_with("0,1,"));
    }

    #[test]
    fn report_and_bench_documents_parse() {
        let snap = sample_snapshot();
        let report = report_json("fig11", &[("p0/FLOW".to_owned(), snap)]);
        let doc = json::parse(&report).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(REPORT_SCHEMA)
        );
        let host = BenchHost {
            cores: 2,
            profile: "release".to_owned(),
            git_revision: "abc123".to_owned(),
        };
        let bench = bench_json(
            &host,
            &[BenchEntry {
                id: "fig11".to_owned(),
                wall_secs: 1.5,
                events_recorded: 10,
                events_dropped: 0,
            }],
        );
        let doc = json::parse(&bench).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(BENCH_SCHEMA)
        );
        let h = doc.get("host").unwrap();
        assert_eq!(h.get("cores").and_then(Value::as_f64), Some(2.0));
        assert_eq!(h.get("profile").and_then(Value::as_str), Some("release"));
        assert_eq!(
            h.get("git_revision").and_then(Value::as_str),
            Some("abc123")
        );
    }
}
