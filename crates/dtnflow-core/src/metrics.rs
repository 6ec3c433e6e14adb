//! Run-level metrics matching the paper's evaluation metrics (§V-A.1):
//! success rate, average delay, forwarding cost and overall (total) cost.

use crate::time::SimDuration;
use dtnflow_snapshot::{Codec, Reader, SnapshotError, Writer};

/// Table entries that fit one packet-equivalent (DESIGN.md §6).
const ENTRIES_PER_PACKET: usize = 50;

/// Counters accumulated while a simulation runs.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Packets generated after warm-up.
    pub generated: u64,
    /// Packets delivered to their destination landmark within TTL.
    pub delivered: u64,
    /// Packets dropped because their TTL elapsed.
    pub expired: u64,
    /// End-to-end delays of delivered packets, in seconds.
    pub delays: Vec<u64>,
    /// Packet forwarding operations (every node↔node or node↔landmark
    /// packet transfer counts one).
    pub forwarding_ops: u64,
    /// Routing-information forwarding cost, in forwarding-op equivalents
    /// (a table with `n` entries costs `n / ENTRIES_PER_PACKET`).
    pub maintenance_ops: f64,
    /// Packets destroyed by station outages (generated at a down station,
    /// or dropped after exhausting their retry budget at a failed one).
    pub lost_to_outage: u64,
    /// Packets destroyed because their carrier node failed mid-route.
    pub lost_to_churn: u64,
    /// Re-queue/retry operations on packets stranded by a fault.
    pub retries: u64,
    /// For each station outage that ended, seconds from the station coming
    /// back up until it completed its first packet transfer again.
    pub recovery_secs: Vec<u64>,
}

impl RunMetrics {
    /// Record a delivery with the given end-to-end delay.
    pub fn record_delivery(&mut self, delay: SimDuration) {
        self.delivered += 1;
        self.delays.push(delay.secs());
    }

    /// Record a TTL expiry.
    pub fn record_expiry(&mut self) {
        self.expired += 1;
    }

    /// Record one packet forwarding operation.
    pub fn record_forward(&mut self) {
        self.forwarding_ops += 1;
    }

    /// Record the exchange of a routing/utility table with `entries`
    /// entries, `ENTRIES_PER_PACKET` of which fit one packet-equivalent.
    pub fn record_table_exchange(&mut self, entries: usize) {
        self.maintenance_ops += entries as f64 / ENTRIES_PER_PACKET as f64;
    }

    /// Record a packet destroyed by a station outage.
    pub fn record_lost_to_outage(&mut self) {
        self.lost_to_outage += 1;
    }

    /// Record a packet destroyed by its carrier failing.
    pub fn record_lost_to_churn(&mut self) {
        self.lost_to_churn += 1;
    }

    /// Record one re-queue/retry of a fault-stranded packet.
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Record how long a station took to move its first packet after an
    /// outage ended.
    pub fn record_recovery(&mut self, secs: SimDuration) {
        self.recovery_secs.push(secs.secs());
    }

    /// Packets destroyed by injected faults (outage + churn).
    pub fn lost(&self) -> u64 {
        self.lost_to_outage + self.lost_to_churn
    }

    /// Mean post-outage recovery time, seconds. Zero when no outage ended
    /// (or none recovered before the run finished).
    pub fn average_recovery_secs(&self) -> f64 {
        if self.recovery_secs.is_empty() {
            0.0
        } else {
            self.recovery_secs.iter().map(|&d| d as f64).sum::<f64>()
                / self.recovery_secs.len() as f64
        }
    }

    /// Fraction of generated packets delivered within TTL.
    pub fn success_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Mean delay of delivered packets, seconds. Zero when none delivered.
    pub fn average_delay_secs(&self) -> f64 {
        if self.delays.is_empty() {
            0.0
        } else {
            self.delays.iter().map(|&d| d as f64).sum::<f64>() / self.delays.len() as f64
        }
    }

    /// Overall average delay over *all* generated packets, counting each
    /// undelivered packet as `undelivered_as` (the paper's "O. Delay" in
    /// Table VII uses the experiment duration).
    pub fn overall_average_delay_secs(&self, undelivered_as: SimDuration) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        let undelivered = self.generated - self.delivered;
        let total: f64 = self.delays.iter().map(|&d| d as f64).sum::<f64>()
            + undelivered as f64 * undelivered_as.secs() as f64;
        total / self.generated as f64
    }

    /// Forwarding cost plus maintenance cost (the paper's "total cost").
    pub fn total_cost(&self) -> f64 {
        self.forwarding_ops as f64 + self.maintenance_ops
    }

    /// Five-number summary of delivery delays (min, q1, mean, q3, max), as
    /// plotted in Figs. 6(b) and 16(a). `None` when nothing was delivered.
    pub fn delay_summary(&self) -> Option<FiveNum> {
        FiveNum::of(&self.delays.iter().map(|&d| d as f64).collect::<Vec<_>>())
    }

    /// Checkpoint encoding (DESIGN.md §11): every field in declaration
    /// order. `maintenance_ops` travels as raw IEEE-754 bits so the
    /// accumulated float is restored bit-exactly.
    pub fn encode(&self, w: &mut Writer) {
        self.generated.encode(w);
        self.delivered.encode(w);
        self.expired.encode(w);
        self.delays.encode(w);
        self.forwarding_ops.encode(w);
        self.maintenance_ops.encode(w);
        self.lost_to_outage.encode(w);
        self.lost_to_churn.encode(w);
        self.retries.encode(w);
        self.recovery_secs.encode(w);
    }

    /// Inverse of [`RunMetrics::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<RunMetrics, SnapshotError> {
        Ok(RunMetrics {
            generated: Codec::decode(r)?,
            delivered: Codec::decode(r)?,
            expired: Codec::decode(r)?,
            delays: Codec::decode(r)?,
            forwarding_ops: Codec::decode(r)?,
            maintenance_ops: Codec::decode(r)?,
            lost_to_outage: Codec::decode(r)?,
            lost_to_churn: Codec::decode(r)?,
            retries: Codec::decode(r)?,
            recovery_secs: Codec::decode(r)?,
        })
    }

    /// Condense into a plain-old-data summary row.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            generated: self.generated,
            delivered: self.delivered,
            expired: self.expired,
            success_rate: self.success_rate(),
            average_delay_secs: self.average_delay_secs(),
            forwarding_ops: self.forwarding_ops,
            maintenance_ops: self.maintenance_ops,
            total_cost: self.total_cost(),
            lost_to_outage: self.lost_to_outage,
            lost_to_churn: self.lost_to_churn,
            retries: self.retries,
            average_recovery_secs: self.average_recovery_secs(),
        }
    }
}

/// Flat summary of a run, suitable for table rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSummary {
    pub generated: u64,
    pub delivered: u64,
    pub expired: u64,
    pub success_rate: f64,
    pub average_delay_secs: f64,
    pub forwarding_ops: u64,
    pub maintenance_ops: f64,
    pub total_cost: f64,
    pub lost_to_outage: u64,
    pub lost_to_churn: u64,
    pub retries: u64,
    pub average_recovery_secs: f64,
}

/// Minimum, first quartile, mean, third quartile and maximum of a sample —
/// the summary the paper plots for prediction accuracy and delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNum {
    pub min: f64,
    pub q1: f64,
    pub mean: f64,
    pub q3: f64,
    pub max: f64,
}

impl FiveNum {
    /// Compute the summary; `None` on an empty sample. NaN values are
    /// skipped (an all-NaN sample is treated as empty).
    pub fn of(sample: &[f64]) -> Option<FiveNum> {
        let mut s: Vec<f64> = sample.iter().copied().filter(|v| !v.is_nan()).collect();
        if s.is_empty() {
            return None;
        }
        s.sort_by(f64::total_cmp);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        Some(FiveNum {
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            mean,
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        })
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;

    #[test]
    fn success_rate_and_delay() {
        let mut m = RunMetrics {
            generated: 4,
            ..RunMetrics::default()
        };
        m.record_delivery(HOUR);
        m.record_delivery(HOUR.mul(3));
        m.record_expiry();
        assert!((m.success_rate() - 0.5).abs() < 1e-12);
        assert!((m.average_delay_secs() - 7_200.0).abs() < 1e-9);
        assert_eq!(m.expired, 1);
    }

    #[test]
    fn overall_delay_counts_failures() {
        let mut m = RunMetrics {
            generated: 2,
            ..RunMetrics::default()
        };
        m.record_delivery(HOUR);
        let o = m.overall_average_delay_secs(HOUR.mul(10));
        assert!((o - (3_600.0 + 36_000.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn costs_accumulate() {
        let mut m = RunMetrics::default();
        m.record_forward();
        m.record_forward();
        m.record_table_exchange(100);
        assert_eq!(m.forwarding_ops, 2);
        assert!((m.maintenance_ops - 2.0).abs() < 1e-12);
        assert!((m.total_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.success_rate(), 0.0);
        assert_eq!(m.average_delay_secs(), 0.0);
        assert!(m.delay_summary().is_none());
        assert_eq!(m.overall_average_delay_secs(HOUR), 0.0);
    }

    #[test]
    fn five_num_summary() {
        let f = FiveNum::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 5.0);
        assert!((f.mean - 3.0).abs() < 1e-12);
        assert!((f.q1 - 2.0).abs() < 1e-12);
        assert!((f.q3 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn five_num_skips_nan() {
        // NaN entries are ignored rather than panicking the percentile path.
        let f = FiveNum::of(&[f64::NAN, 4.0, 1.0, f64::NAN, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 5.0);
        assert!((f.mean - 3.0).abs() < 1e-12);
        assert!(FiveNum::of(&[f64::NAN, f64::NAN]).is_none());
        assert!(FiveNum::of(&[]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [0.0, 10.0];
        assert!((quantile_sorted(&s, 0.5) - 5.0).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        assert_eq!(quantile_sorted(&s, 0.0), 0.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
    }

    #[test]
    fn summary_row_matches_counters() {
        let mut m = RunMetrics {
            generated: 10,
            ..RunMetrics::default()
        };
        m.record_delivery(HOUR);
        m.record_forward();
        let s = m.summary();
        assert_eq!(s.generated, 10);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.forwarding_ops, 1);
        assert!((s.success_rate - 0.1).abs() < 1e-12);
    }
}
