//! Deterministic fault injection: seeded plans of station outages, node
//! churn, contact truncation and trace-record loss.
//!
//! The paper's evaluation (§V) assumes permanently-up landmark stations,
//! complete contacts and clean traces, while §IV-B notes the real traces
//! are full of missing records. This module generates a [`FaultPlan`] —
//! a concrete, fully materialized schedule of faults — from a
//! [`FaultConfig`] of rates, using only the seeded RNG streams from
//! [`dtnflow_core::rngutil`], so a (seed, config, trace) triple always
//! yields the same plan and therefore the same simulation outcome.
//!
//! The engine interprets the plan attached with [`crate::RunSpec::faults`]:
//!
//! * **Station outages** — while a station is down it buffers nothing:
//!   uplinks/downlinks are refused with
//!   [`crate::TransferError::StationDown`], and packets generated in its
//!   subarea are lost (`lost_to_outage`). Packets already stored stay
//!   stranded until the station recovers.
//! * **Node churn** — a failing node drops off the network immediately;
//!   every packet it carried is destroyed (`lost_to_churn`). It rejoins
//!   at its first trace arrival after recovery.
//! * **Contact truncation** — a truncated visit ends after a random
//!   fraction of its dwell time, cutting short whatever transfers would
//!   have happened in the remainder.
//! * **Record loss** — the visit happens physically, but its record never
//!   reaches the learning layer: routers see
//!   [`crate::World::visit_recorded`] `== false` and must skip predictor
//!   and history updates for it.

use dtnflow_core::ids::{LandmarkId, NodeId};
use dtnflow_core::rngutil::{exponential, rng_for};
use dtnflow_core::time::SimTime;
use dtnflow_mobility::Trace;
use rand::Rng;

/// Fault rates; all zero (the default) means "no faults".
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Fraction of time each station spends down, in `[0, 1)`.
    pub station_outage_duty: f64,
    /// Mean length of a single station outage, seconds.
    pub mean_outage_secs: f64,
    /// Expected failures per node per day of trace time.
    pub node_failures_per_day: f64,
    /// Mean node downtime after a failure, seconds.
    pub mean_node_downtime_secs: f64,
    /// Probability that a visit's contact is cut short.
    pub contact_truncation_rate: f64,
    /// Probability that a visit record never reaches the learning layer.
    pub record_loss_rate: f64,
    /// Seed for the fault streams (independent of the simulation seed so
    /// the same workload can be stressed by different fault draws).
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            station_outage_duty: 0.0,
            mean_outage_secs: 6.0 * 3_600.0,
            node_failures_per_day: 0.0,
            mean_node_downtime_secs: 12.0 * 3_600.0,
            contact_truncation_rate: 0.0,
            record_loss_rate: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Validate rates and means; call before [`FaultPlan::generate`].
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.station_outage_duty) {
            return Err(format!(
                "station_outage_duty must be in [0,1), got {}",
                self.station_outage_duty
            ));
        }
        for (name, v) in [
            ("contact_truncation_rate", self.contact_truncation_rate),
            ("record_loss_rate", self.record_loss_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        if self.node_failures_per_day < 0.0 || !self.node_failures_per_day.is_finite() {
            return Err(format!(
                "node_failures_per_day must be finite and >= 0, got {}",
                self.node_failures_per_day
            ));
        }
        if self.station_outage_duty > 0.0 && self.mean_outage_secs < 1.0 {
            return Err("mean_outage_secs must be >= 1 when outages are enabled".into());
        }
        if self.node_failures_per_day > 0.0 && self.mean_node_downtime_secs < 1.0 {
            return Err("mean_node_downtime_secs must be >= 1 when churn is enabled".into());
        }
        Ok(())
    }
}

/// One station down-interval: down at `down`, back at `up` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationOutage {
    pub lm: LandmarkId,
    pub down: SimTime,
    pub up: SimTime,
}

/// One node churn interval: off-network from `fail` until `recover`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    pub node: NodeId,
    pub fail: SimTime,
    pub recover: SimTime,
}

/// A fully materialized, deterministic schedule of faults for one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Station down-intervals; non-overlapping per station, ascending.
    pub station_outages: Vec<StationOutage>,
    /// Node churn intervals; non-overlapping per node, ascending.
    pub node_outages: Vec<NodeOutage>,
    /// `(visit index, fraction of the dwell kept)` for truncated visits.
    pub truncations: Vec<(u32, f64)>,
    /// Visit indices whose records are dropped before the learning layer.
    pub lost_records: Vec<u32>,
}

impl FaultPlan {
    /// The empty plan: running with it is identical to running without
    /// faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.station_outages.is_empty()
            && self.node_outages.is_empty()
            && self.truncations.is_empty()
            && self.lost_records.is_empty()
    }

    /// Draw a concrete plan for `trace` from seeded streams. Same
    /// `(cfg, trace)` → same plan, always. Panics if `cfg` fails
    /// [`FaultConfig::validate`].
    ///
    /// Each subsystem uses its own `rng_for` stream (per-station,
    /// per-node, per-visit-scan), so enabling one fault class never
    /// shifts the draws of another.
    pub fn generate(cfg: &FaultConfig, trace: &Trace) -> Self {
        if let Err(e) = cfg.validate() {
            // detlint: allow(P1, reason = "documented contract: generate() requires a validated config")
            panic!("invalid fault config: {e}");
        }
        let horizon = trace.duration().secs();
        let mut plan = FaultPlan::default();

        if cfg.station_outage_duty > 0.0 {
            // Alternating up/down renewal process per station: mean up
            // time chosen so down-time fraction equals the duty cycle.
            let up_mean =
                cfg.mean_outage_secs * (1.0 - cfg.station_outage_duty) / cfg.station_outage_duty;
            for i in 0..trace.num_landmarks() {
                let mut rng = rng_for(cfg.seed, &format!("faults/station/{i}"));
                let mut t = 0.0f64;
                loop {
                    t += exponential(&mut rng, up_mean).max(1.0);
                    let down = t as u64;
                    t += exponential(&mut rng, cfg.mean_outage_secs).max(1.0);
                    let up = (t as u64).max(down + 1);
                    if down >= horizon {
                        break;
                    }
                    plan.station_outages.push(StationOutage {
                        lm: LandmarkId::from(i),
                        down: SimTime(down),
                        up: SimTime(up.min(horizon)),
                    });
                }
            }
        }

        if cfg.node_failures_per_day > 0.0 {
            let between_mean = 86_400.0 / cfg.node_failures_per_day;
            for i in 0..trace.num_nodes() {
                let mut rng = rng_for(cfg.seed, &format!("faults/node/{i}"));
                let mut t = 0.0f64;
                loop {
                    t += exponential(&mut rng, between_mean).max(1.0);
                    let fail = t as u64;
                    t += exponential(&mut rng, cfg.mean_node_downtime_secs).max(1.0);
                    let recover = (t as u64).max(fail + 1);
                    if fail >= horizon {
                        break;
                    }
                    plan.node_outages.push(NodeOutage {
                        node: NodeId::from(i),
                        fail: SimTime(fail),
                        recover: SimTime(recover.min(horizon)),
                    });
                }
            }
        }

        if cfg.contact_truncation_rate > 0.0 {
            let mut rng = rng_for(cfg.seed, "faults/truncate");
            for (idx, _) in trace.visits().iter().enumerate() {
                // Draw the fraction unconditionally so which visits are
                // truncated is independent of the rate's exact value
                // ordering across other visits.
                let hit = rng.random_bool(cfg.contact_truncation_rate);
                let frac: f64 = rng.random();
                if hit {
                    plan.truncations.push((idx as u32, frac));
                }
            }
        }

        if cfg.record_loss_rate > 0.0 {
            let mut rng = rng_for(cfg.seed, "faults/records");
            for (idx, _) in trace.visits().iter().enumerate() {
                if rng.random_bool(cfg.record_loss_rate) {
                    plan.lost_records.push(idx as u32);
                }
            }
        }

        plan
    }

    /// Panic if the plan references visits the trace does not have (a
    /// plan generated for a different trace).
    pub(crate) fn check_against(&self, trace: &Trace) {
        let n = trace.visits().len() as u32;
        let in_range = |idx: u32| idx < n;
        assert!(
            self.truncations.iter().all(|&(i, _)| in_range(i))
                && self.lost_records.iter().all(|&i| in_range(i)),
            "fault plan references visit indices beyond the trace"
        );
        assert!(
            self.truncations
                .iter()
                .all(|&(_, f)| (0.0..=1.0).contains(&f)),
            "truncation fractions must be in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtnflow_mobility::Visit;

    fn trace() -> Trace {
        let mut visits = Vec::new();
        for d in 0..30u64 {
            for n in 0..5u32 {
                visits.push(Visit::new(
                    NodeId(n),
                    LandmarkId((n % 3) as u16),
                    SimTime(d * 86_400 + n as u64 * 1_000),
                    SimTime(d * 86_400 + n as u64 * 1_000 + 600),
                ));
            }
        }
        Trace::new(
            "faulty",
            5,
            3,
            vec![
                dtnflow_core::geometry::Point::new(0.0, 0.0),
                dtnflow_core::geometry::Point::new(1.0, 0.0),
                dtnflow_core::geometry::Point::new(0.0, 1.0),
            ],
            visits,
        )
        .unwrap()
    }

    fn full_cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            station_outage_duty: 0.2,
            mean_outage_secs: 4.0 * 3_600.0,
            node_failures_per_day: 0.5,
            mean_node_downtime_secs: 3_600.0,
            contact_truncation_rate: 0.3,
            record_loss_rate: 0.2,
            seed,
        }
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let plan = FaultPlan::generate(&FaultConfig::default(), &trace());
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn same_seed_same_plan_different_seed_differs() {
        let t = trace();
        let a = FaultPlan::generate(&full_cfg(7), &t);
        let b = FaultPlan::generate(&full_cfg(7), &t);
        let c = FaultPlan::generate(&full_cfg(8), &t);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn outage_intervals_are_ordered_and_disjoint_per_station() {
        let t = trace();
        let plan = FaultPlan::generate(&full_cfg(3), &t);
        assert!(!plan.station_outages.is_empty());
        for lm in 0..t.num_landmarks() {
            let mine: Vec<_> = plan
                .station_outages
                .iter()
                .filter(|o| o.lm.index() == lm)
                .collect();
            for o in &mine {
                assert!(o.down < o.up);
                assert!(o.down.secs() < t.duration().secs());
            }
            for w in mine.windows(2) {
                assert!(w[0].up <= w[1].down, "overlapping outages");
            }
        }
    }

    #[test]
    fn outage_duty_cycle_is_roughly_honored() {
        // Long synthetic horizon so the renewal process converges.
        let visits = vec![Visit::new(
            NodeId(0),
            LandmarkId(0),
            SimTime(0),
            SimTime(365 * 86_400),
        )];
        let t = Trace::new(
            "long",
            1,
            1,
            vec![dtnflow_core::geometry::Point::new(0.0, 0.0)],
            visits,
        )
        .unwrap();
        let cfg = FaultConfig {
            station_outage_duty: 0.2,
            mean_outage_secs: 6.0 * 3_600.0,
            seed: 11,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &t);
        let down: u64 = plan
            .station_outages
            .iter()
            .map(|o| o.up.secs() - o.down.secs())
            .sum();
        let duty = down as f64 / (365.0 * 86_400.0);
        assert!((duty - 0.2).abs() < 0.06, "observed duty {duty}");
    }

    #[test]
    fn churn_and_visit_faults_reference_valid_targets() {
        let t = trace();
        let plan = FaultPlan::generate(&full_cfg(5), &t);
        plan.check_against(&t);
        assert!(plan
            .node_outages
            .iter()
            .all(|o| o.fail < o.recover && (o.node.index()) < t.num_nodes()));
        assert!(!plan.truncations.is_empty());
        assert!(!plan.lost_records.is_empty());
        // Roughly the configured fraction of visits is affected.
        let n = t.visits().len() as f64;
        let trunc_rate = plan.truncations.len() as f64 / n;
        assert!((trunc_rate - 0.3).abs() < 0.15, "trunc rate {trunc_rate}");
    }

    #[test]
    #[should_panic(expected = "station_outage_duty")]
    fn validate_rejects_full_duty() {
        let cfg = FaultConfig {
            station_outage_duty: 1.0,
            ..FaultConfig::default()
        };
        FaultPlan::generate(&cfg, &trace());
    }

    #[test]
    #[should_panic(expected = "beyond the trace")]
    fn check_against_rejects_foreign_plan() {
        let mut plan = FaultPlan::none();
        plan.lost_records.push(10_000);
        plan.check_against(&trace());
    }
}
