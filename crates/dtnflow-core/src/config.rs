//! Shared experiment configuration.
//!
//! Defaults mirror the paper's trace-driven experiment settings (§V-A.1):
//! 1 kB packets, 2000 kB node memory, packets generated at 500 per landmark
//! per day with uniformly random destination landmarks, and the first
//! quarter of the trace used as a routing-table warm-up.

use crate::time::{SimDuration, DAY};

/// Size of every packet in bytes: the paper's `S` (§IV-C.2), 1 kB in
/// every experiment it reports.
pub const PACKET_SIZE: u64 = 1_024;

/// Configuration for one simulation run. Construct with
/// [`SimConfig::default`] and adjust fields, or use the named-trace
/// constructors.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Memory of every mobile node in bytes (`M`). Default 2 048 000
    /// (2000 kB).
    pub node_memory: u64,
    /// Packet time-to-live. Default 20 days (the DART setting).
    pub ttl: SimDuration,
    /// The measurement/update time unit `T` (§IV-C.1). Default 3 days (the
    /// DART setting).
    pub time_unit: SimDuration,
    /// Packet generation rate per landmark per day. Default 500.
    pub packets_per_landmark_per_day: f64,
    /// Fraction of the trace used as warm-up before packets are generated.
    /// Default 0.25 ("the first 1/4 part of the two traces").
    pub warmup_fraction: f64,
    /// Stop generating packets this long before the trace ends, so every
    /// packet gets its full TTL window. Zero (the default) matches the
    /// comparative experiments, where the truncated tail affects all
    /// methods identically; the deployment experiment sets it to the TTL
    /// because its absolute success rate is the reported artifact.
    pub gen_tail_margin: SimDuration,
    /// Per-landmark radio budget in packets per time unit. `None` (the
    /// default) leaves transfers bounded only by memory, matching the
    /// paper's trace experiments; `Some(_)` activates the §IV-D.5
    /// uplink/downlink scheduler and its per-contact upload cap.
    pub radio_budget_per_unit: Option<u64>,
    /// Number of evenly spaced observation points at which routers may
    /// snapshot internal state (Fig. 8 uses 10). Default 0.
    pub observe_points: usize,
    /// Seed for the workload generator (packet times and destinations).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            node_memory: 2_000 * 1_024,
            ttl: DAY.mul(20),
            time_unit: DAY.mul(3),
            packets_per_landmark_per_day: 500.0,
            warmup_fraction: 0.25,
            gen_tail_margin: SimDuration::ZERO,
            radio_budget_per_unit: None,
            observe_points: 0,
            seed: 0xD7F1_0001,
        }
    }
}

impl SimConfig {
    /// The paper's DART (campus) experiment settings: TTL 20 days, time unit
    /// 3 days.
    pub fn dart() -> Self {
        SimConfig::default()
    }

    /// The paper's DNET (bus) experiment settings: TTL 4 days, time unit
    /// 0.5 days.
    pub fn dnet() -> Self {
        SimConfig {
            ttl: DAY.mul(4),
            time_unit: SimDuration::from_days(0.5),
            ..SimConfig::default()
        }
    }

    /// The campus deployment settings (§V-C): 1 kB packets, 50 kB node
    /// memory, TTL 3 days, time unit 12 h, 75 packets per landmark per day.
    pub fn deployment() -> Self {
        SimConfig {
            node_memory: 50 * 1_024,
            ttl: DAY.mul(3),
            time_unit: SimDuration::from_hours(12.0),
            packets_per_landmark_per_day: 75.0,
            ..SimConfig::default()
        }
    }

    /// How many whole packets fit in one node's memory (`M / S`).
    pub fn packets_per_node(&self) -> u64 {
        self.node_memory / PACKET_SIZE
    }

    /// Set the node memory in kB (the unit the paper sweeps in Figs. 11/12).
    pub fn with_memory_kb(mut self, kb: u64) -> Self {
        self.node_memory = kb * 1_024;
        self
    }

    /// Set the packet rate (the paper sweeps 100..=1000 in Figs. 13/14).
    pub fn with_packet_rate(mut self, rate: f64) -> Self {
        self.packets_per_landmark_per_day = rate;
        self
    }

    /// Set the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_memory < PACKET_SIZE {
            return Err("node_memory must hold at least one packet".into());
        }
        if self.time_unit == SimDuration::ZERO {
            return Err("time_unit must be positive".into());
        }
        if self.ttl == SimDuration::ZERO {
            return Err("ttl must be positive".into());
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err("warmup_fraction must be in [0, 1)".into());
        }
        if self.packets_per_landmark_per_day < 0.0 {
            return Err("packet rate must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.node_memory, 2_048_000);
        assert_eq!(c.ttl, DAY.mul(20));
        assert_eq!(c.time_unit, DAY.mul(3));
        assert_eq!(c.packets_per_node(), 2_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn dnet_settings() {
        let c = SimConfig::dnet();
        assert_eq!(c.ttl, DAY.mul(4));
        assert_eq!(c.time_unit, SimDuration::from_days(0.5));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn deployment_settings() {
        let c = SimConfig::deployment();
        assert_eq!(c.node_memory, 51_200);
        assert_eq!(c.packets_per_node(), 50);
        assert_eq!(c.ttl, DAY.mul(3));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_helpers() {
        let c = SimConfig::default()
            .with_memory_kb(1_200)
            .with_packet_rate(100.0)
            .with_seed(7);
        assert_eq!(c.node_memory, 1_228_800);
        assert_eq!(c.packets_per_landmark_per_day, 100.0);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = SimConfig {
            node_memory: 10,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            warmup_fraction: 1.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            time_unit: SimDuration::ZERO,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
