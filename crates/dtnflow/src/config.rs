//! DTN-FLOW configuration: the base algorithm knobs plus the §IV-E
//! extension switches, all defaulting to the paper's settings.

use dtnflow_core::ids::LandmarkId;

/// How a transit link's bandwidth maps to an expected per-hop delay
/// (§IV-C.2 leaves the constant factors open; both models are ∝ 1/B and
/// therefore rank paths identically — they differ in the absolute scale
/// used by TTL-feasibility checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDelayModel {
    /// `d = T / B`: the mean wait for the next transit on the link. The
    /// default: the honest single-packet latency estimate.
    TransitInterval,
    /// `d = T·S / (B·M)`: the throughput-based per-packet delay (each
    /// transit can move `M/S` packets).
    Throughput,
}

/// Dead-end prevention (§IV-E.1) parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeadEndConfig {
    /// Stay-time factor `γ`: a stay `γ×` longer than the node's average
    /// marks a dead end. The paper finds 2 best (Table VI).
    pub gamma: f64,
    /// Minimum recorded stays before detection activates (false-positive
    /// guard).
    pub min_stays: usize,
}

impl Default for DeadEndConfig {
    fn default() -> Self {
        DeadEndConfig {
            gamma: 2.0,
            min_stays: 10,
        }
    }
}

/// Load balancing (§IV-E.3) parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadBalanceConfig {
    /// A link is overloaded when its per-unit incoming packet rate exceeds
    /// `theta ×` its outgoing rate.
    pub theta: f64,
    /// Ignore links with fewer incoming packets than this per unit
    /// (overload needs actual pressure).
    pub min_incoming: u64,
    /// Only divert to the backup next hop when its delay is at most this
    /// factor of the primary's — offloading onto a far slower path costs
    /// more than the queueing it avoids.
    pub max_detour: f64,
}

impl Default for LoadBalanceConfig {
    fn default() -> Self {
        LoadBalanceConfig {
            theta: 2.0,
            min_incoming: 50,
            max_detour: 2.0,
        }
    }
}

/// Graceful-degradation parameters for fault-injected runs (station
/// outages and node churn — see `dtnflow_sim::faults`). All three
/// mechanisms (staleness decay, down-landmark avoidance, stranded-packet
/// retries) are pure functions of information the router already has,
/// so they change nothing in a fault-free run until a vector actually
/// goes stale or a station actually goes down.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradationConfig {
    /// Delay, in seconds, between a station recovering and its stranded
    /// packets being re-queued. The retry rides the engine timer queue
    /// as an ordinary timer event, so with `0` (the default) it fires at
    /// the recovery instant and with a positive delay it survives
    /// checkpoints like any other pending timer.
    pub retry_delay_secs: u64,
}

/// A deliberately injected routing loop (the Table VII experiment): at
/// time-unit `at_unit`, each member landmark's stored vector from the next
/// member (cyclically) is falsified to claim a near-zero delay to `dest`.
#[derive(Debug, Clone)]
pub struct LoopInjection {
    pub at_unit: u64,
    pub members: Vec<LandmarkId>,
    pub dest: LandmarkId,
}

/// Accuracy-tracker factors (§IV-D.4).
#[derive(Debug, Clone, Copy)]
pub struct AccuracyFactors {
    pub init: f64,
    pub up: f64,
    pub down: f64,
    pub floor: f64,
}

impl Default for AccuracyFactors {
    fn default() -> Self {
        AccuracyFactors {
            init: 0.5,
            up: 1.1,
            down: 0.8,
            floor: 0.05,
        }
    }
}

/// Complete DTN-FLOW configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Markov predictor order (the paper uses 1 after Fig. 6).
    pub order_k: usize,
    /// Bandwidth below which a transit link is not considered a usable
    /// neighbour link.
    pub min_bandwidth: f64,
    /// Link delay model.
    pub delay_model: LinkDelayModel,
    /// Carrier-ranking accuracy factors.
    pub accuracy: AccuracyFactors,
    /// Mis-transit handling slack (§IV-D.1): a carrier that landed at an
    /// unpredicted landmark `m` hands the packet over when
    /// `D_m(dst) < expected × (1 + tolerance)`. The paper's strict rule is
    /// tolerance 0; a positive slack lets near-equivalent landmarks take
    /// the packet back into the routed system instead of stranding it on
    /// a wandering carrier.
    pub mis_transit_tolerance: f64,
    /// Dead-end prevention; `None` = the paper's "ORG" configuration.
    pub dead_end: Option<DeadEndConfig>,
    /// Routing-loop detection and correction (§IV-E.2).
    pub loop_correction: bool,
    /// Load balancing via backup next hops; `None` disables.
    pub load_balance: Option<LoadBalanceConfig>,
    /// Deliberate loop injections for the Table VII experiment.
    pub inject_loops: Vec<LoopInjection>,
    /// Graceful degradation under injected faults; `None` disables
    /// staleness decay, down-landmark avoidance and stranded-packet
    /// retries.
    pub degradation: Option<DegradationConfig>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            order_k: 1,
            min_bandwidth: 0.05,
            delay_model: LinkDelayModel::TransitInterval,
            accuracy: AccuracyFactors::default(),
            mis_transit_tolerance: 0.0,
            dead_end: None,
            loop_correction: false,
            load_balance: None,
            inject_loops: Vec::new(),
            // Off by default: staleness decay perturbs routing tables
            // even in fault-free runs (vectors can go stale for benign
            // reasons), and the paper's baseline configuration has no
            // fault handling. Fault experiments switch it on.
            degradation: None,
        }
    }
}

impl FlowConfig {
    /// The paper's full configuration with every extension enabled.
    pub fn with_all_extensions() -> Self {
        FlowConfig {
            dead_end: Some(DeadEndConfig::default()),
            loop_correction: true,
            load_balance: Some(LoadBalanceConfig::default()),
            degradation: Some(DegradationConfig::default()),
            ..FlowConfig::default()
        }
    }

    /// The default configuration with graceful degradation enabled, for
    /// fault-injected runs.
    pub fn with_degradation() -> Self {
        FlowConfig {
            degradation: Some(DegradationConfig::default()),
            ..FlowConfig::default()
        }
    }

    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.order_k >= 1, "order_k must be at least 1");
        assert!(self.min_bandwidth >= 0.0);
        if let Some(d) = &self.dead_end {
            assert!(d.gamma >= 1.0, "gamma must be at least 1");
        }
        if let Some(l) = &self.load_balance {
            assert!(l.theta >= 1.0, "theta must be at least 1");
            assert!(l.max_detour >= 1.0, "max_detour must be at least 1");
        }
        assert!(
            self.mis_transit_tolerance >= 0.0,
            "mis-transit tolerance must be non-negative"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = FlowConfig::default();
        assert_eq!(c.order_k, 1);
        assert!(c.dead_end.is_none());
        assert!(!c.loop_correction);
        assert!(c.load_balance.is_none());
        c.validate();
    }

    #[test]
    fn all_extensions_config() {
        let c = FlowConfig::with_all_extensions();
        assert!(c.dead_end.is_some());
        assert!(c.loop_correction);
        assert!(c.load_balance.is_some());
        assert!((c.dead_end.unwrap().gamma - 2.0).abs() < 1e-12);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_below_one() {
        let c = FlowConfig {
            dead_end: Some(DeadEndConfig {
                gamma: 0.5,
                min_stays: 1,
            }),
            ..FlowConfig::default()
        };
        c.validate();
    }
}
