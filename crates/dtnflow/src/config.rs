//! DTN-FLOW configuration: the base algorithm knobs plus the §IV-E
//! extension switches, all defaulting to the paper's settings.
//!
//! Only what an experiment or test varies is a field. The rest are
//! constants where they are used (DESIGN.md §6): the usable-link floor in
//! [`BandwidthMatrix::link_delay`](crate::bandwidth::BandwidthMatrix::link_delay),
//! and in the router the load-balancing factor `θ`, its overload floor
//! and detour bound, and the dead-end stay floor. Of the extensions'
//! factors only the dead-end `γ` is a field, because Table VI sweeps it.

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
    /// Dead-end prevention (§IV-E.1) with stay-time factor `γ`: a stay
    /// `γ×` longer than the node's average marks a dead end (the paper
    /// finds 2 best, Table VI). `None` is the paper's "ORG"
    /// configuration.
    pub dead_end: Option<f64>,
    /// Routing-loop detection and correction (§IV-E.2).
    pub loop_correction: bool,
    /// Load balancing via backup next hops (§IV-E.3).
    pub load_balance: bool,
    /// Deliberate loop injections for the Table VII experiment.
    pub inject_loops: Vec<LoopInjection>,
    /// Graceful degradation under injected faults (station outages and
    /// node churn, see `dtnflow_sim::faults`): staleness decay,
    /// down-landmark avoidance and stranded-packet retries. All three
    /// are pure functions of information the router already has, so they
    /// change nothing in a fault-free run until a vector actually goes
    /// stale or a station actually goes down.
    pub degradation: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            order_k: 1,
            delay_model: LinkDelayModel::TransitInterval,
            accuracy: AccuracyFactors::default(),
            mis_transit_tolerance: 0.0,
            dead_end: None,
            loop_correction: false,
            load_balance: false,
            inject_loops: Vec::new(),
            // Off by default: staleness decay perturbs routing tables
            // even in fault-free runs (vectors can go stale for benign
            // reasons), and the paper's baseline configuration has no
            // fault handling. Fault experiments switch it on.
            degradation: false,
        }
    }
}

impl FlowConfig {
    /// The paper's full configuration with every extension enabled
    /// (dead-end prevention at its best `γ = 2`).
    pub fn with_all_extensions() -> Self {
        FlowConfig {
            dead_end: Some(2.0),
            loop_correction: true,
            load_balance: true,
            degradation: true,
            ..FlowConfig::default()
        }
    }

    /// The default configuration with graceful degradation enabled, for
    /// fault-injected runs.
    pub fn with_degradation() -> Self {
        FlowConfig {
            degradation: true,
            ..FlowConfig::default()
        }
    }

    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.order_k >= 1, "order_k must be at least 1");
        if let Some(gamma) = self.dead_end {
            assert!(gamma >= 1.0, "gamma must be at least 1");
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
        assert!(!c.load_balance);
        c.validate();
    }

    #[test]
    fn all_extensions_config() {
        let c = FlowConfig::with_all_extensions();
        assert_eq!(c.dead_end, Some(2.0));
        assert!(c.loop_correction);
        assert!(c.load_balance);
        assert!(c.degradation);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_below_one() {
        let c = FlowConfig {
            dead_end: Some(0.5),
            ..FlowConfig::default()
        };
        c.validate();
    }
}
