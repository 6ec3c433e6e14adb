//! # dtn-flow
//!
//! A reproduction of **“DTN-FLOW: Inter-Landmark Data Flow for
//! High-Throughput Routing in DTNs”** (Chen & Shen, IEEE IPDPS 2013 /
//! IEEE/ACM ToN 2015) as a Rust workspace: the DTN-FLOW router, the
//! trace-driven delay-tolerant-network simulator it runs on, synthetic
//! substitutes for the paper's DART/DNET traces, the five baseline
//! routers it is compared against, and a harness regenerating every table
//! and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use dtn_flow::prelude::*;
//!
//! // A small synthetic campus trace (students moving among buildings).
//! let trace = CampusModel::new(CampusConfig::tiny()).generate();
//!
//! // Simulate DTN-FLOW routing a light packet workload over it.
//! let cfg = SimConfig {
//!     packets_per_landmark_per_day: 20.0,
//!     ..SimConfig::dart()
//! };
//! let mut router = FlowRouter::new(
//!     FlowConfig::default(),
//!     trace.num_nodes(),
//!     trace.num_landmarks(),
//! );
//! let outcome = RunSpec::new(&trace, &cfg).run(&mut router);
//!
//! assert!(outcome.metrics.generated > 0);
//! println!(
//!     "success rate {:.2}, average delay {:.0} min",
//!     outcome.metrics.success_rate(),
//!     outcome.metrics.average_delay_secs() / 60.0
//! );
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | ids, time, packets, config, metrics, geometry |
//! | [`mobility`] | traces, preprocessing, statistics, synthetic generators |
//! | [`predictor`] | order-k Markov transit predictor (§IV-B) |
//! | [`landmark`] | landmark selection + Voronoi subarea division (§IV-A) |
//! | [`sim`] | the trace-driven discrete-event simulator |
//! | [`obs`] | event tracing, counters, delay histograms, snapshots |
//! | [`router`] | the DTN-FLOW router with all §IV-E extensions |
//! | [`baselines`] | SimBet, PROPHET, PGR, GeoComm, PER |

#![forbid(unsafe_code)]

pub use dtnflow_baselines as baselines;
pub use dtnflow_core as core;
pub use dtnflow_landmark as landmark;
pub use dtnflow_mobility as mobility;
pub use dtnflow_obs as obs;
pub use dtnflow_predictor as predictor;
pub use dtnflow_router as router;
pub use dtnflow_sim as sim;

/// The names most programs need, in one import.
pub mod prelude {
    pub use dtnflow_baselines::{
        Direct, GeoComm, Per, Pgr, Prophet, SimBet, UtilityModel, UtilityRouter,
    };
    pub use dtnflow_core::config::SimConfig;
    pub use dtnflow_core::ids::{LandmarkId, NodeId, PacketId};
    pub use dtnflow_core::metrics::{FiveNum, MetricsSummary, RunMetrics};
    pub use dtnflow_core::packet::{Packet, PacketLoc};
    pub use dtnflow_core::time::{SimDuration, SimTime, DAY, HOUR, MINUTE};
    pub use dtnflow_landmark::{select_landmarks, PlaceStat, SelectionConfig, SubareaDivision};
    pub use dtnflow_mobility::synth::bus::{BusConfig, BusModel};
    pub use dtnflow_mobility::synth::campus::{CampusConfig, CampusModel};
    pub use dtnflow_mobility::synth::deployment::{DeploymentConfig, DeploymentModel};
    pub use dtnflow_mobility::{Trace, Visit};
    pub use dtnflow_obs::{NoopSink, Recorder, SimEvent, Snapshot, TraceSink};
    pub use dtnflow_predictor::{AccuracyTracker, MarkovPredictor, VisitHistory};
    pub use dtnflow_router::{FlowConfig, FlowRouter, HybridFlowRouter, LinkDelayModel};
    pub use dtnflow_sim::{
        FaultConfig, FaultPlan, LossReason, NodeOutage, Router, RunSpec, SimOutcome, StationOutage,
        Workload, World, WorldError,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = SimConfig::default();
        assert_eq!(cfg.packets_per_node(), 2_000);
        let _ = FlowConfig::default();
    }
}
