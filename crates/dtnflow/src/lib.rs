//! The DTN-FLOW router (paper §IV).
//!
//! DTN-FLOW equips each subarea's landmark with a station that acts as a
//! router: it measures the transit-link bandwidth to its neighbours
//! (§IV-C.1), builds a distance-vector routing table shipped around by
//! mobile nodes (§IV-C.2), and forwards each packet to the connected node
//! most likely to transit to the packet's next-hop landmark (§IV-D).
//!
//! * [`bandwidth::BandwidthMatrix`] — Table III, Eq. 4;
//! * [`routing_table::RoutingTable`] — Tables IV/V, Fig. 7;
//! * [`config::FlowConfig`] — all knobs, including the §IV-E extensions;
//! * [`router::FlowRouter`] — the `dtnflow_sim::Router` implementation;
//! * [`observer`] — routing-table coverage/stability snapshots (Fig. 8);
//! * [`hybrid::HybridFlowRouter`] — the §VI future-work extension adding
//!   opportunistic node-to-node handoffs on top of DTN-FLOW.

#![forbid(unsafe_code)]
// Non-test code in this crate must not unwrap/expect (detlint P1);
// clippy enforces the same invariant at compile time.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bandwidth;
pub mod config;
pub mod hybrid;
pub mod observer;
pub mod router;
pub mod routing_table;

pub use bandwidth::BandwidthMatrix;
pub use config::{
    DeadEndConfig, DegradationConfig, FlowConfig, LinkDelayModel, LoadBalanceConfig, LoopInjection,
};
pub use hybrid::HybridFlowRouter;
pub use observer::ObservationRow;
pub use router::FlowRouter;
pub use routing_table::{RouteEntry, RoutingTable, StoredVector};
