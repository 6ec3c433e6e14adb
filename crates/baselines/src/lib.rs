//! Baseline DTN routers (paper §V-A.1).
//!
//! The paper compares DTN-FLOW against five state-of-the-art algorithms,
//! each "adapted to fit landmark-to-landmark routing": packets are born in
//! a subarea, carried and exchanged by mobile nodes only (no landmark
//! stations), and delivered the moment a carrier reaches the destination
//! landmark. All five share the carry-and-compare structure — when two
//! nodes meet, a packet moves to the neighbour whose *utility* for the
//! packet's destination landmark is higher — and differ only in the
//! utility:
//!
//! * [`prophet::Prophet`] — aged encounter probability (probabilistic);
//! * [`simbet::SimBet`] — centrality + similarity (social);
//! * [`pgr::Pgr`] — predicted future route membership (location);
//! * [`geocomm::GeoComm`] — per-unit-time contact probability (location);
//! * [`per::Per`] — semi-Markov probability of reaching the destination
//!   before the packet's deadline (location);
//! * [`direct::Direct`] — no relaying at all (a floor reference).
//!
//! The shared machinery lives in [`common::UtilityRouter`].

#![forbid(unsafe_code)]

pub mod common;
pub mod direct;
pub mod geocomm;
pub mod per;
pub mod pgr;
pub mod prophet;
pub mod simbet;

pub use common::{UtilityModel, UtilityRouter};
pub use direct::Direct;
pub use geocomm::GeoComm;
pub use per::Per;
pub use pgr::Pgr;
pub use prophet::Prophet;
pub use simbet::SimBet;
