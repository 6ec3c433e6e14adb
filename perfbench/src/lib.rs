//! Layered fig11 benchmark for the DTN-FLOW reproduction.
//!
//! [`adapter`] is the only module that calls the simulator; [`profile`]
//! does the span accounting; [`reference`] times a fixed kernel that
//! gives the host's speed; [`workloads`] defines the three workloads,
//! their checks and their metrics. See `README.md` beside
//! this package for the command and what each number means.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod profile;
pub mod reference;
pub mod workloads;
