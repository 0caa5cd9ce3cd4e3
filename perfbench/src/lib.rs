//! The co-simulation benchmark: four workloads run end to end, with
//! host time attributed per crate in a separate traced run. See
//! `README.md` for the workloads, the metrics and how to run it.

// The benchmark reads host time by design; the workspace lint that bans
// it guards simulation code.
#![allow(clippy::disallowed_methods)]

mod design;
mod farm;
mod layers;
mod metrics;
mod observe;
pub mod report;
mod stats;
pub mod workloads;
