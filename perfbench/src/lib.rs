//! Closed-loop end-to-end benchmark of the iterated spatial join, with a
//! traced run that attributes time to layers. See `README.md` in this
//! package for the workloads, metrics and commands.

pub mod host;
pub mod metrics;
pub mod trace;
pub mod workloads;
