//! End-to-end and per-layer benchmark of the utp workspace.
//!
//! Three workloads — `settle`, `confirm` and `fleet` — drive the
//! workspace's public API and check its outputs against figures the
//! benchmark computes itself. See `README.md` for the inputs, the
//! metrics and how they relate.

#![forbid(unsafe_code)]

pub mod confirm;
pub mod context;
pub mod fleet;
pub mod layers;
pub mod report;
pub mod settle;
pub mod stats;
pub mod world;

use std::time::Duration;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["settle", "confirm", "fleet"];

/// Runs one workload at its benchmark size.
///
/// # Errors
///
/// For an unknown workload, or when set-up cannot build its inputs.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Result<report::Outcome, String> {
    match workload {
        "settle" => settle::run(settle::SettleSize::STANDARD, seed, seconds, traced),
        "confirm" => confirm::run(confirm::ConfirmSize::STANDARD, seed, seconds, traced),
        "fleet" => fleet::run(fleet::FleetSize::STANDARD, seed, seconds, traced),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
