//! Synthetic primary-tenant histories: utilization traces, disk-reimage
//! logs, and datacenter profiles.
//!
//! The paper characterizes ten production datacenters (DC-0 … DC-9) from
//! AutoPilot telemetry: CPU utilization sampled every two minutes (§3.2)
//! and three years of per-server disk-reimage records (§3.3). That data is
//! proprietary, so this crate generates synthetic equivalents tuned to
//! every distributional fact the paper reports:
//!
//! * three utilization patterns — *periodic* (diurnal user-facing
//!   services), *constant* (crawlers, scrubbers), *unpredictable*
//!   (development/testing) — with constant tenants the majority of
//!   tenants (Figure 2) but periodic tenants ≈ 40% of servers (Figure 3);
//! * per-tenant reimage rates with ≥ 90% of servers at ≤ 1 reimage/month
//!   and a heavy 10–20% tail (Figures 4–5), *correlated* mass-reimage
//!   events when tenants redeploy, and month-over-month rate drift that
//!   keeps tenants in the same relative frequency group (Figure 6);
//! * the linear and nth-root utilization scalings of §6.1 used to sweep
//!   average utilization in the simulations.
//!
//! Everything is deterministic given a seed.

pub mod datacenter;
pub mod gen;
pub mod reimage;
pub mod scaling;
pub mod timeseries;

pub use datacenter::{DatacenterProfile, TenantSpec};
pub use reimage::{ReimageEvent, ReimageKind};
pub use timeseries::TimeSeries;

/// Two-minute samples per day (the paper's AutoPilot sampling rate).
pub const SAMPLES_PER_DAY: usize = 720;

/// Days in the canonical characterization month.
pub(crate) const DAYS_PER_MONTH: usize = 30;

/// Two-minute samples in the canonical month.
pub const SAMPLES_PER_MONTH: usize = SAMPLES_PER_DAY * DAYS_PER_MONTH;

/// The sampling interval (two minutes), as a simulation duration.
pub const SAMPLE_INTERVAL: harvest_sim::SimDuration = harvest_sim::SimDuration::from_mins(2);
