//! The primary-tenant-aware cluster scheduler (YARN-H / Tez-H).
//!
//! This crate implements both halves of the paper's compute-harvesting
//! design (§4.1, §5.3):
//!
//! * **Primary-tenant awareness** — node managers report the primary's
//!   rounded-up usage, keep a resource reserve free for bursts, and kill
//!   the *youngest* harvested containers when the reserve is violated;
//! * **Smart task scheduling** — a clustering service ([`classes`]) that
//!   groups tenants by utilization pattern (FFT + K-Means, daily), and
//!   Algorithm 1 ([`select`]) which picks the tenant *class* whose
//!   history predicts enough headroom for the job's expected length,
//!   using per-(job-type, pattern) ranking weights ([`headroom`]).
//!
//! Three scheduler variants mirror the paper's comparisons ([`policy`]):
//! `Stock` (primary-oblivious), `PrimaryAware` ("YARN-PT": reserve +
//! kills, no history), and `History` ("YARN-H/Tez-H": reserve + kills +
//! Algorithm 1).
//!
//! [`sim`] is the discrete-event co-location simulator that runs a
//! workload of DAG jobs against a [`harvest_cluster::Datacenter`] under
//! any of the three policies, producing per-job execution times, kill
//! counts, and utilization — the quantities behind Figures 10, 11, 13,
//! and 14. With a [`harvest_net::NetworkConfig`] the simulator also
//! carries inter-stage shuffles over the shared fabric, so stage
//! runtimes stretch under network contention. It has one tick path,
//! change-driven and backed by the indices in [`roster`]: a tick costs
//! O(changed + occupied) rather than O(fleet). Debug builds check every
//! tick against whole-fleet postconditions (see [`sim`]'s cost model).

pub mod classes;
pub mod headroom;
pub mod policy;
pub mod roster;
pub mod select;
pub mod sim;
pub mod stats;

pub use classes::{ClusteringService, TenantClass};
pub use policy::SchedPolicy;
pub use sim::{SchedSim, SchedSimConfig};
pub use stats::{JobResult, SimStats};
