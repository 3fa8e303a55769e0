//! A deterministic flow-level datacenter network fabric.
//!
//! The paper's worst behaviors are network behaviors: re-replication
//! storms after correlated reimages (§7, lesson 2), remote block reads
//! when the local replica sits on a busy primary (Figure 16), and
//! harvested shuffle traffic competing with everything else. This crate
//! gives the workspace the fabric those stories play out on:
//!
//! * [`config`] — [`NetworkConfig`]: NIC speed, rack-uplink
//!   oversubscription, per-hop latency;
//! * [`topology`] — [`Topology`]: the server-NIC / ToR / oversubscribed
//!   aggregation hierarchy, derived from a
//!   [`harvest_cluster::Datacenter`]'s own rack layout, with path lookup
//!   and idle-fabric transfer estimates;
//! * [`fabric`] — [`Fabric`]: event-driven flows with max-min fair
//!   bandwidth sharing; flow starts, completions, and re-share
//!   reschedules all run through a [`harvest_sim::engine::EventQueue`],
//!   so a fabric replay is bit-identical for identical inputs.
//!
//! Consumers: `harvest-dfs` turns throttled re-replication and remote
//! reads into flows; `harvest-sched` turns inter-stage shuffle bytes
//! into flows that gate dependent stages; `harvest-core` threads a
//! [`NetworkConfig`] through the experiment harness so every scenario
//! runs with the fabric on or off.
//!
//! # Examples
//!
//! ```
//! use harvest_cluster::Datacenter;
//! use harvest_net::{Fabric, NetworkConfig};
//! use harvest_sim::SimTime;
//! use harvest_trace::datacenter::DatacenterProfile;
//!
//! let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 42);
//! let mut fabric = Fabric::from_datacenter(&dc, &NetworkConfig::datacenter());
//! let src = dc.servers[0].id;
//! let dst = dc.servers.last().unwrap().id;
//! fabric.schedule_flow(SimTime::ZERO, src, dst, 256 * 1024 * 1024, 0);
//! let done = fabric.drain();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].at > SimTime::ZERO);
//! ```

pub mod config;
pub mod fabric;
pub mod topology;

pub use config::NetworkConfig;
pub use fabric::{Fabric, FabricStats, FlowCompletion, FlowId};
pub use topology::{LinkId, Path, Topology};
