//! A deterministic shared-disk I/O model with primary-tenant contention.
//!
//! The network fabric (`harvest-net`) made the workspace pay for bytes
//! on the wire; this crate makes it pay for bytes on the platter. Each
//! server gets one disk with separate read and write channels, shared
//! between the primary tenant's I/O — derived from the utilization
//! playback through a configurable util→disk-bandwidth mapping per
//! tenant class — and the secondary streams the harvested systems
//! generate (re-replications, remote reads, shuffle spills).
//!
//! The paper's performance-isolation manager (§6) "throttles the
//! secondary tenants' disk activity when the primary tenant performs
//! substantial disk I/O". That policy is modeled as a pluggable
//! [`ThrottlePolicy`], because it is also the villain of §7's lesson 2:
//! the production DataNode's *synchronous* heartbeat thread queued
//! behind throttled disk streams, missed the name node's timeout, and
//! triggered a spurious replication storm. With this crate the incident
//! reproduces mechanistically (`harvest_dfs::heartbeat`) instead of
//! being scripted.
//!
//! * [`config`] — [`DiskConfig`]: channel bandwidths and seek latency;
//!   [`PrimaryIoModel`]: the per-tenant-class util→demand mapping;
//!   [`ThrottlePolicy`]: fair-share vs. the paper's isolation manager;
//! * [`pool`] — [`DiskPool`]: event-driven secondary streams with fair
//!   per-channel sharing (one O(log n) fair-share engine per occupied
//!   channel), completions through a
//!   [`harvest_sim::engine::EventQueue`], bit-identical replays.
//!
//! Consumers: `harvest-dfs` bounds repairs by the min of network,
//! source-disk-read, and dest-disk-write rates and prices remote reads'
//! disk service; `harvest-sched` gates shuffles on fetch reads and
//! spill writes; `harvest-service` adds a disk-interference term to the
//! p99 model; `harvest-core` threads a [`DiskConfig`] through the
//! experiment harness (`repro --disk`, composing with `--net`).
//!
//! # Examples
//!
//! ```
//! use harvest_cluster::ServerId;
//! use harvest_disk::{DiskConfig, DiskPool, IoDir};
//! use harvest_sim::SimTime;
//!
//! let mut pool = DiskPool::new(4, &DiskConfig::datacenter());
//! // The primary on disk 0 ramps up; the paper's isolation manager
//! // pauses the secondary read until it backs off.
//! pool.set_primary_util(SimTime::ZERO, ServerId(0), 0.9);
//! pool.schedule_stream(SimTime::ZERO, ServerId(0), IoDir::Read, 64_000_000, 1);
//! assert!(pool.pump(SimTime::from_secs(60)).is_empty());
//! pool.set_primary_util(SimTime::from_secs(60), ServerId(0), 0.1);
//! let done = pool.pump(SimTime::from_secs(120));
//! assert_eq!(done.len(), 1);
//! ```

pub mod config;
pub mod pool;

pub use config::{DiskConfig, PrimaryIoModel, ThrottlePolicy, MIN_SERVE_FRACTION};
pub use pool::{DiskPool, DiskStats, IoDir, StreamCompletion, StreamId};
