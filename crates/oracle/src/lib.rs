//! Naive reference allocators for the fabric and the disk pool.
//!
//! The product engines (`harvest_net::Fabric`, `harvest_disk::DiskPool`)
//! are fast because they are incremental: component-scoped re-shares,
//! lazy per-flow progress, cancelled completion events, inverted
//! indexes, and the O(log n) `harvest_sim::FairShare` engine. Each of
//! those is a place a bug can hide, so this crate recomputes the same
//! allocations the slow, obvious way and shares none of that code:
//!
//! * [`fabric::OracleFabric`] — max-min progressive filling over *all*
//!   active flows on every event;
//! * [`pool::OraclePool`] — an equal split of every channel's
//!   secondary capacity on every event.
//!
//! Both advance every transfer's remaining bytes at every event and
//! re-predict every completion from scratch. They reuse only inputs
//! and outputs: `Topology` routes and capacities, `DiskConfig`'s
//! throttle and demand models, `SimTime`, and the engines' id and
//! completion types.
//!
//! # Event order
//!
//! Events at one instant run starts first (in schedule order), then
//! completions (lowest id first), each followed by a full recompute.
//! That is the product engines' order whenever every transfer is
//! scheduled before the engine is pumped past its start, which is how
//! the oracle tests drive them. Completions that share a millisecond
//! may still be reported in a different order, so schedules are
//! compared sorted by (time, tag).
//!
//! The crate is `publish = false`: tests and benches use it, the
//! simulator never does.

pub mod fabric;
pub mod pool;

pub use fabric::OracleFabric;
pub use pool::OraclePool;
