//! The co-location-aware distributed block store (HDFS-H).
//!
//! Implements the storage half of the paper (§4.2, §5.4): a name-node /
//! data-node block store whose replica placement understands that primary
//! tenants (1) load-spike, making replicas temporarily unavailable, and
//! (2) reimage disks — sometimes many at once — destroying replicas.
//!
//! * [`grid`] — Algorithm 2's two-dimensional clustering: tenants split
//!   into 3×3 cells by (reimage frequency × peak CPU utilization), every
//!   cell holding the same amount of harvestable space (Figure 8);
//! * [`placement`] — the three placement policies: `Stock` (HDFS's
//!   local/rack/remote rule), `PrimaryAware` (stock rule that skips busy
//!   servers), and `History` (Algorithm 2 with row/column/environment
//!   constraints);
//! * [`store`] — the block store state: blocks, replicas, per-server
//!   space accounting;
//! * [`durability`] — the year-long reimage simulation behind Figure 15;
//!   with a [`harvest_net::NetworkConfig`] each re-replication is a real
//!   256 MB flow and blocks stay vulnerable until the transfer lands;
//! * [`availability`] — the access simulation behind Figure 16 (a block
//!   access fails when every replica sits on a busy server); with the
//!   fabric on, a busy local replica forces a paid remote read;
//! * [`repair`] — re-replication throttled at 30 blocks/hour/server with
//!   a heartbeat-loss detection delay (§5.1), and the one repair driver
//!   that replays a reimage schedule, injected faults and an optional
//!   stream cap through the pipeline, the fabric and the disks. The
//!   durability simulation runs it over generated months, and
//!   [`repair::simulate_reimage_storm`] over a tenant-wide mass reimage
//!   whose recovery is bandwidth-constrained by the shared fabric;
//! * [`quality`] — the production placement-quality monitor (§7, lesson
//!   3): diversity measurement and the space-vs-diversity tradeoff;
//! * [`heartbeat`] — the §7 lesson-2 scenario: synchronous heartbeat
//!   threads stall under primary I/O and trigger replication storms,
//!   asynchronous status reporting does not.

pub mod availability;
pub mod durability;
pub mod grid;
pub mod heartbeat;
pub mod placement;
pub mod quality;
pub mod repair;
pub mod store;

pub use grid::{Cell, Grid2D};
pub use placement::PlacementPolicy;
pub use store::{BlockId, BlockStore};
