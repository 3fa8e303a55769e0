//! Discrete-event simulation foundation for the `harvest` workspace.
//!
//! This crate provides the substrate every simulation in the workspace is
//! built on:
//!
//! * [`time`] — a millisecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) with exact integer arithmetic so event ordering is
//!   deterministic and reproducible;
//! * [`engine`] — a deterministic event queue ([`EventQueue`]) with
//!   FIFO tie-breaking for simultaneous events;
//! * [`dist`] — random distributions (exponential, Poisson, normal,
//!   log-normal, Pareto, weighted choice) implemented in-tree on top of
//!   [`rand`], since only the base `rand` crate is available offline;
//! * [`metrics`] — streaming statistics, exact percentile sets, and
//!   fixed-bin histograms used by the experiment harness;
//! * [`rng`] — seed-derivation helpers so independent simulation
//!   components get decorrelated, reproducible random streams;
//! * [`par`] — a deterministic, order-preserving `par_map` for
//!   embarrassingly-parallel experiment matrices (byte-identical output
//!   at any thread count);
//! * [`obs`] — zero-cost-when-off observability: a [`Recorder`] facade
//!   of counters, gauges, bounded quantile sketches, and sim-time
//!   spans, with Chrome-trace/Perfetto and machine-readable JSON
//!   exporters;
//! * [`fairshare`] — an analytic O(log n) max-min fair-sharing engine
//!   ([`FairShare`]) for single-bottleneck resources: a virtual
//!   fair-work clock plus a completion-ordered heap, used by
//!   `net::fabric` (classifier-gated) and `disk::pool` (wholesale);
//! * [`fault`] — deterministic fault injection: seed-stream-driven
//!   [`FaultPlan`]s (crashes, rack power loss, link flaps, disk
//!   brown-outs) plus retry/backoff knobs, with [`fault::FaultPlan::none`]
//!   guaranteeing the no-fault path stays bitwise identical;
//! * [`supervise`] — a supervised `par_map`: per-task panic isolation
//!   (`catch_unwind` + bounded jittered retries + quarantine), a
//!   watchdog with per-task deadlines and cooperative [`supervise::CancelToken`]
//!   cancellation, so one bad task never aborts a long sweep.
//!
//! # Examples
//!
//! ```
//! use harvest_sim::engine::EventQueue;
//! use harvest_sim::time::{SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_secs(10), "b");
//! queue.push(SimTime::ZERO + SimDuration::from_secs(5), "a");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t.as_secs(), 5);
//! ```

pub mod dist;
pub mod engine;
pub mod fairshare;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod rng;
pub mod supervise;
pub mod time;

pub use engine::{EventKey, EventQueue};
pub use fairshare::FairShare;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile};
pub use obs::Recorder;
pub use par::{default_jobs, par_map, par_map_profiled, par_map_with};
pub use time::{SimDuration, SimTime};
