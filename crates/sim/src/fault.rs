//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a sorted list of [`FaultEvent`]s — server crashes
//! and restarts, whole-rack power loss, rack-uplink outages, disk
//! failures and slow-downs — plus the defensive-machinery knobs the
//! consuming engines honor: bounded retries with exponential backoff and
//! jitter ([`BackoffConfig`]), and optional in-flight repair shedding.
//! Plans are either scheduled by hand ([`FaultPlan::with_events`]) or
//! drawn deterministically from a named [`FaultProfile`] and a seed
//! stream, so the same `(profile, seed, cluster shape)` triple always
//! produces the same storm — the workspace's bit-identical-replay
//! guarantee extends to its failures.
//!
//! The plan itself is pure data: each engine (`harvest-dfs` durability
//! and availability, `harvest-sched`'s simulator, and through them the
//! `harvest-net` fabric and `harvest-disk` pool) merges the events into
//! its own deterministic event loop and implements the reaction —
//! detection, abort, retry, degradation. [`FaultPlan::none`] is the
//! universal off switch: every consumer treats an empty plan as "this
//! machinery does not exist" and stays bitwise identical to its
//! pre-fault behavior (pinned by oracle tests).
//!
//! # Cost model
//!
//! Injection is O(log n) per fault: events are pre-expanded (a rack
//! power loss becomes one crash per server) and pushed through the same
//! priority queues the engines already run, so a plan of `k` events
//! costs `k` heap pushes up front and nothing per simulated tick.
//! Detection is heartbeat-driven, not a fleet scan: a crash schedules
//! one declare-dead event at `crash + detection delay` (cancelled by an
//! earlier restart), so the fleet is never swept looking for dead
//! servers. Abort costs mirror completion costs — an aborted flow or
//! stream pays exactly the bookkeeping its completion would have paid,
//! plus one re-share of its component. With an empty plan every fault
//! branch is behind an `is_none()` check and the hot loops are
//! untouched.

use crate::rng::{splitmix64, stream_rng};
use crate::time::{SimDuration, SimTime};
use rand::RngExt;

/// The cluster geometry a profile needs to draw a plan: how many
/// servers, and how they fill racks. Matches `harvest-cluster`'s layout
/// convention — servers are assigned to racks contiguously in id order,
/// `rack = server / rack_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// Total servers.
    pub n_servers: usize,
    /// Servers per rack (the last rack may be partial).
    pub rack_size: usize,
}

impl ClusterShape {
    /// Number of racks (the last may be partially filled).
    pub(crate) fn n_racks(&self) -> usize {
        self.n_servers.div_ceil(self.rack_size.max(1))
    }

    /// The server-id range of one rack.
    pub(crate) fn rack_servers(&self, rack: u32) -> std::ops::Range<u32> {
        let lo = (rack as usize * self.rack_size).min(self.n_servers);
        let hi = (lo + self.rack_size).min(self.n_servers);
        lo as u32..hi as u32
    }
}

/// One kind of injected fault. Rack-level kinds are expanded by the
/// consuming engine using the contiguous rack layout ([`ClusterShape`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A server crashes: its containers die, its replicas go dark, and
    /// after the detection timeout it is declared dead.
    ServerCrash { server: u32 },
    /// A crashed server comes back (empty — its disk contents were
    /// declared lost if the detection timeout elapsed).
    ServerRestart { server: u32 },
    /// Every server in the rack crashes at once.
    RackPowerLoss { rack: u32 },
    /// Every server in the rack restarts at once.
    RackPowerRestore { rack: u32 },
    /// The rack's uplink (both directions) goes dark: flows crossing it
    /// abort, and new transfers cannot route through it.
    RackUplinkDown { rack: u32 },
    /// The rack's uplink comes back.
    RackUplinkUp { rack: u32 },
    /// A server's disk dies outright: its replicas are lost immediately
    /// (no detection delay — the DataNode reports the I/O errors) and
    /// in-flight streams on it abort. The server itself stays up.
    DiskFail { server: u32 },
    /// A server's disk browns out: its secondary (harvest) bandwidth is
    /// multiplied by `factor` in `(0, 1]` until a later event resets it.
    DiskDegrade { server: u32, factor: f64 },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Exponential backoff with deterministic jitter for fault-driven
/// retries. Attempt `k` (1-based) waits `base * 2^(k-1)` capped at
/// `cap`, plus a jitter in `[0, delay/2]` drawn by hashing
/// `(seed, entity, attempt)` — no RNG state, so retries never perturb
/// the simulation's shared random streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// First-retry delay.
    pub base: SimDuration,
    /// Upper bound on the un-jittered delay.
    pub cap: SimDuration,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: SimDuration::from_secs(30),
            cap: SimDuration::from_mins(30),
        }
    }
}

impl BackoffConfig {
    /// The delay before retry number `attempt` (1-based) of `entity`.
    pub fn delay(&self, seed: u64, entity: u64, attempt: u32) -> SimDuration {
        let shift = (attempt.saturating_sub(1)).min(20);
        let raw = self.base.as_millis().saturating_mul(1u64 << shift);
        let capped = raw.min(self.cap.as_millis()).max(1);
        let h = splitmix64(seed ^ splitmix64(entity) ^ ((attempt as u64) << 40));
        let jitter = h % (capped / 2 + 1);
        SimDuration::from_millis(capped + jitter)
    }
}

/// A deterministic fault schedule plus the reaction knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The injected faults, sorted by time (stable, so same-instant
    /// events keep their construction order).
    pub events: Vec<FaultEvent>,
    /// Bounded-retry ceiling: a repair or stage aborted by faults more
    /// than this many times is abandoned (permanent-loss accounting).
    pub max_retries: u32,
    /// Retry pacing.
    pub backoff: BackoffConfig,
    /// Graceful degradation under storm: when set, a durability repair
    /// slot that releases while at least this many repairs are already
    /// in transfer is shed (re-queued) instead of started.
    pub shed_inflight_above: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, and every consumer's fault machinery
    /// switched off (bitwise identical to a build without it).
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            max_retries: 4,
            backoff: BackoffConfig::default(),
            shed_inflight_above: None,
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// A plan over the given events (sorted by time, stable).
    pub fn with_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan {
            events,
            ..FaultPlan::none()
        }
    }
}

/// Named fault profiles `repro --faults PROFILE` exposes. Each draws a
/// deterministic [`FaultPlan`] from a seed and the cluster shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// One rack loses power mid-run and comes back two hours later with
    /// its replacement disks degraded to 70% — the correlated-failure
    /// scenario that breaks per-server durability math.
    RackLoss,
    /// A rack uplink flaps several times: short outages that abort
    /// in-flight transfers without losing any data.
    LinkFlap,
    /// Scattered disk brown-outs (30–80% of nominal bandwidth) plus a
    /// few outright disk failures across the run.
    DiskRot,
    /// Everything at once, clustered in a one-hour window: a rack power
    /// loss, uplink flaps on two more racks, degraded disks, and a
    /// handful of independent server crashes.
    CorrelatedStorm,
}

impl FaultProfile {
    /// Every profile, in `--help` order.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::RackLoss,
        FaultProfile::LinkFlap,
        FaultProfile::DiskRot,
        FaultProfile::CorrelatedStorm,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::RackLoss => "rack-loss",
            FaultProfile::LinkFlap => "link-flap",
            FaultProfile::DiskRot => "disk-rot",
            FaultProfile::CorrelatedStorm => "correlated-storm",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Draws this profile's plan for a cluster of `shape` over
    /// `horizon`. Deterministic in `(self, seed, shape, horizon)`; the
    /// RNG is a dedicated `"fault"` stream, so arming a profile never
    /// perturbs any other random stream in the run.
    pub fn plan(self, seed: u64, shape: ClusterShape, horizon: SimDuration) -> FaultPlan {
        let mut rng = stream_rng(seed, "fault");
        let n_racks = shape.n_racks() as u32;
        let h = horizon.as_millis().max(1);
        // A time at `frac` of the horizon, jittered within `spread` of it.
        let at = |rng: &mut rand::rngs::StdRng, frac: f64, spread: f64| -> SimTime {
            let base = (h as f64 * frac) as u64;
            let wobble = (h as f64 * spread) as u64;
            let off = if wobble == 0 {
                0
            } else {
                rng.random_range(0..wobble)
            };
            SimTime::from_millis(base + off)
        };
        let mut events = Vec::new();
        match self {
            FaultProfile::RackLoss => {
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                let t = at(&mut rng, 0.10, 0.10);
                let back = t + SimDuration::from_hours(2);
                events.push(FaultEvent {
                    at: t,
                    kind: FaultKind::RackPowerLoss { rack },
                });
                events.push(FaultEvent {
                    at: back,
                    kind: FaultKind::RackPowerRestore { rack },
                });
                // The replacement fleet comes back with degraded disks.
                for server in shape.rack_servers(rack) {
                    events.push(FaultEvent {
                        at: back,
                        kind: FaultKind::DiskDegrade {
                            server,
                            factor: 0.7,
                        },
                    });
                }
            }
            FaultProfile::LinkFlap => {
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                for flap in 0..4u64 {
                    let t = at(&mut rng, 0.1 + 0.2 * flap as f64, 0.05);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::RackUplinkDown { rack },
                    });
                    events.push(FaultEvent {
                        at: t + SimDuration::from_mins(5),
                        kind: FaultKind::RackUplinkUp { rack },
                    });
                }
            }
            FaultProfile::DiskRot => {
                let degraded = (shape.n_servers / 100).max(2);
                for _ in 0..degraded {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let factor = 0.3 + rng.random_range(0..=50) as f64 / 100.0;
                    let t = at(&mut rng, 0.05, 0.85);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::DiskDegrade { server, factor },
                    });
                }
                let failed = (degraded / 4).max(1);
                for _ in 0..failed {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let t = at(&mut rng, 0.05, 0.85);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::DiskFail { server },
                    });
                }
            }
            FaultProfile::CorrelatedStorm => {
                let t0 = at(&mut rng, 0.20, 0.10);
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                events.push(FaultEvent {
                    at: t0,
                    kind: FaultKind::RackPowerLoss { rack },
                });
                events.push(FaultEvent {
                    at: t0 + SimDuration::from_hours(2),
                    kind: FaultKind::RackPowerRestore { rack },
                });
                for k in 1..=2u32 {
                    let flapping = (rack + k) % n_racks.max(1);
                    let t = t0 + SimDuration::from_mins(10 * k as u64);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::RackUplinkDown { rack: flapping },
                    });
                    events.push(FaultEvent {
                        at: t + SimDuration::from_mins(15),
                        kind: FaultKind::RackUplinkUp { rack: flapping },
                    });
                }
                let degraded = (shape.n_servers / 50).max(2);
                for _ in 0..degraded {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let off = rng.random_range(0..3_600_000u64);
                    events.push(FaultEvent {
                        at: t0 + SimDuration::from_millis(off),
                        kind: FaultKind::DiskDegrade {
                            server,
                            factor: 0.5,
                        },
                    });
                }
                for _ in 0..3 {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let off = rng.random_range(0..3_600_000u64);
                    let t = t0 + SimDuration::from_millis(off);
                    events.push(FaultEvent {
                        at: t,
                        kind: FaultKind::ServerCrash { server },
                    });
                    events.push(FaultEvent {
                        at: t + SimDuration::from_mins(30),
                        kind: FaultKind::ServerRestart { server },
                    });
                }
            }
        }
        FaultPlan::with_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ClusterShape = ClusterShape {
        n_servers: 200,
        rack_size: 20,
    };

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultProfile::RackLoss
            .plan(1, SHAPE, SimDuration::from_hours(24))
            .is_none());
    }

    #[test]
    fn plans_are_sorted_and_deterministic() {
        for p in FaultProfile::ALL {
            let a = p.plan(7, SHAPE, SimDuration::from_days(30));
            let b = p.plan(7, SHAPE, SimDuration::from_days(30));
            assert_eq!(a, b, "{} not deterministic", p.name());
            assert!(
                a.events.windows(2).all(|w| w[0].at <= w[1].at),
                "{} not sorted",
                p.name()
            );
            assert!(!a.events.is_empty(), "{} injects nothing", p.name());
        }
    }

    #[test]
    fn different_seeds_draw_different_storms() {
        let a = FaultProfile::CorrelatedStorm.plan(1, SHAPE, SimDuration::from_days(30));
        let b = FaultProfile::CorrelatedStorm.plan(2, SHAPE, SimDuration::from_days(30));
        assert_ne!(a, b);
    }

    #[test]
    fn parse_round_trips() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::parse("nope"), None);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let b = BackoffConfig::default();
        let d1 = b.delay(42, 7, 1);
        let d2 = b.delay(42, 7, 2);
        let d3 = b.delay(42, 7, 3);
        assert!(d1.as_millis() >= b.base.as_millis());
        assert!(d2 > d1 || d2.as_millis() >= b.base.as_millis() * 2);
        assert!(d3.as_millis() <= b.cap.as_millis() + b.cap.as_millis() / 2);
        // Huge attempts stay at the cap (plus jitter), no overflow.
        let big = b.delay(42, 7, 1_000);
        assert!(big.as_millis() <= b.cap.as_millis() + b.cap.as_millis() / 2);
        assert_eq!(b.delay(42, 7, 2), d2, "jitter must be deterministic");
        assert_ne!(
            b.delay(42, 7, 1).as_millis(),
            b.delay(42, 8, 1).as_millis(),
            "different entities should jitter apart (for these values)"
        );
    }

    #[test]
    fn rack_servers_handles_partial_last_rack() {
        let shape = ClusterShape {
            n_servers: 45,
            rack_size: 20,
        };
        assert_eq!(shape.n_racks(), 3);
        assert_eq!(shape.rack_servers(0), 0..20);
        assert_eq!(shape.rack_servers(2), 40..45);
    }
}
