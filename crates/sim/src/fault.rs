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
//! The plan is pure data, and it expands itself once:
//! [`FaultPlan::actions`] fans rack-level events out to servers and
//! yields the server-granular [`FaultAction`]s every consumer replays in
//! its own event loop (`harvest-dfs` durability and availability,
//! `harvest-sched`'s simulator). What the actions mean has one owner:
//!
//! - [`FaultState`]'s fold keeps one state per server — up or crashed,
//!   and a disk that is ok, failed or degraded — tells a real action
//!   from a no-op (a crash of a crashed server, a restore of an up
//!   one), and answers "is `s` down" and "is `s`'s data unreachable".
//! - [`FaultState`]'s retry ledger keeps the bounded-retry budget:
//!   attempts per entity and the entities waiting out a backoff.
//! - `harvest-net`'s `Fabric::apply_fault` and `harvest-disk`'s
//!   `DiskPool::apply_fault` own the infrastructure half of a reaction:
//!   each returns the tags of the transfers a real action aborted.
//!
//! A consumer keeps only its own reaction (container kills, repair
//! aborts and reimages, heartbeat detection). [`FaultPlan::arm`] hands
//! it the state, or `None` for [`FaultPlan::none`], the
//! universal off switch: every consumer then stays bitwise identical to
//! its pre-fault behavior (pinned by oracle tests).
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
//! branch is one test of an empty `Option<FaultState>` and the hot
//! loops are untouched.

use crate::idmap::{sorted_ids, IdMap};
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

    /// The server-id range of one rack (empty past the last rack).
    pub fn rack_servers(&self, rack: u32) -> std::ops::Range<u32> {
        let lo = (rack as usize * self.rack_size).min(self.n_servers);
        let hi = (lo + self.rack_size).min(self.n_servers);
        lo as u32..hi as u32
    }
}

/// One kind of injected fault. Rack-level kinds fan out to servers in
/// [`FaultPlan::actions`], using the contiguous rack layout
/// ([`ClusterShape`]).
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

/// One server-granular fault action: a [`FaultKind`] after rack
/// fan-out, aimed at a server id (or, for uplinks, a rack id) that
/// exists in the cluster. Engines react to these; none expands a plan
/// itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The server crashes, alone or with its rack's power.
    Crash(u32),
    /// The server comes back.
    Restore(u32),
    /// Both directions of the rack's uplink go dark.
    UplinkDown(u32),
    /// The rack's uplink comes back.
    UplinkUp(u32),
    /// The server's disk dies; the server stays up.
    DiskFail(u32),
    /// The server's disk secondary bandwidth scales by a finite,
    /// non-negative factor.
    DiskDegrade(u32, f64),
}

impl FaultAction {
    /// The server the action aims at (`None` for a rack uplink).
    pub fn server(self) -> Option<u32> {
        match self {
            FaultAction::Crash(s) | FaultAction::Restore(s) | FaultAction::DiskFail(s) => Some(s),
            FaultAction::DiskDegrade(s, _) => Some(s),
            FaultAction::UplinkDown(_) | FaultAction::UplinkUp(_) => None,
        }
    }

    /// The name of the `fault/*` instant an engine records for it.
    pub fn label(self) -> &'static str {
        match self {
            FaultAction::Crash(_) => "fault/crash",
            FaultAction::Restore(_) => "fault/restart",
            FaultAction::UplinkDown(_) => "fault/uplink-down",
            FaultAction::UplinkUp(_) => "fault/uplink-up",
            FaultAction::DiskFail(_) => "fault/disk-fail",
            FaultAction::DiskDegrade(..) => "fault/disk-degrade",
        }
    }
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

    /// The plan as server-granular actions for a cluster of `shape`,
    /// in stable time order: same-instant actions keep plan order, and
    /// a rack event's servers follow in id order. Rack power events
    /// fan out to every server of the rack. Events after `horizon` are
    /// dropped (one exactly at it is kept), so an armed plan whose
    /// events never fire is exactly a no-op. Targets outside the
    /// cluster (a plan drawn for another shape) and degrade factors
    /// that are negative or not finite are skipped rather than
    /// panicking.
    pub fn actions(&self, shape: ClusterShape, horizon: SimTime) -> Vec<(SimTime, FaultAction)> {
        let n = shape.n_servers;
        let n_racks = shape.n_racks();
        let has_server = |s: u32| (s as usize) < n;
        let has_rack = |r: u32| (r as usize) < n_racks;
        let mut out = Vec::with_capacity(self.events.len());
        for ev in self.events.iter().filter(|e| e.at <= horizon) {
            let mut add = |action| out.push((ev.at, action));
            match ev.kind {
                FaultKind::ServerCrash { server: s } if has_server(s) => add(FaultAction::Crash(s)),
                FaultKind::ServerRestart { server: s } if has_server(s) => {
                    add(FaultAction::Restore(s))
                }
                FaultKind::RackPowerLoss { rack: r } if has_rack(r) => shape
                    .rack_servers(r)
                    .for_each(|s| add(FaultAction::Crash(s))),
                FaultKind::RackPowerRestore { rack: r } if has_rack(r) => shape
                    .rack_servers(r)
                    .for_each(|s| add(FaultAction::Restore(s))),
                FaultKind::RackUplinkDown { rack: r } if has_rack(r) => {
                    add(FaultAction::UplinkDown(r))
                }
                FaultKind::RackUplinkUp { rack: r } if has_rack(r) => add(FaultAction::UplinkUp(r)),
                FaultKind::DiskFail { server: s } if has_server(s) => add(FaultAction::DiskFail(s)),
                FaultKind::DiskDegrade { server: s, factor }
                    if has_server(s) && factor.is_finite() && factor >= 0.0 =>
                {
                    add(FaultAction::DiskDegrade(s, factor))
                }
                _ => {}
            }
        }
        // Stable, so a hand-built plan whose events are out of order
        // still yields same-instant actions in plan order.
        out.sort_by_key(|&(at, _)| at);
        out
    }

    /// The run-time state of this plan over `n_servers` — `None` for an
    /// empty plan, so a consumer's every fault branch is one `Option`
    /// test. `seed` seeds the retries' backoff jitter.
    pub fn arm(&self, n_servers: usize, seed: u64) -> Option<FaultState> {
        (!self.is_none()).then(|| FaultState {
            crashed: vec![false; n_servers],
            disks: vec![DiskHealth::Ok; n_servers],
            attempts: IdMap::default(),
            waiting: IdMap::default(),
            max_retries: self.max_retries,
            backoff: self.backoff,
            seed,
        })
    }
}

/// A server's disk as the fold sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskHealth {
    /// Never failed nor browned out.
    Ok,
    /// Failed: its replicas are gone, and no later restart or brown-out
    /// revives it.
    Failed,
    /// Browned out to this factor of its secondary bandwidth.
    Degraded(f64),
}

/// An armed plan's run-time state ([`FaultPlan::arm`]), in two parts.
/// The fold keeps one state per server, up or crashed and a disk that
/// is ok, failed or degraded: it is every consumer's one answer to "is
/// this server down". The retry ledger keeps the bounded-retry budget:
/// the attempts per entity (a stage, a block) since the consumer last
/// reset them, and the entities waiting out a backoff.
#[derive(Debug, Clone)]
pub struct FaultState {
    crashed: Vec<bool>,
    disks: Vec<DiskHealth>,
    attempts: IdMap<u32>,
    waiting: IdMap<()>,
    max_retries: u32,
    backoff: BackoffConfig,
    seed: u64,
}

impl FaultState {
    /// Folds one action in and says whether it is real. A crash of a
    /// crashed server and a restore of an up one change nothing, and
    /// every consumer skips their reaction; every other action is real
    /// and reaches the engines.
    pub fn apply(&mut self, action: FaultAction) -> bool {
        let (crashed, disks) = (&mut self.crashed, &mut self.disks);
        match action {
            FaultAction::Crash(s) => return !std::mem::replace(&mut crashed[s as usize], true),
            FaultAction::Restore(s) => return std::mem::replace(&mut crashed[s as usize], false),
            FaultAction::DiskFail(s) => disks[s as usize] = DiskHealth::Failed,
            FaultAction::DiskDegrade(s, f) if disks[s as usize] != DiskHealth::Failed => {
                disks[s as usize] = DiskHealth::Degraded(f)
            }
            _ => {}
        }
        true
    }

    /// Whether server `s` is crashed.
    pub fn is_down(&self, s: u32) -> bool {
        self.crashed[s as usize]
    }

    /// The crashed mask, by server id.
    pub fn down_mask(&self) -> &[bool] {
        &self.crashed
    }

    /// Whether server `s`'s stored data cannot be read: it is crashed
    /// or its disk failed.
    pub fn unreachable(&self, s: u32) -> bool {
        self.is_down(s) || self.disks[s as usize] == DiskHealth::Failed
    }

    /// Charges a fault interruption to `entity` at `now`. Within the
    /// plan's budget the entity waits out a backoff and this returns
    /// the instant to retry at; past it the entity stops waiting and
    /// this returns `None`: it is exhausted.
    pub fn charge(&mut self, entity: u64, now: SimTime) -> Option<SimTime> {
        let attempt = self.attempts.entry(entity).or_insert(0);
        *attempt += 1;
        if *attempt > self.max_retries {
            self.waiting.remove(&entity);
            return None;
        }
        self.waiting.insert(entity, ());
        Some(now + self.backoff.delay(self.seed, entity, *attempt))
    }

    /// Ends `entity`'s backoff wait; returns whether it was waiting.
    pub fn release(&mut self, entity: u64) -> bool {
        self.waiting.remove(&entity).is_some()
    }

    /// Forgets `entity`'s spent attempts: its work succeeded.
    pub fn reset(&mut self, entity: u64) {
        self.attempts.remove(&entity);
    }

    /// Whether `entity` is waiting out a backoff.
    pub fn is_waiting(&self, entity: u64) -> bool {
        self.waiting.contains_key(&entity)
    }

    /// The entities waiting out a backoff, ascending.
    pub fn waiting(&self) -> Vec<u64> {
        sorted_ids(&self.waiting, |_| true)
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
        let mut add = |at: SimTime, kind: FaultKind| events.push(FaultEvent { at, kind });
        match self {
            FaultProfile::RackLoss => {
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                let t = at(&mut rng, 0.10, 0.10);
                let back = t + SimDuration::from_hours(2);
                add(t, FaultKind::RackPowerLoss { rack });
                add(back, FaultKind::RackPowerRestore { rack });
                // The replacement fleet comes back with degraded disks.
                for server in shape.rack_servers(rack) {
                    add(
                        back,
                        FaultKind::DiskDegrade {
                            server,
                            factor: 0.7,
                        },
                    );
                }
            }
            FaultProfile::LinkFlap => {
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                for flap in 0..4u64 {
                    let t = at(&mut rng, 0.1 + 0.2 * flap as f64, 0.05);
                    add(t, FaultKind::RackUplinkDown { rack });
                    add(
                        t + SimDuration::from_mins(5),
                        FaultKind::RackUplinkUp { rack },
                    );
                }
            }
            FaultProfile::DiskRot => {
                let degraded = (shape.n_servers / 100).max(2);
                for _ in 0..degraded {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let factor = 0.3 + rng.random_range(0..=50) as f64 / 100.0;
                    let t = at(&mut rng, 0.05, 0.85);
                    add(t, FaultKind::DiskDegrade { server, factor });
                }
                let failed = (degraded / 4).max(1);
                for _ in 0..failed {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let t = at(&mut rng, 0.05, 0.85);
                    add(t, FaultKind::DiskFail { server });
                }
            }
            FaultProfile::CorrelatedStorm => {
                let t0 = at(&mut rng, 0.20, 0.10);
                let rack = rng.random_range(0..n_racks.max(1) as usize) as u32;
                add(t0, FaultKind::RackPowerLoss { rack });
                add(
                    t0 + SimDuration::from_hours(2),
                    FaultKind::RackPowerRestore { rack },
                );
                for k in 1..=2u32 {
                    let flapping = (rack + k) % n_racks.max(1);
                    let t = t0 + SimDuration::from_mins(10 * k as u64);
                    add(t, FaultKind::RackUplinkDown { rack: flapping });
                    let up = FaultKind::RackUplinkUp { rack: flapping };
                    add(t + SimDuration::from_mins(15), up);
                }
                let degraded = (shape.n_servers / 50).max(2);
                for _ in 0..degraded {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let off = SimDuration::from_millis(rng.random_range(0..3_600_000u64));
                    add(
                        t0 + off,
                        FaultKind::DiskDegrade {
                            server,
                            factor: 0.5,
                        },
                    );
                }
                for _ in 0..3 {
                    let server = rng.random_range(0..shape.n_servers) as u32;
                    let t = t0 + SimDuration::from_millis(rng.random_range(0..3_600_000u64));
                    add(t, FaultKind::ServerCrash { server });
                    add(
                        t + SimDuration::from_mins(30),
                        FaultKind::ServerRestart { server },
                    );
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

    const PARTIAL: ClusterShape = ClusterShape {
        n_servers: 45,
        rack_size: 20,
    };

    fn at(min: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(min)
    }

    fn ev(min: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: at(min), kind }
    }

    #[test]
    fn rack_power_fans_out_over_a_partial_last_rack() {
        let plan = FaultPlan::with_events(vec![
            ev(1, FaultKind::RackPowerLoss { rack: 2 }),
            ev(2, FaultKind::RackPowerRestore { rack: 2 }),
        ]);
        let actions = plan.actions(PARTIAL, SimTime::MAX);
        let crashes: Vec<_> = (40..45).map(|s| (at(1), FaultAction::Crash(s))).collect();
        let restores: Vec<_> = (40..45).map(|s| (at(2), FaultAction::Restore(s))).collect();
        assert_eq!(actions, [crashes, restores].concat());
    }

    #[test]
    fn out_of_range_targets_are_skipped() {
        // `rack * 20` overflows `u32` for this rack id.
        let huge = u32::MAX / 20 + 1;
        let plan = FaultPlan::with_events(vec![
            ev(1, FaultKind::ServerCrash { server: 45 }),
            ev(1, FaultKind::ServerRestart { server: u32::MAX }),
            ev(1, FaultKind::DiskFail { server: 45 }),
            ev(
                1,
                FaultKind::DiskDegrade {
                    server: 45,
                    factor: 0.5,
                },
            ),
            ev(1, FaultKind::RackPowerLoss { rack: 3 }),
            ev(1, FaultKind::RackPowerRestore { rack: huge }),
            ev(1, FaultKind::RackPowerLoss { rack: u32::MAX }),
            ev(1, FaultKind::RackUplinkDown { rack: 3 }),
            ev(1, FaultKind::RackUplinkUp { rack: huge }),
            ev(2, FaultKind::ServerCrash { server: 44 }),
            ev(2, FaultKind::RackUplinkDown { rack: 2 }),
        ]);
        assert_eq!(
            plan.actions(PARTIAL, SimTime::MAX),
            [
                (at(2), FaultAction::Crash(44)),
                (at(2), FaultAction::UplinkDown(2)),
            ]
        );
    }

    #[test]
    fn invalid_degrade_factors_are_skipped() {
        let degrade = |factor| ev(1, FaultKind::DiskDegrade { server: 3, factor });
        let plan = FaultPlan::with_events(vec![
            degrade(-0.1),
            degrade(f64::NAN),
            degrade(f64::INFINITY),
            degrade(f64::NEG_INFINITY),
            degrade(0.0),
            degrade(0.7),
        ]);
        assert_eq!(
            plan.actions(PARTIAL, SimTime::MAX),
            [
                (at(1), FaultAction::DiskDegrade(3, 0.0)),
                (at(1), FaultAction::DiskDegrade(3, 0.7)),
            ]
        );
    }

    #[test]
    fn an_event_at_the_horizon_is_kept() {
        let plan = FaultPlan::with_events(vec![
            ev(10, FaultKind::ServerCrash { server: 1 }),
            ev(11, FaultKind::ServerCrash { server: 2 }),
        ]);
        assert_eq!(
            plan.actions(PARTIAL, at(10)),
            [(at(10), FaultAction::Crash(1))]
        );
    }

    /// The fold against a from-scratch scan: over random hand-built
    /// plans (unsorted, with duplicates and out-of-range targets), after
    /// every action each server's state and the action's real/no-op
    /// verdict match what a rescan of the action prefix says.
    #[test]
    fn fold_matches_a_rescan_of_every_action_prefix() {
        for case in 0..200u64 {
            let mut rng = stream_rng(case, "fold-oracle");
            let n_events = rng.random_range(1..60usize);
            let events = (0..n_events)
                .map(|_| {
                    let server = rng.random_range(0..50u32);
                    let rack = rng.random_range(0..4u32);
                    let kind = match rng.random_range(0..8u32) {
                        0 => FaultKind::ServerCrash { server },
                        1 => FaultKind::ServerRestart { server },
                        2 => FaultKind::RackPowerLoss { rack },
                        3 => FaultKind::RackPowerRestore { rack },
                        4 => FaultKind::RackUplinkDown { rack },
                        5 => FaultKind::RackUplinkUp { rack },
                        6 => FaultKind::DiskFail { server },
                        _ => FaultKind::DiskDegrade {
                            server,
                            factor: rng.random_range(0..=10u32) as f64 / 10.0,
                        },
                    };
                    ev(rng.random_range(0..20u64), kind)
                })
                .collect();
            let plan = FaultPlan {
                events,
                ..FaultPlan::none()
            };
            let actions: Vec<FaultAction> = plan
                .actions(PARTIAL, SimTime::MAX)
                .into_iter()
                .map(|(_, a)| a)
                .collect();
            let mut fold = plan
                .arm(PARTIAL.n_servers, 0)
                .expect("a plan with actions is armed");
            for (k, &action) in actions.iter().enumerate() {
                let prefix = &actions[..k];
                let crashed = |s: u32, upto: &[FaultAction]| {
                    upto.iter().rev().find_map(|a| match *a {
                        FaultAction::Crash(t) if t == s => Some(true),
                        FaultAction::Restore(t) if t == s => Some(false),
                        _ => None,
                    }) == Some(true)
                };
                let real = match action {
                    FaultAction::Crash(s) => !crashed(s, prefix),
                    FaultAction::Restore(s) => crashed(s, prefix),
                    _ => true,
                };
                assert_eq!(
                    fold.apply(action),
                    real,
                    "case {case}: verdict of {action:?}"
                );
                let upto = &actions[..=k];
                for s in 0..PARTIAL.n_servers as u32 {
                    let failed = upto.contains(&FaultAction::DiskFail(s));
                    let degraded = upto.iter().rev().find_map(|a| match *a {
                        FaultAction::DiskDegrade(t, f) if t == s => Some(f),
                        _ => None,
                    });
                    let disk = match (failed, degraded) {
                        (true, _) => DiskHealth::Failed,
                        (false, Some(f)) => DiskHealth::Degraded(f),
                        (false, None) => DiskHealth::Ok,
                    };
                    let down = crashed(s, upto);
                    assert_eq!(fold.is_down(s), down, "case {case}: server {s} after {k}");
                    assert_eq!(fold.down_mask()[s as usize], down);
                    assert_eq!(
                        fold.disks[s as usize], disk,
                        "case {case}: disk {s} after {k}"
                    );
                    assert_eq!(fold.unreachable(s), down || failed);
                }
            }
        }
    }

    #[test]
    fn ledger_retries_within_budget_then_exhausts() {
        let mut plan = FaultPlan::with_events(vec![ev(1, FaultKind::ServerCrash { server: 0 })]);
        plan.max_retries = 2;
        assert!(FaultPlan::none().arm(4, 9).is_none());
        let mut ledger = plan.arm(4, 9).expect("armed");
        let now = at(10);
        let backoff = |attempt| Some(now + plan.backoff.delay(9, 7, attempt));
        assert_eq!(ledger.charge(7, now), backoff(1));
        assert_eq!(ledger.charge(7, now), backoff(2));
        assert!(ledger.is_waiting(7));
        assert_eq!(ledger.charge(7, now), None);
        assert!(!ledger.is_waiting(7) && !ledger.release(7));
        // A reset restores the budget; a release ends the wait.
        ledger.reset(7);
        assert_eq!(ledger.charge(7, now), backoff(1));
        assert_eq!(
            ledger.charge(3, now),
            Some(now + plan.backoff.delay(9, 3, 1))
        );
        assert_eq!(ledger.waiting(), [3, 7]);
        assert!(ledger.release(7));
        assert_eq!(ledger.waiting(), [3]);
    }

    #[test]
    fn same_instant_actions_keep_plan_order_in_an_unsorted_plan() {
        // Built by hand, bypassing `with_events`' sort.
        let plan = FaultPlan {
            events: vec![
                ev(5, FaultKind::DiskFail { server: 7 }),
                ev(3, FaultKind::RackUplinkUp { rack: 1 }),
                ev(5, FaultKind::ServerRestart { server: 2 }),
                ev(3, FaultKind::ServerCrash { server: 9 }),
                ev(5, FaultKind::RackUplinkDown { rack: 0 }),
            ],
            ..FaultPlan::none()
        };
        assert_eq!(
            plan.actions(PARTIAL, SimTime::MAX),
            [
                (at(3), FaultAction::UplinkUp(1)),
                (at(3), FaultAction::Crash(9)),
                (at(5), FaultAction::DiskFail(7)),
                (at(5), FaultAction::Restore(2)),
                (at(5), FaultAction::UplinkDown(0)),
            ]
        );
    }
}
