//! The durability simulation (Figure 15).
//!
//! Places a population of blocks, then replays months of per-server disk
//! reimages — independent reimages plus correlated redeployment sweeps —
//! repairing lost replicas through the throttled pipeline. A block whose
//! replicas are all destroyed before repair completes is lost forever.
//! The replay itself is the repair driver shared with the reimage storm
//! ([`crate::repair`]); this module generates the reimage schedule and
//! reports the outcome.
//!
//! The paper simulates one year and 4 M blocks per datacenter; block
//! count scales with cluster size here (see
//! [`DurabilityConfig::fill_fraction`]), which preserves the per-server
//! replica density that determines loss dynamics.

use harvest_cluster::{Datacenter, ServerId};
use harvest_disk::DiskConfig;
use harvest_net::NetworkConfig;
use harvest_sim::fault::FaultPlan;
use harvest_sim::obs::Recorder;
use harvest_sim::rng::stream_rng;
use harvest_sim::{SimDuration, SimTime};

use crate::placement::PlacementPolicy;
use crate::repair::{replay, RepairConfig, Replay};

/// Durability-simulation parameters.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Placement policy under test.
    pub policy: PlacementPolicy,
    /// Replicas per block (the paper evaluates 3 and 4).
    pub replication: usize,
    /// Fraction of the cluster's harvestable space to fill with blocks
    /// (replicas / capacity). The paper's 4 M blocks × 3 replicas lands
    /// around 50% of a production cluster's spare space.
    pub fill_fraction: f64,
    /// Simulated months (the paper uses 12).
    pub months: usize,
    /// Master seed.
    pub seed: u64,
    /// Repair timing.
    pub repair: RepairConfig,
    /// When set, each re-replication is a 256 MB flow through the shared
    /// fabric and the block stays vulnerable until the transfer's last
    /// byte lands — the repair window becomes throttle *plus* network.
    /// `None` reproduces the seed model (instant transfers).
    pub network: Option<NetworkConfig>,
    /// When set, each re-replication also reads the block off the
    /// surviving replica's disk and writes it to the destination's,
    /// fair-sharing both with every other repair on those disks; the
    /// block stays vulnerable until the slowest component finishes.
    /// Composes with [`DurabilityConfig::network`]; `None` keeps disks
    /// free and instant.
    pub disk: Option<DiskConfig>,
    /// Injected faults — crashes, rack power loss, uplink outages, disk
    /// failures and brown-outs — plus the retry/backoff knobs. A crash
    /// kills the server's in-flight repairs (they retry with
    /// exponential backoff against a fresh replica); after the
    /// heartbeat detection delay the server is declared dead and its
    /// replicas become re-replication work. [`FaultPlan::none`] keeps
    /// the simulation bitwise identical to a build without the fault
    /// machinery (pinned by oracle tests).
    pub faults: FaultPlan,
}

impl DurabilityConfig {
    /// The paper's one-year setup for a given policy and replication.
    pub fn paper(policy: PlacementPolicy, replication: usize, seed: u64) -> Self {
        DurabilityConfig {
            policy,
            replication,
            fill_fraction: 0.5,
            months: 12,
            seed,
            repair: RepairConfig::default(),
            network: None,
            disk: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Outcome of a durability simulation.
#[derive(Debug, Clone)]
pub struct DurabilityResult {
    /// Blocks created.
    pub n_blocks: u64,
    /// Blocks that lost every replica.
    pub lost_blocks: u64,
    /// Total server reimages replayed.
    pub reimages: u64,
    /// Replicas successfully re-created.
    pub repairs: u64,
    /// Repairs abandoned because the block was already lost.
    pub repairs_too_late: u64,
    /// Percentage of blocks lost (Figure 15's y-axis).
    pub lost_percent: f64,
    /// Fault events applied (a rack power loss counts once per server).
    pub faults_injected: u64,
    /// In-flight repairs torn down by a fault (crash, uplink death,
    /// disk failure) before their transfer finished.
    pub repairs_aborted: u64,
    /// Fault-aborted repairs re-queued with backoff.
    pub fault_retries: u64,
    /// Repairs abandoned after `max_retries` fault aborts — the
    /// permanent-loss accounting knob.
    pub retries_exhausted: u64,
    /// Repair slots shed (re-queued unstarted) because the in-flight
    /// population was above `shed_inflight_above` during a storm.
    pub repairs_shed: u64,
    /// Final fabric counters when the network was modeled.
    pub fabric: Option<harvest_net::FabricStats>,
    /// Final disk-pool counters when disks were modeled.
    pub disk: Option<harvest_disk::DiskStats>,
}

/// Runs the durability simulation, recording into `rec`
/// ([`Recorder::off`] records nothing): fault injections land as
/// `fault/*` instants on the `dfs/fault` track, every fault-aborted
/// repair walks the `failed` → `retrying` states on the
/// `dfs/repair_retry` state track (entity = block id), and with a
/// transfer model each re-replication walks the `dfs/repair` track
/// exactly as in [`crate::repair::simulate_reimage_storm_recorded`], so
/// blame analysis can attribute failure time. Recording never changes
/// the simulated outcome.
pub fn simulate_durability(
    dc: &Datacenter,
    cfg: &DurabilityConfig,
    rec: &mut Recorder,
) -> DurabilityResult {
    assert!(
        (0.0..=0.95).contains(&cfg.fill_fraction),
        "fill fraction must be in [0, 0.95]"
    );
    let reimages = reimage_schedule(dc, cfg);
    let n_reimages = reimages.len() as u64;
    let r = replay(
        dc,
        Replay {
            policy: cfg.policy,
            replication: cfg.replication,
            fill_fraction: cfg.fill_fraction,
            seed: cfg.seed,
            stream: "durability",
            repair: cfg.repair,
            network: cfg.network.as_ref(),
            disk: cfg.disk.as_ref(),
            max_streams: None,
            reimages,
            faults: &cfg.faults,
            horizon: SimTime::ZERO + SimDuration::from_days(30 * cfg.months as u64),
        },
        rec,
    );
    DurabilityResult {
        n_blocks: r.n_blocks,
        lost_blocks: r.lost_blocks,
        reimages: n_reimages,
        repairs: r.repairs,
        repairs_too_late: r.too_late,
        lost_percent: if r.n_blocks == 0 {
            0.0
        } else {
            r.lost_blocks as f64 / r.n_blocks as f64 * 100.0
        },
        faults_injected: r.faults_injected,
        repairs_aborted: r.repairs_aborted,
        fault_retries: r.fault_retries,
        retries_exhausted: r.retries_exhausted,
        repairs_shed: r.repairs_shed,
        fabric: r.fabric,
        disk: r.disk,
    }
}

/// Every tenant's generated reimages over `cfg.months`, each tenant
/// drawing from its own stream, sorted by (time, server).
fn reimage_schedule(dc: &Datacenter, cfg: &DurabilityConfig) -> Vec<(SimTime, ServerId)> {
    let mut events = Vec::new();
    for tenant in &dc.tenants {
        let mut trng = stream_rng(
            cfg.seed ^ (0xD15C_0000 + tenant.id.0 as u64),
            "tenant-reimages",
        );
        let (tenant_events, _) = tenant
            .reimage
            .generate(&mut trng, tenant.n_servers(), cfg.months);
        for e in tenant_events {
            events.push((
                e.time,
                ServerId(tenant.server_range.start + e.server as u32),
            ));
        }
    }
    events.sort_by_key(|&(t, s)| (t, s));
    events
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::repair::{fault_schedule, Fault};
    use harvest_sim::fault::{FaultAction, FaultEvent, FaultKind, FaultProfile};
    use harvest_trace::datacenter::DatacenterProfile;

    fn dc(scale: f64) -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(3).scaled(scale), 23)
    }

    fn fingerprint(
        r: &DurabilityResult,
    ) -> (
        u64,
        u64,
        u64,
        u64,
        u64,
        Option<harvest_net::FabricStats>,
        Option<harvest_disk::DiskStats>,
    ) {
        (
            r.n_blocks,
            r.lost_blocks,
            r.reimages,
            r.repairs,
            r.repairs_too_late,
            r.fabric,
            r.disk,
        )
    }

    fn run(policy: PlacementPolicy, replication: usize, months: usize) -> DurabilityResult {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(policy, replication, 5);
        cfg.months = months;
        simulate_durability(&dc, &cfg, &mut Recorder::off())
    }

    #[test]
    fn blocks_are_created_to_fill_target() {
        let dc = dc(0.02);
        let cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 1);
        let result = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let expected = dc.total_harvest_blocks() / 2 / 3;
        assert!(
            result.n_blocks as f64 > expected as f64 * 0.95,
            "created {} of expected {expected}",
            result.n_blocks
        );
    }

    #[test]
    fn reimages_happen_and_repairs_run() {
        let r = run(PlacementPolicy::Stock, 3, 3);
        assert!(r.reimages > 0);
        assert!(r.repairs > 0);
    }

    #[test]
    fn history_placement_loses_fewer_blocks_than_stock() {
        // DC-3 has the paper's highest reimage rate; three months of a
        // small cluster is enough for Stock to lose blocks.
        let stock = run(PlacementPolicy::Stock, 3, 6);
        let hist = run(PlacementPolicy::History, 3, 6);
        assert!(
            stock.lost_blocks > 0,
            "expected Stock losses in a high-reimage DC"
        );
        assert!(
            hist.lost_blocks * 5 < stock.lost_blocks.max(1),
            "HDFS-H ({}) not clearly better than Stock ({})",
            hist.lost_blocks,
            stock.lost_blocks
        );
    }

    #[test]
    fn four_way_replication_is_more_durable() {
        let r3 = run(PlacementPolicy::Stock, 3, 6);
        let r4 = run(PlacementPolicy::Stock, 4, 6);
        assert!(
            r4.lost_blocks <= r3.lost_blocks,
            "R=4 ({}) lost more than R=3 ({})",
            r4.lost_blocks,
            r3.lost_blocks
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(PlacementPolicy::History, 3, 2);
        let b = run(PlacementPolicy::History, 3, 2);
        assert_eq!(a.lost_blocks, b.lost_blocks);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.n_blocks, b.n_blocks);
    }

    #[test]
    fn lost_percent_is_consistent() {
        let r = run(PlacementPolicy::Stock, 3, 3);
        let expect = r.lost_blocks as f64 / r.n_blocks as f64 * 100.0;
        assert!((r.lost_percent - expect).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_constrained_repair_cannot_beat_instant_repair() {
        let dc = dc(0.02);
        let mut off = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 5);
        off.months = 4;
        let mut on = off.clone();
        // A slow fabric (1 GbE, 8:1 oversubscribed) stretches every
        // repair window by seconds plus contention, while staying above
        // the throttle's aggregate demand so the backlog is bounded.
        on.network = Some(NetworkConfig {
            nic_gbps: 1.0,
            oversubscription: 8.0,
            ..NetworkConfig::datacenter()
        });
        let r_off = simulate_durability(&dc, &off, &mut Recorder::off());
        let r_on = simulate_durability(&dc, &on, &mut Recorder::off());
        assert!(r_on.repairs > 0, "no repairs landed through the fabric");
        assert!(r_on.lost_blocks > 0, "DC-3 over 4 months must lose blocks");
        // The fabric delays each repair by seconds against a 10-minute
        // detection window, while placement RNG divergence between the
        // modes adds ±1% noise — so assert the networked loss stays in a
        // band around the instant-transfer loss instead of a strict
        // inequality the model does not guarantee per seed.
        let ratio = r_on.lost_blocks as f64 / r_off.lost_blocks.max(1) as f64;
        assert!(
            (0.8..=1.5).contains(&ratio),
            "networked loss ratio {ratio:.2} out of band: on {} off {}",
            r_on.lost_blocks,
            r_off.lost_blocks
        );
    }

    #[test]
    fn networked_durability_is_deterministic() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        let a = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let b = simulate_durability(&dc, &cfg, &mut Recorder::off());
        assert_eq!(a.lost_blocks, b.lost_blocks);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.repairs_too_late, b.repairs_too_late);
    }

    #[test]
    fn disk_constrained_repair_cannot_beat_instant_repair() {
        // Disks stretch every repair window by the destination write
        // (~2.1 s for 256 MB at 120 MB/s) against a 10-minute detection
        // delay; loss stays in a band around the instant-transfer loss
        // (same argument as the network test above: the delay is real
        // but small, and placement RNG streams are identical because the
        // disk model draws no randomness).
        let dc = dc(0.02);
        let mut off = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 5);
        off.months = 4;
        let mut on = off.clone();
        on.disk = Some(DiskConfig::datacenter());
        let r_off = simulate_durability(&dc, &off, &mut Recorder::off());
        let r_on = simulate_durability(&dc, &on, &mut Recorder::off());
        assert!(r_on.repairs > 0, "no repairs landed through the disks");
        assert!(r_on.lost_blocks > 0, "DC-3 over 4 months must lose blocks");
        let ratio = r_on.lost_blocks as f64 / r_off.lost_blocks.max(1) as f64;
        assert!(
            (0.8..=1.5).contains(&ratio),
            "disked loss ratio {ratio:.2} out of band: on {} off {}",
            r_on.lost_blocks,
            r_off.lost_blocks
        );
    }

    #[test]
    fn armed_plan_with_no_reachable_events_is_bitwise_identical_to_none() {
        // The oracle pinning the no-fault path: a non-empty plan whose
        // only event falls past the horizon arms the whole machinery
        // (busy masks, fifth event source, live-source filtering) yet
        // must reproduce the fault-free trajectory bit for bit.
        let dc = dc(0.02);
        let mut base = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        base.months = 2;
        base.network = Some(NetworkConfig::datacenter());
        base.disk = Some(DiskConfig::datacenter());
        let mut armed = base.clone();
        armed.faults = FaultPlan::with_events(vec![FaultEvent {
            at: SimTime::ZERO + SimDuration::from_days(365),
            kind: FaultKind::ServerCrash { server: 0 },
        }]);
        let a = simulate_durability(&dc, &base, &mut Recorder::off());
        let b = simulate_durability(&dc, &armed, &mut Recorder::off());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(b.faults_injected, 0);
        assert_eq!(b.repairs_aborted, 0);
        assert_eq!(b.fault_retries, 0);
    }

    #[test]
    fn rack_power_loss_expands_and_fast_restart_cancels_declare_dead() {
        let dc = dc(0.02);
        let detection = SimDuration::from_mins(10);
        let horizon = SimTime::ZERO + SimDuration::from_days(60);
        let t0 = SimTime::ZERO + SimDuration::from_hours(1);
        let plan = FaultPlan::with_events(vec![
            FaultEvent {
                at: t0,
                kind: FaultKind::ServerCrash { server: 0 },
            },
            FaultEvent {
                at: t0 + SimDuration::from_mins(5),
                kind: FaultKind::ServerRestart { server: 0 },
            },
            FaultEvent {
                at: t0,
                kind: FaultKind::RackPowerLoss { rack: 1 },
            },
            FaultEvent {
                at: t0 + detection,
                kind: FaultKind::DiskFail { server: 0 },
            },
        ]);
        let actions = fault_schedule(&dc, &plan, detection, horizon);
        let rack_servers = dc.cluster_shape().rack_servers(1).len();
        let crashes = actions
            .iter()
            .filter(|(_, a)| matches!(a, Fault::Plan(FaultAction::Crash(_))))
            .count();
        assert_eq!(crashes, rack_servers + 1);
        // Server 0 restarts inside the heartbeat window, so only the
        // powered-off rack gets declared dead.
        assert!(!actions
            .iter()
            .any(|(_, a)| matches!(a, Fault::DeclareDead { server, .. } if server.0 == 0)));
        let deads: Vec<usize> = (0..actions.len())
            .filter(|&i| matches!(actions[i].1, Fault::DeclareDead { .. }))
            .collect();
        assert_eq!(deads.len(), rack_servers);
        assert!(actions.windows(2).all(|w| w[0].0 <= w[1].0));
        // The deaths fall at the disk failure's instant and sort after
        // it: plan actions come first within an instant.
        let disk_fail = actions
            .iter()
            .position(|(_, a)| matches!(a, Fault::Plan(FaultAction::DiskFail(0))))
            .expect("disk failure scheduled");
        assert!(deads.iter().all(|&i| i > disk_fail));
        assert!(deads.iter().all(|&i| actions[i].0 == t0 + detection));
    }

    #[test]
    fn rack_loss_makes_durability_strictly_worse() {
        // The acceptance scenario: a rack-loss storm on DC-9 loses
        // strictly more blocks than the fault-free run — blocks whose
        // replicas all sat in the powered-off rack are written off when
        // the heartbeat declares their servers dead.
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 23);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 5);
        cfg.months = 2;
        let clean = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let mut faulted_cfg = cfg.clone();
        faulted_cfg.faults =
            FaultProfile::RackLoss.plan(5, dc.cluster_shape(), SimDuration::from_days(60));
        let faulted = simulate_durability(&dc, &faulted_cfg, &mut Recorder::off());
        assert!(faulted.faults_injected > 0, "no faults applied");
        assert!(
            faulted.lost_blocks > clean.lost_blocks,
            "rack loss did not hurt durability: faulted {} vs clean {}",
            faulted.lost_blocks,
            clean.lost_blocks
        );
    }

    #[test]
    fn retries_recover_more_blocks_than_giving_up() {
        // With the retry budget at zero every fault-aborted repair is
        // abandoned; with backoff retries the same storm recovers
        // strictly more replicas.
        let dc = dc(0.01);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 5);
        cfg.months = 1;
        // A slow fabric keeps ~40 transfers in flight at once during
        // the repair storm, so the second rack loss below lands while
        // repairs are mid-transfer and must abort a batch of them.
        cfg.network = Some(NetworkConfig {
            nic_gbps: 0.1,
            oversubscription: 4.0,
            ..NetworkConfig::datacenter()
        });
        // Stage the storm near the end of the simulated month: blocks
        // whose repairs are abandoned stay under-replicated at the end
        // of the run instead of being topped back up by later reimage
        // activity, so the retry budget's effect survives in the final
        // repair tally.
        let h = SimTime::ZERO + SimDuration::from_days(28);
        // Rack 0 dies for good: its ~24k replicas become a repair storm
        // that runs for hours. Mid-storm, racks 1 and 2 brown out for
        // five minutes — shorter than the heartbeat window, so their
        // servers are never declared dead and no re-replication is ever
        // queued for the aborted transfers. The backoff retry is then
        // the only path that finishes those repairs, which is exactly
        // what the max_retries = 0 comparison below measures.
        let mut events = vec![FaultEvent {
            at: h + SimDuration::from_hours(1),
            kind: FaultKind::RackPowerLoss { rack: 0 },
        }];
        for rack in [1u32, 2] {
            events.push(FaultEvent {
                at: h + SimDuration::from_mins(90),
                kind: FaultKind::RackPowerLoss { rack },
            });
            events.push(FaultEvent {
                at: h + SimDuration::from_mins(95),
                kind: FaultKind::RackPowerRestore { rack },
            });
        }
        let plan = FaultPlan::with_events(events);
        let mut with = cfg.clone();
        with.faults = plan.clone();
        let mut without = cfg.clone();
        without.faults = plan;
        without.faults.max_retries = 0;
        let mut rec = Recorder::new("retries");
        let w = simulate_durability(&dc, &with, &mut rec);
        let wo = simulate_durability(&dc, &without, &mut Recorder::off());
        // Transfers (by repair id) and fault retries (by block id) keep
        // separate state tracks, and both tile every entity's lifetime,
        // aborted transfers included.
        let analysis =
            harvest_sim::obs::analyze::analyze_recorder(&rec).expect("faulted trace analyzes");
        assert!(analysis.conserved(), "faulted trace failed conservation");
        for track in ["dfs/repair", "dfs/repair_retry"] {
            let s = analysis.states.iter().find(|s| s.name == track);
            assert!(
                s.is_some_and(|s| s.entities > 0),
                "{track} recorded nothing"
            );
        }
        assert!(w.repairs_aborted > 0, "storm never aborted a repair");
        assert!(w.fault_retries > 0, "aborted repairs never retried");
        assert!(wo.retries_exhausted > 0, "zero budget never exhausted");
        assert!(
            w.repairs > wo.repairs,
            "retries did not recover more replicas: with {} vs without {}",
            w.repairs,
            wo.repairs
        );
        assert!(
            w.lost_blocks <= wo.lost_blocks,
            "retries lost more blocks: with {} vs without {}",
            w.lost_blocks,
            wo.lost_blocks
        );
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        cfg.faults =
            FaultProfile::CorrelatedStorm.plan(9, dc.cluster_shape(), SimDuration::from_days(60));
        let a = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let b = simulate_durability(&dc, &cfg, &mut Recorder::off());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.repairs_aborted, b.repairs_aborted);
        assert_eq!(a.fault_retries, b.fault_retries);
        assert_eq!(a.retries_exhausted, b.retries_exhausted);
    }

    #[test]
    fn recording_a_faulted_run_changes_nothing_and_mirrors_counters() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.faults =
            FaultProfile::RackLoss.plan(11, dc.cluster_shape(), SimDuration::from_days(60));
        let plain = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let mut rec = Recorder::new("durability");
        let recorded = simulate_durability(&dc, &cfg, &mut rec);
        assert_eq!(fingerprint(&plain), fingerprint(&recorded));
        assert_eq!(
            rec.counter_value("dfs/faults_injected"),
            Some(recorded.faults_injected)
        );
        assert_eq!(
            rec.counter_value("dfs/repairs_aborted"),
            Some(recorded.repairs_aborted)
        );
    }

    /// A hand-built plan reaching the fault edges no named profile
    /// does: a crash of a down server, a restore of an up one, a disk
    /// failure then a restore (of an up and of a crashed server), a
    /// brown-out after a disk failure, two downs of one uplink, a
    /// same-instant crash and restore, and a crash restored before the
    /// heartbeat deadline.
    pub(crate) fn edge_plan() -> FaultPlan {
        let ev = |min: u64, kind| FaultEvent {
            at: SimTime::ZERO + SimDuration::from_mins(min),
            kind,
        };
        FaultPlan::with_events(vec![
            ev(30, FaultKind::ServerCrash { server: 3 }),
            ev(35, FaultKind::ServerCrash { server: 3 }),
            ev(40, FaultKind::ServerRestart { server: 5 }),
            ev(44, FaultKind::ServerCrash { server: 8 }),
            ev(45, FaultKind::DiskFail { server: 7 }),
            ev(45, FaultKind::DiskFail { server: 8 }),
            ev(
                50,
                FaultKind::DiskDegrade {
                    server: 7,
                    factor: 0.5,
                },
            ),
            ev(55, FaultKind::RackUplinkDown { rack: 1 }),
            ev(58, FaultKind::RackUplinkDown { rack: 1 }),
            ev(60, FaultKind::ServerRestart { server: 7 }),
            ev(60, FaultKind::ServerRestart { server: 8 }),
            ev(70, FaultKind::RackUplinkUp { rack: 1 }),
            ev(80, FaultKind::ServerCrash { server: 9 }),
            ev(80, FaultKind::ServerRestart { server: 9 }),
            ev(90, FaultKind::ServerCrash { server: 11 }),
            ev(95, FaultKind::ServerRestart { server: 11 }),
            ev(120, FaultKind::ServerRestart { server: 3 }),
        ])
    }

    /// FNV-1a over a sequence of words.
    pub(crate) fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// The edge plan over the fabric and the disks, pinned by the
    /// run's modelled outcome field by field: the block and repair
    /// totals, the fault counters, and the transfer models' completed,
    /// delivered, aborted and peak-concurrency counts.
    #[test]
    fn edge_plan_is_pinned() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        cfg.faults = edge_plan();
        let r = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let f = r.fabric.expect("network on");
        let d = r.disk.expect("disks on");
        assert!(r.fault_retries > 0, "the edge plan retried no repair");
        let hash = fnv([
            r.n_blocks,
            r.lost_blocks,
            r.reimages,
            r.repairs,
            r.repairs_too_late,
            r.lost_percent.to_bits(),
            r.faults_injected,
            r.repairs_aborted,
            r.fault_retries,
            r.retries_exhausted,
            r.repairs_shed,
            f.completed,
            f.bytes_delivered,
            f.flows_aborted,
            f.peak_active as u64,
            d.completed,
            d.bytes_moved,
            d.streams_aborted,
            d.peak_active as u64,
        ]);
        assert_eq!(
            hash, 0x3946_ffc6_45da_bbde,
            "the edge plan's durability outcome moved"
        );
    }

    #[test]
    fn network_and_disk_compose_deterministically() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        let a = simulate_durability(&dc, &cfg, &mut Recorder::off());
        let b = simulate_durability(&dc, &cfg, &mut Recorder::off());
        assert!(a.repairs > 0, "no repairs with both models on");
        assert_eq!(a.lost_blocks, b.lost_blocks);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.repairs_too_late, b.repairs_too_late);
    }
}
