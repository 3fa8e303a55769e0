//! Re-replication throttling and the repair network path.
//!
//! §5.1: after missing heartbeats from a data node, "the NN starts to
//! re-create the corresponding replicas in other servers without
//! overloading the network (30 blocks/hour/server)". The cluster's
//! aggregate repair bandwidth is therefore proportional to its size, and
//! every lost replica waits for detection plus its place in the repair
//! pipeline — the window in which further reimages can destroy the
//! remaining copies.
//!
//! The throttle alone misses the §7 lesson-2 failure mode: after a mass
//! reimage (a tenant-wide redeployment), every repair converges on the
//! same few racks and the fabric — not the 30 blocks/hour budget — sets
//! recovery time. [`simulate_reimage_storm`] replays exactly that
//! scenario, with each re-replication a real 256 MB flow through a
//! [`harvest_net::Fabric`] when a [`NetworkConfig`] is given.

use std::collections::BinaryHeap;

use harvest_cluster::{Datacenter, ServerId, TenantId};
use harvest_disk::{DiskConfig, DiskPool, IoDir};
use harvest_net::NetworkConfig;
use harvest_sim::idmap::IdMap;
use harvest_sim::obs::{HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::rng::stream_rng;
use harvest_sim::{SimDuration, SimTime};
use rand::RngExt;

use crate::placement::{PlacementPolicy, Placer};
use crate::store::{BlockStore, BLOCK_BYTES};

/// Repair-timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Time before the name node notices a dead data node (missed
    /// heartbeats; HDFS's default dead-node interval is ~10 minutes).
    pub detection_delay: SimDuration,
    /// Re-replication throttle per server per hour.
    pub blocks_per_server_per_hour: f64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            detection_delay: SimDuration::from_mins(10),
            blocks_per_server_per_hour: 30.0,
        }
    }
}

/// A cluster-wide repair pipeline: lost replicas are repaired in FIFO
/// order at the aggregate throttled rate.
#[derive(Debug, Clone)]
pub struct RepairPipeline {
    config: RepairConfig,
    /// Milliseconds of pipeline time consumed per block.
    ms_per_block: f64,
    /// When the pipeline next comes free (fractional ms for precision).
    next_free_ms: f64,
}

impl RepairPipeline {
    /// Creates a pipeline for a cluster of `n_servers`.
    ///
    /// # Panics
    ///
    /// Panics if `n_servers` is zero or the rate is non-positive.
    pub fn new(config: RepairConfig, n_servers: usize) -> Self {
        assert!(n_servers > 0, "cluster has no servers");
        assert!(
            config.blocks_per_server_per_hour > 0.0,
            "repair rate must be positive"
        );
        let blocks_per_hour = config.blocks_per_server_per_hour * n_servers as f64;
        RepairPipeline {
            config,
            ms_per_block: 3_600_000.0 / blocks_per_hour,
            next_free_ms: 0.0,
        }
    }

    /// Schedules one replica repair for a loss observed at `lost_at`.
    /// Returns when the new replica comes online.
    pub fn schedule(&mut self, lost_at: SimTime) -> SimTime {
        let earliest = (lost_at + self.config.detection_delay).as_millis() as f64;
        let start = earliest.max(self.next_free_ms);
        self.next_free_ms = start + self.ms_per_block;
        SimTime::from_millis(self.next_free_ms.ceil() as u64)
    }

    /// The configured detection delay.
    pub fn detection_delay(&self) -> SimDuration {
        self.config.detection_delay
    }
}

/// Configuration of a tenant-wide reimage-storm replay.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Placement policy used both to fill the store and to repair.
    pub policy: PlacementPolicy,
    /// Replicas per block.
    pub replication: usize,
    /// Fraction of harvestable space filled before the storm.
    pub fill_fraction: f64,
    /// The tenant whose every server is reimaged at time zero.
    pub tenant: TenantId,
    /// Master seed.
    pub seed: u64,
    /// Repair timing (detection delay and throttle).
    pub repair: RepairConfig,
    /// When set, every re-replication is a 256 MB flow through the
    /// fabric and only counts as durable when its last byte lands; when
    /// `None`, a repair is durable the moment the throttle releases it
    /// (the seed model's free-and-instant network).
    pub network: Option<NetworkConfig>,
    /// When set, every re-replication additionally reads 256 MB off the
    /// surviving replica's disk and writes them to the destination's,
    /// sharing each disk with the other repairs converging on it; the
    /// repair is durable only when the *slowest* of network, source
    /// read, and destination write finishes. `None` keeps disks free
    /// and instant. Composes with [`StormConfig::network`].
    pub disk: Option<DiskConfig>,
    /// Cap on simultaneously in-flight repair streams (HDFS's
    /// `replication.max-streams` backpressure, cluster-wide). Slots past
    /// the cap wait for a repair to finish. Only meaningful with a
    /// transfer model on (network and/or disk); `None` leaves
    /// concurrency to the throttle alone — safe at the default
    /// 30 blocks/hour, but an aggressive throttle over a slow fabric or
    /// slow disks then grows an unbounded transfer backlog, so set a
    /// cap whenever the throttle outruns transfer capacity. (A large
    /// backlog is also where the fabric's re-share cost can turn
    /// quadratic in active flows: only when the flows form one giant
    /// multi-bottleneck component, which the analytic tier cannot
    /// serve.)
    pub max_repair_streams: Option<usize>,
}

impl StormConfig {
    /// A storm over `tenant` with the paper's defaults.
    pub fn new(tenant: TenantId, seed: u64) -> Self {
        StormConfig {
            policy: PlacementPolicy::History,
            replication: 3,
            fill_fraction: 0.5,
            tenant,
            seed,
            repair: RepairConfig::default(),
            network: None,
            disk: None,
            max_repair_streams: None,
        }
    }
}

/// Outcome of a reimage-storm replay.
#[derive(Debug, Clone)]
pub struct StormResult {
    /// Blocks that existed before the storm.
    pub n_blocks: u64,
    /// Replicas destroyed by the reimage.
    pub replicas_lost: u64,
    /// Replicas successfully re-created.
    pub repairs: u64,
    /// Blocks whose every replica sat on the reimaged tenant.
    pub lost_blocks: u64,
    /// When the last re-replication became durable (the
    /// time-to-full-durability after the storm).
    pub recovered_at: SimTime,
    /// Mean seconds a repair spent in transfer — from its throttle slot
    /// to the last of its modeled components (network flow, source disk
    /// read, destination disk write) landing. 0 with both models off.
    pub mean_transfer_secs: f64,
    /// Final fabric counters (peak concurrent flows, re-shares, stale
    /// events dropped, peak event-heap length) when the network was
    /// modeled — the storm's contention-churn fingerprint.
    pub fabric: Option<harvest_net::FabricStats>,
    /// Final disk-pool counters when disks were modeled.
    pub disk: Option<harvest_disk::DiskStats>,
}

/// One queued repair: the block becomes eligible at `at` (its throttle
/// slot). Reverse-ordered so a `BinaryHeap` pops earliest-first, with
/// the block id as a deterministic tie-break. Shared by the storm
/// replay and the durability simulation so the two repair paths use one
/// queue discipline.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct QueuedRepair {
    pub(crate) at: SimTime,
    pub(crate) block: crate::store::BlockId,
}

impl Ord for QueuedRepair {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.block.cmp(&self.block))
    }
}

impl PartialOrd for QueuedRepair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Countdown over one repair's modeled transfer components (fabric
/// flow, source disk read, destination disk write): the outstanding
/// count, when the transfer started, and the latest component
/// completion seen so far. Shared by the storm replay and the
/// durability simulation so both land a repair at the *last*
/// component's instant — a repair moves at the min of its components'
/// rates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TransferParts {
    outstanding: u32,
    pub(crate) started: SimTime,
    last_done: SimTime,
}

impl TransferParts {
    pub(crate) fn new(outstanding: u32, started: SimTime) -> Self {
        TransferParts {
            outstanding,
            started,
            last_done: started,
        }
    }

    /// Records one component completion; returns the landing instant
    /// (the max over component completions) once this was the last one.
    pub(crate) fn component_done(&mut self, at: SimTime) -> Option<SimTime> {
        self.outstanding -= 1;
        self.last_done = self.last_done.max(at);
        (self.outstanding == 0).then_some(self.last_done)
    }
}

/// Picks the survivor a re-replication streams from: a same-rack
/// replica of the destination when one exists (the cheapest path), else
/// the first survivor. Shared by the storm replay and the durability
/// simulation so the two repair paths cannot drift apart.
///
/// # Panics
///
/// Panics if `existing` is empty (a lost block has no repair source).
pub fn repair_source(dc: &Datacenter, existing: &[u32], dest: ServerId) -> ServerId {
    let dest_rack = dc.server(dest).rack;
    ServerId(
        existing
            .iter()
            .copied()
            .find(|&s| dc.server(ServerId(s)).rack == dest_rack)
            .unwrap_or(existing[0]),
    )
}

/// Replays a tenant-wide mass reimage and the recovery that follows.
///
/// Phase 1 fills the store, phase 2 reimages every server of
/// `cfg.tenant` at time zero, phase 3 replays recovery: each lost
/// replica waits for heartbeat detection and its throttle slot, then —
/// with the network on — streams 256 MB from a surviving replica to its
/// new home through the shared fabric. Hundreds of concurrent
/// re-replications converging on a few racks saturate the
/// oversubscribed uplinks, which is exactly the §7 lesson-2 storm.
///
/// # Panics
///
/// Panics if the tenant id is out of range or the config is invalid.
pub fn simulate_reimage_storm(dc: &Datacenter, cfg: &StormConfig) -> StormResult {
    let mut rec = Recorder::off();
    simulate_reimage_storm_recorded(dc, cfg, &mut rec)
}

/// Metric ids registered when the storm's recorder is on.
struct StormObs {
    track: TrackId,
    repair_secs: HistogramId,
    /// Wait-state track `dfs/repair` (entity = repair id): `queued`
    /// from slot release to transfer start (backpressure wait),
    /// `running` while several components are in flight, then — once a
    /// single component remains — `blocked_on_net`,
    /// `blocked_on_disk_read`, or `blocked_on_disk_write` naming the
    /// straggler, exit when the last component lands.
    states: StateTrackId,
}

/// [`simulate_reimage_storm`] with observability: each repair's
/// transfer window (throttle slot to last-component landing) becomes a
/// span on the `dfs` track and a `dfs/repair_secs` histogram sample,
/// the fabric and disk pool record into child recorders absorbed back
/// into `rec`, and `dfs/*` counters mirror the result's totals.
/// Recording never changes the replay: the returned [`StormResult`]
/// matches [`simulate_reimage_storm`]'s exactly, and nothing is
/// printed.
///
/// # Panics
///
/// Panics if the tenant id is out of range or the config is invalid.
pub fn simulate_reimage_storm_recorded(
    dc: &Datacenter,
    cfg: &StormConfig,
    rec: &mut Recorder,
) -> StormResult {
    assert!(cfg.replication >= 1, "replication must be at least 1");
    assert!(
        (cfg.tenant.0 as usize) < dc.n_tenants(),
        "tenant {} out of range",
        cfg.tenant
    );
    assert!(
        cfg.max_repair_streams != Some(0),
        "a zero stream cap can never repair anything"
    );
    let placer = Placer::new(dc, cfg.policy);
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(cfg.seed, "reimage-storm");
    let n_servers = dc.n_servers();

    // Phase 1: fill the store.
    let capacity = dc.total_harvest_blocks();
    let target = ((capacity as f64 * cfg.fill_fraction) / cfg.replication as f64) as u64;
    let mut created = 0u64;
    for _ in 0..target {
        let writer = ServerId(rng.random_range(0..n_servers) as u32);
        match placer.place_new(&mut rng, &store, writer, cfg.replication, None) {
            Some(p) => {
                store.create_block(&p.servers);
                created += 1;
            }
            None => break,
        }
    }

    // Phase 2: reimage the whole tenant at t = 0.
    let t0 = SimTime::ZERO;
    let mut pipeline = RepairPipeline::new(cfg.repair, n_servers);
    let mut heap: BinaryHeap<QueuedRepair> = BinaryHeap::new();
    let mut replicas_lost = 0u64;
    for server in dc.tenant(cfg.tenant).server_ids() {
        for block in store.reimage_server(server) {
            replicas_lost += 1;
            if store.replica_count(block) > 0 {
                heap.push(QueuedRepair {
                    at: pipeline.schedule(t0),
                    block,
                });
            }
        }
    }
    let lost_blocks = store.lost_blocks();

    // Phase 3: recovery. With a transfer model on, a throttle slot
    // starts the repair's components — a fabric flow, and/or a source
    // disk read plus destination disk write — and the repair is durable
    // when the last of them finishes (a repair moves at the min of the
    // three rates). Destination space is reserved up front via
    // `add_replica` at transfer start, so concurrent in-flight repairs
    // cannot over-commit a server. This differs from
    // `simulate_durability`, which commits replicas only when transfers
    // land: the storm replays a single failure at t = 0 with no further
    // reimages, so an early-committed copy can never be destroyed or
    // invalidated mid-flight and the two disciplines are observationally
    // identical here — while keeping this loop free of the durability
    // path's in-flight bookkeeping. If the storm ever gains
    // mid-recovery failures, adopt `simulate_durability`'s land-time
    // commitment (in_flight/doomed accounting) instead.
    let mut fabric = cfg
        .network
        .as_ref()
        .map(|net| harvest_net::Fabric::from_datacenter(dc, net));
    let mut disks = cfg.disk.as_ref().map(|d| DiskPool::from_datacenter(dc, d));
    let obs = rec.is_on().then(|| StormObs {
        track: rec.track("dfs"),
        repair_secs: rec.histogram("dfs/repair_secs"),
        states: rec.state_track("dfs/repair"),
    });
    if rec.is_on() {
        if let Some(f) = fabric.as_mut() {
            f.set_recorder(rec.child());
        }
        if let Some(p) = disks.as_mut() {
            p.set_recorder(rec.child());
        }
    }
    let modeled = fabric.is_some() || disks.is_some();
    // In-flight repairs, by repair id.
    let mut in_flight: IdMap<TransferParts> = IdMap::default();
    // Obs-only: each in-flight repair's outstanding components, named
    // by the wait state a lone straggler would put the repair in.
    let mut tail: IdMap<Vec<&'static str>> = IdMap::default();
    let mut next_rid = 0u64;
    let mut repairs = 0u64;
    let mut recovered_at = t0;
    let mut transfer_secs_total = 0.0;
    let mut transfers = 0u64;

    loop {
        // Backpressure: at the stream cap, only a completion can free a
        // slot, so time jumps straight to the next transfer event.
        let at_cap = cfg
            .max_repair_streams
            .map(|cap| modeled && in_flight.len() >= cap)
            .unwrap_or(false);
        let t_slot = heap.peek().map(|r| r.at).filter(|_| !at_cap);
        let t_net = fabric.as_ref().and_then(|f| f.next_event_time());
        let t_disk = disks.as_ref().and_then(|p| p.next_event_time());
        let Some(now) = [t_slot, t_net, t_disk].into_iter().flatten().min() else {
            break;
        };

        // Transfer events first: a completed repair is durable before a
        // simultaneous slot release is processed.
        let rec = &mut *rec;
        let obs = obs.as_ref();
        let tail = &mut tail;
        let mut finish_part = |rid: u64, at: SimTime, kind: &'static str| {
            let e = in_flight.get_mut(&rid).expect("repair in flight");
            if let Some(landed_at) = e.component_done(at) {
                let started = e.started;
                in_flight.remove(&rid);
                repairs += 1;
                recovered_at = recovered_at.max(landed_at);
                transfer_secs_total += landed_at.since(started).as_secs_f64();
                transfers += 1;
                if let Some(obs) = obs {
                    rec.observe(obs.repair_secs, landed_at.since(started).as_secs_f64());
                    rec.span(obs.track, "repair", started, landed_at);
                    rec.state_exit(obs.states, rid, landed_at);
                    tail.remove(&rid);
                }
            } else if let Some(obs) = obs {
                // A component finished but the repair is still waiting;
                // once exactly one remains, blame it by name.
                let comps = tail.get_mut(&rid).expect("tracked while in flight");
                comps.retain(|&k| k != kind);
                if comps.len() == 1 {
                    rec.state_enter(obs.states, rid, comps[0], at);
                }
            }
        };
        if let Some(f) = fabric.as_mut() {
            for done in f.pump(now) {
                finish_part(done.tag, done.at, "blocked_on_net");
            }
        }
        if let Some(p) = disks.as_mut() {
            for done in p.pump(now) {
                let kind = match done.dir {
                    IoDir::Read => "blocked_on_disk_read",
                    IoDir::Write => "blocked_on_disk_write",
                };
                finish_part(done.tag, done.at, kind);
            }
        }

        while heap.peek().map(|r| r.at <= now).unwrap_or(false) {
            if let Some(cap) = cfg.max_repair_streams {
                if modeled && in_flight.len() >= cap {
                    break; // resume when a repair completes
                }
            }
            let r = heap.pop().expect("peeked");
            let block = r.block;
            if store.replica_count(block) >= cfg.replication {
                continue; // duplicate entry
            }
            let existing = store.replicas(block);
            let Some(dest) = placer.place_repair(&mut rng, &store, existing, None) else {
                // Cluster momentarily full; retry after another slot.
                heap.push(QueuedRepair {
                    at: pipeline.schedule(r.at),
                    block,
                });
                continue;
            };
            let src = modeled.then(|| repair_source(dc, existing, dest));
            store.add_replica(block, dest);
            if let Some(src) = src {
                // A slot deferred by backpressure starts now, not at
                // its original release time.
                let start = r.at.max(now);
                let rid = next_rid;
                next_rid += 1;
                let mut parts = 0u32;
                if let Some(f) = fabric.as_mut() {
                    f.schedule_flow(start, src, dest, BLOCK_BYTES, rid);
                    parts += 1;
                }
                if let Some(p) = disks.as_mut() {
                    p.schedule_stream(start, src, IoDir::Read, BLOCK_BYTES, rid);
                    p.schedule_stream(start, dest, IoDir::Write, BLOCK_BYTES, rid);
                    parts += 2;
                }
                in_flight.insert(rid, TransferParts::new(parts, start));
                if let Some(obs) = obs {
                    rec.state_enter(obs.states, rid, "queued", r.at);
                    rec.state_enter(obs.states, rid, "running", start);
                    let mut comps: Vec<&'static str> = Vec::new();
                    if fabric.is_some() {
                        comps.push("blocked_on_net");
                    }
                    if disks.is_some() {
                        comps.push("blocked_on_disk_read");
                        comps.push("blocked_on_disk_write");
                    }
                    tail.insert(rid, comps);
                }
            } else {
                repairs += 1;
                recovered_at = recovered_at.max(r.at);
            }
            if store.replica_count(block) < cfg.replication {
                heap.push(QueuedRepair {
                    at: pipeline.schedule(r.at),
                    block,
                });
            }
        }
    }

    if rec.is_on() {
        if let Some(f) = fabric.as_mut() {
            let child = f.take_recorder();
            rec.absorb(child);
        }
        if let Some(p) = disks.as_mut() {
            let child = p.take_recorder();
            rec.absorb(child);
        }
        let id = rec.counter("dfs/repairs");
        rec.counter_set(id, repairs);
        let id = rec.counter("dfs/replicas_lost");
        rec.counter_set(id, replicas_lost);
        let id = rec.counter("dfs/lost_blocks");
        rec.counter_set(id, lost_blocks);
    }

    StormResult {
        n_blocks: created,
        replicas_lost,
        repairs,
        lost_blocks,
        recovered_at,
        mean_transfer_secs: if transfers == 0 {
            0.0
        } else {
            transfer_secs_total / transfers as f64
        },
        fabric: fabric.as_ref().map(|f| *f.stats()),
        disk: disks.as_ref().map(|p| *p.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_delay_applies() {
        let mut p = RepairPipeline::new(RepairConfig::default(), 1_000);
        let t = p.schedule(SimTime::from_secs(100));
        // 100 s + 600 s detection + one block of pipeline time.
        assert!(t >= SimTime::from_secs(700));
        assert!(t < SimTime::from_secs(702));
    }

    #[test]
    fn pipeline_throttles_bursts() {
        // 100 servers × 30 blocks/hour = 3000 blocks/hour.
        let mut p = RepairPipeline::new(RepairConfig::default(), 100);
        let lost_at = SimTime::from_secs(0);
        let times: Vec<SimTime> = (0..3_000).map(|_| p.schedule(lost_at)).collect();
        // The last of 3000 repairs lands about an hour after detection.
        let last = *times.last().unwrap();
        let first = times[0];
        let spread = last.since(first);
        assert!(
            (spread.as_secs_f64() - 3_600.0).abs() < 30.0,
            "3000 repairs spread over {spread} (expected ~1h)"
        );
        // Monotone.
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn idle_pipeline_does_not_accumulate_lag() {
        let mut p = RepairPipeline::new(RepairConfig::default(), 100);
        p.schedule(SimTime::from_secs(0));
        // A loss much later is not delayed by the long-idle pipeline.
        let t = p.schedule(SimTime::from_secs(86_400));
        assert!(t < SimTime::from_secs(86_400 + 605));
    }

    #[test]
    fn bigger_clusters_repair_faster() {
        let mut small = RepairPipeline::new(RepairConfig::default(), 10);
        let mut big = RepairPipeline::new(RepairConfig::default(), 10_000);
        let lost = SimTime::from_secs(0);
        let small_last = (0..1_000).map(|_| small.schedule(lost)).last().unwrap();
        let big_last = (0..1_000).map(|_| big.schedule(lost)).last().unwrap();
        assert!(big_last < small_last);
    }

    fn storm_dc() -> Datacenter {
        use harvest_trace::datacenter::DatacenterProfile;
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 17)
    }

    fn biggest_tenant(dc: &Datacenter) -> TenantId {
        dc.tenants
            .iter()
            .max_by_key(|t| t.n_servers())
            .expect("dc has tenants")
            .id
    }

    #[test]
    fn storm_recovers_every_survivable_block() {
        let dc = storm_dc();
        let cfg = StormConfig::new(biggest_tenant(&dc), 3);
        let r = simulate_reimage_storm(&dc, &cfg);
        assert!(r.n_blocks > 0);
        assert!(r.replicas_lost > 0, "reimaging a tenant lost nothing");
        // Every lost replica of a surviving block is eventually repaired
        // (a lost block is one whose full replica set sat on the tenant).
        assert_eq!(
            r.repairs,
            r.replicas_lost - r.lost_blocks * cfg.replication as u64,
            "repairs do not cover the surviving blocks' losses"
        );
        assert!(r.recovered_at > SimTime::ZERO);
    }

    #[test]
    fn network_extends_recovery_time() {
        let dc = storm_dc();
        let tenant = biggest_tenant(&dc);
        let mut base = StormConfig::new(tenant, 3);
        base.fill_fraction = 0.2;
        let off = simulate_reimage_storm(&dc, &base);
        let mut with_net = base.clone();
        with_net.network = Some(NetworkConfig::datacenter());
        let on = simulate_reimage_storm(&dc, &with_net);
        assert_eq!(off.repairs, on.repairs, "network changed repair count");
        assert!(
            on.recovered_at >= off.recovered_at,
            "fabric made recovery faster? off {} on {}",
            off.recovered_at,
            on.recovered_at
        );
        assert!(on.mean_transfer_secs > 0.0);
        assert_eq!(off.mean_transfer_secs, 0.0);
    }

    #[test]
    fn tighter_oversubscription_slows_the_storm() {
        let dc = storm_dc();
        let tenant = biggest_tenant(&dc);
        let mut cfg = StormConfig::new(tenant, 3);
        cfg.fill_fraction = 0.2;
        // A pathologically slow fabric (100 Mb NICs) must stretch
        // transfers well past the fast fabric's. Its capacity sits below
        // the throttle's demand, so backpressure is required to keep the
        // backlog (and the simulation) bounded.
        cfg.max_repair_streams = Some(64);
        cfg.network = Some(NetworkConfig {
            nic_gbps: 0.1,
            oversubscription: 8.0,
            ..NetworkConfig::datacenter()
        });
        let slow = simulate_reimage_storm(&dc, &cfg);
        cfg.network = Some(NetworkConfig::non_blocking());
        let fast = simulate_reimage_storm(&dc, &cfg);
        assert!(
            slow.mean_transfer_secs > fast.mean_transfer_secs * 2.0,
            "slow fabric {}s vs fast {}s",
            slow.mean_transfer_secs,
            fast.mean_transfer_secs
        );
        assert!(slow.recovered_at >= fast.recovered_at);
    }

    #[test]
    fn storm_replays_deterministically() {
        let dc = storm_dc();
        let mut cfg = StormConfig::new(biggest_tenant(&dc), 9);
        cfg.fill_fraction = 0.15;
        cfg.network = Some(NetworkConfig::datacenter());
        let a = simulate_reimage_storm(&dc, &cfg);
        let b = simulate_reimage_storm(&dc, &cfg);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.recovered_at, b.recovered_at);
        assert_eq!(a.mean_transfer_secs, b.mean_transfer_secs);
    }

    #[test]
    fn disks_extend_recovery_beyond_the_network() {
        // A 256 MB destination write at 120 MB/s (~2.1 s) dominates the
        // same block's 10 GbE flow (~0.2 s): with disks modeled, every
        // repair window stretches and full durability lands strictly
        // later.
        let dc = storm_dc();
        let mut cfg = StormConfig::new(biggest_tenant(&dc), 3);
        cfg.fill_fraction = 0.2;
        cfg.network = Some(NetworkConfig::datacenter());
        let net_only = simulate_reimage_storm(&dc, &cfg);
        cfg.disk = Some(DiskConfig::datacenter());
        let with_disks = simulate_reimage_storm(&dc, &cfg);
        assert_eq!(
            net_only.repairs, with_disks.repairs,
            "disk model changed repair count"
        );
        assert!(
            with_disks.recovered_at > net_only.recovered_at,
            "disks made recovery no slower? net {} vs both {}",
            net_only.recovered_at,
            with_disks.recovered_at
        );
        assert!(with_disks.mean_transfer_secs > net_only.mean_transfer_secs);
    }

    #[test]
    fn disk_only_storm_recovers_everything() {
        // Disks without a fabric still bound recovery (the seed model's
        // instant transfers are gone) and every survivable block is
        // repaired.
        let dc = storm_dc();
        let mut cfg = StormConfig::new(biggest_tenant(&dc), 3);
        cfg.fill_fraction = 0.2;
        cfg.disk = Some(DiskConfig::datacenter());
        let r = simulate_reimage_storm(&dc, &cfg);
        assert_eq!(
            r.repairs,
            r.replicas_lost - r.lost_blocks * cfg.replication as u64
        );
        assert!(r.mean_transfer_secs > 0.0);
    }

    #[test]
    fn recording_does_not_change_the_storm() {
        let dc = storm_dc();
        let mut cfg = StormConfig::new(biggest_tenant(&dc), 13);
        cfg.fill_fraction = 0.15;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        cfg.max_repair_streams = Some(64);
        let plain = simulate_reimage_storm(&dc, &cfg);
        let mut rec = Recorder::new("storm-test");
        let recorded = simulate_reimage_storm_recorded(&dc, &cfg, &mut rec);
        assert_eq!(plain.repairs, recorded.repairs);
        assert_eq!(plain.recovered_at, recorded.recovered_at);
        assert_eq!(plain.mean_transfer_secs, recorded.mean_transfer_secs);
        assert_eq!(plain.fabric, recorded.fabric);
        assert_eq!(plain.disk, recorded.disk);
        // Counters mirror the result, and the children were absorbed.
        assert_eq!(rec.counter_value("dfs/repairs"), Some(recorded.repairs));
        assert_eq!(
            rec.counter_value("dfs/replicas_lost"),
            Some(recorded.replicas_lost)
        );
        assert_eq!(
            rec.counter_value("fabric/completed"),
            Some(recorded.fabric.expect("net on").completed)
        );
        assert_eq!(
            rec.counter_value("disk/completed"),
            Some(recorded.disk.expect("disks on").completed)
        );
    }

    #[test]
    fn disked_storm_replays_deterministically() {
        let dc = storm_dc();
        let mut cfg = StormConfig::new(biggest_tenant(&dc), 11);
        cfg.fill_fraction = 0.15;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        cfg.max_repair_streams = Some(64);
        let a = simulate_reimage_storm(&dc, &cfg);
        let b = simulate_reimage_storm(&dc, &cfg);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.recovered_at, b.recovered_at);
        assert_eq!(a.mean_transfer_secs, b.mean_transfer_secs);
    }

    #[test]
    fn randomized_storms_conserve_state_time_and_ignore_recording() {
        // Randomized DC-9 workloads: different seeds, fills, and
        // transfer-model combinations. For each, (a) the run with a
        // live recorder is bitwise identical to the recorder-off run,
        // and (b) the recorded wait states tile every repair's lifetime
        // exactly (integer sim time — no epsilon) with a critical path
        // bounded by the makespan.
        let dc = storm_dc();
        let tenant = biggest_tenant(&dc);
        let variants: [(u64, f64, bool, bool); 3] = [
            (5, 0.10, true, false),
            (23, 0.15, true, true),
            (31, 0.12, false, true),
        ];
        for (seed, fill, net, disk) in variants {
            let mut cfg = StormConfig::new(tenant, seed);
            cfg.fill_fraction = fill;
            cfg.network = net.then(NetworkConfig::datacenter);
            cfg.disk = disk.then(DiskConfig::datacenter);
            cfg.max_repair_streams = Some(64);
            let plain = simulate_reimage_storm(&dc, &cfg);
            let mut rec = Recorder::new("storm-props");
            let recorded = simulate_reimage_storm_recorded(&dc, &cfg, &mut rec);
            assert_eq!(plain.repairs, recorded.repairs, "seed {seed}");
            assert_eq!(plain.recovered_at, recorded.recovered_at, "seed {seed}");
            assert_eq!(
                plain.mean_transfer_secs.to_bits(),
                recorded.mean_transfer_secs.to_bits(),
                "seed {seed}"
            );

            let analysis =
                harvest_sim::obs::analyze::analyze_recorder(&rec).expect("trace analyzes");
            let sb = analysis
                .states
                .iter()
                .find(|s| s.name == "dfs/repair")
                .expect("repair states recorded");
            assert!(sb.entities > 0, "seed {seed}: no repairs tracked");
            assert_eq!(
                sb.conserved, sb.entities,
                "seed {seed}: state breakdown must tile each repair's lifetime"
            );
            assert!(
                sb.critical_us <= sb.makespan_us,
                "seed {seed}: critical path exceeds makespan"
            );
        }
    }
}
