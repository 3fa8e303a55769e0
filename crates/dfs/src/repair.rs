//! Re-replication: the throttled repair pipeline and the one driver that
//! replays reimages through it.
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
//!
//! The storm and the year-long durability simulation
//! ([`crate::durability`]) are one mechanism, so both run one driver
//! (`replay`): it fills the store, then replays a sorted reimage
//! schedule — a whole tenant at t = 0 for the storm, generated months
//! for durability — and any injected faults, moving every lost replica
//! through detection, the throttle, an optional stream cap and the
//! modelled transfer. A replica is committed only when its transfer
//! lands, so a reimage or fault mid-transfer is always accounted for.

use std::collections::{BTreeSet, BinaryHeap, HashSet};

use harvest_cluster::{Datacenter, ServerId, TenantId};
use harvest_disk::{DiskConfig, DiskPool, DiskStats, IoDir};
use harvest_net::{Fabric, FabricStats, NetworkConfig};
use harvest_sim::fault::{FaultKind, FaultPlan};
use harvest_sim::idmap::{sorted_ids, IdBuildHasher, IdMap};
use harvest_sim::obs::{HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::rng::stream_rng;
use harvest_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::placement::{PlacementPolicy, Placer};
use crate::store::{BlockId, BlockStore, BLOCK_BYTES};

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
pub(crate) struct RepairPipeline {
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
    pub(crate) fn schedule(&mut self, lost_at: SimTime) -> SimTime {
        let earliest = (lost_at + self.config.detection_delay).as_millis() as f64;
        let start = earliest.max(self.next_free_ms);
        self.next_free_ms = start + self.ms_per_block;
        SimTime::from_millis(self.next_free_ms.ceil() as u64)
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
    /// Mean seconds a repair spent in transfer — from its start (its
    /// throttle slot, or later when the stream cap held it back) to the
    /// last of its modeled components (network flow, source disk read,
    /// destination disk write) landing. 0 with both models off.
    pub mean_transfer_secs: f64,
    /// Final fabric counters (peak concurrent flows, re-shares, stale
    /// events dropped, peak event-heap length) when the network was
    /// modeled — the storm's contention-churn fingerprint.
    pub fabric: Option<harvest_net::FabricStats>,
    /// Final disk-pool counters when disks were modeled.
    pub disk: Option<harvest_disk::DiskStats>,
}

/// Replays a tenant-wide mass reimage and the recovery that follows.
///
/// The store is filled, every server of `cfg.tenant` is reimaged at
/// time zero, and recovery is replayed: each lost replica waits for
/// heartbeat detection and its throttle slot, then — with the network
/// on — streams 256 MB from a surviving replica to its new home through
/// the shared fabric. Hundreds of concurrent re-replications converging
/// on a few racks saturate the oversubscribed uplinks, which is exactly
/// the §7 lesson-2 storm.
///
/// # Panics
///
/// Panics if the tenant id is out of range or the config is invalid.
pub fn simulate_reimage_storm(dc: &Datacenter, cfg: &StormConfig) -> StormResult {
    let mut rec = Recorder::off();
    simulate_reimage_storm_recorded(dc, cfg, &mut rec)
}

/// [`simulate_reimage_storm`] with observability: each repair's
/// transfer window (start to last-component landing) becomes a
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
    assert!(
        (cfg.tenant.0 as usize) < dc.n_tenants(),
        "tenant {} out of range",
        cfg.tenant
    );
    let reimages = dc
        .tenant(cfg.tenant)
        .server_ids()
        .map(|s| (SimTime::ZERO, s))
        .collect();
    let r = replay(
        dc,
        Replay {
            policy: cfg.policy,
            replication: cfg.replication,
            fill_fraction: cfg.fill_fraction,
            seed: cfg.seed,
            stream: "reimage-storm",
            repair: cfg.repair,
            network: cfg.network.as_ref(),
            disk: cfg.disk.as_ref(),
            max_streams: cfg.max_repair_streams,
            reimages,
            faults: &FaultPlan::none(),
            horizon: SimTime::MAX,
        },
        rec,
    );
    StormResult {
        n_blocks: r.n_blocks,
        replicas_lost: r.replicas_lost,
        repairs: r.repairs,
        lost_blocks: r.lost_blocks,
        recovered_at: r.recovered_at,
        mean_transfer_secs: if r.transfers == 0 {
            0.0
        } else {
            r.transfer_secs / r.transfers as f64
        },
        fabric: r.fabric,
        disk: r.disk,
    }
}

/// Picks the survivor a re-replication streams from: a same-rack
/// replica of the destination when one exists (the cheapest path), else
/// the first survivor.
///
/// # Panics
///
/// Panics if `existing` is empty (a lost block has no repair source).
pub(crate) fn repair_source(dc: &Datacenter, existing: &[u32], dest: ServerId) -> ServerId {
    let dest_rack = dc.server(dest).rack;
    ServerId(
        existing
            .iter()
            .copied()
            .find(|&s| dc.server(ServerId(s)).rack == dest_rack)
            .unwrap_or(existing[0]),
    )
}

/// What one run of the repair driver replays.
pub(crate) struct Replay<'a> {
    /// Placement policy used both to fill the store and to repair.
    pub(crate) policy: PlacementPolicy,
    /// Replicas per block.
    pub(crate) replication: usize,
    /// Fraction of harvestable space filled before the first reimage.
    pub(crate) fill_fraction: f64,
    /// Master seed.
    pub(crate) seed: u64,
    /// Name of the RNG stream that fills the store and places repairs.
    pub(crate) stream: &'static str,
    /// Detection delay and throttle.
    pub(crate) repair: RepairConfig,
    /// The fabric every re-replication's flow crosses, if modelled.
    pub(crate) network: Option<&'a NetworkConfig>,
    /// The disks every re-replication reads and writes, if modelled.
    pub(crate) disk: Option<&'a DiskConfig>,
    /// Cap on in-flight transfers: a slot released at the cap waits for
    /// a landing to free one and then starts at that instant.
    pub(crate) max_streams: Option<usize>,
    /// Server reimages, sorted by (time, server).
    pub(crate) reimages: Vec<(SimTime, ServerId)>,
    /// Injected faults and the retry/backoff knobs.
    pub(crate) faults: &'a FaultPlan,
    /// Fault events after this instant are dropped.
    pub(crate) horizon: SimTime,
}

/// Totals of one replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct Replayed {
    pub(crate) n_blocks: u64,
    /// Replicas destroyed by reimages (scheduled, declared dead, or
    /// failed disks).
    pub(crate) replicas_lost: u64,
    pub(crate) lost_blocks: u64,
    pub(crate) repairs: u64,
    /// Repairs abandoned because the block was already lost.
    pub(crate) too_late: u64,
    /// The last instant a replica was committed.
    pub(crate) recovered_at: SimTime,
    /// Transfers that ran to their last component, and their summed
    /// seconds from start to landing.
    pub(crate) transfers: u64,
    pub(crate) transfer_secs: f64,
    pub(crate) faults_injected: u64,
    pub(crate) repairs_aborted: u64,
    pub(crate) fault_retries: u64,
    pub(crate) retries_exhausted: u64,
    pub(crate) repairs_shed: u64,
    pub(crate) fabric: Option<FabricStats>,
    pub(crate) disk: Option<DiskStats>,
}

/// Fills the store, replays `spec`'s reimages and faults, and repairs
/// every lost replica through the pipeline, the stream cap and the
/// modelled transfers until nothing is left to happen.
///
/// With `rec` on, each transfer walks the `dfs/repair` state track
/// (entity = repair id): `queued` from its throttle slot to its start
/// (backpressure), `running` while several components move, then —
/// once one remains — `blocked_on_net`, `blocked_on_disk_read` or
/// `blocked_on_disk_write`, until it lands or a fault aborts it. It is
/// also a `repair` span on the `dfs` track and a `dfs/repair_secs`
/// sample. Under an armed fault plan, faults are `fault/*` instants on
/// the `dfs/fault` track and every fault-interrupted block walks
/// `failed` → `retrying` on `dfs/repair_retry` (entity = block id).
/// Recording never changes the replay.
pub(crate) fn replay(dc: &Datacenter, spec: Replay<'_>, rec: &mut Recorder) -> Replayed {
    assert!(spec.replication >= 1, "replication must be at least 1");
    assert!(
        spec.max_streams != Some(0),
        "a zero stream cap can never repair anything"
    );
    let placer = Placer::new(dc, spec.policy);
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(spec.seed, spec.stream);
    let n_blocks = fill(dc, &placer, &mut store, &mut rng, &spec);

    let mut fabric = spec.network.map(|n| Fabric::from_datacenter(dc, n));
    let mut disks = spec.disk.map(|d| DiskPool::from_datacenter(dc, d));
    let armed = !spec.faults.is_none();
    let obs = rec.is_on().then(|| Obs {
        track: rec.track("dfs"),
        repair_secs: rec.histogram("dfs/repair_secs"),
        transfers: rec.state_track("dfs/repair"),
        faults: armed.then(|| (rec.track("dfs/fault"), rec.state_track("dfs/repair_retry"))),
    });
    if rec.is_on() {
        if let Some(f) = fabric.as_mut() {
            f.set_recorder(rec.child());
        }
        if let Some(p) = disks.as_mut() {
            p.set_recorder(rec.child());
        }
    }
    let actions = if armed {
        expand_fault_plan(dc, spec.faults, spec.repair.detection_delay, spec.horizon)
    } else {
        Vec::new()
    };
    let mut d = Driver {
        dc,
        placer,
        store,
        rng,
        replication: spec.replication,
        cap: spec.max_streams,
        pipeline: RepairPipeline::new(spec.repair, dc.n_servers()),
        queue: BinaryHeap::new(),
        fabric,
        disks,
        in_flight: IdMap::default(),
        streaming: IdMap::default(),
        landed: Vec::new(),
        next_rid: 0,
        faults: Faults {
            armed,
            plan: spec.faults,
            down: vec![false; dc.n_servers()],
            attempts: IdMap::default(),
            retrying: HashSet::default(),
            seed: spec.seed,
        },
        rec,
        obs,
        out: Replayed {
            n_blocks,
            ..Replayed::default()
        },
    };

    // One loop over five deterministic sources, earliest first; ties
    // resolve transfers < slots < reimages < faults, so a transfer that
    // lands at the instant a server dies still counts. The slots due at
    // one instant release as one batch, and the engines start their
    // transfers on the next pump. A slot deferred by the stream cap
    // releases no earlier than the clock.
    let (mut next_reimage, mut next_fault) = (0, 0);
    let mut clock = SimTime::ZERO;
    loop {
        let t_net = d.fabric.as_ref().and_then(Fabric::next_event_time);
        let t_disk = d.disks.as_ref().and_then(DiskPool::next_event_time);
        let t_slot = (!d.at_cap())
            .then(|| d.queue.peek().map(|r| r.at.max(clock)))
            .flatten();
        let reimage = spec.reimages.get(next_reimage).copied();
        let fault = actions.get(next_fault).copied();
        let Some(now) = [
            t_net,
            t_disk,
            t_slot,
            reimage.map(|r| r.0),
            fault.map(|f| f.0),
        ]
        .into_iter()
        .flatten()
        .min() else {
            break;
        };
        clock = now;
        if t_net == Some(now) || t_disk == Some(now) {
            d.pump(now);
        } else if t_slot == Some(now) {
            d.release_due(now);
        } else if let Some((_, server)) = reimage.filter(|r| r.0 == now) {
            next_reimage += 1;
            d.reimage(server, now);
        } else if let Some((_, action)) = fault {
            next_fault += 1;
            d.apply_fault(action, now);
        }
    }
    d.finish(clock)
}

/// Fills the store to `spec.fill_fraction` of the cluster's harvestable
/// space, writers uniform over servers as block creators in the batch
/// workload are. Returns the blocks created.
fn fill(
    dc: &Datacenter,
    placer: &Placer<'_>,
    store: &mut BlockStore,
    rng: &mut StdRng,
    spec: &Replay<'_>,
) -> u64 {
    let capacity = dc.total_harvest_blocks();
    let target = ((capacity as f64 * spec.fill_fraction) / spec.replication as f64) as u64;
    let n_servers = dc.n_servers();
    let mut created = 0u64;
    for _ in 0..target {
        let writer = ServerId(rng.random_range(0..n_servers) as u32);
        match placer.place_new(rng, store, writer, spec.replication, None) {
            Some(p) => {
                store.create_block(&p.servers);
                created += 1;
            }
            None => break,
        }
    }
    created
}

/// One queued repair: the block becomes eligible at `at` (its throttle
/// slot). Reverse-ordered so a `BinaryHeap` pops earliest-first, with
/// the block id as a deterministic tie-break.
#[derive(Debug, PartialEq, Eq)]
struct QueuedRepair {
    at: SimTime,
    block: BlockId,
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

/// Transfer components, as bits of [`InFlight::parts`].
const NET: u8 = 1;
const DISK_READ: u8 = 2;
const DISK_WRITE: u8 = 4;

/// One re-replication in transfer. It lands at the *last* component's
/// instant: a repair moves at the min of its components' rates.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    block: BlockId,
    /// Kept so a crash or disk failure there can abort the transfer.
    src: ServerId,
    dest: ServerId,
    started: SimTime,
    /// The latest component completion so far.
    last_done: SimTime,
    /// Components still moving.
    parts: u8,
    /// The destination was reimaged mid-transfer: the half-written copy
    /// is gone, so the landing fails and re-queues.
    doomed: bool,
}

/// A single server-granular fault consequence, expanded from the plan's
/// rack- and server-level events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    /// The server stops heartbeating: links die, streams die, in-flight
    /// repairs touching it abort. Its replicas are still on disk.
    Crash(ServerId),
    /// The heartbeat timeout elapsed without a restart: the namenode
    /// writes the server off and queues re-replication for its blocks.
    DeclareDead { server: ServerId, crashed: SimTime },
    /// The server comes back. If it was declared dead it returns empty
    /// (already reimaged); otherwise its replicas were never lost.
    Restore(ServerId),
    /// Both rack↔agg links die (flows crossing them abort and retry).
    UplinkDown(u32),
    /// Both rack↔agg links recover (parked flows rescue).
    UplinkUp(u32),
    /// The disk dies and is replaced: an unplanned reimage while the
    /// server itself stays reachable.
    DiskFail(ServerId),
    /// Brown-out: the disk's secondary bandwidth scales by a factor.
    DiskDegrade(ServerId, f64),
}

/// Expands a [`FaultPlan`] into the server-granular action list the
/// driver consumes: rack power events fan out to every server in the
/// rack, and each crash that no restart beats to the heartbeat deadline
/// gets a `DeclareDead` at crash + detection delay. Events past
/// `horizon` (the simulated span) are dropped so an armed plan whose
/// events never fire is exactly a no-op.
pub(crate) fn expand_fault_plan(
    dc: &Datacenter,
    plan: &FaultPlan,
    detection: SimDuration,
    horizon: SimTime,
) -> Vec<(SimTime, FaultAction)> {
    let n = dc.n_servers() as u32;
    let n_racks = dc.n_racks() as u32;
    let mut raw: Vec<(SimTime, u32, FaultAction)> = Vec::new();
    let mut seq = 0u32;
    for ev in plan.events.iter().filter(|e| e.at <= horizon) {
        let mut add = |action: FaultAction| {
            raw.push((ev.at, seq, action));
            seq += 1;
        };
        match ev.kind {
            FaultKind::ServerCrash { server } if server < n => {
                add(FaultAction::Crash(ServerId(server)));
            }
            FaultKind::ServerRestart { server } if server < n => {
                add(FaultAction::Restore(ServerId(server)));
            }
            FaultKind::RackPowerLoss { rack } if rack < n_racks => {
                for s in dc.servers_in_rack(rack) {
                    add(FaultAction::Crash(ServerId(s)));
                }
            }
            FaultKind::RackPowerRestore { rack } if rack < n_racks => {
                for s in dc.servers_in_rack(rack) {
                    add(FaultAction::Restore(ServerId(s)));
                }
            }
            FaultKind::RackUplinkDown { rack } if rack < n_racks => {
                add(FaultAction::UplinkDown(rack));
            }
            FaultKind::RackUplinkUp { rack } if rack < n_racks => {
                add(FaultAction::UplinkUp(rack));
            }
            FaultKind::DiskFail { server } if server < n => {
                add(FaultAction::DiskFail(ServerId(server)));
            }
            FaultKind::DiskDegrade { server, factor }
                if server < n && factor.is_finite() && factor >= 0.0 =>
            {
                add(FaultAction::DiskDegrade(ServerId(server), factor));
            }
            // Out-of-range targets (a plan drawn for a different
            // cluster shape) are skipped rather than panicking.
            _ => {}
        }
    }
    let crashes: Vec<(SimTime, ServerId)> = raw
        .iter()
        .filter_map(|&(t, _, a)| match a {
            FaultAction::Crash(s) => Some((t, s)),
            _ => None,
        })
        .collect();
    for (t, s) in crashes {
        let dead_at = t + detection;
        let restored_in_time = raw.iter().any(|&(rt, _, a)| {
            matches!(a, FaultAction::Restore(rs) if rs == s) && rt > t && rt < dead_at
        });
        if !restored_in_time {
            raw.push((
                dead_at,
                seq,
                FaultAction::DeclareDead {
                    server: s,
                    crashed: t,
                },
            ));
            seq += 1;
        }
    }
    raw.sort_by_key(|&(t, q, _)| (t, q));
    raw.into_iter().map(|(t, _, a)| (t, a)).collect()
}

/// Recorder handles, registered once when recording is on.
#[derive(Debug, Clone, Copy)]
struct Obs {
    track: TrackId,
    repair_secs: HistogramId,
    /// `dfs/repair`, by repair id.
    transfers: StateTrackId,
    /// `dfs/fault` and `dfs/repair_retry` (by block id), registered
    /// only under an armed fault plan.
    faults: Option<(TrackId, StateTrackId)>,
}

/// Fault state: the down mask and per-block retry budgets. An unarmed
/// (empty) plan short-circuits every branch that could perturb the
/// fault-free trajectory, and placement sees no busy mask.
struct Faults<'a> {
    armed: bool,
    plan: &'a FaultPlan,
    down: Vec<bool>,
    /// Fault aborts per block since its last durable copy landed.
    attempts: IdMap<u32>,
    /// Blocks waiting out a backoff.
    retrying: HashSet<u64, IdBuildHasher>,
    /// Seeds each retry's backoff jitter.
    seed: u64,
}

impl Faults<'_> {
    /// The busy mask for placement — `None` when faults are off, so the
    /// fault-free placement RNG stream is untouched.
    fn busy(&self) -> Option<&[bool]> {
        self.armed.then_some(self.down.as_slice())
    }

    fn is_down(&self, s: ServerId) -> bool {
        self.armed && self.down[s.0 as usize]
    }
}

/// The driver's state between events.
struct Driver<'a> {
    dc: &'a Datacenter,
    placer: Placer<'a>,
    store: BlockStore,
    rng: StdRng,
    replication: usize,
    cap: Option<usize>,
    pipeline: RepairPipeline,
    queue: BinaryHeap<QueuedRepair>,
    fabric: Option<Fabric>,
    disks: Option<DiskPool>,
    /// Transfers by repair id.
    in_flight: IdMap<InFlight>,
    /// Transfers per block id, so neither a pending slot nor a landing
    /// launches a duplicate repair for a copy already inbound.
    streaming: IdMap<u32>,
    /// Transfers whose last component finished in the current pump:
    /// (landing instant, repair id, transfer). Reused across pumps.
    landed: Vec<(SimTime, u64, InFlight)>,
    next_rid: u64,
    faults: Faults<'a>,
    rec: &'a mut Recorder,
    obs: Option<Obs>,
    out: Replayed,
}

impl Driver<'_> {
    fn at_cap(&self) -> bool {
        self.cap.is_some_and(|cap| self.in_flight.len() >= cap)
    }

    /// Queues `block` for its next throttle slot after a loss at `lost_at`.
    fn requeue(&mut self, block: BlockId, lost_at: SimTime) {
        let at = self.pipeline.schedule(lost_at);
        self.queue.push(QueuedRepair { at, block });
    }

    fn streaming(&self, block: BlockId) -> usize {
        self.streaming.get(&block.0).map_or(0, |&n| n as usize)
    }

    /// One of `block`'s transfers ended, landed or aborted.
    fn end_stream(&mut self, block: BlockId) {
        if let Some(n) = self.streaming.get_mut(&block.0) {
            *n -= 1;
            if *n == 0 {
                self.streaming.remove(&block.0);
            }
        }
    }

    /// Advances the fabric and the disks to `now` and lands every
    /// transfer whose last component finished, in landing order (both
    /// engines run to `now`, so one batch can hold several instants).
    fn pump(&mut self, now: SimTime) {
        if let Some(done) = self.fabric.as_mut().map(|f| f.pump(now)) {
            for c in done {
                self.component_done(c.tag, c.at, NET);
            }
        }
        if let Some(done) = self.disks.as_mut().map(|p| p.pump(now)) {
            for c in done {
                let part = match c.dir {
                    IoDir::Read => DISK_READ,
                    IoDir::Write => DISK_WRITE,
                };
                self.component_done(c.tag, c.at, part);
            }
        }
        let mut landed = std::mem::take(&mut self.landed);
        landed.sort_by_key(|l| (l.0, l.1));
        for (at, rid, e) in landed.drain(..) {
            self.land(rid, e, at);
        }
        self.landed = landed;
    }

    fn component_done(&mut self, rid: u64, at: SimTime, part: u8) {
        let e = self.in_flight.get_mut(&rid).expect("repair in flight");
        e.parts &= !part;
        e.last_done = e.last_done.max(at);
        if e.parts == 0 {
            let e = self.in_flight.remove(&rid).expect("present");
            self.landed.push((e.last_done, rid, e));
        } else if let Some(o) = self.obs.filter(|_| e.parts.count_ones() == 1) {
            // One component left: blame the straggler by name.
            let state = match e.parts {
                NET => "blocked_on_net",
                DISK_READ => "blocked_on_disk_read",
                _ => "blocked_on_disk_write",
            };
            self.rec.state_enter(o.transfers, rid, state, at);
        }
    }

    /// Releases every slot due by `now`, unless the stream cap is hit.
    fn release_due(&mut self, now: SimTime) {
        while self.queue.peek().is_some_and(|r| r.at <= now) && !self.at_cap() {
            let slot = self.queue.pop().expect("peeked");
            self.release(slot, now);
        }
    }

    /// A throttle slot for `slot.block` fires: pick a destination and a
    /// source, then commit at once (no transfer model) or start the
    /// transfer. Destination space is re-checked when it lands.
    fn release(&mut self, slot: QueuedRepair, now: SimTime) {
        let block = slot.block;
        if self.faults.armed {
            // The block's backoff wait ends when its slot fires.
            if self.faults.retrying.remove(&block.0) {
                if let Some((_, retries)) = self.obs.and_then(|o| o.faults) {
                    self.rec.state_exit(retries, block.0, slot.at);
                }
            }
            // Graceful degradation: under a storm, shed repair slots
            // rather than pile more transfers onto a saturated fabric.
            if let Some(cap) = self.faults.plan.shed_inflight_above {
                if self.in_flight.len() >= cap {
                    self.out.repairs_shed += 1;
                    self.requeue(block, slot.at);
                    return;
                }
            }
            // Every surviving replica sits on a crashed-but-not-yet-dead
            // server: nothing to read from until one restarts.
            let existing = self.store.replicas(block);
            if !existing.is_empty() && existing.iter().all(|&s| self.faults.down[s as usize]) {
                self.retry_or_abandon(block, slot.at);
                return;
            }
        }
        let count = self.store.replica_count(block);
        if count == 0 {
            self.out.too_late += 1;
            return;
        }
        if count + self.streaming(block) >= self.replication {
            // Durable plus inbound copies already cover the target (a
            // duplicate slot); a failed landing re-queues by itself.
            return;
        }
        let existing = self.store.replicas(block);
        let placed =
            self.placer
                .place_repair(&mut self.rng, &self.store, existing, self.faults.busy());
        // No destination (cluster full), or a crashed one picked by a
        // busy-oblivious policy (Stock): retry after another slot.
        let Some(dest) = placed.filter(|&d| !self.faults.is_down(d)) else {
            self.requeue(block, slot.at);
            return;
        };
        if self.fabric.is_none() && self.disks.is_none() {
            self.commit(block, dest, now);
            return;
        }
        let src = if self.faults.armed {
            // Read from a live replica only: crashed-but-not-dead
            // servers still hold the data but cannot serve it.
            let live: Vec<u32> = existing
                .iter()
                .copied()
                .filter(|&s| !self.faults.down[s as usize])
                .collect();
            if live.is_empty() {
                self.retry_or_abandon(block, now);
                return;
            }
            let src = repair_source(self.dc, &live, dest);
            if self.fabric.as_ref().is_some_and(|f| !f.path_up(src, dest)) {
                // A dead uplink separates source and destination;
                // starting the flow now would only park it.
                self.retry_or_abandon(block, now);
                return;
            }
            src
        } else {
            repair_source(self.dc, existing, dest)
        };
        let rid = self.next_rid;
        self.next_rid += 1;
        let mut parts = 0;
        if let Some(f) = self.fabric.as_mut() {
            f.schedule_flow(now, src, dest, BLOCK_BYTES, rid);
            parts |= NET;
        }
        if let Some(p) = self.disks.as_mut() {
            p.schedule_stream(now, src, IoDir::Read, BLOCK_BYTES, rid);
            p.schedule_stream(now, dest, IoDir::Write, BLOCK_BYTES, rid);
            parts |= DISK_READ | DISK_WRITE;
        }
        let e = InFlight {
            block,
            src,
            dest,
            started: now,
            last_done: now,
            parts,
            doomed: false,
        };
        self.in_flight.insert(rid, e);
        *self.streaming.entry(block.0).or_insert(0) += 1;
        if let Some(o) = self.obs {
            self.rec.state_enter(o.transfers, rid, "queued", slot.at);
            self.rec.state_enter(o.transfers, rid, "running", now);
        }
    }

    /// A transfer's last component finished at `at`: the new replica
    /// becomes durable, unless the block died in flight, the destination
    /// was reimaged or filled up, or a concurrent repair satisfied it.
    fn land(&mut self, rid: u64, e: InFlight, at: SimTime) {
        let secs = at.since(e.started).as_secs_f64();
        self.out.transfers += 1;
        self.out.transfer_secs += secs;
        if let Some(o) = self.obs {
            self.rec.observe(o.repair_secs, secs);
            self.rec.span(o.track, "repair", e.started, at);
            self.rec.state_exit(o.transfers, rid, at);
        }
        self.end_stream(e.block);
        let count = self.store.replica_count(e.block);
        if count == 0 {
            // Every source died while the transfer was in flight.
            self.out.too_late += 1;
            return;
        }
        if count >= self.replication {
            return; // concurrently satisfied
        }
        if e.doomed
            || !self.store.has_space(e.dest)
            || self.store.replicas(e.block).contains(&e.dest.0)
        {
            // Re-queue unless a sibling transfer still covers the gap.
            if count + self.streaming(e.block) < self.replication {
                self.requeue(e.block, at);
            }
            return;
        }
        self.commit(e.block, e.dest, at);
    }

    /// Makes `dest`'s new replica of `block` durable at `now`.
    fn commit(&mut self, block: BlockId, dest: ServerId, now: SimTime) {
        self.store.add_replica(block, dest);
        self.out.repairs += 1;
        self.out.recovered_at = self.out.recovered_at.max(now);
        // A durable copy landed: the block's fault-retry budget resets.
        self.faults.attempts.remove(&block.0);
        // Still short, counting copies still inbound? Queue another.
        if self.store.replica_count(block) + self.streaming(block) < self.replication {
            self.requeue(block, now);
        }
    }

    /// Wipes `server`'s disk: any repair writing to it is doomed, and
    /// each surviving block it held queues a repair paced from `lost_at`.
    fn reimage(&mut self, server: ServerId, lost_at: SimTime) {
        for e in self.in_flight.values_mut() {
            e.doomed |= e.dest == server;
        }
        for block in self.store.reimage_server(server) {
            self.out.replicas_lost += 1;
            if self.store.replica_count(block) > 0 {
                self.requeue(block, lost_at);
            }
        }
    }

    /// A fault interrupted work on `block`: re-queue it with exponential
    /// backoff and jitter, or — past `max_retries` — give up and account
    /// the block as permanently under-repaired.
    fn retry_or_abandon(&mut self, block: BlockId, now: SimTime) {
        let attempt = self.faults.attempts.entry(block.0).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;
        let retries = self.obs.and_then(|o| o.faults).map(|f| f.1);
        if let Some(states) = retries {
            self.rec.state_enter(states, block.0, "failed", now);
        }
        if attempt <= self.faults.plan.max_retries {
            self.out.fault_retries += 1;
            let at = now
                + self
                    .faults
                    .plan
                    .backoff
                    .delay(self.faults.seed, block.0, attempt);
            self.queue.push(QueuedRepair { at, block });
            if let Some(states) = retries {
                self.rec.state_enter(states, block.0, "retrying", now);
            }
            self.faults.retrying.insert(block.0);
        } else {
            self.out.retries_exhausted += 1;
            if let Some(states) = retries {
                self.rec.state_exit(states, block.0, now);
            }
            self.faults.retrying.remove(&block.0);
        }
    }

    /// Tears down the fault-hit transfers among `rids`: aborts their
    /// remaining flows and streams and retries each block with backoff.
    /// Ids not in flight are ignored.
    fn abort(&mut self, rids: BTreeSet<u64>, now: SimTime) {
        let live: Vec<u64> = rids
            .into_iter()
            .filter(|r| self.in_flight.contains_key(r))
            .collect();
        if live.is_empty() {
            return;
        }
        let tags: HashSet<u64> = live.iter().copied().collect();
        if let Some(f) = self.fabric.as_mut() {
            f.abort_flows_with_tags(now, &tags);
        }
        if let Some(p) = self.disks.as_mut() {
            p.abort_streams_with_tags(now, &tags);
        }
        for rid in live {
            let e = self
                .in_flight
                .remove(&rid)
                .expect("filtered to in-flight ids");
            if let Some(o) = self.obs {
                self.rec.state_exit(o.transfers, rid, now);
            }
            self.end_stream(e.block);
            self.out.repairs_aborted += 1;
            self.retry_or_abandon(e.block, now);
        }
    }

    /// The in-flight transfers reading from or writing to `s`.
    fn touching(&self, s: ServerId) -> impl Iterator<Item = u64> + '_ {
        self.in_flight
            .iter()
            .filter(move |(_, e)| e.src == s || e.dest == s)
            .map(|(&rid, _)| rid)
    }

    fn apply_fault(&mut self, action: FaultAction, now: SimTime) {
        let name = match action {
            FaultAction::Crash(_) => "fault/crash",
            FaultAction::DeclareDead { .. } => "fault/declare-dead",
            FaultAction::Restore(_) => "fault/restart",
            FaultAction::UplinkDown(_) => "fault/uplink-down",
            FaultAction::UplinkUp(_) => "fault/uplink-up",
            FaultAction::DiskFail(_) => "fault/disk-fail",
            FaultAction::DiskDegrade(..) => "fault/disk-degrade",
        };
        if let Some((track, _)) = self.obs.and_then(|o| o.faults) {
            self.rec.instant(track, name, now);
        }
        // A declared death follows a crash already counted.
        if !matches!(action, FaultAction::DeclareDead { .. }) {
            self.out.faults_injected += 1;
        }
        match action {
            FaultAction::Crash(s) => {
                if !self.faults.down[s.0 as usize] {
                    self.faults.down[s.0 as usize] = true;
                    // Tear down everything touching the server: its NIC
                    // links, its disk streams, and any repair reading
                    // from or writing to it. Replicas stay in the store
                    // until the heartbeat declares it dead.
                    let mut rids = BTreeSet::new();
                    if let Some(f) = self.fabric.as_mut() {
                        rids.extend(f.fail_endpoint(now, s));
                    }
                    if let Some(p) = self.disks.as_mut() {
                        rids.extend(p.fail_server(now, s));
                    }
                    rids.extend(self.touching(s));
                    self.abort(rids, now);
                }
            }
            FaultAction::DeclareDead { server, crashed } => {
                // The namenode writes the server off; its blocks are
                // paced by the throttle from the crash instant.
                self.reimage(server, crashed);
            }
            FaultAction::Restore(s) => {
                if self.faults.down[s.0 as usize] {
                    self.faults.down[s.0 as usize] = false;
                    if let Some(f) = self.fabric.as_mut() {
                        f.restore_endpoint(now, s);
                    }
                }
            }
            FaultAction::UplinkDown(rack) => {
                // Without a network model an uplink outage cannot delay
                // repairs.
                let mut rids = BTreeSet::new();
                if let Some(f) = self.fabric.as_mut() {
                    let (up, dn) = (f.topology().rack_up(rack), f.topology().rack_down(rack));
                    rids.extend(f.set_link_down(now, up));
                    rids.extend(f.set_link_down(now, dn));
                }
                self.abort(rids, now);
            }
            FaultAction::UplinkUp(rack) => {
                if let Some(f) = self.fabric.as_mut() {
                    let (up, dn) = (f.topology().rack_up(rack), f.topology().rack_down(rack));
                    f.set_link_up(now, up);
                    f.set_link_up(now, dn);
                }
            }
            FaultAction::DiskFail(s) => {
                // The server stays up: repairs reading from or writing
                // to the dead disk abort and retry, then its blocks are
                // gone as in a reimage.
                let mut rids = BTreeSet::new();
                if let Some(p) = self.disks.as_mut() {
                    rids.extend(p.fail_server(now, s));
                }
                rids.extend(self.touching(s));
                self.abort(rids, now);
                self.reimage(s, now);
            }
            FaultAction::DiskDegrade(s, factor) => {
                if let Some(p) = self.disks.as_mut() {
                    p.set_degrade(now, s, factor);
                }
            }
        }
    }

    /// Closes states still open when nothing is left to happen, mirrors
    /// the totals into counters, and hands back the engines' statistics.
    fn finish(mut self, end: SimTime) -> Replayed {
        if let Some(o) = self.obs {
            for rid in sorted_ids(&self.in_flight, |_| true) {
                self.rec.state_exit(o.transfers, rid, end);
            }
            if let Some((_, retries)) = o.faults {
                let mut open: Vec<u64> = self.faults.retrying.iter().copied().collect();
                open.sort_unstable();
                for b in open {
                    self.rec.state_exit(retries, b, end);
                }
            }
        }
        self.out.lost_blocks = self.store.lost_blocks();
        self.out.fabric = self.fabric.as_ref().map(|f| *f.stats());
        self.out.disk = self.disks.as_ref().map(|p| *p.stats());
        if self.rec.is_on() {
            if let Some(f) = self.fabric.as_mut() {
                self.rec.absorb(f.take_recorder());
            }
            if let Some(p) = self.disks.as_mut() {
                self.rec.absorb(p.take_recorder());
            }
            let o = &self.out;
            let mut counters = vec![
                ("dfs/repairs", o.repairs),
                ("dfs/replicas_lost", o.replicas_lost),
                ("dfs/lost_blocks", o.lost_blocks),
            ];
            if self.faults.armed {
                counters.extend([
                    ("dfs/faults_injected", o.faults_injected),
                    ("dfs/repairs_aborted", o.repairs_aborted),
                    ("dfs/fault_retries", o.fault_retries),
                    ("dfs/retries_exhausted", o.retries_exhausted),
                    ("dfs/repairs_shed", o.repairs_shed),
                ]);
            }
            for (name, value) in counters {
                let id = self.rec.counter(name);
                self.rec.counter_set(id, value);
            }
        }
        self.out
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
