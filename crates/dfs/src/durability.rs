//! The durability simulation (Figure 15).
//!
//! Places a population of blocks, then replays months of per-server disk
//! reimages — independent reimages plus correlated redeployment sweeps —
//! repairing lost replicas through the throttled pipeline. A block whose
//! replicas are all destroyed before repair completes is lost forever.
//!
//! The paper simulates one year and 4 M blocks per datacenter; block
//! count scales with cluster size here (see
//! [`DurabilityConfig::fill_fraction`]), which preserves the per-server
//! replica density that determines loss dynamics.

use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

use harvest_cluster::{Datacenter, ServerId};
use harvest_disk::{DiskConfig, DiskPool, IoDir};
use harvest_net::{Fabric, NetworkConfig};
use harvest_sim::fault::{BackoffConfig, FaultKind, FaultPlan};
use harvest_sim::obs::{Recorder, StateTrackId, TrackId};
use harvest_sim::rng::stream_rng;
use harvest_sim::{SimDuration, SimTime};
use rand::RngExt;

use crate::placement::{PlacementPolicy, Placer};
use crate::repair::{QueuedRepair, RepairConfig, RepairPipeline, TransferParts};
use crate::store::{BlockId, BlockStore, BLOCK_BYTES};

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

/// Runs the durability simulation.
pub fn simulate_durability(dc: &Datacenter, cfg: &DurabilityConfig) -> DurabilityResult {
    simulate_durability_inner(dc, cfg, Recorder::off()).0
}

/// Runs the durability simulation with observability: fault injections
/// land as `fault/*` instants on the `dfs/fault` track and every
/// fault-aborted repair walks the `failed` → `retrying` states on the
/// `dfs/repair` state track, so blame analysis can attribute failure
/// time. Recording never changes the simulated outcome.
pub fn simulate_durability_recorded(
    dc: &Datacenter,
    cfg: &DurabilityConfig,
    rec: Recorder,
) -> (DurabilityResult, Recorder) {
    simulate_durability_inner(dc, cfg, rec)
}

fn simulate_durability_inner(
    dc: &Datacenter,
    cfg: &DurabilityConfig,
    rec: Recorder,
) -> (DurabilityResult, Recorder) {
    assert!(cfg.replication >= 1, "replication must be at least 1");
    assert!(
        (0.0..=0.95).contains(&cfg.fill_fraction),
        "fill fraction must be in [0, 0.95]"
    );
    let placer = Placer::new(dc, cfg.policy);
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(cfg.seed, "durability");

    // --- Phase 1: fill the store. ---
    let capacity = dc.total_harvest_blocks();
    let n_blocks = ((capacity as f64 * cfg.fill_fraction) / cfg.replication as f64) as u64;
    let n_servers = dc.n_servers();
    let mut created = 0u64;
    for _ in 0..n_blocks {
        // Writers are uniform over servers, as block creators in the
        // batch workload are.
        let writer = ServerId(rng.random_range(0..n_servers) as u32);
        match placer.place_new(&mut rng, &store, writer, cfg.replication, None) {
            Some(p) => {
                store.create_block(&p.servers);
                created += 1;
            }
            None => break,
        }
    }

    // --- Phase 2: generate the reimage schedule. ---
    let mut events: Vec<(SimTime, ServerId)> = Vec::new();
    for tenant in &dc.tenants {
        let mut trng = stream_rng(
            cfg.seed ^ (0xD15C_0000 + tenant.id.0 as u64),
            "tenant-reimages",
        );
        let (tenant_events, _) = tenant
            .reimage
            .generate(&mut trng, tenant.n_servers(), cfg.months);
        for e in tenant_events {
            let global = ServerId(tenant.server_range.start + e.server as u32);
            events.push((e.time, global));
        }
    }
    events.sort_by_key(|&(t, s)| (t, s));

    // --- Phase 3: replay reimages, repairing through the pipeline (and,
    // when configured, the network fabric and the shared disks). ---
    let mut pipeline = RepairPipeline::new(cfg.repair, n_servers);
    let mut heap: BinaryHeap<QueuedRepair> = BinaryHeap::new();
    let mut fabric = cfg.network.as_ref().map(|n| Fabric::from_datacenter(dc, n));
    let mut disks = cfg.disk.as_ref().map(|d| DiskPool::from_datacenter(dc, d));
    let modeled = fabric.is_some() || disks.is_some();
    // In-flight repairs by repair id: outstanding components (flow,
    // source read, destination write), the block, its destination, and
    // the latest component completion. `in_flight_blocks` counts
    // transfers per block so neither the follow-up queueing nor a
    // pending slot launches a phantom duplicate repair (which would
    // burn throttle slots and transfer bandwidth).
    let mut in_flight: HashMap<u64, InFlightRepair> = HashMap::new();
    let mut next_rid = 0u64;
    let mut in_flight_blocks: HashMap<u64, u32> = HashMap::new();
    // Repairs whose destination server was reimaged mid-transfer: the
    // half-written copy is gone, so the landing must fail and re-queue.
    let mut doomed: HashSet<u64> = HashSet::new();
    let mut repairs = 0u64;
    let mut too_late = 0u64;
    let reimage_count = events.len() as u64;

    // Fault machinery. An empty plan arms nothing: the action list is
    // empty, every `frt.armed` branch is skipped, and placement sees
    // the same `None` busy mask as before — the no-fault trajectory is
    // bitwise identical to a build without this code.
    let mut rec = rec;
    let obs = if rec.is_on() {
        Some(DurObs {
            track: rec.track("dfs/fault"),
            states: rec.state_track("dfs/repair"),
        })
    } else {
        None
    };
    let horizon = SimTime::ZERO + SimDuration::from_days(30 * cfg.months as u64);
    let fault_actions = if cfg.faults.is_none() {
        Vec::new()
    } else {
        expand_fault_plan(dc, &cfg.faults, cfg.repair.detection_delay, horizon)
    };
    let mut fault_idx = 0usize;
    let mut frt = FaultRt {
        armed: !cfg.faults.is_none(),
        max_retries: cfg.faults.max_retries,
        backoff: cfg.faults.backoff,
        shed_above: cfg.faults.shed_inflight_above,
        seed: cfg.seed,
        down: vec![false; n_servers],
        attempts: HashMap::new(),
        retrying: HashSet::new(),
        faults_injected: 0,
        repairs_aborted: 0,
        fault_retries: 0,
        retries_exhausted: 0,
        repairs_shed: 0,
        rec,
        obs,
    };

    // Merged event loop over five deterministic sources: fabric
    // completions, disk completions, repair-slot releases, reimages,
    // and injected faults, earliest first; ties resolve transfers <
    // repair < reimage < fault so a transfer that lands at the same
    // instant a server dies still counts.
    let mut events = events.into_iter().peekable();
    let mut end_time = SimTime::ZERO;
    loop {
        let t_net = fabric.as_ref().and_then(|f| f.next_event_time());
        let t_disk = disks.as_ref().and_then(|p| p.next_event_time());
        let t_rep = heap.peek().map(|r| r.at);
        let t_rei = events.peek().map(|&(t, _)| t);
        let t_fau = fault_actions.get(fault_idx).map(|&(t, _)| t);
        let Some(now) = [t_net, t_disk, t_rep, t_rei, t_fau]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        end_time = now;

        if t_net.map(|t| t <= now).unwrap_or(false) || t_disk.map(|t| t <= now).unwrap_or(false) {
            let mut component_done = |rid: u64, at: SimTime| -> Option<(InFlightRepair, SimTime)> {
                let e = in_flight.get_mut(&rid).expect("repair was registered");
                let landed_at = e.xfer.component_done(at)?;
                Some((in_flight.remove(&rid).expect("present"), landed_at))
            };
            let mut landed: Vec<(u64, InFlightRepair, SimTime)> = Vec::new();
            if let Some(f) = fabric.as_mut() {
                for c in f.pump(now) {
                    if let Some((e, at)) = component_done(c.tag, c.at) {
                        landed.push((c.tag, e, at));
                    }
                }
            }
            if let Some(p) = disks.as_mut() {
                for c in p.pump(now) {
                    if let Some((e, at)) = component_done(c.tag, c.at) {
                        landed.push((c.tag, e, at));
                    }
                }
            }
            // Land complete repairs in completion order (both pumps run
            // to `now`, so a batch can hold out-of-order instants).
            landed.sort_by_key(|l| (l.2, l.0));
            for (rid, e, at) in landed {
                let dest_destroyed = doomed.remove(&rid);
                land_repair(
                    &mut store,
                    &mut in_flight_blocks,
                    e.block,
                    e.dest,
                    dest_destroyed,
                    cfg.replication,
                    &mut repairs,
                    &mut too_late,
                    &mut heap,
                    &mut pipeline,
                    &mut frt,
                    at,
                );
            }
            continue;
        }

        if t_rep.map(|t| t <= now).unwrap_or(false) {
            let r = heap.pop().expect("peeked");
            if frt.armed {
                // The backoff wait for this block ends when its slot
                // fires (the attempt below may re-enter `retrying`).
                if frt.retrying.remove(&r.block.0) {
                    if let Some(o) = frt.obs {
                        frt.rec.state_exit(o.states, r.block.0, r.at);
                    }
                }
                // Graceful degradation: under a storm, shed repair
                // slots rather than piling more transfers onto an
                // already-saturated fabric; the shed slot re-queues
                // through the throttle.
                if let Some(cap) = frt.shed_above {
                    if in_flight.len() >= cap {
                        frt.repairs_shed += 1;
                        let at = pipeline.schedule(r.at);
                        heap.push(QueuedRepair { at, block: r.block });
                        continue;
                    }
                }
                // Every surviving replica sits on a crashed-but-not-
                // yet-dead server: nothing to read from until one
                // restarts (or they are declared dead and the block
                // becomes lost). Retry with backoff.
                let existing = store.replicas(r.block);
                if !existing.is_empty() && existing.iter().all(|&s| frt.down[s as usize]) {
                    frt.retry_or_abandon(&mut heap, r.block, r.at);
                    continue;
                }
            }
            if modeled {
                start_repair_transfer(
                    dc,
                    &placer,
                    &mut store,
                    &mut rng,
                    &mut fabric,
                    &mut disks,
                    &mut in_flight,
                    &mut next_rid,
                    &mut in_flight_blocks,
                    r.block,
                    cfg.replication,
                    &mut too_late,
                    &mut heap,
                    &mut pipeline,
                    &mut frt,
                    r.at,
                );
            } else {
                apply_repair(
                    &placer,
                    &mut store,
                    &mut rng,
                    r.block,
                    cfg.replication,
                    &mut repairs,
                    &mut too_late,
                    &mut heap,
                    &mut pipeline,
                    &mut frt,
                    r.at,
                );
            }
            continue;
        }

        if t_rei.map(|t| t <= now).unwrap_or(false) {
            let (now, server) = events.next().expect("peeked");
            // The reimage also wipes any half-written repair copies
            // inbound to this server.
            doomed.extend(
                in_flight
                    .iter()
                    .filter(|&(_, e)| e.dest == server)
                    .map(|(&rid, _)| rid),
            );
            for block in store.reimage_server(server) {
                if store.replica_count(block) > 0 {
                    let at = pipeline.schedule(now);
                    heap.push(QueuedRepair { at, block });
                }
            }
            continue;
        }

        // --- Injected fault (only reachable with a non-empty plan). ---
        let (_, action) = fault_actions[fault_idx];
        fault_idx += 1;
        match action {
            FaultAction::Crash(s) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/crash", now);
                }
                if !frt.down[s.0 as usize] {
                    frt.down[s.0 as usize] = true;
                    // Tear down everything touching the server: its
                    // NIC links, its disk streams, and any repair
                    // reading from or writing to it. Replicas stay in
                    // the store until the heartbeat declares it dead.
                    let mut rids: BTreeSet<u64> = BTreeSet::new();
                    if let Some(f) = fabric.as_mut() {
                        rids.extend(f.fail_endpoint(now, s));
                    }
                    if let Some(p) = disks.as_mut() {
                        rids.extend(p.fail_server(now, s));
                    }
                    rids.extend(
                        in_flight
                            .iter()
                            .filter(|&(_, e)| e.src == s || e.dest == s)
                            .map(|(&rid, _)| rid),
                    );
                    abort_repairs(
                        &rids,
                        &mut in_flight,
                        &mut in_flight_blocks,
                        &mut doomed,
                        &mut fabric,
                        &mut disks,
                        &mut frt,
                        &mut heap,
                        now,
                    );
                }
            }
            FaultAction::DeclareDead { server, crashed } => {
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/declare-dead", now);
                }
                // The heartbeat timeout elapsed: the namenode writes
                // the server off and its blocks become re-replication
                // work, paced by the throttle from the crash instant
                // (`schedule` adds the detection delay itself).
                for block in store.reimage_server(server) {
                    if store.replica_count(block) > 0 {
                        let at = pipeline.schedule(crashed);
                        heap.push(QueuedRepair { at, block });
                    }
                }
            }
            FaultAction::Restore(s) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/restart", now);
                }
                if frt.down[s.0 as usize] {
                    frt.down[s.0 as usize] = false;
                    if let Some(f) = fabric.as_mut() {
                        f.restore_endpoint(now, s);
                    }
                }
            }
            FaultAction::UplinkDown(rack) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/uplink-down", now);
                }
                let rids: BTreeSet<u64> = if let Some(f) = fabric.as_mut() {
                    let (up, dn) = {
                        let t = f.topology();
                        (t.rack_up(rack), t.rack_down(rack))
                    };
                    let mut r: BTreeSet<u64> = f.set_link_down(now, up).into_iter().collect();
                    r.extend(f.set_link_down(now, dn));
                    r
                } else {
                    // Without a network model an uplink outage cannot
                    // delay repairs; it is a no-op for durability.
                    BTreeSet::new()
                };
                abort_repairs(
                    &rids,
                    &mut in_flight,
                    &mut in_flight_blocks,
                    &mut doomed,
                    &mut fabric,
                    &mut disks,
                    &mut frt,
                    &mut heap,
                    now,
                );
            }
            FaultAction::UplinkUp(rack) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/uplink-up", now);
                }
                if let Some(f) = fabric.as_mut() {
                    let (up, dn) = {
                        let t = f.topology();
                        (t.rack_up(rack), t.rack_down(rack))
                    };
                    f.set_link_up(now, up);
                    f.set_link_up(now, dn);
                }
            }
            FaultAction::DiskFail(s) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/disk-fail", now);
                }
                // The disk dies but the server stays up: an unplanned
                // reimage. In-flight repairs reading from or writing
                // to the dead disk abort and retry.
                let mut rids: BTreeSet<u64> = BTreeSet::new();
                if let Some(p) = disks.as_mut() {
                    rids.extend(p.fail_server(now, s));
                }
                rids.extend(
                    in_flight
                        .iter()
                        .filter(|&(_, e)| e.src == s || e.dest == s)
                        .map(|(&rid, _)| rid),
                );
                abort_repairs(
                    &rids,
                    &mut in_flight,
                    &mut in_flight_blocks,
                    &mut doomed,
                    &mut fabric,
                    &mut disks,
                    &mut frt,
                    &mut heap,
                    now,
                );
                for block in store.reimage_server(s) {
                    if store.replica_count(block) > 0 {
                        let at = pipeline.schedule(now);
                        heap.push(QueuedRepair { at, block });
                    }
                }
            }
            FaultAction::DiskDegrade(s, factor) => {
                frt.faults_injected += 1;
                if let Some(o) = frt.obs {
                    frt.rec.instant(o.track, "fault/disk-degrade", now);
                }
                if let Some(p) = disks.as_mut() {
                    p.set_degrade(now, s, factor);
                }
            }
        }
    }

    // Close any still-open `retrying` states (the heap drains before
    // the loop exits, so this only fires on defensive paths).
    if frt.armed && !frt.retrying.is_empty() {
        let mut open: Vec<u64> = frt.retrying.drain().collect();
        open.sort_unstable();
        if let Some(o) = frt.obs {
            for b in open {
                frt.rec.state_exit(o.states, b, end_time);
            }
        }
    }
    if frt.rec.is_on() {
        let pairs = [
            ("dfs/faults_injected", frt.faults_injected),
            ("dfs/repairs_aborted", frt.repairs_aborted),
            ("dfs/fault_retries", frt.fault_retries),
            ("dfs/retries_exhausted", frt.retries_exhausted),
            ("dfs/repairs_shed", frt.repairs_shed),
        ];
        for (name, value) in pairs {
            let c = frt.rec.counter(name);
            frt.rec.counter_set(c, value);
        }
    }

    let lost = store.lost_blocks();
    let result = DurabilityResult {
        n_blocks: created,
        lost_blocks: lost,
        reimages: reimage_count,
        repairs,
        repairs_too_late: too_late,
        lost_percent: if created == 0 {
            0.0
        } else {
            lost as f64 / created as f64 * 100.0
        },
        faults_injected: frt.faults_injected,
        repairs_aborted: frt.repairs_aborted,
        fault_retries: frt.fault_retries,
        retries_exhausted: frt.retries_exhausted,
        repairs_shed: frt.repairs_shed,
        fabric: fabric.as_ref().map(|f| *f.stats()),
        disk: disks.as_ref().map(|p| *p.stats()),
    };
    (result, frt.rec)
}

/// One re-replication in transfer: its remaining components (network
/// flow, source disk read, destination disk write), its endpoints, and
/// the latest component completion seen so far. The source is recorded
/// so a crash or disk failure there can abort the transfer.
#[derive(Debug, Clone, Copy)]
struct InFlightRepair {
    xfer: TransferParts,
    block: BlockId,
    src: ServerId,
    dest: ServerId,
}

/// A single server-granular fault consequence, expanded from the plan's
/// rack- and server-level events.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
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

/// Durability-side observability handles for the fault machinery.
#[derive(Debug, Clone, Copy)]
struct DurObs {
    track: TrackId,
    states: StateTrackId,
}

/// Runtime fault state threaded through the repair path: the down mask,
/// per-block retry budgets, and the fault counters. `armed == false`
/// (empty plan) short-circuits every branch that could perturb the
/// fault-free trajectory.
struct FaultRt {
    armed: bool,
    max_retries: u32,
    backoff: BackoffConfig,
    shed_above: Option<usize>,
    seed: u64,
    down: Vec<bool>,
    attempts: HashMap<u64, u32>,
    retrying: HashSet<u64>,
    faults_injected: u64,
    repairs_aborted: u64,
    fault_retries: u64,
    retries_exhausted: u64,
    repairs_shed: u64,
    rec: Recorder,
    obs: Option<DurObs>,
}

impl FaultRt {
    /// The busy mask for placement — `None` when faults are off, so the
    /// fault-free placement RNG stream is untouched.
    fn busy(&self) -> Option<&[bool]> {
        if self.armed {
            Some(&self.down)
        } else {
            None
        }
    }

    /// A fault interrupted work on `block`: re-queue it with
    /// exponential backoff and jitter, or — past `max_retries` — give
    /// up and account the block as permanently under-repaired.
    fn retry_or_abandon(
        &mut self,
        heap: &mut BinaryHeap<QueuedRepair>,
        block: BlockId,
        now: SimTime,
    ) {
        let a = self.attempts.entry(block.0).or_insert(0);
        *a += 1;
        let attempt = *a;
        if attempt <= self.max_retries {
            self.fault_retries += 1;
            let at = now + self.backoff.delay(self.seed, block.0, attempt);
            heap.push(QueuedRepair { at, block });
            if let Some(o) = self.obs {
                self.rec.state_enter(o.states, block.0, "failed", now);
                self.rec.state_enter(o.states, block.0, "retrying", now);
            }
            self.retrying.insert(block.0);
        } else {
            self.retries_exhausted += 1;
            if let Some(o) = self.obs {
                self.rec.state_enter(o.states, block.0, "failed", now);
                self.rec.state_exit(o.states, block.0, now);
            }
            self.retrying.remove(&block.0);
        }
    }
}

/// Expands a [`FaultPlan`] into the server-granular action list the
/// merged loop consumes: rack power events fan out to every server in
/// the rack, and each crash that no restart beats to the heartbeat
/// deadline gets a `DeclareDead` at crash + detection delay. Events
/// past `horizon` (the simulated span) are dropped so an armed plan
/// whose events never fire is exactly a no-op.
fn expand_fault_plan(
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

/// Tears down a set of fault-hit in-flight repairs: aborts their
/// remaining fabric flows and disk streams, releases their in-flight
/// accounting, and re-queues each block with backoff (or abandons it
/// past the retry budget). Ids not actually in flight are ignored.
#[allow(clippy::too_many_arguments)]
fn abort_repairs(
    rids: &BTreeSet<u64>,
    in_flight: &mut HashMap<u64, InFlightRepair>,
    in_flight_blocks: &mut HashMap<u64, u32>,
    doomed: &mut HashSet<u64>,
    fabric: &mut Option<Fabric>,
    disks: &mut Option<DiskPool>,
    frt: &mut FaultRt,
    heap: &mut BinaryHeap<QueuedRepair>,
    now: SimTime,
) {
    let live: Vec<u64> = rids
        .iter()
        .copied()
        .filter(|r| in_flight.contains_key(r))
        .collect();
    if live.is_empty() {
        return;
    }
    let tagset: HashSet<u64> = live.iter().copied().collect();
    if let Some(f) = fabric.as_mut() {
        f.abort_flows_with_tags(now, &tagset);
    }
    if let Some(p) = disks.as_mut() {
        p.abort_streams_with_tags(now, &tagset);
    }
    for rid in live {
        let e = in_flight.remove(&rid).expect("filtered to in-flight ids");
        doomed.remove(&rid);
        if let Some(c) = in_flight_blocks.get_mut(&e.block.0) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                in_flight_blocks.remove(&e.block.0);
            }
        }
        frt.repairs_aborted += 1;
        frt.retry_or_abandon(heap, e.block, now);
    }
}

/// Starts the 256 MB re-replication transfer for `block` when its
/// throttle slot releases: picks the destination (reserving nothing —
/// space is re-checked when the transfer lands), prefers a same-rack
/// source, and schedules whichever components are modeled — a fabric
/// flow, and/or a source-disk read plus destination-disk write. The
/// block stays at its reduced replica count until every component has
/// finished and [`land_repair`] runs, so the repair window is set by
/// the slowest of the three rates.
#[allow(clippy::too_many_arguments)]
fn start_repair_transfer(
    dc: &Datacenter,
    placer: &Placer<'_>,
    store: &mut BlockStore,
    rng: &mut rand::rngs::StdRng,
    fabric: &mut Option<Fabric>,
    disks: &mut Option<DiskPool>,
    in_flight: &mut HashMap<u64, InFlightRepair>,
    next_rid: &mut u64,
    in_flight_blocks: &mut HashMap<u64, u32>,
    block: BlockId,
    replication: usize,
    too_late: &mut u64,
    heap: &mut BinaryHeap<QueuedRepair>,
    pipeline: &mut RepairPipeline,
    frt: &mut FaultRt,
    now: SimTime,
) {
    let count = store.replica_count(block);
    if count == 0 {
        *too_late += 1;
        return;
    }
    let streaming = *in_flight_blocks.get(&block.0).unwrap_or(&0) as usize;
    if count + streaming >= replication {
        // Durable plus in-flight copies already cover the target; a
        // landing transfer re-queues if one of them fails, so launching
        // a phantom duplicate here would only burn bandwidth.
        return;
    }
    let existing = store.replicas(block);
    let Some(dest) = placer.place_repair(rng, store, existing, frt.busy()) else {
        // No destination (cluster full): retry after a detection delay.
        let at = pipeline.schedule(now);
        heap.push(QueuedRepair { at, block });
        return;
    };
    if frt.armed && frt.down[dest.0 as usize] {
        // Busy-oblivious policies (Stock) can pick a crashed
        // destination; treat it like no destination and re-queue.
        let at = pipeline.schedule(now);
        heap.push(QueuedRepair { at, block });
        return;
    }
    let src = if frt.armed {
        // Read from a live replica only; crashed-but-not-dead servers
        // still hold the data but cannot serve it.
        let live: Vec<u32> = existing
            .iter()
            .copied()
            .filter(|&s| !frt.down[s as usize])
            .collect();
        if live.is_empty() {
            frt.retry_or_abandon(heap, block, now);
            return;
        }
        crate::repair::repair_source(dc, &live, dest)
    } else {
        crate::repair::repair_source(dc, existing, dest)
    };
    if frt.armed {
        if let Some(f) = fabric.as_ref() {
            if !f.path_up(src, dest) {
                // A dead uplink separates source and destination;
                // starting the flow now would only park it. Back off.
                frt.retry_or_abandon(heap, block, now);
                return;
            }
        }
    }
    let rid = *next_rid;
    *next_rid += 1;
    let mut parts = 0u32;
    if let Some(f) = fabric.as_mut() {
        f.schedule_flow(now, src, dest, BLOCK_BYTES, rid);
        parts += 1;
    }
    if let Some(p) = disks.as_mut() {
        p.schedule_stream(now, src, IoDir::Read, BLOCK_BYTES, rid);
        p.schedule_stream(now, dest, IoDir::Write, BLOCK_BYTES, rid);
        parts += 2;
    }
    in_flight.insert(
        rid,
        InFlightRepair {
            xfer: TransferParts::new(parts, now),
            block,
            src,
            dest,
        },
    );
    *in_flight_blocks.entry(block.0).or_insert(0) += 1;
}

/// Completes a repair flow: the new replica becomes durable now, unless
/// the block died in flight, the destination filled up, or a concurrent
/// repair already satisfied it.
#[allow(clippy::too_many_arguments)]
fn land_repair(
    store: &mut BlockStore,
    in_flight_blocks: &mut HashMap<u64, u32>,
    block: BlockId,
    dest: ServerId,
    dest_destroyed: bool,
    replication: usize,
    repairs: &mut u64,
    too_late: &mut u64,
    heap: &mut BinaryHeap<QueuedRepair>,
    pipeline: &mut RepairPipeline,
    frt: &mut FaultRt,
    now: SimTime,
) {
    // This flow is no longer in flight, whatever happens below.
    if let Some(n) = in_flight_blocks.get_mut(&block.0) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            in_flight_blocks.remove(&block.0);
        }
    }
    let streaming = *in_flight_blocks.get(&block.0).unwrap_or(&0) as usize;
    let count = store.replica_count(block);
    if count == 0 {
        // Every source died while the transfer was in flight; the copy
        // cannot have finished. (A partial-source failure would restart
        // from a survivor; we fold that into the completed transfer.)
        *too_late += 1;
        return;
    }
    if count >= replication {
        return; // concurrently satisfied
    }
    if dest_destroyed || !store.has_space(dest) || store.replicas(block).contains(&dest.0) {
        // The destination died, filled up, or grabbed this very block
        // while the transfer ran; re-queue through the throttle unless
        // a sibling flow is still inbound to cover the gap.
        if count + streaming < replication {
            let at = pipeline.schedule(now);
            heap.push(QueuedRepair { at, block });
        }
        return;
    }
    store.add_replica(block, dest);
    *repairs += 1;
    // A durable copy landed: the block's fault-retry budget resets.
    frt.attempts.remove(&block.0);
    // Still short, counting copies still inbound? Queue another.
    if store.replica_count(block) + streaming < replication {
        let at = pipeline.schedule(now);
        heap.push(QueuedRepair { at, block });
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_repair(
    placer: &Placer<'_>,
    store: &mut BlockStore,
    rng: &mut rand::rngs::StdRng,
    block: BlockId,
    replication: usize,
    repairs: &mut u64,
    too_late: &mut u64,
    heap: &mut BinaryHeap<QueuedRepair>,
    pipeline: &mut RepairPipeline,
    frt: &mut FaultRt,
    now: SimTime,
) {
    let count = store.replica_count(block);
    if count == 0 {
        *too_late += 1;
        return;
    }
    if count >= replication {
        return; // already fully replicated (duplicate repair entries)
    }
    if let Some(dest) = placer.place_repair(rng, store, store.replicas(block), frt.busy()) {
        if frt.armed && frt.down[dest.0 as usize] {
            // Busy-oblivious policies (Stock) can pick a crashed
            // destination; treat it like no destination and re-queue.
            let at = pipeline.schedule(now);
            heap.push(QueuedRepair { at, block });
            return;
        }
        store.add_replica(block, dest);
        *repairs += 1;
        frt.attempts.remove(&block.0);
        // Still short? (More than one replica was lost.) Queue another.
        if store.replica_count(block) < replication {
            let at = pipeline.schedule(now);
            heap.push(QueuedRepair { at, block });
        }
    } else {
        // No destination (cluster full): retry after a detection delay.
        let at = pipeline.schedule(now);
        heap.push(QueuedRepair { at, block });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::fault::{ClusterShape, FaultEvent, FaultProfile};
    use harvest_trace::datacenter::DatacenterProfile;

    fn dc(scale: f64) -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(3).scaled(scale), 23)
    }

    fn shape_of(dc: &Datacenter) -> ClusterShape {
        ClusterShape {
            n_servers: dc.n_servers(),
            rack_size: harvest_cluster::datacenter::RACK_SIZE as usize,
        }
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
        simulate_durability(&dc, &cfg)
    }

    #[test]
    fn blocks_are_created_to_fill_target() {
        let dc = dc(0.02);
        let cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, 1);
        let result = simulate_durability(&dc, &cfg);
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
        let r_off = simulate_durability(&dc, &off);
        let r_on = simulate_durability(&dc, &on);
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
        let a = simulate_durability(&dc, &cfg);
        let b = simulate_durability(&dc, &cfg);
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
        let r_off = simulate_durability(&dc, &off);
        let r_on = simulate_durability(&dc, &on);
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
        let a = simulate_durability(&dc, &base);
        let b = simulate_durability(&dc, &armed);
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
        ]);
        let actions = expand_fault_plan(&dc, &plan, detection, horizon);
        let rack_servers = dc.servers_in_rack(1).len();
        let crashes = actions
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Crash(_)))
            .count();
        assert_eq!(crashes, rack_servers + 1);
        // Server 0 restarts inside the heartbeat window, so only the
        // powered-off rack gets declared dead.
        assert!(!actions
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::DeclareDead { server, .. } if server.0 == 0)));
        let deads = actions
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::DeclareDead { .. }))
            .count();
        assert_eq!(deads, rack_servers);
        assert!(actions.windows(2).all(|w| w[0].0 <= w[1].0));
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
        let clean = simulate_durability(&dc, &cfg);
        let mut faulted_cfg = cfg.clone();
        faulted_cfg.faults =
            FaultProfile::RackLoss.plan(5, shape_of(&dc), SimDuration::from_days(60));
        let faulted = simulate_durability(&dc, &faulted_cfg);
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
        let w = simulate_durability(&dc, &with);
        let wo = simulate_durability(&dc, &without);
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
            FaultProfile::CorrelatedStorm.plan(9, shape_of(&dc), SimDuration::from_days(60));
        let a = simulate_durability(&dc, &cfg);
        let b = simulate_durability(&dc, &cfg);
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
        cfg.faults = FaultProfile::RackLoss.plan(11, shape_of(&dc), SimDuration::from_days(60));
        let plain = simulate_durability(&dc, &cfg);
        let (recorded, rec) = simulate_durability_recorded(&dc, &cfg, Recorder::new("durability"));
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

    #[test]
    fn network_and_disk_compose_deterministically() {
        let dc = dc(0.02);
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 3, 5);
        cfg.months = 2;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        let a = simulate_durability(&dc, &cfg);
        let b = simulate_durability(&dc, &cfg);
        assert!(a.repairs > 0, "no repairs with both models on");
        assert_eq!(a.lost_blocks, b.lost_blocks);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.repairs_too_late, b.repairs_too_late);
    }
}
