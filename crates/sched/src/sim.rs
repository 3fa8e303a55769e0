//! The co-location scheduling simulator.
//!
//! Runs a [`Workload`] of DAG jobs against a [`Datacenter`] under one of
//! the three scheduler policies, replaying the primary tenants'
//! utilization and enforcing the burst reserve. This is the engine behind
//! Figures 10, 11, 13, and 14.
//!
//! Mechanics (per §5.3):
//!
//! * the node manager rounds the primary's usage up to whole cores and
//!   keeps the 4-core/10 GB reserve free; when a primary burst violates
//!   the reserve, it kills containers **youngest first** until the
//!   reserve is restored;
//! * Tez-H asks the clustering service for a class (or classes) per job
//!   via Algorithm 1 and the RM then only places that job's tasks on
//!   servers of those classes;
//! * the RM balances load across eligible servers (the paper places with
//!   probability proportional to available resources; this simulator
//!   approximates that with random probing that picks the freest of a
//!   dozen sampled servers, which has the same balancing effect without
//!   a full scan per container).
//!
//! Utilization changes on the trace's two-minute grid, so reserve
//! violations are detected and repaired on the same grid (the paper's
//! reaction time is "a few seconds at most"; both are far shorter than
//! task durations).
//!
//! With a [`NetworkConfig`], inter-stage shuffles become real flows: a
//! stage whose dependencies just finished cannot start tasks until its
//! shuffle bytes have crossed the fabric, where they share bandwidth
//! max-min fairly with every other in-flight shuffle. Under contention
//! (and against repair storms sharing the same uplinks) stage runtimes
//! stretch exactly the way Tez jobs do on a busy cluster.
//!
//! With a [`DiskConfig`], the same shuffle bytes also touch platters:
//! each aggregate flow is bracketed by a fetch *read* on its source's
//! disk and a spill *write* on its destination's, both secondary
//! streams competing with the primary tenants' modeled I/O — so a
//! reducer scheduled next to a disk-hot primary stalls on its spill
//! even when the wire is free, which is §6's interference made visible
//! to the scheduler experiments.
//!
//! # Cost model
//!
//! The two-minute tick is the simulator's hottest loop — a DC-9 run
//! dispatches it hundreds of times over 14 386 servers — so it is
//! change-driven, never a fleet sweep:
//!
//! * fleet utilization accounting is one lookup into the
//!   [`UtilizationView`]'s precomputed fleet series;
//! * reserve enforcement walks the *occupied-server index* (servers
//!   hosting at least one alive container, maintained on place and
//!   release by [`crate::roster::ContainerRoster`]) instead of scanning
//!   the fleet for nonzero allocations;
//! * the primaries' disk-demand replay visits only disks with in-flight
//!   secondary streams ([`DiskPool::active_servers`]) whose playback
//!   sample actually moved across the tick boundary
//!   ([`UtilizationView::server_sample_changed`]); a disk idle when the
//!   tick fires is brought up to date lazily — against the same tick's
//!   sample — the moment a stream is scheduled on it.
//!
//! A tick therefore costs O(changed + occupied), not O(fleet). Debug
//! builds (every `cargo test` run) check each index against a
//! whole-fleet scan that shares none of its code, on every tick: the
//! fleet lookup equals [`UtilizationView::fleet_util_scan`] bitwise, no
//! server in the fleet holds more than its secondary capacity after
//! enforcement, and every disk with in-flight streams holds the last
//! tick's sample bitwise. Release builds skip the scans;
//! `benches/sched_tick.rs` measures what they would cost.
//! Within an event, per-container work is O(1) amortized: releases
//! tombstone instead of splicing the per-server lists, kills invalidate
//! exactly the killed task's shuffle-source slot, and a scheduling pass
//! iterates the runnable list in place instead of cloning it. A pass
//! visits every runnable job, so the visit is O(1): the job's
//! ready-task count is a cached field of its [`JobExecution`], and
//! nearly every visit ends there. A placement attempt walks the ready
//! stages in place and probes servers into buffers the runner owns, so
//! it allocates nothing.

use std::time::{Duration, Instant};

use harvest_cluster::reserve::{secondary_capacity, SERVER_CAPACITY};
use harvest_cluster::{Datacenter, Resources, ServerId, UtilizationView};
use harvest_disk::{DiskConfig, DiskPool, IoDir};
use harvest_jobs::dag::StageId;
use harvest_jobs::estimate::max_concurrent_tasks;
use harvest_jobs::exec::JobExecution;
use harvest_jobs::length::{JobHistory, LengthThresholds};
use harvest_jobs::shuffle::{stage_shuffle_bytes, DEFAULT_BYTES_PER_TASK};
use harvest_jobs::workload::Workload;
use harvest_net::{Fabric, NetworkConfig};
use harvest_sim::engine::EventQueue;
use harvest_sim::fault::{FaultAction, FaultPlan, FaultState};
use harvest_sim::obs::{GaugeId, HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::rng::stream_rng;
use harvest_sim::supervise::CancelToken;
use harvest_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::classes::ClusteringService;
use crate::headroom::RankingWeights;
use crate::policy::SchedPolicy;
use crate::roster::{ContainerRoster, StageSources};
use crate::select::{select_classes, ClassSelection};
use crate::stats::{JobResult, LoadSample, SimStats};

/// Default container request: 1 core, 2 GB.
pub(crate) const CONTAINER: Resources = Resources {
    cores: 1,
    memory_mb: 2_048,
};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SchedSimConfig {
    /// Scheduler variant.
    pub policy: SchedPolicy,
    /// How long jobs keep arriving (the workload horizon should match).
    pub horizon: SimDuration,
    /// Extra time after the horizon for in-flight jobs to finish.
    pub drain: SimDuration,
    /// Master seed for placement/selection randomness.
    pub seed: u64,
    /// Record per-server load samples every tick (only sensible for
    /// testbed-sized clusters).
    pub record_server_load: bool,
    /// When set, inter-stage shuffles travel the fabric and gate
    /// dependent stages; `None` keeps data movement free and instant
    /// (the seed model).
    pub network: Option<NetworkConfig>,
    /// When set, each shuffle's bytes are also fetched off the source
    /// servers' disks and spilled onto the destinations', as secondary
    /// streams contending with the primary tenants' modeled disk I/O;
    /// stages stay gated until the slowest of wire, fetch, and spill
    /// finishes. Composes with `network`; meaningful on its own too
    /// (disk-bound shuffles over a free wire).
    pub disk: Option<DiskConfig>,
    /// Deterministic fault injection. A crashed (or rack-power-lost)
    /// server loses every container it hosts — the interrupted stages
    /// re-dispatch after exponential backoff, up to the plan's retry
    /// budget, after which the job is abandoned — and drops out of
    /// placement until its restart. With a data-movement model on,
    /// in-flight shuffle parts touching the fault abort and the gate
    /// restarts from scratch; disk faults (`DiskFail`/`DiskDegrade`)
    /// only matter when `disk` is set, uplink faults only when
    /// `network` is. [`FaultPlan::none`] (the default) keeps every
    /// fault branch unarmed: the trajectory is bitwise identical to the
    /// pre-fault simulator (pinned by tests).
    pub faults: FaultPlan,
    /// Cooperative cancellation, polled at tick granularity (every two
    /// simulated minutes): when the supervising harness cancels an
    /// overdue sweep task, the event loop stops at the next tick and
    /// the partial result is discarded by the caller. The default
    /// token is never cancelled and costs one relaxed load per tick.
    pub cancel: CancelToken,
}

impl SchedSimConfig {
    /// A configuration mirroring the paper's five-hour testbed runs.
    pub fn testbed(policy: SchedPolicy, seed: u64) -> Self {
        SchedSimConfig {
            policy,
            horizon: SimDuration::from_hours(5),
            drain: SimDuration::from_hours(2),
            seed,
            record_server_load: false,
            network: None,
            disk: None,
            faults: FaultPlan::none(),
            cancel: CancelToken::new(),
        }
    }
}

/// The tick on which utilization is re-read and reserves enforced. It
/// is the playback sampling interval itself: the change-driven disk
/// replay compares consecutive samples, which is exact only when
/// consecutive ticks land on consecutive slots.
const TICK: SimDuration = harvest_trace::SAMPLE_INTERVAL;

/// How many random servers a placement probes before giving up.
const PLACEMENT_PROBES: usize = 12;

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    Finish(usize),
    Tick,
    /// Wake-up so in-flight shuffle completions are observed promptly
    /// rather than at the next two-minute tick.
    NetWake,
    /// An injected fault fires (index into the plan's action list).
    /// Only queued when the fault plan is non-empty, so the fault-free
    /// event stream is untouched.
    Fault(usize),
    /// A fault-interrupted stage's backoff delay elapsed (payload is
    /// the stage entity `job << 32 | stage`): the stage becomes
    /// placeable again.
    Retry(u64),
}

/// How many aggregate flows one stage's shuffle is split into (one per
/// distinct upstream server, capped — real shuffles open thousands of
/// fetches, but their aggregate bandwidth behavior is that of a few
/// parallel streams per source).
const MAX_SHUFFLE_FLOWS: usize = 16;

/// Whether a stage may start tasks, shuffle-wise.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShuffleGate {
    /// Shuffle not yet started (stage not ready, or never attempted).
    Unstarted,
    /// Shuffle flows in flight; `0` remaining means about to open.
    Waiting(u32),
    /// Shuffle done (or not needed): tasks may be placed.
    Open,
}

#[derive(Debug)]
struct Container {
    job: usize,
    stage: StageId,
    server: ServerId,
    start: SimTime,
    alive: bool,
    /// This task's slot in its stage's shuffle sources (`u32::MAX`
    /// without a data-movement model).
    source_slot: u32,
}

#[derive(Debug)]
struct ActiveJob {
    exec: JobExecution,
    query: usize,
    /// Servers this job's tasks may use (None = whole cluster; per §5.3
    /// an unlabeled request falls back to the RM's default policy).
    allowed: Option<Vec<ServerId>>,
    done: bool,
}

/// The scheduling simulator. See the module docs.
pub struct SchedSim<'a> {
    dc: &'a Datacenter,
    view: &'a UtilizationView,
    workload: &'a Workload,
    cfg: SchedSimConfig,
}

impl<'a> SchedSim<'a> {
    /// Creates a simulator over the given cluster, utilization view, and
    /// workload.
    pub fn new(
        dc: &'a Datacenter,
        view: &'a UtilizationView,
        workload: &'a Workload,
        cfg: SchedSimConfig,
    ) -> Self {
        SchedSim {
            dc,
            view,
            workload,
            cfg,
        }
    }

    /// Runs the simulation to completion and returns the statistics.
    pub fn run(&self) -> SimStats {
        let mut rec = Recorder::off();
        self.run_recorded(&mut rec)
    }

    /// [`SchedSim::run`] with observability: tick spans (annotated with
    /// changed-disk and occupied-server counts) land on the `sched`
    /// track, the event-queue depth is gauged each tick, per-stage
    /// wait states land on the `sched/stage` state track (see
    /// `SchedObs::stages`), and the fabric and disk pool record into
    /// child recorders that are absorbed back into `rec` at the end,
    /// along with `sched/*` counters mirroring the run's totals. Two
    /// host-time measurements attribute the call's wall time: a
    /// `clustering` span on the `sched` wall track around YARN-H's
    /// clustering build, and the `sched/schedule_pass_wall_us` counter
    /// summed over every scheduling pass. Recording never changes the
    /// trajectory: the returned [`SimStats`] is bitwise identical to
    /// [`SchedSim::run`]'s (pinned by tests), and nothing is printed.
    pub fn run_recorded(&self, rec: &mut Recorder) -> SimStats {
        let runner = Runner::new(self, std::mem::take(rec));
        let (stats, r) = runner.run();
        *rec = r;
        stats
    }
}

/// Metric ids registered when the runner's recorder is on.
struct SchedObs {
    track: TrackId,
    queue_len: GaugeId,
    tick_changed: HistogramId,
    tick_occupied: HistogramId,
    /// Wait-state track `sched/stage` (entity = `job << 32 | stage`):
    /// `blocked_on_net`/`blocked_on_disk_read` while the shuffle gate
    /// is closed, `queued` from gate-open to first placement, `running`
    /// once a task is placed, `reserve_evicted` from a kill until the
    /// replacement task lands, exit when the stage's last task
    /// finishes. Without a data-movement model stages are never gated,
    /// so they appear as pure `running` intervals.
    stages: StateTrackId,
    /// Stages currently marked `running`, so only the first placed task
    /// (or the first after an eviction) records a transition.
    stage_running: std::collections::HashSet<u64>,
    /// Host wall time spent in `schedule_pass`, reported at the end of
    /// the run as the `sched/schedule_pass_wall_us` counter.
    pass_wall: Duration,
}

struct Runner<'a> {
    sim: &'a SchedSim<'a>,
    rng: StdRng,
    queue: EventQueue<Ev>,
    svc: Option<ClusteringService>,
    weights: RankingWeights,
    history: JobHistory,
    jobs: Vec<ActiveJob>,
    containers: Vec<Container>,
    alloc: Vec<Resources>,
    /// Per-server container lists (oldest → youngest) plus the
    /// occupied-server index the tick's reserve enforcement walks.
    roster: ContainerRoster,
    /// Jobs that might have ready, unplaced tasks.
    runnable: Vec<usize>,
    /// Per-job membership flag for `runnable` (O(1) duplicate checks).
    in_runnable: Vec<bool>,
    /// Reusable per-pass "could not place" flags for `schedule_pass`.
    blocked_scratch: Vec<bool>,
    /// Reusable probe buffers for `find_server`: the sampled servers
    /// and their placement weights.
    probe_servers: Vec<ServerId>,
    probe_weights: Vec<f64>,
    results: Vec<Option<JobResult>>,
    total_kills: u64,
    tasks_started: u64,
    primary_core_ms: f64,
    secondary_core_ms: f64,
    observed_ms: f64,
    server_load: Vec<Vec<LoadSample>>,
    kills_per_server: Vec<u64>,
    end_of_time: SimTime,
    fabric: Option<Fabric>,
    disks: Option<DiskPool>,
    /// Per job, per stage: whether the stage's shuffle has landed.
    shuffle_gate: Vec<Vec<ShuffleGate>>,
    /// Per job, per stage: servers its tasks ran on (shuffle sources;
    /// populated only with a data-movement model on).
    stage_servers: Vec<Vec<StageSources>>,
    /// The NetWake instant currently queued, to avoid duplicates.
    pending_wake: Option<SimTime>,
    /// The most recent tick dispatched — the sample the lazy primary
    /// disk refresh replays for disks idle when the tick fired.
    last_tick: Option<SimTime>,
    /// Observability sink; `obs` holds registered ids iff recording is
    /// on, so the tick pays one `Option` check when off.
    rec: Recorder,
    obs: Option<SchedObs>,
    /// The plan's server-granular actions, indexed by `Ev::Fault`.
    /// Unlike the durability engine there is no heartbeat grace here:
    /// the RM sees a dead node manager at crash time.
    fault_actions: Vec<(SimTime, FaultAction)>,
    /// The down servers and the retry budget per stage entity
    /// (`job << 32 | stage`); `None` for an empty plan, so every branch
    /// that could perturb the fault-free trajectory tests it first.
    faults: Option<FaultState>,
    fault_kills: u64,
    fault_retries: u64,
    jobs_abandoned: u64,
}

impl<'a> Runner<'a> {
    fn new(sim: &'a SchedSim<'a>, mut rec: Recorder) -> Self {
        let obs = rec.is_on().then(|| SchedObs {
            track: rec.track("sched"),
            queue_len: rec.gauge("sched/queue_len"),
            tick_changed: rec.histogram("sched/tick_changed_disks"),
            tick_occupied: rec.histogram("sched/tick_occupied_servers"),
            stages: rec.state_track("sched/stage"),
            stage_running: std::collections::HashSet::new(),
            pass_wall: Duration::ZERO,
        });
        let n_servers = sim.dc.n_servers();
        let svc = if sim.cfg.policy.uses_history() {
            let start = rec.is_on().then(Instant::now);
            let svc = ClusteringService::build_adaptive(sim.dc, sim.view, sim.cfg.seed);
            if let Some(start) = start {
                let (start, end) = (rec.wall_us(start), rec.wall_us(Instant::now()));
                rec.wall_span("sched", "clustering", start, end);
            }
            Some(svc)
        } else {
            None
        };
        // Pre-seed the job-length history with each query's critical
        // path, as if every query ran once before the experiment
        // (otherwise every first-seen job types as medium).
        let mut history = JobHistory::new();
        for q in &sim.workload.queries {
            history.record(&q.name, q.critical_path());
        }
        let mut fabric = sim
            .cfg
            .network
            .as_ref()
            .map(|net| Fabric::from_datacenter(sim.dc, net));
        let mut disks = sim
            .cfg
            .disk
            .as_ref()
            .map(|d| DiskPool::from_datacenter(sim.dc, d));
        if rec.is_on() {
            if let Some(f) = fabric.as_mut() {
                f.set_recorder(rec.child());
            }
            if let Some(d) = disks.as_mut() {
                d.set_recorder(rec.child());
            }
        }
        let end_of_time = SimTime::ZERO + sim.cfg.horizon + sim.cfg.drain;
        let fault_actions = sim.cfg.faults.actions(sim.dc.cluster_shape(), end_of_time);
        Runner {
            sim,
            rng: stream_rng(sim.cfg.seed, "sched-sim"),
            queue: EventQueue::with_capacity(1024),
            svc,
            weights: RankingWeights::paper(),
            history,
            jobs: Vec::new(),
            containers: Vec::new(),
            alloc: vec![Resources::ZERO; n_servers],
            roster: ContainerRoster::new(n_servers),
            runnable: Vec::new(),
            in_runnable: Vec::new(),
            blocked_scratch: Vec::new(),
            probe_servers: Vec::with_capacity(4 * PLACEMENT_PROBES),
            probe_weights: Vec::with_capacity(4 * PLACEMENT_PROBES),
            results: vec![None; sim.workload.n_jobs()],
            total_kills: 0,
            tasks_started: 0,
            primary_core_ms: 0.0,
            secondary_core_ms: 0.0,
            observed_ms: 0.0,
            server_load: vec![
                Vec::new();
                if sim.cfg.record_server_load {
                    n_servers
                } else {
                    0
                }
            ],
            kills_per_server: vec![0u64; n_servers],
            end_of_time,
            fabric,
            disks,
            shuffle_gate: Vec::new(),
            stage_servers: Vec::new(),
            pending_wake: None,
            last_tick: None,
            rec,
            obs,
            fault_actions,
            faults: sim.cfg.faults.arm(n_servers, sim.cfg.seed),
            fault_kills: 0,
            fault_retries: 0,
            jobs_abandoned: 0,
        }
    }

    /// Whether any data-movement model (fabric or disks) is on.
    fn models_io(&self) -> bool {
        self.fabric.is_some() || self.disks.is_some()
    }

    fn run(mut self) -> (SimStats, Recorder) {
        for (i, arrival) in self.sim.workload.arrivals.iter().enumerate() {
            self.queue.push(arrival.time, Ev::Arrival(i));
        }
        let mut t = SimTime::ZERO;
        while t < self.end_of_time {
            self.queue.push(t, Ev::Tick);
            t += TICK;
        }
        // Fault actions enter the queue last, so a fault coinciding
        // with a tick or arrival fires after it (FIFO tie-break). With
        // an empty plan nothing is pushed and the event stream is
        // byte-for-byte the fault-free one.
        for i in 0..self.fault_actions.len() {
            let at = self.fault_actions[i].0;
            self.queue.push(at, Ev::Fault(i));
        }

        let mut last_now = SimTime::ZERO;
        while let Some((now, ev)) = self.queue.pop() {
            if now > self.end_of_time {
                break;
            }
            last_now = now;
            self.pump_fabric(now);
            match ev {
                Ev::Arrival(idx) => self.on_arrival(idx, now),
                Ev::Finish(cid) => self.on_finish(cid, now),
                Ev::Tick => {
                    // Cooperative cancellation checkpoint: one relaxed
                    // load per two-minute tick when never cancelled.
                    if self.sim.cfg.cancel.is_cancelled() {
                        break;
                    }
                    self.on_tick(now)
                }
                Ev::NetWake => {
                    if self.pending_wake == Some(now) {
                        self.pending_wake = None;
                    }
                    self.schedule_pass(now);
                }
                Ev::Fault(i) => self.on_fault(i, now),
                Ev::Retry(entity) => self.on_retry(entity, now),
            }
            self.arm_net_wake(now);
        }

        // Stages still waiting out a backoff when the clock ran out
        // close their `retrying` state here, so faulted traces keep the
        // tiling invariant (every enter has a matching exit).
        if let (Some(obs), Some(faults)) = (&self.obs, &self.faults) {
            for entity in faults.waiting() {
                self.rec.state_exit(obs.stages, entity, last_now);
            }
        }

        let jobs = self
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    let arrival = &self.sim.workload.arrivals[i];
                    JobResult {
                        name: self.sim.workload.job_of(arrival).name.clone(),
                        query: arrival.query,
                        submitted: arrival.time,
                        finished: None,
                        execution_time: None,
                        kills: self
                            .jobs
                            .iter()
                            .find(|j| j.query == arrival.query && !j.done)
                            .map(|j| j.exec.kills())
                            .unwrap_or(0),
                    }
                })
            })
            .collect();

        if self.rec.is_on() {
            if let Some(f) = self.fabric.as_mut() {
                let child = f.take_recorder();
                self.rec.absorb(child);
            }
            if let Some(d) = self.disks.as_mut() {
                let child = d.take_recorder();
                self.rec.absorb(child);
            }
            let id = self.rec.counter("sched/tasks_started");
            self.rec.counter_set(id, self.tasks_started);
            let id = self.rec.counter("sched/kills");
            self.rec.counter_set(id, self.total_kills);
            if let Some(obs) = &self.obs {
                let id = self.rec.counter("sched/schedule_pass_wall_us");
                self.rec.counter_set(id, obs.pass_wall.as_micros() as u64);
            }
            if self.faults.is_some() {
                let id = self.rec.counter("sched/fault_kills");
                self.rec.counter_set(id, self.fault_kills);
                let id = self.rec.counter("sched/fault_retries");
                self.rec.counter_set(id, self.fault_retries);
                let id = self.rec.counter("sched/jobs_abandoned");
                self.rec.counter_set(id, self.jobs_abandoned);
            }
        }

        let denom = 12.0 * self.sim.dc.n_servers() as f64 * self.observed_ms.max(1.0);
        let stats = SimStats {
            jobs,
            total_kills: self.total_kills,
            tasks_started: self.tasks_started,
            avg_total_utilization: (self.primary_core_ms + self.secondary_core_ms) / denom,
            avg_primary_utilization: self.primary_core_ms / denom,
            server_load: self.server_load,
            kills_per_server: self.kills_per_server,
            fabric: self.fabric.as_ref().map(|f| *f.stats()),
            disks: self.disks.as_ref().map(|p| *p.stats()),
            fault_kills: self.fault_kills,
            fault_retries: self.fault_retries,
            jobs_abandoned: self.jobs_abandoned,
        };
        (stats, self.rec)
    }

    /// Applies every fabric and disk event due by `now`: finished
    /// shuffle flows, fetch reads, and spill writes each count down
    /// their stage's gate; a fully landed shuffle opens the gate and
    /// makes the owning job runnable again.
    fn pump_fabric(&mut self, now: SimTime) {
        let mut tags: Vec<u64> = Vec::new();
        if let Some(fabric) = self.fabric.as_mut() {
            tags.extend(fabric.pump(now).into_iter().map(|c| c.tag));
        }
        if let Some(disks) = self.disks.as_mut() {
            tags.extend(disks.pump(now).into_iter().map(|c| c.tag));
        }
        let mut opened = false;
        for tag in tags {
            let job_id = (tag >> 32) as usize;
            let stage = (tag & 0xFFFF_FFFF) as usize;
            let gate = &mut self.shuffle_gate[job_id][stage];
            if let ShuffleGate::Waiting(left) = *gate {
                *gate = if left <= 1 {
                    opened = true;
                    if !self.in_runnable[job_id] {
                        self.in_runnable[job_id] = true;
                        self.runnable.push(job_id);
                    }
                    if let Some(obs) = &self.obs {
                        self.rec.state_enter(obs.stages, tag, "queued", now);
                    }
                    ShuffleGate::Open
                } else {
                    ShuffleGate::Waiting(left - 1)
                };
            }
        }
        if opened {
            self.schedule_pass(now);
        }
    }

    /// Keeps one NetWake queued at the next fabric or disk event time,
    /// so shuffle completions between ticks are handled promptly.
    fn arm_net_wake(&mut self, now: SimTime) {
        let t_net = self.fabric.as_ref().and_then(|f| f.next_event_time());
        let t_disk = self.disks.as_ref().and_then(|p| p.next_event_time());
        let Some(t) = [t_net, t_disk].into_iter().flatten().min() else {
            return;
        };
        let t = t.max(now);
        if t <= self.end_of_time && self.pending_wake != Some(t) {
            self.queue.push(t, Ev::NetWake);
            self.pending_wake = Some(t);
        }
    }

    fn on_arrival(&mut self, idx: usize, now: SimTime) {
        let arrival = &self.sim.workload.arrivals[idx];
        let job = self.sim.workload.job_of(arrival).clone();
        let n_stages = job.n_stages();
        let exec = JobExecution::new(job, now);
        let job_id = self.jobs.len();
        debug_assert_eq!(job_id, idx, "jobs must be created in arrival order");
        self.jobs.push(ActiveJob {
            exec,
            query: arrival.query,
            allowed: None,
            done: false,
        });
        self.shuffle_gate
            .push(vec![ShuffleGate::Unstarted; n_stages]);
        self.stage_servers.push(vec![
            StageSources::new();
            if self.models_io() { n_stages } else { 0 }
        ]);
        self.in_runnable.push(false);
        if self.sim.cfg.policy.uses_history() {
            self.select_for(job_id, now);
        }
        self.mark_runnable(job_id);
        self.schedule_pass(now);
    }

    /// Adds a job to the runnable list unless it is already there.
    fn mark_runnable(&mut self, job_id: usize) {
        if !self.in_runnable[job_id] {
            self.in_runnable[job_id] = true;
            self.runnable.push(job_id);
        }
    }

    /// Runs Algorithm 1 for job `j`, setting its allowed-server set.
    fn select_for(&mut self, j: usize, now: SimTime) {
        let length = self.history.job_length(
            &self.jobs[j].exec.job().name,
            &LengthThresholds::paper_testbed(),
        );
        let req = max_concurrent_tasks(self.jobs[j].exec.job()) as u64;
        let utils = self.class_utils(now);
        let svc = self.svc.as_ref().expect("history policy has a service");
        let selection = select_classes(&mut self.rng, svc, &self.weights, length, req, &utils);
        let job = &mut self.jobs[j];
        match selection {
            // No class combination had room. Tez-H then sends the request
            // without a node label, and "RM-H selects destination servers
            // using its default policy" (§5.3) — i.e. the whole cluster.
            ClassSelection::None => job.allowed = None,
            sel => {
                let mut servers = Vec::new();
                for c in sel.class_ids() {
                    servers.extend_from_slice(&svc.classes()[c].servers);
                }
                job.allowed = Some(servers);
            }
        }
    }

    /// Current average utilization of each class's servers: the primary
    /// tenants' CPU *plus* the cores already allocated to harvested
    /// containers. The RM knows its own allocations, and Algorithm 1's
    /// "amount of available resources (or the amount of headroom) that
    /// the servers in the class currently exhibit" must subtract both —
    /// otherwise selection keeps admitting jobs into a class that is
    /// already full of containers.
    fn class_utils(&self, now: SimTime) -> Vec<f64> {
        let svc = self.svc.as_ref().expect("history policy has a service");
        svc.classes()
            .iter()
            .map(|c| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for &tid in &c.tenants {
                    let tenant = self.sim.dc.tenant(tid);
                    sum += self.sim.view.tenant_util(tid, now) * tenant.n_servers() as f64;
                    n += tenant.n_servers();
                }
                let allocated: u32 = c
                    .servers
                    .iter()
                    .map(|s| self.alloc[s.0 as usize].cores)
                    .sum();
                if n == 0 {
                    1.0
                } else {
                    (sum + allocated as f64 / SERVER_CAPACITY.cores as f64) / n as f64
                }
            })
            .collect()
    }

    fn on_finish(&mut self, cid: usize, now: SimTime) {
        if !self.containers[cid].alive {
            return; // killed earlier; stale event
        }
        let (job_id, stage, server, start) = {
            let c = &mut self.containers[cid];
            c.alive = false;
            (c.job, c.stage, c.server, c.start)
        };
        self.release(server, start, now);
        let job = &mut self.jobs[job_id];
        job.exec.finish_task(stage, now);
        if let Some(obs) = &mut self.obs {
            let stage_done =
                job.exec.pending_tasks(stage) == 0 && job.exec.running_tasks(stage) == 0;
            if stage_done {
                let entity = ((job_id as u64) << 32) | stage.0 as u64;
                obs.stage_running.remove(&entity);
                self.rec.state_exit(obs.stages, entity, now);
            }
        }
        if job.exec.is_complete() && !job.done {
            job.done = true;
            let name = job.exec.job().name.clone();
            let exec_time = job.exec.execution_time().expect("complete job has time");
            self.history.record(&name, exec_time);
            // Find the arrival index for this job: results are indexed by
            // arrival; job ids are allocated in arrival order.
            let arrival = &self.sim.workload.arrivals[job_id];
            self.results[job_id] = Some(JobResult {
                name,
                query: arrival.query,
                submitted: job.exec.submitted(),
                finished: Some(now),
                execution_time: Some(exec_time),
                kills: job.exec.kills(),
            });
        }
        self.schedule_pass(now);
    }

    /// Returns a container's resources; the caller has already marked
    /// it dead, so the roster can tombstone it in O(1) amortized (no
    /// position scan, no element shift).
    fn release(&mut self, server: ServerId, start: SimTime, now: SimTime) {
        self.alloc[server.0 as usize] -= CONTAINER;
        let containers = &self.containers;
        self.roster.release(server, |c| containers[c].alive);
        self.secondary_core_ms += CONTAINER.cores as f64 * now.since(start).as_millis() as f64;
    }

    fn on_tick(&mut self, now: SimTime) {
        self.last_tick = Some(now);
        // Utilization accounting: one lookup into the fleet series.
        let fleet = self.sim.view.fleet_util(now);
        debug_assert_eq!(
            fleet.to_bits(),
            self.sim.view.fleet_util_scan(now).to_bits(),
            "fleet series diverged from the per-tenant scan at {now}"
        );
        let tick_ms = TICK.as_millis() as f64;
        self.primary_core_ms += fleet * 12.0 * self.sim.dc.n_servers() as f64 * tick_ms;
        self.observed_ms += tick_ms;

        // Replay the primaries' disk demand onto the modeled disks (the
        // pool was pumped to `now` before this event was dispatched, so
        // rate changes re-predict in-flight spill completions exactly).
        // Only disks with in-flight secondary streams whose playback
        // sample moved across this tick boundary are touched — a demand
        // change cannot affect any other disk now, and idle disks are
        // refreshed lazily when a stream is scheduled on them (see
        // `refresh_primary_disk`). Ascending server order keeps
        // completion events re-predicted to equal instants in a fixed
        // FIFO order.
        let view = self.sim.view;
        let mut changed = 0usize;
        if let Some(disks) = self.disks.as_mut() {
            let slot = view.slot_of(now);
            let active: Vec<ServerId> = disks.active_servers().collect();
            for sid in active {
                if view.server_sample_changed(sid, slot) {
                    disks.set_primary_util(now, sid, view.server_util(sid, now));
                    changed += 1;
                }
            }
        }
        debug_assert_eq!(
            self.stale_disk(&[]),
            None,
            "stale disk after the tick at {now}"
        );

        // Reserve enforcement (primary-aware policies only).
        if self.sim.cfg.policy.primary_aware() {
            self.enforce_reserves(now);
        }

        // Record testbed load samples.
        if self.sim.cfg.record_server_load {
            for s in 0..self.sim.dc.n_servers() {
                self.server_load[s].push(LoadSample {
                    time: now,
                    primary_util: self.sim.view.server_util(ServerId(s as u32), now),
                    secondary_cores: self.alloc[s].cores,
                });
            }
        }

        self.schedule_pass(now);

        if let Some(obs) = &self.obs {
            let occupied = self.roster.occupied().count();
            self.rec.span_args(
                obs.track,
                "tick",
                now,
                now + TICK,
                &[("changed", changed as f64), ("occupied", occupied as f64)],
            );
            self.rec.observe(obs.tick_changed, changed as f64);
            self.rec.observe(obs.tick_occupied, occupied as f64);
            self.rec
                .gauge_at(obs.queue_len, now, self.queue.len() as f64);
        }
    }

    /// Kills youngest containers on servers whose reserve is violated,
    /// walking the occupied-server index in ascending order: a server
    /// with no containers has nothing to kill.
    fn enforce_reserves(&mut self, now: SimTime) {
        let occupied: Vec<ServerId> = self.roster.occupied().collect();
        for sid in occupied {
            self.enforce_server(sid, now);
        }
        debug_assert_eq!(
            self.over_reserve(now),
            None,
            "server over its reserve after enforcement at {now}"
        );
    }

    /// Postcondition of reserve enforcement, from a whole-fleet scan
    /// that shares no roster code: the first server holding more than
    /// its secondary capacity at `now`, if any.
    fn over_reserve(&self, now: SimTime) -> Option<ServerId> {
        (0..self.sim.dc.n_servers() as u32)
            .map(ServerId)
            .find(|&s| {
                let cap = secondary_capacity(self.sim.view.server_util(s, now));
                !cap.fits(self.alloc[s.0 as usize])
            })
    }

    /// Postcondition of the disk replay: the first disk — among those
    /// with in-flight streams, then `also` — that does not hold the
    /// last tick's playback sample bitwise, if any.
    fn stale_disk(&self, also: &[ServerId]) -> Option<ServerId> {
        let (Some(disks), Some(tick)) = (&self.disks, self.last_tick) else {
            return None;
        };
        disks
            .active_servers()
            .chain(also.iter().copied())
            .find(|&s| {
                disks.primary_util(s).to_bits() != self.sim.view.server_util(s, tick).to_bits()
            })
    }

    fn enforce_server(&mut self, sid: ServerId, now: SimTime) {
        let s = sid.0 as usize;
        if self.alloc[s].is_zero() {
            return;
        }
        let util = self.sim.view.server_util(sid, now);
        let allowance = secondary_capacity(util);
        while self.alloc[s].cores > allowance.cores || self.alloc[s].memory_mb > allowance.memory_mb
        {
            // Youngest = most recently started = last alive in the list.
            let (roster, containers) = (&mut self.roster, &self.containers);
            let Some(cid) = roster.youngest(sid, |c| containers[c].alive) else {
                break;
            };
            self.kill_container(cid, now, false);
        }
    }

    /// Kills one container: a reserve eviction (`fault == false`, the
    /// pre-fault path — re-dispatch is immediate) or a fault kill
    /// (`fault == true` — accounting goes to `fault_kills`, and the
    /// caller re-dispatches with backoff). Returns the stage entity.
    /// Either way the task returns to pending, so per-job `kills` (via
    /// [`JobExecution::kill_task`]) counts both under an armed plan.
    fn kill_container(&mut self, cid: usize, now: SimTime, fault: bool) -> u64 {
        let (job_id, stage, server, start, source_slot) = {
            let c = &mut self.containers[cid];
            debug_assert!(c.alive, "killing a dead container");
            c.alive = false;
            (c.job, c.stage, c.server, c.start, c.source_slot)
        };
        self.release(server, start, now);
        self.jobs[job_id].exec.kill_task(stage);
        // A killed task produced no output here; drop exactly its slot
        // from the stage's shuffle sources (the re-run records its new
        // home, which is what a later shuffle reads).
        if self.models_io() {
            self.stage_servers[job_id][stage.0].invalidate(source_slot);
        }
        if fault {
            self.fault_kills += 1;
        } else {
            self.total_kills += 1;
        }
        self.kills_per_server[server.0 as usize] += 1;
        let entity = ((job_id as u64) << 32) | stage.0 as u64;
        if let Some(obs) = &mut self.obs {
            obs.stage_running.remove(&entity);
            if !fault {
                self.rec
                    .state_enter(obs.stages, entity, "reserve_evicted", now);
            }
        }
        if !fault {
            self.mark_runnable(job_id);
        }
        entity
    }

    /// Applies one fault action. Ordering within the event:
    /// containers on a crashed server die first, then the fabric and
    /// disk models abort in-flight shuffle parts the action hits, then
    /// every stage whose shuffle lost a part tears the rest of its
    /// parts down and restarts from scratch — all interrupted stages
    /// re-dispatch with backoff (or their job is abandoned past the
    /// retry budget). An action the fold finds to be a no-op changes
    /// nothing before the scheduling pass.
    fn on_fault(&mut self, i: usize, now: SimTime) {
        let (_, action) = self.fault_actions[i];
        if let Some(obs) = &self.obs {
            self.rec.instant(obs.track, action.label(), now);
        }
        // Stage entities interrupted by this action (container kills
        // and gate teardowns), deduplicated and in deterministic order.
        let mut hit: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut tags: Vec<u64> = Vec::new();
        if self.faults.as_mut().is_some_and(|f| f.apply(action)) {
            if let FaultAction::Crash(s) = action {
                loop {
                    let (roster, containers) = (&mut self.roster, &self.containers);
                    let Some(cid) = roster.youngest(ServerId(s), |c| containers[c].alive) else {
                        break;
                    };
                    hit.insert(self.kill_container(cid, now, true));
                }
            }
            if let Some(f) = self.fabric.as_mut() {
                tags.extend(f.apply_fault(now, action));
            }
            if let Some(d) = self.disks.as_mut() {
                tags.extend(d.apply_fault(now, action));
            }
        }
        // Any gate that lost a shuffle part restarts from scratch. The
        // tag's surviving parts must abort too — a gate reset to
        // `Unstarted` re-counts its parts, and a leftover completion
        // under the same tag would decrement the new gate spuriously.
        let resets: std::collections::BTreeSet<u64> = tags
            .into_iter()
            .filter(|&tag| {
                let (job, stage) = ((tag >> 32) as usize, (tag & 0xFFFF_FFFF) as usize);
                !self.jobs[job].done
                    && matches!(self.shuffle_gate[job][stage], ShuffleGate::Waiting(_))
            })
            .collect();
        if !resets.is_empty() {
            let set: std::collections::HashSet<u64> = resets.iter().copied().collect();
            if let Some(f) = self.fabric.as_mut() {
                f.abort_flows_with_tags(now, &set);
            }
            if let Some(d) = self.disks.as_mut() {
                d.abort_streams_with_tags(now, &set);
            }
            for &tag in &resets {
                self.shuffle_gate[(tag >> 32) as usize][(tag & 0xFFFF_FFFF) as usize] =
                    ShuffleGate::Unstarted;
                hit.insert(tag);
            }
        }
        for entity in hit {
            self.fault_retry(entity, now);
        }
        self.schedule_pass(now);
    }

    /// A fault interrupted `entity`'s stage: charge one retry and queue
    /// a delayed re-dispatch with exponential backoff and jitter, or —
    /// past the plan's budget — abandon the whole job (the scheduler
    /// analogue of durability's permanently lost blocks).
    fn fault_retry(&mut self, entity: u64, now: SimTime) {
        let job = (entity >> 32) as usize;
        if self.jobs[job].done {
            return;
        }
        let faults = self.faults.as_mut().expect("only an armed plan retries");
        let verdict = faults.charge(entity, now);
        if let Some(obs) = &self.obs {
            self.rec.state_enter(obs.stages, entity, "failed", now);
        }
        match verdict {
            Some(at) => {
                self.fault_retries += 1;
                self.queue.push(at, Ev::Retry(entity));
                if let Some(obs) = &self.obs {
                    self.rec.state_enter(obs.stages, entity, "retrying", now);
                }
            }
            None => {
                self.jobs[job].done = true;
                self.jobs_abandoned += 1;
                if let Some(obs) = &self.obs {
                    self.rec.state_exit(obs.stages, entity, now);
                }
            }
        }
    }

    /// A stage's backoff elapsed: it leaves the `retrying` hold (which
    /// [`Runner::try_place_one`] respects) and competes for capacity
    /// again at the next pass.
    fn on_retry(&mut self, entity: u64, now: SimTime) {
        let job = (entity >> 32) as usize;
        let was_held = self.faults.as_mut().is_some_and(|f| f.release(entity));
        if !self.jobs[job].done {
            if was_held {
                if let Some(obs) = &self.obs {
                    self.rec.state_enter(obs.stages, entity, "queued", now);
                }
            }
            self.mark_runnable(job);
            self.schedule_pass(now);
        } else if was_held {
            // The job was abandoned (another stage exhausted its
            // budget) while this one waited out its backoff; close its
            // open state so the trace keeps tiling.
            if let Some(obs) = &self.obs {
                self.rec.state_exit(obs.stages, entity, now);
            }
        }
    }

    /// Tries to place every ready task of every runnable job. Iterates
    /// the runnable list in place (placement never mutates it — only
    /// arrivals, kills, and shuffle completions do, none of which can
    /// fire mid-pass), so a pass allocates nothing beyond the reused
    /// blocked-flag scratch buffer. With recording on, the pass's host
    /// wall time accumulates into [`SchedObs::pass_wall`].
    fn schedule_pass(&mut self, now: SimTime) {
        if self.obs.is_none() {
            return self.place_ready(now);
        }
        let start = Instant::now();
        self.place_ready(now);
        if let Some(obs) = &mut self.obs {
            obs.pass_wall += start.elapsed();
        }
    }

    /// The body of [`Self::schedule_pass`].
    fn place_ready(&mut self, now: SimTime) {
        // Jobs submitted but not finished, with ready tasks.
        let (runnable, in_runnable, jobs) = (&mut self.runnable, &mut self.in_runnable, &self.jobs);
        runnable.retain(|&j| {
            let keep = !jobs[j].done;
            if !keep {
                in_runnable[j] = false;
            }
            keep
        });
        let n = self.runnable.len();
        let mut blocked = std::mem::take(&mut self.blocked_scratch);
        blocked.clear();
        blocked.resize(n, false);
        loop {
            let mut progressed = false;
            for (slot, slot_blocked) in blocked.iter_mut().enumerate() {
                let j = self.runnable[slot];
                if *slot_blocked || self.jobs[j].done {
                    continue;
                }
                if self.jobs[j].exec.ready_task_count() == 0 {
                    continue;
                }
                if self.try_place_one(j, now) {
                    progressed = true;
                } else {
                    *slot_blocked = true;
                }
            }
            if !progressed {
                break;
            }
        }
        debug_assert_eq!(self.runnable.len(), n, "runnable mutated mid-pass");
        self.blocked_scratch = blocked;
    }

    /// Places one ready task of job `j`, returning whether it succeeded.
    /// A ready stage whose shuffle is still crossing the fabric is
    /// skipped (and its shuffle is started if it has not been).
    fn try_place_one(&mut self, j: usize, now: SimTime) -> bool {
        let mut target = None;
        let mut next = self.jobs[j].exec.next_ready_stage(0);
        while let Some(stage) = next {
            next = self.jobs[j].exec.next_ready_stage(stage.0 + 1);
            // A stage waiting out a fault backoff is invisible to the
            // scheduler until its retry fires.
            let waiting = |f: &FaultState| f.is_waiting(((j as u64) << 32) | stage.0 as u64);
            if self.faults.as_ref().is_some_and(waiting) {
                continue;
            }
            if self.gate_for(j, stage, now) == ShuffleGate::Open {
                target = Some(stage);
                break;
            }
        }
        let Some(stage) = target else {
            return false;
        };
        let Some(server) = self.find_server(j, now) else {
            return false;
        };
        let job = &mut self.jobs[j];
        job.exec.start_task(stage);
        let duration = job.exec.task_duration(stage);
        let cid = self.containers.len();
        let source_slot = if self.models_io() {
            self.stage_servers[j][stage.0].record(server)
        } else {
            u32::MAX
        };
        self.containers.push(Container {
            job: j,
            stage,
            server,
            start: now,
            alive: true,
            source_slot,
        });
        self.alloc[server.0 as usize] += CONTAINER;
        self.roster.place(server, cid);
        self.tasks_started += 1;
        if let Some(obs) = &mut self.obs {
            let entity = ((j as u64) << 32) | stage.0 as u64;
            if obs.stage_running.insert(entity) {
                self.rec.state_enter(obs.stages, entity, "running", now);
            }
        }
        self.queue.push(now + duration, Ev::Finish(cid));
        true
    }

    /// The shuffle gate of `(j, stage)`, starting the shuffle on first
    /// contact. Without a data-movement model every gate is open.
    fn gate_for(&mut self, j: usize, stage: StageId, now: SimTime) -> ShuffleGate {
        if !self.models_io() {
            return ShuffleGate::Open;
        }
        match self.shuffle_gate[j][stage.0] {
            ShuffleGate::Unstarted => self.start_shuffle(j, stage, now),
            g => g,
        }
    }

    /// Launches the aggregate shuffle feeding `stage`: one transfer per
    /// distinct upstream server (capped at [`MAX_SHUFFLE_FLOWS`]), each
    /// to a server drawn from the job's placement pool — where the
    /// consuming tasks are about to run. Each transfer contributes a
    /// fabric flow (network on), plus a fetch read on the source disk
    /// and a spill write on the destination disk (disks on); the gate
    /// waits for all of them.
    fn start_shuffle(&mut self, j: usize, stage: StageId, now: SimTime) -> ShuffleGate {
        let total = stage_shuffle_bytes(self.jobs[j].exec.job(), stage, DEFAULT_BYTES_PER_TASK);
        let mut sources: Vec<ServerId> = Vec::new();
        if total > 0 {
            let deps = self.jobs[j].exec.job().stages[stage.0].deps.clone();
            for d in &deps {
                self.stage_servers[j][d.0].distinct_into(MAX_SHUFFLE_FLOWS, &mut sources);
                if sources.len() >= MAX_SHUFFLE_FLOWS {
                    break;
                }
            }
            if let Some(faults) = &self.faults {
                // Upstream output on a crashed server is unreachable;
                // fetching from it would park at rate 0 until a restart
                // that may never come, so those sources drop out (the
                // bytes are re-read from the surviving copies).
                sources.retain(|s| !faults.is_down(s.0));
            }
        }
        let gate = if total == 0 || sources.is_empty() {
            ShuffleGate::Open
        } else {
            let n = sources.len() as u64;
            let tag = ((j as u64) << 32) | stage.0 as u64;
            let mut parts = 0u32;
            for (i, src) in sources.iter().enumerate() {
                let dst = self.shuffle_dst(j);
                // Spread the volume evenly; the first transfer carries
                // the remainder.
                let bytes = total / n + if i == 0 { total % n } else { 0 };
                if let Some(fabric) = self.fabric.as_mut() {
                    fabric.schedule_flow(now, *src, dst, bytes, tag);
                    parts += 1;
                }
                if self.disks.is_some() {
                    // Disks idle since the last tick were skipped by the
                    // tick's demand replay; bring these two up to
                    // date (against the last tick's sample) before their
                    // streams price themselves.
                    self.refresh_primary_disk(*src, now);
                    self.refresh_primary_disk(dst, now);
                    debug_assert_eq!(
                        self.stale_disk(&[*src, dst]),
                        None,
                        "stale disk after a refresh at {now}"
                    );
                    let disks = self.disks.as_mut().expect("checked above");
                    disks.schedule_stream(now, *src, IoDir::Read, bytes, tag);
                    disks.schedule_stream(now, dst, IoDir::Write, bytes, tag);
                    parts += 2;
                }
            }
            ShuffleGate::Waiting(parts)
        };
        if let Some(obs) = &self.obs {
            // A stage is born (state-wise) on first gate contact, which
            // try_place_one guarantees happens before any placement.
            let entity = ((j as u64) << 32) | stage.0 as u64;
            let state = match gate {
                ShuffleGate::Waiting(_) if self.fabric.is_some() => "blocked_on_net",
                ShuffleGate::Waiting(_) => "blocked_on_disk_read",
                _ => "queued",
            };
            self.rec.state_enter(obs.stages, entity, state, now);
        }
        self.shuffle_gate[j][stage.0] = gate;
        self.arm_net_wake(now);
        gate
    }

    /// Re-reads `server`'s primary utilization *as of the last tick*
    /// and pushes it into the disk pool. For a disk the tick's replay
    /// skipped (no in-flight streams), this lands exactly the value a
    /// whole-fleet replay would have set at that tick — ticks sit on
    /// the playback sample grid, so the sample cannot have moved since
    /// — and it early-outs bitwise-unchanged values.
    fn refresh_primary_disk(&mut self, server: ServerId, now: SimTime) {
        let Some(tick) = self.last_tick else {
            return; // no tick yet: the pool still holds its initial state
        };
        let util = self.sim.view.server_util(server, tick);
        if let Some(disks) = self.disks.as_mut() {
            disks.set_primary_util(now, server, util);
        }
    }

    /// Free secondary capacity of a server under the active policy.
    fn free_capacity(&self, sid: ServerId, now: SimTime) -> Resources {
        let cap = if self.sim.cfg.policy.primary_aware() {
            secondary_capacity(self.sim.view.server_util(sid, now))
        } else {
            SERVER_CAPACITY
        };
        cap.saturating_sub(self.alloc[sid.0 as usize])
    }

    /// Picks a destination server for one container of job `j` with
    /// probability proportional to free resources (§5.3: "RM-H schedules
    /// a container to a heartbeating server of the correct class with a
    /// probability proportional to the server's available resources").
    ///
    /// Small pools are sampled exactly; large pools are approximated by
    /// uniformly probing [`PLACEMENT_PROBES`] servers and then choosing
    /// among the probes proportionally — same balancing behaviour without
    /// a full scan per container.
    fn find_server(&mut self, j: usize, now: SimTime) -> Option<ServerId> {
        let n_servers = self.sim.dc.n_servers();
        let pool_len = match &self.jobs[j].allowed {
            Some(list) => {
                if list.is_empty() {
                    return None;
                }
                list.len()
            }
            None => n_servers,
        };
        let server_at = |runner: &Self, idx: usize| -> ServerId {
            match &runner.jobs[j].allowed {
                Some(list) => list[idx],
                None => ServerId(idx as u32),
            }
        };

        let mut candidates = std::mem::take(&mut self.probe_servers);
        candidates.clear();
        if pool_len <= 4 * PLACEMENT_PROBES {
            candidates.extend((0..pool_len).map(|i| server_at(self, i)));
        } else {
            for _ in 0..PLACEMENT_PROBES {
                let idx = self.rng.random_range(0..pool_len);
                candidates.push(server_at(self, idx));
            }
        }

        // Probabilistic load balancing (weight ∝ free cores) is a YARN-H
        // extension (Table 1); stock YARN and YARN-PT place on whichever
        // heartbeating server fits first — uniform among fitting probes.
        let proportional = self.sim.cfg.policy.uses_history();
        let mut weights = std::mem::take(&mut self.probe_weights);
        weights.clear();
        weights.extend(candidates.iter().map(|&sid| {
            // A crashed server stops heartbeating, so the RM never
            // offers it (armed fault plans only).
            if self.faults.as_ref().is_some_and(|f| f.is_down(sid.0)) {
                return 0.0;
            }
            let free = self.free_capacity(sid, now);
            if free.fits(CONTAINER) {
                if proportional {
                    free.cores as f64
                } else {
                    1.0
                }
            } else {
                0.0
            }
        }));
        let pick = if weights.iter().all(|&w| w == 0.0) {
            None
        } else {
            harvest_sim::dist::weighted_index(&mut self.rng, &weights)
        };
        let server = pick.map(|i| candidates[i]);
        self.probe_servers = candidates;
        self.probe_weights = weights;
        server
    }

    /// Draws the destination server for one shuffle part from the
    /// job's placement pool — one RNG call, exactly as before — then,
    /// under an armed fault plan only, walks forward deterministically
    /// past crashed servers (no extra randomness, so the fault-free
    /// draw stream is untouched). With the whole pool down the original
    /// draw stands and the part parks until a restart rescues it.
    fn shuffle_dst(&mut self, j: usize) -> ServerId {
        let (idx, len) = match &self.jobs[j].allowed {
            Some(list) if !list.is_empty() => (self.rng.random_range(0..list.len()), list.len()),
            _ => {
                let n = self.sim.dc.n_servers();
                (self.rng.random_range(0..n), n)
            }
        };
        let at = |runner: &Self, i: usize| match &runner.jobs[j].allowed {
            Some(list) if !list.is_empty() => list[i],
            _ => ServerId(i as u32),
        };
        let down = |s: ServerId| self.faults.as_ref().is_some_and(|f| f.is_down(s.0));
        let mut dst = at(self, idx);
        if down(dst) {
            for step in 1..len {
                let cand = at(self, (idx + step) % len);
                if !down(cand) {
                    dst = cand;
                    break;
                }
            }
        }
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_jobs::tpcds::tpcds_suite;
    use harvest_sim::fault::FaultKind;
    use harvest_trace::datacenter::DatacenterProfile;

    fn testbed() -> (Datacenter, UtilizationView) {
        let specs = DatacenterProfile::testbed_dc9(42);
        let dc = Datacenter::from_specs("testbed".into(), &specs, 42);
        let view = UtilizationView::unscaled(&dc);
        (dc, view)
    }

    fn small_workload(seed: u64, hours: u64) -> Workload {
        let mut rng = stream_rng(seed, "wl");
        Workload::poisson(
            &mut rng,
            tpcds_suite(),
            SimDuration::from_secs(300),
            SimDuration::from_hours(hours),
        )
    }

    fn run(policy: SchedPolicy, seed: u64) -> SimStats {
        let (dc, view) = testbed();
        let wl = small_workload(seed, 2);
        let mut cfg = SchedSimConfig::testbed(policy, seed);
        cfg.horizon = SimDuration::from_hours(2);
        cfg.drain = SimDuration::from_hours(3);
        SchedSim::new(&dc, &view, &wl, cfg).run()
    }

    #[test]
    fn stock_never_kills() {
        let stats = run(SchedPolicy::Stock, 1);
        assert_eq!(stats.total_kills, 0);
        assert!(stats.completed_jobs() > 0);
    }

    #[test]
    fn primary_aware_kills_under_bursts() {
        let stats = run(SchedPolicy::PrimaryAware, 1);
        // The DC-9 testbed mix has periodic and unpredictable tenants, so
        // some kills must happen over two hours.
        assert!(stats.total_kills > 0, "expected kills under YARN-PT");
    }

    #[test]
    fn all_policies_complete_most_jobs() {
        for policy in SchedPolicy::ALL {
            let stats = run(policy, 2);
            assert!(
                stats.completion_rate() > 0.7,
                "{policy} completed only {:.0}%",
                stats.completion_rate() * 100.0
            );
        }
    }

    #[test]
    fn stock_is_fastest_history_beats_pt() {
        // Figure 11's ordering. Average over a few seeds to be robust.
        let mut stock = 0.0;
        let mut pt = 0.0;
        let mut h = 0.0;
        let seeds = [3u64, 4, 5];
        for &s in &seeds {
            stock += run(SchedPolicy::Stock, s).mean_execution_secs();
            pt += run(SchedPolicy::PrimaryAware, s).mean_execution_secs();
            h += run(SchedPolicy::History, s).mean_execution_secs();
        }
        assert!(
            stock < pt,
            "stock ({stock:.0}s) should beat YARN-PT ({pt:.0}s)"
        );
        assert!(h < pt, "YARN-H ({h:.0}s) should beat YARN-PT ({pt:.0}s)");
    }

    #[test]
    fn utilization_accounting_is_sane() {
        let stats = run(SchedPolicy::History, 6);
        assert!(stats.avg_primary_utilization > 0.0);
        assert!(stats.avg_total_utilization >= stats.avg_primary_utilization);
        assert!(stats.avg_total_utilization <= 1.0);
    }

    #[test]
    fn recording_captures_all_servers() {
        let (dc, view) = testbed();
        let wl = small_workload(7, 1);
        let mut cfg = SchedSimConfig::testbed(SchedPolicy::History, 7);
        cfg.horizon = SimDuration::from_hours(1);
        cfg.drain = SimDuration::from_hours(1);
        cfg.record_server_load = true;
        let stats = SchedSim::new(&dc, &view, &wl, cfg).run();
        assert_eq!(stats.server_load.len(), dc.n_servers());
        assert!(stats.server_load[0].len() >= 30, "expected >=30 ticks");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(SchedPolicy::History, 9);
        let b = run(SchedPolicy::History, 9);
        assert_eq!(a.total_kills, b.total_kills);
        assert_eq!(a.tasks_started, b.tasks_started);
        assert_eq!(a.mean_execution_secs(), b.mean_execution_secs());
    }

    fn run_netted(policy: SchedPolicy, seed: u64, network: Option<NetworkConfig>) -> SimStats {
        let (dc, view) = testbed();
        let wl = small_workload(seed, 1);
        let mut cfg = SchedSimConfig::testbed(policy, seed);
        cfg.horizon = SimDuration::from_hours(1);
        cfg.drain = SimDuration::from_hours(3);
        cfg.network = network;
        SchedSim::new(&dc, &view, &wl, cfg).run()
    }

    #[test]
    fn shuffle_flows_stretch_stage_runtimes() {
        // A slow fabric (1 GbE) makes every reducer wait on its shuffle;
        // execution times must stretch relative to free data movement.
        let off = run_netted(SchedPolicy::Stock, 11, None);
        let slow_net = NetworkConfig {
            nic_gbps: 1.0,
            ..NetworkConfig::datacenter()
        };
        let on = run_netted(SchedPolicy::Stock, 11, Some(slow_net));
        assert!(
            on.completed_jobs() > 0,
            "nothing completed under the fabric"
        );
        assert!(
            on.mean_execution_secs() > off.mean_execution_secs(),
            "shuffles were free? on {:.0}s off {:.0}s",
            on.mean_execution_secs(),
            off.mean_execution_secs()
        );
    }

    #[test]
    fn faster_fabric_hurts_less() {
        let slow = run_netted(
            SchedPolicy::Stock,
            12,
            Some(NetworkConfig {
                nic_gbps: 0.5,
                ..NetworkConfig::datacenter()
            }),
        );
        let fast = run_netted(SchedPolicy::Stock, 12, Some(NetworkConfig::non_blocking()));
        assert!(
            fast.mean_execution_secs() <= slow.mean_execution_secs(),
            "faster fabric slower? fast {:.0}s slow {:.0}s",
            fast.mean_execution_secs(),
            slow.mean_execution_secs()
        );
    }

    #[test]
    fn networked_scheduling_is_deterministic() {
        let net = Some(NetworkConfig::datacenter());
        let a = run_netted(SchedPolicy::History, 13, net);
        let b = run_netted(SchedPolicy::History, 13, net);
        assert_eq!(a.tasks_started, b.tasks_started);
        assert_eq!(a.total_kills, b.total_kills);
        assert_eq!(a.mean_execution_secs(), b.mean_execution_secs());
    }

    fn run_disked(seed: u64, network: Option<NetworkConfig>, disk: Option<DiskConfig>) -> SimStats {
        let (dc, view) = testbed();
        let wl = small_workload(seed, 1);
        let mut cfg = SchedSimConfig::testbed(SchedPolicy::Stock, seed);
        cfg.horizon = SimDuration::from_hours(1);
        cfg.drain = SimDuration::from_hours(3);
        cfg.network = network;
        cfg.disk = disk;
        SchedSim::new(&dc, &view, &wl, cfg).run()
    }

    #[test]
    fn spill_writes_stretch_stage_runtimes() {
        // Disks alone (free wire): every shuffle still pays its fetch
        // read and spill write against the primaries' disk demand, so
        // execution times stretch relative to free data movement.
        let off = run_disked(14, None, None);
        let on = run_disked(14, None, Some(DiskConfig::datacenter()));
        assert!(on.completed_jobs() > 0, "nothing completed on disks");
        assert!(
            on.mean_execution_secs() > off.mean_execution_secs(),
            "spills were free? on {:.0}s off {:.0}s",
            on.mean_execution_secs(),
            off.mean_execution_secs()
        );
    }

    #[test]
    fn disk_and_network_compose() {
        // Wire and platter both modeled: a stage waits for the slowest
        // of flow, fetch, and spill, so the composition is at least as
        // slow as the network alone.
        let net = NetworkConfig::datacenter();
        let net_only = run_disked(15, Some(net), None);
        let both = run_disked(15, Some(net), Some(DiskConfig::datacenter()));
        assert!(both.completed_jobs() > 0);
        assert!(
            both.mean_execution_secs() >= net_only.mean_execution_secs(),
            "adding disks sped jobs up? both {:.0}s net {:.0}s",
            both.mean_execution_secs(),
            net_only.mean_execution_secs()
        );
    }

    /// FNV-1a over the stats' `Debug` rendering, which prints every
    /// field and every float in exact round-trip form.
    fn fingerprint(stats: &SimStats) -> u64 {
        format!("{stats:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The tick's postconditions, testbed-sized: a run with both
    /// transfer models on checks every tick against the whole-fleet
    /// scans (debug builds), and its outcome matches the fingerprint
    /// pinned when a full-fleet sweep was still a run mode and agreed
    /// with this path bitwise — same placements, kills, makespans,
    /// utilization bits, and transfer stats. (The DC-9 version lives
    /// in tests/properties.rs.)
    #[test]
    fn tick_meets_fleet_postconditions_and_pinned_outcome() {
        let (dc, view) = testbed();
        let wl = small_workload(21, 1);
        for (policy, pinned) in [
            (SchedPolicy::PrimaryAware, 0x313a_e582_ff99_c136),
            (SchedPolicy::History, 0xf503_d489_39c2_9a65),
        ] {
            let mut cfg = SchedSimConfig::testbed(policy, 21);
            cfg.horizon = SimDuration::from_hours(1);
            cfg.drain = SimDuration::from_hours(2);
            cfg.network = Some(NetworkConfig::datacenter());
            cfg.disk = Some(DiskConfig::datacenter());
            let stats = SchedSim::new(&dc, &view, &wl, cfg).run();
            // The run must exercise the interesting paths: tasks
            // placed, disk streams priced against replayed primary
            // demand, and reserve-violation kills.
            assert!(stats.tasks_started > 0, "{policy}: nothing placed");
            assert!(
                stats.disks.expect("disks on").completed > 0,
                "{policy}: no disk streams ran"
            );
            assert!(stats.total_kills > 0, "{policy}: no kills exercised");
            assert_eq!(fingerprint(&stats), pinned, "{policy}: outcome moved");
        }
    }

    #[test]
    fn disked_scheduling_is_deterministic() {
        let run = || {
            run_disked(
                16,
                Some(NetworkConfig::datacenter()),
                Some(DiskConfig::datacenter()),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.tasks_started, b.tasks_started);
        assert_eq!(a.total_kills, b.total_kills);
        assert_eq!(a.mean_execution_secs(), b.mean_execution_secs());
    }

    fn run_faulted(seed: u64, faults: FaultPlan, io: bool) -> SimStats {
        let (dc, view) = testbed();
        let wl = small_workload(seed, 2);
        let mut cfg = SchedSimConfig::testbed(SchedPolicy::Stock, seed);
        cfg.horizon = SimDuration::from_hours(2);
        cfg.drain = SimDuration::from_hours(3);
        if io {
            cfg.network = Some(NetworkConfig::datacenter());
            cfg.disk = Some(DiskConfig::datacenter());
        }
        cfg.faults = faults;
        SchedSim::new(&dc, &view, &wl, cfg).run()
    }

    fn rack_blip(rack: u32, at_min: u64, restore_min: u64) -> Vec<harvest_sim::fault::FaultEvent> {
        use harvest_sim::fault::FaultEvent;
        vec![
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_mins(at_min),
                kind: FaultKind::RackPowerLoss { rack },
            },
            FaultEvent {
                at: SimTime::ZERO + SimDuration::from_mins(restore_min),
                kind: FaultKind::RackPowerRestore { rack },
            },
        ]
    }

    /// The no-fault oracle: an armed plan whose only event is far past
    /// the horizon exercises the armed code path (down mask, retry
    /// holds, destination probing) without ever firing — and must be
    /// indistinguishable from `FaultPlan::none()`, stats bitwise equal.
    #[test]
    fn armed_plan_with_unreachable_events_is_bitwise_identical() {
        use harvest_sim::fault::FaultEvent;
        let clean = run_faulted(31, FaultPlan::none(), true);
        let armed = run_faulted(
            31,
            FaultPlan::with_events(vec![FaultEvent {
                at: SimTime::ZERO + SimDuration::from_days(365),
                kind: FaultKind::ServerCrash { server: 0 },
            }]),
            true,
        );
        assert_eq!(clean, armed, "an unreachable fault plan changed the run");
        assert_eq!(armed.fault_kills, 0);
        assert_eq!(armed.jobs_abandoned, 0);
    }

    #[test]
    fn rack_power_loss_kills_containers_and_slows_jobs() {
        let clean = run_faulted(33, FaultPlan::none(), false);
        let mut events = rack_blip(0, 30, 45);
        events.extend(rack_blip(1, 60, 80));
        events.extend(rack_blip(2, 90, 110));
        let faulted = run_faulted(33, FaultPlan::with_events(events), false);
        assert!(faulted.fault_kills > 0, "rack loss killed no containers");
        assert!(faulted.fault_retries > 0, "no interrupted stage retried");
        assert_eq!(
            faulted.total_kills, clean.total_kills,
            "fault kills leaked into the reserve-kill counter"
        );
        assert!(faulted.completed_jobs() > 0, "nothing survived the blips");
        assert!(
            faulted.mean_execution_secs() > clean.mean_execution_secs(),
            "faults were free: faulted {:.0}s vs clean {:.0}s",
            faulted.mean_execution_secs(),
            clean.mean_execution_secs()
        );
    }

    #[test]
    fn exhausted_retry_budget_abandons_jobs() {
        let mut plan = FaultPlan::with_events(rack_blip(0, 30, 45));
        plan.max_retries = 0;
        let stats = run_faulted(35, plan, false);
        assert!(stats.fault_kills > 0, "rack loss killed no containers");
        assert_eq!(stats.fault_retries, 0, "retry budget was zero");
        assert!(
            stats.jobs_abandoned > 0,
            "no job was abandoned with a zero retry budget"
        );
        assert!(
            stats.completion_rate() < 1.0,
            "abandoned jobs still completed"
        );
    }

    #[test]
    fn faulted_scheduling_is_deterministic() {
        use harvest_sim::fault::FaultEvent;
        // A rolling wave of crashes — one every three minutes, each
        // restored twelve minutes later — is dense enough to intersect
        // the bursty testbed schedule no matter how it shifts.
        let mut events = Vec::new();
        for k in 0..40u32 {
            let server = (k * 7) % 102;
            let t = SimTime::ZERO + SimDuration::from_mins(10 + 3 * k as u64);
            events.push(FaultEvent {
                at: t,
                kind: FaultKind::ServerCrash { server },
            });
            events.push(FaultEvent {
                at: t + SimDuration::from_mins(12),
                kind: FaultKind::ServerRestart { server },
            });
        }
        let a = run_faulted(37, FaultPlan::with_events(events.clone()), true);
        let b = run_faulted(37, FaultPlan::with_events(events), true);
        assert_eq!(a, b, "faulted runs diverged across replays");
        assert!(
            a.fault_kills + a.fault_retries > 0,
            "plan never bit (no kills, no interrupted shuffles)"
        );
    }

    /// Every named fault profile, drawn for the testbed over the run's
    /// horizon plus drain, with the data-movement models off and on:
    /// the faulted outcome is pinned bitwise, so a change to how plans
    /// reach the event loop cannot move a kill, a retry or a shuffle.
    #[test]
    fn faulted_profiles_are_pinned() {
        use harvest_sim::fault::FaultProfile;
        let shape = testbed().0.cluster_shape();
        let pins: [(FaultProfile, u64, u64); 4] = [
            (
                FaultProfile::RackLoss,
                0xbd25_ff49_e134_29c9,
                0x13d5_2570_baa5_5caf,
            ),
            (
                FaultProfile::LinkFlap,
                0x0ca4_b372_143f_57a4,
                0xd0fb_46d3_ea62_94db,
            ),
            (
                FaultProfile::DiskRot,
                0x0ca4_b372_143f_57a4,
                0x9276_2a2d_bb3f_c292,
            ),
            (
                FaultProfile::CorrelatedStorm,
                0x409d_18c4_c01a_8264,
                0x37a7_7940_7526_1d0a,
            ),
        ];
        let got: Vec<(FaultProfile, u64, u64)> = pins
            .iter()
            .map(|&(profile, ..)| {
                let plan = profile.plan(39, shape, SimDuration::from_hours(5));
                let plain = fingerprint(&run_faulted(39, plan.clone(), false));
                let io = fingerprint(&run_faulted(39, plan, true));
                (profile, plain, io)
            })
            .collect();
        assert_eq!(got, pins, "a faulted outcome moved");
    }

    /// A hand-built plan reaching the fault edges no named profile
    /// does: a crash of a down server, a restore of an up one, a disk
    /// failure then a restore (of an up and of a crashed server), a
    /// brown-out after a disk failure, two downs of one uplink, a
    /// same-instant crash and restore, and a crash restored before the
    /// heartbeat deadline.
    fn edge_plan() -> FaultPlan {
        use harvest_sim::fault::FaultEvent;
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

    /// FNV-1a over a run's modelled outcome, field by field (floats by
    /// bit pattern): every job's timing and kills, the kill, start and
    /// utilization totals, the fault counters, and the transfer
    /// models' completed, delivered, aborted and peak-concurrency
    /// counts.
    fn outcome_hash(s: &SimStats) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let at = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_millis());
        for j in &s.jobs {
            eat(j.query as u64);
            eat(j.submitted.as_millis());
            eat(at(j.finished));
            eat(j.execution_time.map_or(u64::MAX, |d| d.as_millis()));
            eat(j.kills);
        }
        eat(s.total_kills);
        eat(s.tasks_started);
        eat(s.avg_total_utilization.to_bits());
        eat(s.avg_primary_utilization.to_bits());
        s.kills_per_server.iter().for_each(|&k| eat(k));
        eat(s.fault_kills);
        eat(s.fault_retries);
        eat(s.jobs_abandoned);
        if let Some(f) = &s.fabric {
            eat(f.completed);
            eat(f.bytes_delivered);
            eat(f.flows_aborted);
            eat(f.peak_active as u64);
        }
        if let Some(d) = &s.disks {
            eat(d.completed);
            eat(d.bytes_moved);
            eat(d.streams_aborted);
            eat(d.peak_active as u64);
        }
        h
    }

    /// The edge plan with the fabric and the disks on, pinned by its
    /// modelled outcome.
    #[test]
    fn edge_plan_is_pinned() {
        let s = run_faulted(41, edge_plan(), true);
        assert!(s.fault_kills > 0, "the edge plan killed no containers");
        assert_eq!(
            outcome_hash(&s),
            0x44e0_aba8_d6d5_2506,
            "the edge plan's outcome moved"
        );
    }

    /// The observability oracle: running with a live recorder must not
    /// perturb the trajectory — the returned stats are bitwise identical
    /// to a recorder-off run, while the recorder itself mirrors the
    /// run's totals and carries the absorbed fabric/disk children.
    #[test]
    fn recording_does_not_change_the_trajectory() {
        let (dc, view) = testbed();
        let wl = small_workload(23, 1);
        let mut cfg = SchedSimConfig::testbed(SchedPolicy::PrimaryAware, 23);
        cfg.horizon = SimDuration::from_hours(1);
        cfg.drain = SimDuration::from_hours(2);
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        let sim = SchedSim::new(&dc, &view, &wl, cfg);

        let plain = sim.run();
        let mut rec = Recorder::new("sched-test");
        let recorded = sim.run_recorded(&mut rec);
        assert_eq!(plain, recorded, "recording changed the trajectory");

        assert!(rec.is_on(), "run_recorded must hand the recorder back");
        assert_eq!(
            rec.counter_value("sched/tasks_started"),
            Some(recorded.tasks_started)
        );
        assert_eq!(rec.counter_value("sched/kills"), Some(recorded.total_kills));
        let fstats = recorded.fabric.expect("network on");
        assert_eq!(
            rec.counter_value("fabric/completed"),
            Some(fstats.completed)
        );
        let dstats = recorded.disks.expect("disks on");
        assert_eq!(rec.counter_value("disk/completed"), Some(dstats.completed));

        // The sched track saw every tick, and the tick histograms have
        // the same population.
        let report = rec.metrics_json();
        assert!(report.contains("\"sched/tick_changed_disks\""));
        assert!(report.contains("\"sched/tick_occupied_servers\""));
    }

    /// YARN-H's `clustering` wall span counts from the recorder's
    /// epoch, like every other wall lane of the run, so it nests inside
    /// the caller's spans instead of sitting at the trace's origin.
    #[test]
    fn clustering_span_counts_from_the_recorder_epoch() {
        use harvest_sim::obs::json;

        let (dc, view) = testbed();
        let wl = small_workload(29, 1);
        let mut cfg = SchedSimConfig::testbed(SchedPolicy::History, 29);
        cfg.horizon = SimDuration::from_hours(1);
        cfg.drain = SimDuration::from_hours(1);
        let sim = SchedSim::new(&dc, &view, &wl, cfg);

        let outer = Instant::now();
        let mut rec = Recorder::new("epoch-test");
        // Everything the run records happens at least this long after
        // the recorder's epoch.
        let lead = Duration::from_millis(20);
        std::thread::sleep(lead);
        sim.run_recorded(&mut rec);
        let total_us = outer.elapsed().as_micros() as f64;

        let doc = json::parse(&rec.chrome_trace_json()).expect("trace parses");
        let events = doc.get("traceEvents").and_then(json::Value::as_arr);
        let span = events
            .expect("trace has events")
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("clustering"))
            .expect("a YARN-H run records its clustering build");
        let ts = span.get("ts").and_then(json::Value::as_f64).expect("ts");
        let dur = span.get("dur").and_then(json::Value::as_f64).expect("dur");
        assert!(
            ts >= lead.as_micros() as f64,
            "clustering starts at {ts} us, before the run began"
        );
        assert!(ts + dur <= total_us, "clustering ends after the run");
    }
}
