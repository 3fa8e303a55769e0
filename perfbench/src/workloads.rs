//! The benchmark workloads: how each builds its inputs from the seed,
//! which public entry point it drives, and how its result is checked
//! and digested.

use std::collections::BTreeMap;
use std::time::Instant;

use harvest_cluster::{Datacenter, ServerId, UtilizationView};
use harvest_dfs::placement::{PlacementPolicy, Placer};
use harvest_dfs::repair::{
    simulate_reimage_storm, simulate_reimage_storm_recorded, StormConfig, StormResult,
};
use harvest_dfs::store::{BlockStore, BLOCK_BYTES};
use harvest_disk::{DiskConfig, DiskStats};
use harvest_jobs::tpcds::{scale_job, tpcds_suite};
use harvest_jobs::workload::Workload as JobWorkload;
use harvest_net::{FabricStats, NetworkConfig};
use harvest_sched::{SchedPolicy, SchedSim, SchedSimConfig, SimStats};
use harvest_sim::obs::Recorder;
use harvest_sim::rng::stream_rng;
use harvest_sim::supervise::{par_map_supervised, SuperviseConfig};
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::scaling::{calibrate, ScalingKind};
use rand::RngExt;

/// Per-layer values of one run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Seed of every workload's datacenter layout (tenants, their traces
/// and reimage models): `repro`'s default `--seed`. Fixing the layout
/// fixes each workload's size; the run seed drives everything the
/// simulation draws (block placement, job arrivals, scheduling).
pub const LAYOUT_SEED: u64 = 42;
/// `reimage-storm`: DC-9 at this fraction of its tenants (~4.3k servers).
const STORM_DC_SCALE: f64 = 0.3;
/// Share of harvestable space filled before the storm.
const STORM_FILL: f64 = 0.4;
/// Throttle high enough that every lost replica is released at once.
const STORM_BLOCKS_PER_SERVER_HOUR: f64 = 1_000_000.0;
/// Cluster-wide cap on in-flight repair streams.
const STORM_STREAMS: usize = 256;
/// `shuffle-dc9`: target mean utilization the traces are scaled to.
const SHUFFLE_UTILIZATION: f64 = 0.45;
/// Share of the cluster's cores the batch workload offers.
const SHUFFLE_BATCH_DEMAND: f64 = 0.01;
/// Task-duration multiplier on the TPC-DS suite (as Figures 13-14).
const SHUFFLE_DURATION_FACTOR: f64 = 16.0;
/// Hours of job arrivals; the drain after them is as long again.
const SHUFFLE_HOURS: u64 = 24;
/// Cores per server, for sizing the arrival rate.
const CORES_PER_SERVER: f64 = 12.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A tenant-wide mass reimage and its unthrottled repair storm.
    ReimageStorm,
    /// Fleet-size scheduling with shuffles over network and disks.
    ShuffleDc9,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ReimageStorm, Workload::ShuffleDc9];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReimageStorm => "reimage-storm",
            Workload::ShuffleDc9 => "shuffle-dc9",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The public entry point one simulation call goes through.
    pub fn entry_point(self) -> &'static str {
        match self {
            Workload::ReimageStorm => "simulate_reimage_storm",
            Workload::ShuffleDc9 => "SchedSim::run",
        }
    }

    /// The workload's fixed parameters, for the provenance lines.
    pub fn params(self) -> String {
        match self {
            Workload::ReimageStorm => format!(
                "DC-9 x{STORM_DC_SCALE} (layout seed {LAYOUT_SEED}), fill {STORM_FILL}, \
                 largest tenant reimaged at t=0, {STORM_BLOCKS_PER_SERVER_HOUR} blocks/h/server, \
                 {STORM_STREAMS} repair streams, History R=3, network+disk on"
            ),
            Workload::ShuffleDc9 => format!(
                "DC-9 x1 (layout seed {LAYOUT_SEED}), utilization calibrated to \
                 {SHUFFLE_UTILIZATION} (linear), batch demand {SHUFFLE_BATCH_DEMAND} of cores, \
                 {SHUFFLE_HOURS} h + {SHUFFLE_HOURS} h drain, YARN-H, shuffles over network+disk"
            ),
        }
    }
}

/// A workload's generated inputs (built a few times per run, so the
/// variants' size difference costs nothing worth boxing for).
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// `reimage-storm`.
    Storm { dc: Datacenter, cfg: StormConfig },
    /// `shuffle-dc9`.
    Shuffle {
        dc: Datacenter,
        view: UtilizationView,
        jobs: JobWorkload,
        cfg: SchedSimConfig,
    },
}

/// One timed public call: what was called, when, and for how long.
#[derive(Debug, Clone)]
pub struct Call {
    /// Layer metric (set-up phases) or span label (simulation calls).
    pub name: &'static str,
    pub start: Instant,
    pub secs: f64,
}

impl Call {
    pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Call) {
        let start = Instant::now();
        let r = f();
        let secs = start.elapsed().as_secs_f64();
        (r, Call { name, start, secs })
    }
}

/// Inputs plus the set-up phases that built them, in call order.
pub struct Setup {
    pub inputs: Inputs,
    pub phases: Vec<Call>,
}

/// Builds a workload's inputs from the seed.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let mut phases = Vec::new();
    let mut generate = |profile: DatacenterProfile| {
        let (dc, call) = Call::time("trace.generate_s", || {
            Datacenter::generate(&profile, LAYOUT_SEED)
        });
        phases.push(call);
        dc
    };
    let inputs = match w {
        Workload::ReimageStorm => {
            let dc = generate(DatacenterProfile::dc(9).scaled(STORM_DC_SCALE));
            let tenant = dc
                .tenants
                .iter()
                .max_by_key(|t| t.n_servers())
                .expect("a generated datacenter has tenants")
                .id;
            let mut cfg = StormConfig::new(tenant, seed);
            cfg.policy = PlacementPolicy::History;
            cfg.replication = 3;
            cfg.fill_fraction = STORM_FILL;
            cfg.repair.blocks_per_server_per_hour = STORM_BLOCKS_PER_SERVER_HOUR;
            cfg.max_repair_streams = Some(STORM_STREAMS);
            cfg.network = Some(NetworkConfig::datacenter());
            cfg.disk = Some(DiskConfig::datacenter());
            Inputs::Storm { dc, cfg }
        }
        Workload::ShuffleDc9 => {
            let dc = generate(DatacenterProfile::dc(9));
            let (param, call) = Call::time("trace.calibrate_s", || {
                let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
                calibrate(&traces, ScalingKind::Linear, SHUFFLE_UTILIZATION)
            });
            phases.push(call);
            let (view, call) = Call::time("cluster.view_s", || {
                UtilizationView::scaled(&dc, ScalingKind::Linear, param)
            });
            phases.push(call);
            let (jobs, call) = Call::time("jobs.workload_s", || {
                let suite: Vec<_> = tpcds_suite()
                    .iter()
                    .map(|q| scale_job(q, SHUFFLE_DURATION_FACTOR, 1.0))
                    .collect();
                let mean_work = suite
                    .iter()
                    .map(|q| q.total_work().as_secs_f64())
                    .sum::<f64>()
                    / suite.len() as f64;
                let cores = dc.n_servers() as f64 * CORES_PER_SERVER;
                let gap = SimDuration::from_secs_f64(mean_work / (SHUFFLE_BATCH_DEMAND * cores));
                let mut rng = stream_rng(seed, "perfbench-shuffle-jobs");
                JobWorkload::poisson(&mut rng, suite, gap, SimDuration::from_hours(SHUFFLE_HOURS))
            });
            phases.push(call);
            let mut cfg = SchedSimConfig::testbed(SchedPolicy::History, seed);
            cfg.horizon = SimDuration::from_hours(SHUFFLE_HOURS);
            cfg.drain = SimDuration::from_hours(SHUFFLE_HOURS);
            cfg.network = Some(NetworkConfig::datacenter());
            cfg.disk = Some(DiskConfig::datacenter());
            Inputs::Shuffle {
                dc,
                view,
                jobs,
                cfg,
            }
        }
    };
    Setup { inputs, phases }
}

/// What one simulation call produced.
pub struct Outcome {
    /// Digest of every simulated statistic; identical across
    /// repetitions, tracing, and speed-only changes.
    pub digest: u64,
    /// Why the call failed, if it did: a panic that exhausted the
    /// supervisor's retries, or a failed check.
    pub failures: Vec<String>,
    /// Per-layer values readable from the public result structs and
    /// the supervisor.
    pub layers: Layers,
    /// Blocks the DFS simulation created (0 for `shuffle-dc9`).
    pub blocks: u64,
    /// The simulation task, timed inside its worker.
    pub task: Option<Call>,
}

impl Outcome {
    fn new(digest: u64, blocks: u64) -> Self {
        Outcome {
            digest,
            failures: Vec::new(),
            layers: Layers::new(),
            blocks,
            task: None,
        }
    }

    /// Records why a check failed.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }

    /// The modelled fabric and disk counters. Re-shares, stale events
    /// and sharing-tier promotions are simulator work, not results, so
    /// a speed-only change may move them; they stay out.
    fn transfers(&mut self, f: Option<&FabricStats>, d: Option<&DiskStats>) -> &mut Self {
        let (f, d) = (
            f.copied().unwrap_or_default(),
            d.copied().unwrap_or_default(),
        );
        self.u(f.completed)
            .u(f.bytes_delivered)
            .u(f.peak_active as u64)
            .u(f.flows_aborted)
            .u(d.completed)
            .u(d.bytes_moved)
            .u(d.peak_active as u64)
            .u(d.streams_aborted)
    }
}

/// The fabric and disk counters of one call as layer values.
fn transfer_layers(l: &mut Layers, f: Option<&FabricStats>, d: Option<&DiskStats>) {
    let (f, d) = (
        f.copied().unwrap_or_default(),
        d.copied().unwrap_or_default(),
    );
    for (k, v) in [
        ("net.flows", f.completed),
        ("net.reshares", f.reshares),
        ("net.stale_events", f.stale_events_dropped),
        ("net.peak_active", f.peak_active as u64),
        ("net.analytic_events", f.analytic_events),
        ("net.fallback_migrations", f.fallback_migrations),
        ("disk.streams", d.completed),
        ("disk.reshares", d.reshares),
        ("disk.stale_events", d.stale_events_dropped),
        ("disk.peak_active", d.peak_active as u64),
        ("disk.analytic_events", d.analytic_events),
        (
            "sim.fairshare.events",
            f.analytic_events + d.analytic_events,
        ),
        (
            "sim.queue.peak_len",
            f.peak_queue_len.max(d.peak_queue_len) as u64,
        ),
    ] {
        l.insert(k, v as f64);
    }
}

/// Every repair and every shuffle part is one flow plus a read on the
/// source disk and a write on the destination disk.
fn check_transfers(out: &mut Outcome, f: Option<&FabricStats>, d: Option<&DiskStats>) {
    let (f, d) = (
        f.copied().unwrap_or_default(),
        d.copied().unwrap_or_default(),
    );
    out.check(d.completed == 2 * f.completed, || {
        format!("{} disk streams != 2 x {} flows", d.completed, f.completed)
    });
}

fn storm_outcome(cfg: &StormConfig, r: &StormResult) -> Outcome {
    let mut d = Digest::new();
    d.u(r.n_blocks)
        .u(r.replicas_lost)
        .u(r.repairs)
        .u(r.lost_blocks)
        .u(r.recovered_at.as_millis())
        .f(r.mean_transfer_secs)
        .transfers(r.fabric.as_ref(), r.disk.as_ref());
    let mut out = Outcome::new(d.0, r.n_blocks);
    // A block is lost only if all its replicas sat on the reimaged
    // tenant; every replica lost from a surviving block is repaired.
    let unrepairable = cfg.replication as u64 * r.lost_blocks;
    out.check(r.repairs + unrepairable == r.replicas_lost, || {
        format!(
            "{} repairs + {unrepairable} replicas of lost blocks != {} replicas lost",
            r.repairs, r.replicas_lost
        )
    });
    check_transfers(&mut out, r.fabric.as_ref(), r.disk.as_ref());
    let f = r.fabric.unwrap_or_default();
    out.check(f.bytes_delivered == f.completed * BLOCK_BYTES, || {
        format!(
            "{} bytes delivered != {} flows x {BLOCK_BYTES}",
            f.bytes_delivered, f.completed
        )
    });
    let l = &mut out.layers;
    l.insert("dfs.repair.repairs", r.repairs as f64);
    l.insert("dfs.repair.replicas_lost", r.replicas_lost as f64);
    l.insert("dfs.repair.lost_blocks", r.lost_blocks as f64);
    transfer_layers(l, r.fabric.as_ref(), r.disk.as_ref());
    out
}

fn sched_outcome(stats: &SimStats) -> Outcome {
    let mut d = Digest::new();
    d.u(stats.jobs.len() as u64);
    for j in &stats.jobs {
        d.u(j.query as u64)
            .u(j.submitted.as_millis())
            .u(j.finished.map_or(u64::MAX, |t| t.as_millis()))
            .u(j.kills);
    }
    d.u(stats.total_kills)
        .u(stats.tasks_started)
        .f(stats.avg_total_utilization)
        .f(stats.avg_primary_utilization)
        .u(stats.fault_kills)
        .u(stats.fault_retries)
        .u(stats.jobs_abandoned);
    for &k in &stats.kills_per_server {
        d.u(k);
    }
    d.transfers(stats.fabric.as_ref(), stats.disks.as_ref());
    let mut out = Outcome::new(d.0, 0);
    let done = stats.completed_jobs();
    out.check(done == stats.jobs.len(), || {
        format!("{done} of {} jobs completed", stats.jobs.len())
    });
    check_transfers(&mut out, stats.fabric.as_ref(), stats.disks.as_ref());
    let l = &mut out.layers;
    l.insert("sched.tasks_started", stats.tasks_started as f64);
    l.insert("sched.kills", stats.total_kills as f64);
    l.insert("sched.jobs_completed", done as f64);
    transfer_layers(l, stats.fabric.as_ref(), stats.disks.as_ref());
    out
}

/// Runs one simulation call on `inputs` as a one-task supervised sweep
/// on one worker, the way `repro` runs each sweep task. With `rec` on,
/// the call goes through the recorded entry point and its recording is
/// absorbed into `rec`.
pub fn simulate(w: Workload, inputs: &Inputs, rec: &mut Recorder) -> Outcome {
    let parent: &Recorder = rec;
    let task = || {
        let mut task_rec = parent.child();
        let on = task_rec.is_on();
        let (out, call) = Call::time(w.entry_point(), || match inputs {
            Inputs::Storm { dc, cfg } => {
                let r = if on {
                    simulate_reimage_storm_recorded(dc, cfg, &mut task_rec)
                } else {
                    simulate_reimage_storm(dc, cfg)
                };
                storm_outcome(cfg, &r)
            }
            Inputs::Shuffle {
                dc,
                view,
                jobs,
                cfg,
            } => {
                let sim = SchedSim::new(dc, view, jobs, cfg.clone());
                let stats = if on {
                    sim.run_recorded(&mut task_rec)
                } else {
                    sim.run()
                };
                sched_outcome(&stats)
            }
        });
        (out, call, task_rec)
    };
    let (swept, sweep) = Call::time("par_map_supervised", || {
        par_map_supervised(1, &[()], &SuperviseConfig::default(), |_, _, _| task())
    });
    let mut out = match swept.results.into_iter().next().flatten() {
        Some((mut out, call, task_rec)) => {
            rec.absorb(task_rec);
            out.layers
                .insert("harness.overhead_s", sweep.secs - call.secs);
            out.task = Some(call);
            out
        }
        // The slot is empty only when the task was quarantined.
        None => {
            let mut out = Outcome::new(0, 0);
            for q in &swept.quarantined {
                out.failures.push(format!(
                    "quarantined after {} attempts: {}",
                    q.attempts, q.payload
                ));
            }
            out
        }
    };
    out.layers.insert("harness.retries", swept.retries as f64);
    out.layers
        .insert("harness.quarantined", swept.quarantined.len() as f64);
    out
}

/// The storm's fill phase, re-driven outside the engine.
pub struct Fill {
    /// `place_new` calls that found a placement.
    pub placed: u64,
    /// `place_new` calls that found none (the fill stops at the first).
    pub failed: u64,
    pub call: Call,
}

/// Re-drives the storm's fill phase through `Placer::place_new` and
/// `BlockStore`, with the seed stream the engine itself uses. `None`
/// for `shuffle-dc9`, which places no blocks.
pub fn redrive_fill(inputs: &Inputs) -> Option<Fill> {
    let Inputs::Storm { dc, cfg } = inputs else {
        return None;
    };
    let ((placed, failed), call) = Call::time("Placer::place_new fill", || {
        let placer = Placer::new(dc, cfg.policy);
        let mut store = BlockStore::new(dc);
        let mut rng = stream_rng(cfg.seed, "reimage-storm");
        let r = cfg.replication;
        let target = ((dc.total_harvest_blocks() as f64 * cfg.fill_fraction) / r as f64) as u64;
        let n = dc.n_servers();
        let (mut placed, mut failed) = (0, 0);
        for _ in 0..target {
            let writer = ServerId(rng.random_range(0..n) as u32);
            match placer.place_new(&mut rng, &store, writer, r, None) {
                Some(p) => {
                    store.create_block(&p.servers);
                    placed += 1;
                }
                None => {
                    failed += 1;
                    break;
                }
            }
        }
        (placed, failed)
    });
    Some(Fill {
        placed,
        failed,
        call,
    })
}
