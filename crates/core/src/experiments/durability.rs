//! Figure 15: data durability under reimages (§6.4).

use harvest_cluster::Datacenter;
use harvest_dfs::durability::{simulate_durability, DurabilityConfig};
use harvest_dfs::heartbeat::{replay_heartbeats_disk, util_burst_trace, HeartbeatMode};
use harvest_dfs::placement::PlacementPolicy;
use harvest_disk::DiskConfig;
use harvest_net::NetworkConfig;
use harvest_sim::fault::FaultPlan;
use harvest_sim::obs::json;
use harvest_sim::par::par_map;
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;

use super::STORAGE_CELLS as CELLS;
use crate::checkpoint::{self, get_f64, get_u64, hex_f64, hex_u64, obj, Journaled};
use crate::report::{sci, Table};
use crate::scale::Scale;

/// Aggregate of several durability runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LossSummary {
    /// Mean lost-block percentage across runs.
    pub avg_percent: f64,
    /// Minimum across runs.
    pub min_percent: f64,
    /// Maximum across runs.
    pub max_percent: f64,
    /// Mean absolute lost blocks.
    pub avg_blocks: f64,
    /// Superseded transfer events dropped across runs, fabric plus
    /// disks (0 with both transfer models off) — repair-churn pressure
    /// on the event queues.
    pub stale_events_dropped: u64,
    /// Largest event-heap high-water mark any run reached.
    pub peak_queue_len: usize,
    /// Injected fault events fired across runs (0 unless a
    /// [`FaultPlan`] was armed).
    pub faults_injected: u64,
    /// In-flight repairs torn down by faults across runs.
    pub repairs_aborted: u64,
    /// Fault-aborted repairs re-queued with backoff across runs.
    pub fault_retries: u64,
    /// Repairs abandoned after exhausting the retry budget across runs.
    pub retries_exhausted: u64,
}

/// One durability simulation's outcome — the unit of the parallel
/// sweep matrix.
#[derive(Debug, Clone, Copy)]
pub struct RunLoss {
    /// Lost-block percentage.
    pub percent: f64,
    /// Absolute lost blocks.
    pub blocks: u64,
    /// Superseded transfer events dropped (fabric + disks).
    pub stale_events_dropped: u64,
    /// Event-heap high-water mark.
    pub peak_queue_len: usize,
    /// Injected fault events that fired (0 without an armed plan).
    pub faults_injected: u64,
    /// In-flight repairs torn down by a fault before finishing.
    pub repairs_aborted: u64,
    /// Fault-aborted repairs re-queued with backoff.
    pub fault_retries: u64,
    /// Repairs abandoned after exhausting the fault retry budget.
    pub retries_exhausted: u64,
}

impl Journaled for RunLoss {
    fn encode(&self) -> String {
        obj(&[
            ("percent", hex_f64(self.percent)),
            ("blocks", hex_u64(self.blocks)),
            ("stale", hex_u64(self.stale_events_dropped)),
            ("peak", hex_u64(self.peak_queue_len as u64)),
            ("fi", hex_u64(self.faults_injected)),
            ("ra", hex_u64(self.repairs_aborted)),
            ("fr", hex_u64(self.fault_retries)),
            ("re", hex_u64(self.retries_exhausted)),
        ])
    }

    fn decode(v: &json::Value) -> Option<Self> {
        Some(RunLoss {
            percent: get_f64(v, "percent")?,
            blocks: get_u64(v, "blocks")?,
            stale_events_dropped: get_u64(v, "stale")?,
            peak_queue_len: get_u64(v, "peak")? as usize,
            faults_injected: get_u64(v, "fi")?,
            repairs_aborted: get_u64(v, "ra")?,
            fault_retries: get_u64(v, "fr")?,
            retries_exhausted: get_u64(v, "re")?,
        })
    }
}

/// Runs one durability simulation: run `r` of a (DC, policy,
/// replication) cell. Self-contained — every mutable piece of state is
/// constructed inside from the seed, so runs can execute on any thread.
#[allow(clippy::too_many_arguments)]
pub fn run_loss(
    dc: &Datacenter,
    policy: PlacementPolicy,
    replication: usize,
    months: usize,
    base_seed: u64,
    r: usize,
    network: Option<NetworkConfig>,
    disk: Option<DiskConfig>,
    faults: &FaultPlan,
) -> RunLoss {
    let mut cfg = DurabilityConfig::paper(policy, replication, base_seed ^ (r as u64) << 32);
    cfg.months = months;
    cfg.network = network;
    cfg.disk = disk;
    cfg.faults = faults.clone();
    let result = simulate_durability(dc, &cfg);
    let mut stale = 0u64;
    let mut peak = 0usize;
    if let Some(f) = result.fabric {
        stale += f.stale_events_dropped;
        peak = peak.max(f.peak_queue_len);
    }
    if let Some(d) = result.disk {
        stale += d.stale_events_dropped;
        peak = peak.max(d.peak_queue_len);
    }
    RunLoss {
        percent: result.lost_percent,
        blocks: result.lost_blocks,
        stale_events_dropped: stale,
        peak_queue_len: peak,
        faults_injected: result.faults_injected,
        repairs_aborted: result.repairs_aborted,
        fault_retries: result.fault_retries,
        retries_exhausted: result.retries_exhausted,
    }
}

/// The `dfs/repair` blame line of one recorded reimage storm on `dc`
/// (largest tenant, §7 storm settings): how much of the repairs' time
/// was backpressure-queued, moving, or stuck behind one straggling
/// component. Needs a transfer model — without one repairs are instant
/// and there is nothing to attribute, so this returns `None`. Pure sim
/// time, so the line is deterministic across `--jobs` and recording
/// settings.
fn repair_blame(dc: &Datacenter, scale: &Scale, seed: u64) -> Option<String> {
    if scale.network.is_none() && scale.disk.is_none() {
        return None;
    }
    let tenant = dc.tenants.iter().max_by_key(|t| t.n_servers())?.id;
    let mut storm = harvest_dfs::repair::StormConfig::new(tenant, seed);
    storm.fill_fraction = 0.15;
    storm.network = scale.network;
    storm.disk = scale.disk;
    storm.max_repair_streams = Some(64);
    let mut rec = harvest_sim::obs::Recorder::new("blame");
    let _ = harvest_dfs::repair::simulate_reimage_storm_recorded(dc, &storm, &mut rec);
    let analysis = harvest_sim::obs::analyze::analyze_recorder(&rec).ok()?;
    analysis
        .states
        .iter()
        .find(|s| s.name == "dfs/repair")
        .map(|s| s.blame_line())
}

/// The §7 lesson-2 incident on the run's disks: one DataNode's
/// heartbeats replayed with a synchronous and with an asynchronous
/// status thread over one fixed primary burst (20 minutes of 3 s beats
/// at 10% CPU, with 12 minutes at 90% in the middle). Needs the disk
/// model — the throttle is what parks a synchronous status read — so
/// this returns `None` without one. Pure sim time, so the line is
/// deterministic.
fn heartbeat_note(scale: &Scale) -> Option<String> {
    let disk = scale.disk.as_ref()?;
    let primary_util = util_burst_trace(400, 50, 240, 0.1, 0.9);
    let replay = |mode: HeartbeatMode| {
        let out = replay_heartbeats_disk(mode, disk, &primary_util);
        format!(
            "{}/{} beats delivered ({} stale), {}",
            out.delivered,
            out.expected,
            out.stale,
            if out.declared_dead {
                "declared dead"
            } else {
                "not declared dead"
            }
        )
    };
    Some(format!(
        "heartbeats over a 12-minute primary burst: synchronous {}; asynchronous {}",
        replay(HeartbeatMode::Synchronous),
        replay(HeartbeatMode::Asynchronous)
    ))
}

/// Folds per-run outcomes (in run order) into a [`LossSummary`].
pub(crate) fn summarize(runs: &[RunLoss]) -> LossSummary {
    let n = runs.len() as f64;
    LossSummary {
        avg_percent: runs.iter().map(|r| r.percent).sum::<f64>() / n,
        min_percent: runs.iter().map(|r| r.percent).fold(f64::MAX, f64::min),
        max_percent: runs.iter().map(|r| r.percent).fold(f64::MIN, f64::max),
        avg_blocks: runs.iter().map(|r| r.blocks as f64).sum::<f64>() / n,
        stale_events_dropped: runs.iter().map(|r| r.stale_events_dropped).sum(),
        peak_queue_len: runs.iter().map(|r| r.peak_queue_len).max().unwrap_or(0),
        faults_injected: runs.iter().map(|r| r.faults_injected).sum(),
        repairs_aborted: runs.iter().map(|r| r.repairs_aborted).sum(),
        fault_retries: runs.iter().map(|r| r.fault_retries).sum(),
        retries_exhausted: runs.iter().map(|r| r.retries_exhausted).sum(),
    }
}

/// [`summarize`] over the present slots of a supervised sweep chunk:
/// quarantined/cancelled tasks are `None` and skipped. An all-`None`
/// chunk yields NaN percentages and zero counters — the harness note
/// names the missing tasks.
pub(crate) fn summarize_present(runs: &[Option<RunLoss>]) -> LossSummary {
    let present: Vec<RunLoss> = runs.iter().flatten().copied().collect();
    if present.is_empty() {
        return LossSummary {
            avg_percent: f64::NAN,
            min_percent: f64::NAN,
            max_percent: f64::NAN,
            avg_blocks: f64::NAN,
            stale_events_dropped: 0,
            peak_queue_len: 0,
            faults_injected: 0,
            repairs_aborted: 0,
            fault_retries: 0,
            retries_exhausted: 0,
        };
    }
    summarize(&present)
}

/// Figure 15: percentage of lost blocks per datacenter, for HDFS-Stock
/// and HDFS-H at three- and four-way replication.
///
/// The whole matrix — 10 DCs × 4 cells × `runs` — is flattened into
/// independent tasks and fanned out over `scale.jobs` workers;
/// aggregation happens afterwards in input order, so the report is
/// byte-identical at any thread count.
pub(crate) fn fig15(scale: &Scale) -> String {
    let mut table = Table::new(
        format!(
            "Figure 15: lost blocks over {} months (avg [min..max] %, and avg blocks)",
            scale.durability_months
        ),
        &[
            "datacenter",
            "Stock R=3",
            "H R=3",
            "Stock R=4",
            "H R=4",
            "H R=3 blocks",
        ],
    );

    // Hoist the shared read-only state: one datacenter per profile,
    // themselves generated in parallel (each from its own seed stream).
    let dc_ids: Vec<usize> = (0..10).collect();
    let dcs: Vec<Datacenter> = par_map(scale.jobs, &dc_ids, |&dc_id| {
        let profile = DatacenterProfile::dc(dc_id).scaled(scale.dc_scale);
        Datacenter::generate(&profile, scale.seed)
    });
    // One fault plan per DC, shared by that DC's whole cell block (all
    // policies see the same storm — the comparison stays apples to
    // apples). Empty plans without `--faults PROFILE`.
    let horizon = SimDuration::from_days(30 * scale.durability_months as u64);
    let plans: Vec<FaultPlan> = dcs
        .iter()
        .enumerate()
        .map(|(dc_id, dc)| {
            scale.fault_plan(
                dc.n_servers(),
                scale.run_seed("fig15-faults", dc_id),
                horizon,
            )
        })
        .collect();

    // The task matrix, dc-major then cell then run, so each (dc, cell)
    // owns a contiguous chunk of `runs` results.
    struct Task {
        dc_id: usize,
        cell: usize,
        r: usize,
    }
    let mut tasks = Vec::with_capacity(10 * CELLS.len() * scale.runs);
    for dc_id in 0..10 {
        for cell in 0..CELLS.len() {
            for r in 0..scale.runs {
                tasks.push(Task { dc_id, cell, r });
            }
        }
    }
    // Supervised, checkpointable sweep: task keys are stable across
    // runs and `--jobs`, so `--resume` replays journaled results by
    // key and only the remainder is computed.
    let swept = checkpoint::sweep(
        scale,
        "fig15",
        &tasks,
        |t| format!("dc{}/cell{}/r{}", t.dc_id, t.cell, t.r),
        |t, _cancel| {
            let (policy, replication) = CELLS[t.cell];
            run_loss(
                &dcs[t.dc_id],
                policy,
                replication,
                scale.durability_months,
                scale.run_seed("fig15", t.dc_id),
                t.r,
                scale.network,
                scale.disk,
                &plans[t.dc_id],
            )
        },
    );
    let outcomes = swept.results;

    let mut stock3_total = 0.0;
    let mut h3_total = 0.0;
    let mut h4_blocks = 0.0;
    let mut stale_total = 0u64;
    let mut peak_queue = 0usize;
    let mut fault_totals = [0u64; 4]; // injected, aborted, retried, exhausted
    for dc_id in 0..10 {
        let cell = |c: usize| -> LossSummary {
            let start = (dc_id * CELLS.len() + c) * scale.runs;
            summarize_present(&outcomes[start..start + scale.runs])
        };
        let stock3 = cell(0);
        let h3 = cell(1);
        let stock4 = cell(2);
        let h4 = cell(3);
        stock3_total += stock3.avg_percent;
        h3_total += h3.avg_percent;
        h4_blocks += h4.avg_blocks;
        for cell in [&stock3, &h3, &stock4, &h4] {
            stale_total += cell.stale_events_dropped;
            peak_queue = peak_queue.max(cell.peak_queue_len);
            fault_totals[0] += cell.faults_injected;
            fault_totals[1] += cell.repairs_aborted;
            fault_totals[2] += cell.fault_retries;
            fault_totals[3] += cell.retries_exhausted;
        }
        table.row(&[
            format!("DC-{dc_id}"),
            format!(
                "{} [{}..{}]",
                sci(stock3.avg_percent),
                sci(stock3.min_percent),
                sci(stock3.max_percent)
            ),
            format!(
                "{} [{}..{}]",
                sci(h3.avg_percent),
                sci(h3.min_percent),
                sci(h3.max_percent)
            ),
            sci(stock4.avg_percent),
            sci(h4.avg_percent),
            format!("{:.0}", h3.avg_blocks),
        ]);
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    let ratio = if h3_total > 0.0 {
        stock3_total / h3_total
    } else {
        f64::INFINITY
    };
    table.note("paper: HDFS-H reduces loss by more than two orders of magnitude at R=3, eliminates loss at R=4 in every DC, and its R=3 beats Stock's R=4 in all but one DC (max 81 lost blocks, DC-3)");
    table.note(format!(
        "measured: Stock-R3 / H-R3 loss ratio = {}; H-R4 lost blocks across all DCs = {:.0}",
        if ratio.is_finite() {
            format!("{ratio:.0}x")
        } else {
            "inf (H lost nothing)".into()
        },
        h4_blocks
    ));
    if scale.network.is_some() || scale.disk.is_some() {
        table.note(format!(
            "transfer-model churn: {stale_total} superseded completion events dropped, \
             peak event heap {peak_queue}"
        ));
    }
    // Fault accounting only when a profile is armed, so the default
    // report stays byte-identical to a build without fault injection.
    if let Some(profile) = scale.faults {
        table.note(format!(
            "fault profile '{}': {} faults injected, {} in-flight repairs aborted, \
             {} retried with backoff, {} retry budgets exhausted",
            profile.name(),
            fault_totals[0],
            fault_totals[1],
            fault_totals[2],
            fault_totals[3]
        ));
    }
    // Where repair time goes under the transfer models, from one
    // recorded reimage storm on DC-3 (the DC the paper singles out for
    // losses) — deterministic, so the report stays byte-identical
    // across --jobs and recording.
    if let Some(line) = repair_blame(&dcs[3], scale, scale.run_seed("fig15", 3)) {
        table.note(format!("repair blame (DC-3 reimage storm): {line}"));
    }
    if let Some(line) = heartbeat_note(scale) {
        table.note(line);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `runs` fault-free durability simulations for one (DC,
    /// policy, replication) with both transfer models off.
    fn loss_summary(
        dc: &Datacenter,
        policy: PlacementPolicy,
        replication: usize,
        months: usize,
        runs: usize,
        base_seed: u64,
    ) -> LossSummary {
        let none = FaultPlan::none();
        let outcomes: Vec<RunLoss> = (0..runs)
            .map(|r| {
                run_loss(
                    dc,
                    policy,
                    replication,
                    months,
                    base_seed,
                    r,
                    None,
                    None,
                    &none,
                )
            })
            .collect();
        summarize(&outcomes)
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let profile = DatacenterProfile::dc(3).scaled(0.02);
        let dc = Datacenter::generate(&profile, 42);
        let s = loss_summary(&dc, PlacementPolicy::Stock, 3, 3, 2, 7);
        assert!(s.min_percent <= s.avg_percent);
        assert!(s.avg_percent <= s.max_percent);
        assert!(s.avg_blocks >= 0.0);
    }

    #[test]
    fn history_beats_stock_in_high_reimage_dc() {
        let profile = DatacenterProfile::dc(3).scaled(0.02);
        let dc = Datacenter::generate(&profile, 42);
        let stock = loss_summary(&dc, PlacementPolicy::Stock, 3, 4, 1, 7);
        let hist = loss_summary(&dc, PlacementPolicy::History, 3, 4, 1, 7);
        assert!(
            hist.avg_percent < stock.avg_percent,
            "H {} vs Stock {}",
            hist.avg_percent,
            stock.avg_percent
        );
    }

    #[test]
    fn summarize_matches_loss_summary() {
        let profile = DatacenterProfile::dc(3).scaled(0.02);
        let dc = Datacenter::generate(&profile, 42);
        let none = FaultPlan::none();
        let mut runs: Vec<Option<RunLoss>> = (0..3)
            .map(|r| {
                Some(run_loss(
                    &dc,
                    PlacementPolicy::Stock,
                    3,
                    3,
                    7,
                    r,
                    None,
                    None,
                    &none,
                ))
            })
            .collect();
        // A quarantined slot is skipped, not summarized as a lossless run.
        runs.insert(1, None);
        let a = summarize_present(&runs);
        let b = loss_summary(&dc, PlacementPolicy::Stock, 3, 3, 3, 7);
        assert_eq!(a.avg_percent.to_bits(), b.avg_percent.to_bits());
        assert_eq!(a.avg_blocks.to_bits(), b.avg_blocks.to_bits());
    }

    #[test]
    fn heartbeat_note_only_under_the_disk_model() {
        let mut scale = Scale::quick();
        scale.dc_scale = 0.02;
        scale.durability_months = 2;
        assert!(!fig15(&scale).contains("heartbeats"));
        scale.disk = Some(DiskConfig::datacenter());
        let report = fig15(&scale);
        let line = report
            .lines()
            .find(|l| l.contains("heartbeats over a 12-minute primary burst"))
            .expect("heartbeat note under --disk");
        let (sync, asyn) = line.split_once("; asynchronous").expect("both modes");
        assert!(sync.ends_with(", declared dead"), "{line}");
        assert!(asyn.ends_with(", not declared dead"), "{line}");
    }

    #[test]
    fn armed_profile_reports_fault_churn() {
        use harvest_sim::fault::{ClusterShape, FaultProfile};
        let profile = DatacenterProfile::dc(3).scaled(0.02);
        let dc = Datacenter::generate(&profile, 42);
        let shape = ClusterShape {
            n_servers: dc.n_servers(),
            rack_size: harvest_cluster::datacenter::RACK_SIZE as usize,
        };
        let plan = FaultProfile::RackLoss.plan(7, shape, SimDuration::from_days(90));
        let r = run_loss(&dc, PlacementPolicy::Stock, 3, 3, 7, 0, None, None, &plan);
        assert!(r.faults_injected > 0, "rack-loss plan never fired");
        // Determinism: the same plan and seed reproduce the run bitwise.
        let r2 = run_loss(&dc, PlacementPolicy::Stock, 3, 3, 7, 0, None, None, &plan);
        assert_eq!(r.percent.to_bits(), r2.percent.to_bits());
        assert_eq!(r.faults_injected, r2.faults_injected);
    }
}
