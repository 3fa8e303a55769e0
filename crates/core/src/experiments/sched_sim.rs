//! Figures 13–14: datacenter-scale scheduling simulations (§6.4).
//!
//! The paper sweeps average utilization by scaling every tenant's trace
//! (linearly and by roots), then compares YARN-PT against YARN-H/Tez-H
//! on one month of batch jobs. Job lengths and container usage are
//! multiplied by a scaling factor "to generate enough load … while
//! limiting the simulation time"; this reproduction does the same
//! (durations ×16) and sizes the arrival rate so the batch workload
//! offers a fixed fraction of cluster capacity at any cluster size.

use harvest_cluster::{Datacenter, UtilizationView};
use harvest_jobs::tpcds::{scale_job, tpcds_suite};
use harvest_jobs::workload::Workload;
use harvest_sched::policy::SchedPolicy;
use harvest_sched::sim::{SchedSim, SchedSimConfig};
use harvest_sim::obs::json;
use harvest_sim::par::par_map;
use harvest_sim::rng::stream_rng;
use harvest_sim::supervise::CancelToken;
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::scaling::{calibrate, ScalingKind};

use crate::checkpoint::{self, get_f64, get_u64, hex_f64, hex_u64, obj, Journaled};
use crate::report::{num, pct, Table};
use crate::scale::Scale;

/// Task-duration multiplier for the simulated (non-testbed) workload.
const DURATION_FACTOR: f64 = 16.0;

/// Fraction of total cluster cores the batch workload offers. Kept
/// moderate so task kills — not queueing for containers — dominate the
/// PT-vs-H comparison, as on the paper's testbed.
const BATCH_DEMAND: f64 = 0.05;

/// One sweep point: mean execution times under both schedulers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepPoint {
    /// Target mean utilization.
    pub utilization: f64,
    /// Trace scaling used.
    pub scaling: ScalingKind,
    /// Mean job execution seconds under YARN-PT.
    pub pt_secs: f64,
    /// Mean job execution seconds under YARN-H/Tez-H.
    pub h_secs: f64,
    /// Superseded shuffle-completion events dropped across both policy
    /// runs, fabric plus disks (0 with the transfer models off).
    pub stale_events_dropped: u64,
    /// Largest event-heap high-water mark either policy run reached.
    pub peak_queue_len: usize,
}

impl SweepPoint {
    /// YARN-H's improvement over YARN-PT, in percent.
    pub(crate) fn improvement(&self) -> f64 {
        if self.pt_secs <= 0.0 {
            0.0
        } else {
            (1.0 - self.h_secs / self.pt_secs) * 100.0
        }
    }
}

impl Journaled for SweepPoint {
    fn encode(&self) -> String {
        let scaling = match self.scaling {
            ScalingKind::Linear => 0u64,
            ScalingKind::Root => 1,
        };
        obj(&[
            ("util", hex_f64(self.utilization)),
            ("scaling", hex_u64(scaling)),
            ("pt", hex_f64(self.pt_secs)),
            ("h", hex_f64(self.h_secs)),
            ("stale", hex_u64(self.stale_events_dropped)),
            ("peak", hex_u64(self.peak_queue_len as u64)),
        ])
    }

    fn decode(v: &json::Value) -> Option<Self> {
        let scaling = match get_u64(v, "scaling")? {
            0 => ScalingKind::Linear,
            1 => ScalingKind::Root,
            _ => return None,
        };
        Some(SweepPoint {
            utilization: get_f64(v, "util")?,
            scaling,
            pt_secs: get_f64(v, "pt")?,
            h_secs: get_f64(v, "h")?,
            stale_events_dropped: get_u64(v, "stale")?,
            peak_queue_len: get_u64(v, "peak")? as usize,
        })
    }
}

/// Builds the (scaled utilization view, Poisson workload) pair one
/// sweep point simulates over — shared by the comparison runs and the
/// recorded blame run so they see bitwise-identical inputs.
fn sweep_inputs(
    dc: &Datacenter,
    scaling: ScalingKind,
    utilization: f64,
    hours: u64,
    seed: u64,
) -> (UtilizationView, Workload) {
    let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
    let param = calibrate(&traces, scaling, utilization);
    let view = UtilizationView::scaled(dc, scaling, param);

    // Size the arrival rate to the cluster: mean job work (core-seconds)
    // divided into the target demand share of cluster cores.
    let suite: Vec<_> = tpcds_suite()
        .iter()
        .map(|q| scale_job(q, DURATION_FACTOR, 1.0))
        .collect();
    let mean_work: f64 = suite
        .iter()
        .map(|q| q.total_work().as_secs_f64())
        .sum::<f64>()
        / suite.len() as f64;
    let cluster_cores = dc.n_servers() as f64 * 12.0;
    let mean_gap = SimDuration::from_secs_f64(mean_work / (BATCH_DEMAND * cluster_cores));

    let horizon = SimDuration::from_hours(hours);
    let mut wl_rng = stream_rng(seed, "sweep-wl");
    let workload = Workload::poisson(&mut wl_rng, suite, mean_gap, horizon);
    (view, workload)
}

/// The scheduler configuration of one sweep-point run: `scale`'s
/// horizon and transfer models, with as long again to drain so every
/// job can finish.
fn sweep_config(scale: &Scale, policy: SchedPolicy, seed: u64) -> SchedSimConfig {
    let horizon = SimDuration::from_hours(scale.sched_hours);
    let mut cfg = SchedSimConfig::testbed(policy, seed);
    cfg.horizon = horizon;
    cfg.drain = horizon;
    cfg.network = scale.network;
    cfg.disk = scale.disk;
    cfg
}

/// Runs one (datacenter, scaling, utilization, run) comparison point
/// over `scale.sched_hours`.
///
/// `cancel` is the supervising harness's cooperative cancellation
/// token, polled by the scheduling event loop at tick granularity; a
/// cancelled point returns early with a partial (discarded) result.
pub(crate) fn sweep_point(
    dc: &Datacenter,
    scale: &Scale,
    scaling: ScalingKind,
    utilization: f64,
    seed: u64,
    cancel: &CancelToken,
) -> SweepPoint {
    let (view, workload) = sweep_inputs(dc, scaling, utilization, scale.sched_hours, seed);

    let run = |policy: SchedPolicy| -> (f64, u64, usize) {
        let mut cfg = sweep_config(scale, policy, seed);
        cfg.cancel = cancel.clone();
        let stats = SchedSim::new(dc, &view, &workload, cfg).run();
        let stale = stats.fabric.map_or(0, |f| f.stale_events_dropped)
            + stats.disks.map_or(0, |d| d.stale_events_dropped);
        let peak = stats
            .fabric
            .map_or(0, |f| f.peak_queue_len)
            .max(stats.disks.map_or(0, |d| d.peak_queue_len));
        (stats.mean_execution_secs(), stale, peak)
    };

    let (pt_secs, pt_stale, pt_peak) = run(SchedPolicy::PrimaryAware);
    let (h_secs, h_stale, h_peak) = run(SchedPolicy::History);
    SweepPoint {
        utilization,
        scaling,
        pt_secs,
        h_secs,
        stale_events_dropped: pt_stale + h_stale,
        peak_queue_len: pt_peak.max(h_peak),
    }
}

/// Replays one sweep point's YARN-PT run with a local recorder and
/// distills the `sched/stage` wait-state track into its one-line blame
/// split (e.g. `"74.2% running, 21.3% blocked_on_net, 4.5% queued"`).
/// The split is pure sim time, so the line is identical at any `--jobs`
/// setting and whether or not the caller records — figure notes can
/// embed it without breaking stdout byte-comparability.
pub(crate) fn stage_blame(
    dc: &Datacenter,
    scale: &Scale,
    scaling: ScalingKind,
    utilization: f64,
    seed: u64,
) -> Option<String> {
    let (view, workload) = sweep_inputs(dc, scaling, utilization, scale.sched_hours, seed);
    let cfg = sweep_config(scale, SchedPolicy::PrimaryAware, seed);
    let mut rec = harvest_sim::obs::Recorder::new("blame");
    let _ = SchedSim::new(dc, &view, &workload, cfg).run_recorded(&mut rec);
    let analysis = harvest_sim::obs::analyze::analyze_recorder(&rec).ok()?;
    analysis
        .states
        .iter()
        .find(|s| s.name == "sched/stage")
        .map(|s| s.blame_line())
}

/// Figure 13: DC-9's batch run times across the utilization spectrum.
///
/// The (scaling × utilization × run) matrix is flattened into
/// independent [`sweep_point`] tasks over `scale.jobs` workers; each
/// task derives its own seed stream and shares only the read-only
/// datacenter, and aggregation replays the sequential order — the
/// report is byte-identical at any thread count.
pub(crate) fn fig13(scale: &Scale) -> String {
    let profile = DatacenterProfile::dc(9).scaled(scale.dc_scale);
    let dc = Datacenter::generate(&profile, scale.seed);

    let mut table = Table::new(
        format!(
            "Figure 13: batch execution time vs utilization, DC-9 ({} servers)",
            dc.n_servers()
        ),
        &[
            "scaling",
            "utilization",
            "YARN-PT (s)",
            "YARN-H (s)",
            "improvement",
        ],
    );
    struct Task {
        scaling: ScalingKind,
        util: f64,
        r: usize,
    }
    let mut tasks = Vec::with_capacity(2 * scale.utilizations.len() * scale.runs);
    for scaling in [ScalingKind::Linear, ScalingKind::Root] {
        for &util in &scale.utilizations {
            for r in 0..scale.runs {
                tasks.push(Task { scaling, util, r });
            }
        }
    }
    // Supervised, checkpointable sweep keyed by the task's stable
    // (scaling, utilization, run) coordinates.
    let swept = checkpoint::sweep(
        scale,
        "fig13",
        &tasks,
        |t| format!("{}/u{:.2}/r{}", t.scaling, t.util, t.r),
        |t, cancel| {
            sweep_point(
                &dc,
                scale,
                t.scaling,
                t.util,
                scale.run_seed("fig13", t.r),
                cancel,
            )
        },
    );
    let points = swept.results;

    let mut stale_total = 0u64;
    let mut peak_queue = 0usize;
    let mut chunks = points.chunks_exact(scale.runs);
    for scaling in [ScalingKind::Linear, ScalingKind::Root] {
        for &util in &scale.utilizations {
            let runs = chunks.next().expect("one chunk per sweep point");
            // Quarantined/cancelled runs are `None`: average over the
            // present ones (all of them on a clean run, so the division
            // is bitwise identical to the unsupervised path).
            let mut pt = 0.0;
            let mut h = 0.0;
            let mut n = 0usize;
            for p in runs.iter().flatten() {
                pt += p.pt_secs;
                h += p.h_secs;
                stale_total += p.stale_events_dropped;
                peak_queue = peak_queue.max(p.peak_queue_len);
                n += 1;
            }
            let point = SweepPoint {
                utilization: util,
                scaling,
                pt_secs: pt / n as f64,
                h_secs: h / n as f64,
                stale_events_dropped: 0,
                peak_queue_len: 0,
            };
            table.row(&[
                scaling.to_string(),
                num(util, 2),
                num(point.pt_secs, 0),
                num(point.h_secs, 0),
                pct(point.improvement()),
            ]);
        }
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    table.note("paper: YARN-H/Tez-H reduces DC-9 execution time by 0-55% under linear scaling and 3-41% under root scaling, with both systems degrading as utilization rises");
    if scale.network.is_some() || scale.disk.is_some() {
        table.note(format!(
            "transfer-model churn: {stale_total} superseded completion events dropped, \
             peak event heap {peak_queue}"
        ));
    }
    // Where the stages' time went, from one recorded mid-utilization
    // YARN-PT run (linear scaling, run 0's seed) — deterministic, so
    // the report stays byte-identical across --jobs and recording.
    let mid = scale.utilizations[scale.utilizations.len() / 2];
    if let Some(line) = stage_blame(
        &dc,
        scale,
        ScalingKind::Linear,
        mid,
        scale.run_seed("fig13", 0),
    ) {
        table.note(format!(
            "stage blame (YARN-PT, linear @ {} utilization): {line}",
            num(mid, 2)
        ));
    }
    table.render()
}

/// Figure 14: YARN-H's run-time improvements across all ten datacenters.
pub(crate) fn fig14(scale: &Scale) -> String {
    let mut table = Table::new(
        "Figure 14: YARN-H/Tez-H run-time improvement per datacenter",
        &["datacenter", "scaling", "min", "avg", "max"],
    );
    // Sweep a reduced utilization set per DC to bound single-core time.
    // Use the middle of the range: at the bottom both schedulers are
    // unconstrained, and at the top container queueing saturates both,
    // so the history signal is clearest mid-spectrum. Use at least two
    // runs per point — single-run noise at this scale is comparable to
    // the effect size.
    let utils: Vec<f64> = vec![scale.utilizations[scale.utilizations.len() / 2]];
    let runs = scale.runs.max(2);

    // Shared read-only state first: the ten datacenters, generated in
    // parallel (each deterministically from its own profile + seed).
    let dc_ids: Vec<usize> = (0..10).collect();
    let dcs: Vec<Datacenter> = par_map(scale.jobs, &dc_ids, |&dc_id| {
        let profile = DatacenterProfile::dc(dc_id).scaled(scale.dc_scale);
        Datacenter::generate(&profile, scale.seed)
    });

    // Then the flattened (dc × scaling × util × run) sweep matrix.
    struct Task {
        dc_id: usize,
        scaling: ScalingKind,
        util: f64,
        r: usize,
    }
    let mut tasks = Vec::with_capacity(10 * 2 * utils.len() * runs);
    for dc_id in 0..10 {
        for scaling in [ScalingKind::Linear, ScalingKind::Root] {
            for &util in &utils {
                for r in 0..runs {
                    tasks.push(Task {
                        dc_id,
                        scaling,
                        util,
                        r,
                    });
                }
            }
        }
    }
    let swept = checkpoint::sweep(
        scale,
        "fig14",
        &tasks,
        |t| format!("dc{}/{}/u{:.2}/r{}", t.dc_id, t.scaling, t.util, t.r),
        |t, cancel| {
            sweep_point(
                &dcs[t.dc_id],
                scale,
                t.scaling,
                t.util,
                scale.run_seed("fig14", t.dc_id * 100 + t.r),
                cancel,
            )
        },
    );
    let points = swept.results;

    let mut low_var = Vec::new(); // DC-0, DC-2 improvements
    let mut high_var = Vec::new(); // DC-1, DC-4 improvements
    let mut chunks = points.chunks_exact(utils.len() * runs);
    for dc_id in 0..10 {
        for scaling in [ScalingKind::Linear, ScalingKind::Root] {
            let imps: Vec<f64> = chunks
                .next()
                .expect("one chunk per (dc, scaling)")
                .iter()
                .flatten()
                .map(|p| p.improvement())
                .collect();
            let (min, max, avg) = if imps.is_empty() {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                (
                    imps.iter().cloned().fold(f64::MAX, f64::min),
                    imps.iter().cloned().fold(f64::MIN, f64::max),
                    imps.iter().sum::<f64>() / imps.len() as f64,
                )
            };
            if scaling == ScalingKind::Linear {
                if dc_id == 0 || dc_id == 2 {
                    low_var.push(avg);
                }
                if dc_id == 1 || dc_id == 4 {
                    high_var.push(avg);
                }
            }
            table.row(&[
                format!("DC-{dc_id}"),
                scaling.to_string(),
                pct(min),
                pct(avg),
                pct(max),
            ]);
        }
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    let low = low_var.iter().sum::<f64>() / low_var.len().max(1) as f64;
    let high = high_var.iter().sum::<f64>() / high_var.len().max(1) as f64;
    table.note("paper: average improvements of 12-56% (linear) and 5-45% (root); lowest for DC-0/DC-2 (least utilization variation), highest for DC-1/DC-4 (most), maxima ~90%/~70%");
    table.note(format!(
        "measured (linear): low-variation DCs avg {} vs high-variation DCs avg {}",
        pct(low),
        pct(high)
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_improvement_math() {
        let p = SweepPoint {
            utilization: 0.5,
            scaling: ScalingKind::Linear,
            pt_secs: 1_000.0,
            h_secs: 800.0,
            stale_events_dropped: 0,
            peak_queue_len: 0,
        };
        assert!((p.improvement() - 20.0).abs() < 1e-12);
        let zero = SweepPoint { pt_secs: 0.0, ..p };
        assert_eq!(zero.improvement(), 0.0);
    }

    #[test]
    fn history_improves_on_pt_at_moderate_utilization() {
        let profile = DatacenterProfile::dc(9).scaled(0.03);
        let dc = Datacenter::generate(&profile, 42);
        let p = sweep_point(
            &dc,
            &Scale::quick(),
            ScalingKind::Linear,
            0.45,
            7,
            &CancelToken::new(),
        );
        assert!(p.pt_secs > 0.0 && p.h_secs > 0.0);
        assert!(
            p.improvement() > -10.0,
            "YARN-H catastrophically worse: {:?}",
            p
        );
    }
}
