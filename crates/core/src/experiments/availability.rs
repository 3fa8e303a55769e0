//! Figure 16: data availability under load (§6.4).

use harvest_cluster::{Datacenter, UtilizationView};
use harvest_dfs::availability::{simulate_availability, AvailabilityConfig, AvailabilityResult};
use harvest_dfs::placement::PlacementPolicy;
use harvest_sim::obs::json;
use harvest_sim::par::par_map;
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;

use super::STORAGE_CELLS as CELLS;
use crate::checkpoint::{self, get_f64, get_u64, hex_f64, hex_u64, obj, Journaled};
use crate::report::{num, sci, Table};
use crate::scale::Scale;

impl Journaled for AvailabilityResult {
    fn encode(&self) -> String {
        obj(&[
            ("nb", hex_u64(self.n_blocks)),
            ("acc", hex_u64(self.accesses)),
            ("fail", hex_u64(self.failed)),
            ("failp", hex_f64(self.failed_percent)),
            ("mu", hex_f64(self.mean_utilization)),
            ("frr", hex_u64(self.forced_remote_reads)),
            ("mread", hex_f64(self.mean_read_ms)),
            ("p99", hex_f64(self.p99_read_ms)),
            ("dof", hex_u64(self.disk_only_failures)),
            ("fdt", hex_u64(self.fault_down_ticks)),
        ])
    }

    fn decode(v: &json::Value) -> Option<Self> {
        Some(AvailabilityResult {
            n_blocks: get_u64(v, "nb")?,
            accesses: get_u64(v, "acc")?,
            failed: get_u64(v, "fail")?,
            failed_percent: get_f64(v, "failp")?,
            mean_utilization: get_f64(v, "mu")?,
            forced_remote_reads: get_u64(v, "frr")?,
            mean_read_ms: get_f64(v, "mread")?,
            p99_read_ms: get_f64(v, "p99")?,
            disk_only_failures: get_u64(v, "dof")?,
            fault_down_ticks: get_u64(v, "fdt")?,
        })
    }
}

/// Figure 16: failed accesses vs utilization (linear scaling, DC-9) for
/// HDFS-Stock and HDFS-H at three- and four-way replication.
///
/// The (utilization × policy × run) matrix is flattened into
/// independent tasks over `scale.jobs` workers; the scaled utilization
/// views are hoisted and shared read-only. Aggregation replays the
/// sequential loop's order, so the report is byte-identical at any
/// thread count.
pub(crate) fn fig16(scale: &Scale) -> String {
    let profile = DatacenterProfile::dc(9).scaled(scale.dc_scale);
    let dc = Datacenter::generate(&profile, scale.seed);
    let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();

    let mut table = Table::new(
        format!(
            "Figure 16: failed accesses vs utilization, DC-9 ({} servers), linear scaling",
            dc.n_servers()
        ),
        &["utilization", "Stock R=3", "H R=3", "Stock R=4", "H R=4"],
    );
    // Extend the sweep toward the 2/3 busy threshold where failures rise.
    let mut utils = scale.utilizations.clone();
    for extra in [0.70, 0.80] {
        if !utils.iter().any(|&u| (u - extra).abs() < 1e-9) {
            utils.push(extra);
        }
    }

    // Hoist the per-utilization views (calibration + playback
    // precompute), themselves an independent parallel sweep.
    let views: Vec<UtilizationView> = par_map(scale.jobs, &utils, |&util| {
        let factor = harvest_trace::scaling::calibrate(
            &traces,
            harvest_trace::scaling::ScalingKind::Linear,
            util,
        );
        UtilizationView::scaled(&dc, harvest_trace::scaling::ScalingKind::Linear, factor)
    });

    // The task matrix, utilization-major then cell then run.
    struct Task {
        util: usize,
        cell: usize,
        r: usize,
    }
    let mut tasks = Vec::with_capacity(utils.len() * CELLS.len() * scale.runs);
    for util in 0..utils.len() {
        for cell in 0..CELLS.len() {
            for r in 0..scale.runs {
                tasks.push(Task { util, cell, r });
            }
        }
    }
    let swept = checkpoint::sweep(
        scale,
        "fig16",
        &tasks,
        |t| format!("u{:.2}/cell{}/r{}", utils[t.util], t.cell, t.r),
        |t, _cancel| {
            let (policy, replication) = CELLS[t.cell];
            let mut cfg =
                AvailabilityConfig::paper(policy, replication, scale.run_seed("fig16", t.r));
            cfg.span = SimDuration::from_days(scale.availability_days);
            cfg.network = scale.network;
            cfg.disk = scale.disk;
            // Every cell of a run index sees the same storm, so the policy
            // comparison is under identical fault pressure. Empty plan
            // (bitwise no-op) without `--faults PROFILE`.
            cfg.faults = scale.fault_plan(
                dc.n_servers(),
                scale.run_seed("fig16-faults", t.r),
                cfg.span,
            );
            simulate_availability(&dc, &views[t.util], &cfg)
        },
    );
    let results = swept.results;

    for (u, &util) in utils.iter().enumerate() {
        let mut row = vec![num(util, 2)];
        // Remote-read and disk aggregates for Stock R=3, averaged over
        // the same runs as the failure column they sit next to.
        let mut remote_reads = 0.0;
        let mut read_ms = 0.0;
        let mut p99_ms: f64 = 0.0;
        let mut disk_failures = 0.0;
        for (c, &(policy, replication)) in CELLS.iter().enumerate() {
            let mut total = 0.0;
            let start = (u * CELLS.len() + c) * scale.runs;
            for result in results[start..start + scale.runs].iter().flatten() {
                total += result.failed_percent;
                if (scale.network.is_some() || scale.disk.is_some())
                    && policy == PlacementPolicy::Stock
                    && replication == 3
                {
                    remote_reads += result.forced_remote_reads as f64 / scale.runs as f64;
                    read_ms += result.mean_read_ms / scale.runs as f64;
                    p99_ms = p99_ms.max(result.p99_read_ms);
                    disk_failures += result.disk_only_failures as f64 / scale.runs as f64;
                }
            }
            row.push(sci(total / scale.runs as f64));
        }
        table.row(&row);
        if scale.network.is_some() || scale.disk.is_some() {
            let disk_note = if scale.disk.is_some() {
                format!(", {disk_failures:.0} disk-only failures/run")
            } else {
                String::new()
            };
            table.note(format!(
                "util {util:.2} (Stock R=3): {remote_reads:.0} forced-remote reads/run, \
                 mean over all served reads {read_ms:.1} ms, worst-run p99 {p99_ms:.1} ms\
                 {disk_note}"
            ));
        }
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    // Fault accounting only when a profile is armed — the default
    // report stays byte-identical to a build without fault injection.
    if let Some(profile) = scale.faults {
        let down: u64 = results.iter().flatten().map(|r| r.fault_down_ticks).sum();
        table.note(format!(
            "fault profile '{}': {} server-ticks spent fault-down across {} simulations",
            profile.name(),
            down,
            results.len()
        ));
    }
    table.note("paper: HDFS-H shows no unavailability up to ~40% utilization (50% under root scaling) and low unavailability at 50%; HDFS-H at R=3 beats Stock at R=4 below ~75%; failures climb steeply past the 66% busy threshold");
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::scaling::ScalingKind;

    #[test]
    fn history_availability_dominates_stock() {
        let profile = DatacenterProfile::dc(9).scaled(0.02);
        let dc = Datacenter::generate(&profile, 42);
        let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
        let factor = harvest_trace::scaling::calibrate(&traces, ScalingKind::Linear, 0.55);
        let view = UtilizationView::scaled(&dc, ScalingKind::Linear, factor);
        let run = |policy| {
            let mut cfg = AvailabilityConfig::paper(policy, 3, 7);
            cfg.span = SimDuration::from_days(2);
            simulate_availability(&dc, &view, &cfg).failed_percent
        };
        assert!(run(PlacementPolicy::History) <= run(PlacementPolicy::Stock));
    }
}
