//! §6.2 performance microbenchmarks.
//!
//! "For task scheduling, clustering takes on average 2 minutes for the
//! primary tenants of DC-9, when running single-threaded. … The
//! clustering produces 23 classes (13 periodic, 5 constant, and 5
//! unpredictable) for DC-9. For this datacenter, class selection takes
//! less than 1 msec on average. For data placement, clustering and class
//! selection take on average 2.55 msecs per new block (0.81 msecs in
//! HDFS-Stock)."

use std::time::Instant;

use harvest_cluster::{Datacenter, ServerId, UtilizationView};
use harvest_dfs::placement::{PlacementPolicy, Placer};
use harvest_dfs::store::BlockStore;
use harvest_jobs::length::JobLength;
use harvest_sched::classes::ClusteringService;
use harvest_sched::headroom::RankingWeights;
use harvest_sched::select::select_classes;
use harvest_signal::classify::UtilizationPattern;
use harvest_sim::rng::stream_rng;
use harvest_trace::datacenter::DatacenterProfile;
use rand::RngExt;

use crate::report::{num, Table};
use crate::scale::Scale;

/// §6.2 microbenchmarks: clustering, class selection, and per-block
/// placement timings for a DC-9-like input. With a live `rec` this is
/// also the observability showcase: it replays a recorded scheduling
/// run (network + disks on), a recorded reimage storm, and a profiled
/// supervised sweep, so one `repro micro --trace-out` run exercises
/// every subsystem's track. The showcase prints nothing and does not
/// touch the report.
pub(crate) fn micro(scale: &Scale, rec: &mut harvest_sim::obs::Recorder) -> String {
    let profile = DatacenterProfile::dc(9).scaled(scale.dc_scale.max(0.1));
    let dc = Datacenter::generate(&profile, scale.seed);
    let view = UtilizationView::unscaled(&dc);

    let mut table = Table::new(
        format!(
            "§6.2 microbenchmarks (DC-9 at {} tenants / {} servers)",
            dc.n_tenants(),
            dc.n_servers()
        ),
        &["operation", "measured", "paper (full DC-9)"],
    );

    // Clustering (the daily, off-critical-path job).
    let t0 = Instant::now();
    let svc = ClusteringService::build(&dc, scale.seed);
    let clustering = t0.elapsed();
    table.row(&[
        "scheduling clustering (total)".into(),
        format!("{:.1} ms", clustering.as_secs_f64() * 1e3),
        "~2 minutes".into(),
    ]);
    let classes = format!(
        "{} classes ({} periodic, {} constant, {} unpredictable)",
        svc.class_count(),
        svc.count_by_pattern(UtilizationPattern::Periodic),
        svc.count_by_pattern(UtilizationPattern::Constant),
        svc.count_by_pattern(UtilizationPattern::Unpredictable),
    );
    table.row(&[
        "clustering output".into(),
        classes,
        "23 classes (13 periodic, 5 constant, 5 unpredictable)".into(),
    ]);

    // Class selection (Algorithm 1).
    let mut rng = stream_rng(scale.seed, "micro-select");
    let utils: Vec<f64> = svc
        .classes()
        .iter()
        .map(|c| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for &tid in &c.tenants {
                let t = dc.tenant(tid);
                sum += view.tenant_util(tid, harvest_sim::SimTime::ZERO) * t.n_servers() as f64;
                n += t.n_servers();
            }
            sum / n.max(1) as f64
        })
        .collect();
    let weights = RankingWeights::paper();
    let iters = 10_000;
    let t0 = Instant::now();
    for i in 0..iters {
        let length = match i % 3 {
            0 => JobLength::Short,
            1 => JobLength::Medium,
            _ => JobLength::Long,
        };
        let _ = select_classes(&mut rng, &svc, &weights, length, 64, &utils);
    }
    let select_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    table.row(&[
        "class selection (per job)".into(),
        format!("{} us", num(select_us, 1)),
        "< 1 ms".into(),
    ]);

    // Replica placement per new block: HDFS-H vs HDFS-Stock.
    for (policy, paper) in [
        (PlacementPolicy::History, "2.55 ms/block"),
        (PlacementPolicy::Stock, "0.81 ms/block"),
    ] {
        let placer = Placer::new(&dc, policy);
        let mut store = BlockStore::new(&dc);
        let mut rng = stream_rng(scale.seed, "micro-place");
        let blocks = 20_000u32;
        let t0 = Instant::now();
        for _ in 0..blocks {
            let writer = ServerId(rng.random_range(0..dc.n_servers()) as u32);
            if let Some(p) = placer.place_new(&mut rng, &store, writer, 3, None) {
                store.create_block(&p.servers);
            }
        }
        let per_block_us = t0.elapsed().as_secs_f64() * 1e6 / blocks as f64;
        table.row(&[
            format!("{policy} placement (per block)"),
            format!("{} us", num(per_block_us, 2)),
            paper.into(),
        ]);
    }

    table.note("absolute times differ (language, hardware, cluster size); the shape to check is clustering >> placement > selection, and HDFS-H placement costing a small constant factor over Stock");

    if rec.is_on() {
        record_showcase(scale, rec);
    }

    table.render()
}

/// Feeds the recorder one representative run of every instrumented
/// subsystem: a scheduling simulation with the fabric and disks on
/// (tick spans, flow and stream lifetimes, re-share sizes, per-stage
/// wait states), a reimage storm (repair spans and wait states), a
/// search-server run (per-request wait states), and a supervised
/// [`par_map_supervised`] sweep (wall-time worker tracks). Only runs
/// when recording is on — the microbenchmark report never depends on
/// it.
fn record_showcase(scale: &Scale, rec: &mut harvest_sim::obs::Recorder) {
    use harvest_jobs::tpcds::{scale_job, tpcds_suite};
    use harvest_jobs::workload::Workload;
    use harvest_sched::policy::SchedPolicy;
    use harvest_sched::sim::{SchedSim, SchedSimConfig};
    use harvest_sim::supervise::{par_map_supervised, SuperviseConfig};
    use harvest_sim::SimDuration;

    let network = scale
        .network
        .unwrap_or_else(harvest_net::NetworkConfig::datacenter);
    let disk = scale
        .disk
        .unwrap_or_else(harvest_disk::DiskConfig::datacenter);

    // A small recorded scheduling run: every tick, flow, and stream
    // lands on its subsystem's sim-time track.
    let profile = DatacenterProfile::dc(9).scaled(0.02);
    let dc = Datacenter::generate(&profile, scale.seed);
    let view = UtilizationView::unscaled(&dc);
    let suite: Vec<_> = tpcds_suite()
        .iter()
        .map(|q| scale_job(q, 16.0, 1.0))
        .collect();
    let mut wl_rng = stream_rng(scale.seed, "micro-obs-wl");
    let horizon = SimDuration::from_hours(1);
    let workload = Workload::poisson(&mut wl_rng, suite, SimDuration::from_secs(900), horizon);
    let mut cfg = SchedSimConfig::testbed(SchedPolicy::PrimaryAware, scale.seed);
    cfg.horizon = horizon;
    cfg.drain = SimDuration::from_hours(2);
    cfg.network = Some(network);
    cfg.disk = Some(disk);
    let _ = SchedSim::new(&dc, &view, &workload, cfg).run_recorded(rec);

    // A recorded reimage storm: repair spans plus the fabric and disk
    // contention the converging re-replications cause.
    let tenant = dc
        .tenants
        .iter()
        .max_by_key(|t| t.n_servers())
        .expect("dc has tenants")
        .id;
    let mut storm = harvest_dfs::repair::StormConfig::new(tenant, scale.seed);
    storm.fill_fraction = 0.15;
    storm.network = Some(network);
    storm.disk = Some(disk);
    storm.max_repair_streams = Some(64);
    let _ = harvest_dfs::repair::simulate_reimage_storm_recorded(&dc, &storm, rec);

    // A recorded search-server run: per-request queued/running wait
    // states on the `service/request` state track.
    let server = harvest_service::lucene::SearchServer::lucene_like();
    let _ = server.run_recorded(0.9, 2_000, scale.seed, rec);

    // A parallel sweep: per-worker busy/idle wall-time tracks.
    let queries = tpcds_suite();
    let sweep = par_map_supervised(
        scale.jobs,
        &queries,
        &SuperviseConfig::default(),
        |_, q, _| q.critical_path(),
    );
    rec.record_worker_profiles("micro", sweep.epoch, &sweep.profiles);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_runs_and_reports() {
        let mut s = Scale::quick();
        s.dc_scale = 0.05;
        let out = micro(&s, &mut harvest_sim::obs::Recorder::off());
        assert!(out.contains("class selection"));
        assert!(out.contains("HDFS-H"));
        assert!(out.contains("HDFS-Stock"));
    }

    #[test]
    fn recorded_micro_covers_every_subsystem() {
        let mut s = Scale::quick();
        s.dc_scale = 0.05;
        s.jobs = 2;
        let mut rec = harvest_sim::obs::Recorder::new("micro-test");
        let out = micro(&s, &mut rec);
        // The report's *shape* is unchanged by recording (its timing
        // cells vary run to run, so byte-comparison lives in the
        // determinism suite over the deterministic fig reports).
        assert!(out.contains("class selection"));
        let trace = rec.chrome_trace_json();
        for track in ["\"sched\"", "\"fabric\"", "\"disk\"", "\"dfs\"", "micro/w0"] {
            assert!(trace.contains(track), "trace lacks {track} track");
        }
        for states in [
            "sched/stage",
            "fabric/flow",
            "disk/stream",
            "dfs/repair",
            "service/request",
        ] {
            assert!(trace.contains(states), "trace lacks {states} state track");
        }
        assert!(rec.counter_value("sched/tasks_started").is_some());
        assert!(rec.counter_value("dfs/repairs").is_some());
    }
}
