//! End-to-end integration tests spanning the whole workspace: profile →
//! datacenter → clustering → scheduling / placement → paper-shape checks.

use harvest::cluster::{Datacenter, UtilizationView};
use harvest::dfs::availability::{simulate_availability, AvailabilityConfig};
use harvest::dfs::durability::{simulate_durability, DurabilityConfig};
use harvest::dfs::placement::PlacementPolicy;
use harvest::jobs::tpcds::tpcds_suite;
use harvest::jobs::workload::Workload;
use harvest::prelude::*;
use harvest::sched::sim::{SchedSim, SchedSimConfig};
use harvest::sim::obs::Recorder;
use harvest::sim::rng::stream_rng;
use harvest::sim::SimDuration;
use harvest::trace::scaling::{calibrate, ScalingKind};

fn small_dc(dc_id: usize, seed: u64) -> Datacenter {
    Datacenter::generate(&DatacenterProfile::dc(dc_id).scaled(0.03), seed)
}

#[test]
fn full_scheduling_pipeline_runs_and_harvests() {
    let dc = small_dc(9, 1);
    let view = UtilizationView::unscaled(&dc);
    let mut rng = stream_rng(1, "e2e-wl");
    let workload = Workload::poisson(
        &mut rng,
        tpcds_suite(),
        SimDuration::from_secs(200),
        SimDuration::from_hours(2),
    );
    let mut cfg = SchedSimConfig::testbed(SchedPolicy::History, 1);
    cfg.horizon = SimDuration::from_hours(2);
    cfg.drain = SimDuration::from_hours(4);
    let stats = SchedSim::new(&dc, &view, &workload, cfg).run();

    assert!(stats.completed_jobs() > 0, "no jobs completed");
    assert!(
        stats.avg_total_utilization > stats.avg_primary_utilization,
        "harvesting added no utilization"
    );
    // Every completed job's execution time is at least its critical path.
    for job in &stats.jobs {
        if let Some(t) = job.execution_time {
            let cp = tpcds_suite()[job.query].critical_path();
            assert!(
                t >= cp,
                "job {} finished in {t} < critical path {cp}",
                job.name
            );
        }
    }
}

#[test]
fn durability_shape_stock_vs_history() {
    // DC-3: the highest-reimage datacenter. One year, R=3.
    let dc = small_dc(3, 2);
    let run = |policy| {
        let mut cfg = DurabilityConfig::paper(policy, 3, 5);
        cfg.months = 12;
        simulate_durability(&dc, &cfg, &mut Recorder::off())
    };
    let stock = run(PlacementPolicy::Stock);
    let hist = run(PlacementPolicy::History);
    assert!(stock.lost_blocks > 0, "Stock lost nothing in DC-3");
    // Paper: two orders of magnitude; assert at least one.
    assert!(
        hist.lost_blocks * 10 <= stock.lost_blocks,
        "H lost {} vs Stock {}",
        hist.lost_blocks,
        stock.lost_blocks
    );
}

#[test]
fn four_way_history_replication_eliminates_loss() {
    let dc = small_dc(3, 3);
    let mut cfg = DurabilityConfig::paper(PlacementPolicy::History, 4, 5);
    cfg.months = 12;
    let result = simulate_durability(&dc, &cfg, &mut Recorder::off());
    assert_eq!(
        result.lost_blocks, 0,
        "paper: HDFS-H at R=4 loses nothing anywhere"
    );
}

#[test]
fn availability_shape_across_utilization() {
    let dc = small_dc(9, 4);
    let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
    let run = |policy, util: f64| {
        let factor = calibrate(&traces, ScalingKind::Linear, util);
        let view = UtilizationView::scaled(&dc, ScalingKind::Linear, factor);
        let mut cfg = AvailabilityConfig::paper(policy, 3, 7);
        cfg.span = SimDuration::from_days(2);
        simulate_availability(&dc, &view, &cfg).failed_percent
    };
    // Low utilization: no failures under either placement.
    assert_eq!(run(PlacementPolicy::History, 0.3), 0.0);
    // High utilization: History dominates Stock.
    let stock = run(PlacementPolicy::Stock, 0.6);
    let hist = run(PlacementPolicy::History, 0.6);
    assert!(
        hist <= stock,
        "HDFS-H failed {hist}% vs Stock {stock}% at 60%"
    );
}

#[test]
fn clustering_service_covers_every_server() {
    let dc = small_dc(6, 5);
    let svc = ClusteringService::build(&dc, 5);
    let covered: usize = svc.classes().iter().map(|c| c.n_servers()).sum();
    assert_eq!(covered, dc.n_servers());
}

#[test]
fn experiments_render_deterministically() {
    use harvest::core::{run_experiment, Scale};
    let mut scale = Scale::quick();
    scale.dc_scale = 0.02;
    for id in ["fig7", "fig8"] {
        let a = run_experiment(id, &scale, &mut Recorder::off()).expect("experiment runs");
        let b = run_experiment(id, &scale, &mut Recorder::off()).expect("experiment runs");
        assert_eq!(a, b, "{id} not deterministic");
        assert!(a.contains("Figure"), "{id} missing title");
    }
}

#[test]
fn umbrella_prelude_is_usable() {
    // The doc-comment quickstart, as a real test.
    let profile = DatacenterProfile::dc(9).scaled(0.02);
    let dc = Datacenter::generate(&profile, 42);
    let svc = ClusteringService::build(&dc, 42);
    assert!(svc.class_count() > 0);
    let ts: &TimeSeries = &dc.tenants[0].trace;
    assert!(!ts.is_empty());
}
