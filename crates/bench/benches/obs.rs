//! Observability overhead bench: the sched_tick workload (unscaled
//! 14 386-server DC-9, light TPC-DS batch, disks on, change-driven
//! ticks) run three ways — recorder off via [`SchedSim::run`], recorder
//! off again (paired sample for noise), and recorder on via
//! [`SchedSim::run_recorded`].
//!
//! What it pins:
//! * **Zero-cost when off.** `run()` now routes through the recording
//!   path with a null recorder, so its wall clock *is* the off-mode
//!   overhead. The bench compares the best-of-N off time against the
//!   pre-observability baseline recorded in `BENCH_sched.json`
//!   (`dc9_tick.incremental_secs`) and asserts it stays within 5%.
//! * **Recording never changes the outcome.** The recorded run's stats
//!   must be bitwise-identical to the off run's.
//! * **The recorded wait states analyze cleanly.** The recorded run's
//!   trace feeds `obs::analyze`: every state track must pass the exact
//!   conservation check (per-entity state time tiles the lifetime) with
//!   a critical path bounded by the makespan, and the `sched/stage`
//!   blame line must be present.
//!
//! Modes:
//! * default — best of 5 per mode, asserts the 5% off-mode ceiling
//!   against `BENCH_sched.json`, and (re)writes `BENCH_obs.json`.
//! * `OBS_SMOKE=1` — best of 3, skips the baseline comparison (CI
//!   runners are not the baseline machine) but still asserts the
//!   stats identity, the analysis invariants, and that recording stays
//!   within a loose 5× of off.

use std::time::Instant;

use harvest_cluster::{Datacenter, UtilizationView};
use harvest_disk::DiskConfig;
use harvest_jobs::tpcds::{scale_job, tpcds_suite};
use harvest_jobs::workload::Workload;
use harvest_sched::policy::SchedPolicy;
use harvest_sched::sim::{SchedSim, SchedSimConfig};
use harvest_sched::SimStats;
use harvest_sim::obs::Recorder;
use harvest_sim::rng::stream_rng;
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;
use std::hint::black_box;

const DURATION_FACTOR: f64 = 16.0;
const ARRIVAL_GAP: SimDuration = SimDuration::from_secs(900);
const HORIZON: SimDuration = SimDuration::from_hours(5);
const DRAIN: SimDuration = SimDuration::from_hours(2);

fn config() -> SchedSimConfig {
    let mut cfg = SchedSimConfig::testbed(SchedPolicy::PrimaryAware, 42);
    cfg.horizon = HORIZON;
    cfg.drain = DRAIN;
    cfg.disk = Some(DiskConfig::datacenter());
    cfg
}

/// Best-of-`iters` wall seconds, one run's stats (deterministic, so
/// any run's stats stand for all), and — in recorded mode — the last
/// run's recorder for post-hoc analysis.
fn best_of(
    iters: usize,
    dc: &Datacenter,
    view: &UtilizationView,
    workload: &Workload,
    recorded: bool,
) -> (f64, SimStats, Recorder) {
    let mut best = f64::INFINITY;
    let mut last = None;
    let mut last_rec = Recorder::off();
    for _ in 0..iters {
        let sim = SchedSim::new(dc, view, workload, config());
        let t0 = Instant::now();
        let stats = if recorded {
            let mut rec = Recorder::new("obs-bench");
            let stats = black_box(sim.run_recorded(&mut rec));
            black_box(&rec);
            last_rec = rec;
            stats
        } else {
            black_box(sim.run())
        };
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(stats);
    }
    (best, last.expect("iters >= 1"), last_rec)
}

/// Pulls `"incremental_secs": <x>` out of BENCH_sched.json without a
/// JSON dependency (the file is generated by sched_tick.rs above).
fn baseline_incremental_secs(text: &str) -> Option<f64> {
    let key = "\"incremental_secs\":";
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let smoke = std::env::var_os("OBS_SMOKE").is_some();
    let iters = if smoke { 3 } else { 5 };

    let profile = DatacenterProfile::dc(9);
    let dc = Datacenter::generate(&profile, 42);
    let view = UtilizationView::unscaled(&dc);
    let suite: Vec<_> = tpcds_suite()
        .iter()
        .map(|q| scale_job(q, DURATION_FACTOR, 1.0))
        .collect();
    let mut wl_rng = stream_rng(42, "sched-tick-wl");
    let workload = Workload::poisson(&mut wl_rng, suite, ARRIVAL_GAP, HORIZON);
    println!(
        "obs bench: unscaled {} ({} servers), {} jobs, recorder off vs on, best of {iters}",
        profile.name(),
        dc.n_servers(),
        workload.n_jobs(),
    );

    let (off, off_stats, _) = best_of(iters, &dc, &view, &workload, false);
    println!("bench obs/sched_run_recorder_off            {off:>10.4}s best of {iters}");
    let (on, on_stats, rec) = best_of(iters, &dc, &view, &workload, true);
    println!("bench obs/sched_run_recorder_on             {on:>10.4}s best of {iters}");

    // Recording must be outcome-invisible.
    assert!(off_stats.tasks_started > 0, "bench placed nothing");
    assert_eq!(
        off_stats, on_stats,
        "recording changed the simulation outcome"
    );

    // The recorded wait states must analyze cleanly: exact conservation
    // on every track, critical path bounded by the makespan, and a
    // sched/stage blame line to print.
    let t0 = Instant::now();
    let analysis = harvest_sim::obs::analyze::analyze_recorder(&rec).expect("trace analyzes");
    let analyze_secs = t0.elapsed().as_secs_f64();
    println!("bench obs/analyze_recorded_run              {analyze_secs:>10.4}s");
    for sb in &analysis.states {
        assert_eq!(
            sb.conserved, sb.entities,
            "state track {} fails conservation",
            sb.name
        );
        assert!(
            sb.critical_us <= sb.makespan_us,
            "state track {} critical path exceeds makespan",
            sb.name
        );
    }
    let stage = analysis
        .states
        .iter()
        .find(|s| s.name == "sched/stage")
        .expect("recorded run has stage wait states");
    println!(
        "bench obs/stage_blame                       {}",
        stage.blame_line()
    );

    // Recording-on cost is allowed to be real but must stay same-order:
    // a blowup here means a hot-path hook started allocating per event.
    assert!(
        on <= off * 5.0,
        "recording slowed the run {:.1}x (ceiling 5x)",
        on / off
    );

    if smoke {
        println!(
            "bench obs/on_vs_off                         {:>10.2}x (smoke)",
            on / off
        );
        return;
    }

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .ok()
        .as_deref()
        .and_then(baseline_incremental_secs);
    if let Some(base) = baseline {
        let ratio = off / base;
        println!(
            "bench obs/off_vs_prepr_baseline             {ratio:>10.3}x (baseline {base:.4}s)"
        );
        assert!(
            ratio <= 1.05,
            "recorder-off run is {:.1}% over the pre-observability baseline \
             ({off:.4}s vs {base:.4}s, ceiling 5%) — the off path is no longer \
             one predictable branch",
            (ratio - 1.0) * 100.0
        );
    } else {
        println!("(no BENCH_sched.json baseline found; skipping the 5% ceiling check)");
    }

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"cluster\": {{ \"profile\": \"{}\", \"servers\": {} }},\n  \"workload\": \"sched_tick's: {} TPC-DS jobs over {}h + {}h drain, disks on, YARN-PT, incremental ticks\",\n  \"obs\": {{ \"off_secs\": {off:.6}, \"on_secs\": {on:.6}, \"on_vs_off\": {:.3}, \"analyze_secs\": {analyze_secs:.6}, \"baseline_incremental_secs\": {}, \"off_vs_baseline\": {} }}\n}}\n",
        profile.name(),
        dc.n_servers(),
        workload.n_jobs(),
        HORIZON.as_hours_f64(),
        DRAIN.as_hours_f64(),
        on / off,
        baseline.map_or("null".into(), |b| format!("{b:.6}")),
        baseline.map_or("null".into(), |b| format!("{:.3}", off / b)),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
