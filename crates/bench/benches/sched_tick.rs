//! Scheduler tick bench: a light batch workload on the *unscaled*
//! 14 386-server DC-9, timing the change-driven tick against the
//! whole-fleet walks it avoids.
//!
//! The workload is deliberately small (a couple dozen TPC-DS jobs over
//! a five-hour horizon) so the per-event scheduling work is a sliver
//! and the run time is dominated by the two-minute tick. A tick touches
//! the occupied-server index, the active-disk index, and one
//! fleet-series lookup — O(changed + occupied). A tick that walked the
//! fleet instead would pay, on each of the run's ~210 ticks, a
//! `fleet_util_scan` plus two `server_util` passes over all 14 386
//! servers (a whole-fleet disk-demand replay and reserve scan). The
//! bench times exactly those walks over the run's tick instants.
//!
//! Modes:
//! * default — measures the run and the walks (median of 3 each) and
//!   (re)writes `BENCH_sched.json` at the workspace root:
//!   `incremental_secs` is the run (the baseline `obs.rs` and
//!   `fault.rs` compare against), `fleet_walk_secs` the walks, and
//!   `walk_ratio` is `(run + walks) / run`.
//! * `SCHED_TICK_SMOKE=1` — times each (best of three, so a single
//!   noisy-neighbor blip on a shared runner cannot flake a ratio) and
//!   asserts three machine-independent bounds, so a regression toward
//!   per-tick fleet walks fails (and, belt-and-braces, CI's wrapping
//!   `timeout` bounds the absolute runtime):
//!   - `(run + walks) / run ≥ 3`: a run whose ticks walk the fleet
//!     themselves carries the walks' cost and pulls the ratio toward 2;
//!   - from a recorded run, the mean `sched/tick_changed_disks` plus
//!     `sched/tick_occupied_servers` per tick is at most a third of
//!     `2 × n_servers`, the count a whole-fleet replay and reserve scan
//!     would visit;
//!   - a tick of an idle fleet (no jobs: nothing occupied, nothing
//!     streaming) costs at most 1% of one tick's walks. This catches a
//!     walk too cheap per server to move the first ratio, such as a
//!     reserve scan that skips empty servers after one compare.

use std::time::{Duration, Instant};

use harvest_cluster::{Datacenter, ServerId, UtilizationView};
use harvest_disk::DiskConfig;
use harvest_jobs::tpcds::{scale_job, tpcds_suite};
use harvest_jobs::workload::Workload;
use harvest_sched::policy::SchedPolicy;
use harvest_sched::sim::{SchedSim, SchedSimConfig};
use harvest_sched::SimStats;
use harvest_sim::obs::{json, Recorder};
use harvest_sim::rng::stream_rng;
use harvest_sim::{SimDuration, SimTime};
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::SAMPLE_INTERVAL;
use std::hint::black_box;

/// Simulated-job duration multiplier (the paper's own simulation trick
/// to get testbed-like task lengths at datacenter scale).
const DURATION_FACTOR: f64 = 16.0;

/// Mean Poisson gap between job arrivals: ~20 jobs over five hours.
const ARRIVAL_GAP: SimDuration = SimDuration::from_secs(900);

const HORIZON: SimDuration = SimDuration::from_hours(5);
const DRAIN: SimDuration = SimDuration::from_hours(2);

fn config() -> SchedSimConfig {
    let mut cfg = SchedSimConfig::testbed(SchedPolicy::PrimaryAware, 42);
    cfg.horizon = HORIZON;
    cfg.drain = DRAIN;
    // Disks on: every tick replays the primaries' disk demand, the
    // walk a change-driven tick saves the most on.
    cfg.disk = Some(DiskConfig::datacenter());
    cfg
}

/// One full simulation run; returns (wall seconds, stats).
fn run_once(dc: &Datacenter, view: &UtilizationView, workload: &Workload) -> (f64, SimStats) {
    let sim = SchedSim::new(dc, view, workload, config());
    let t0 = Instant::now();
    let stats = black_box(sim.run());
    (t0.elapsed().as_secs_f64(), stats)
}

/// Wall seconds of the walks a whole-fleet tick would add, over the
/// run's tick instants: one `fleet_util_scan` plus two `server_util`
/// passes over every server per tick.
fn fleet_walk(view: &UtilizationView) -> f64 {
    let end = SimTime::ZERO + HORIZON + DRAIN;
    let t0 = Instant::now();
    let mut t = SimTime::ZERO;
    while t < end {
        black_box(view.fleet_util_scan(t));
        for _ in 0..2 {
            for s in 0..view.n_servers() {
                black_box(view.server_util(ServerId(s as u32), t));
            }
        }
        t += SAMPLE_INTERVAL;
    }
    t0.elapsed().as_secs_f64()
}

/// Extra idle-fleet ticks timed by [`idle_tick`] (about a week).
const IDLE_TICKS: u64 = 5_000;

/// Wall seconds per tick of an idle fleet — no jobs, so no container or
/// stream for a tick to visit — from the difference between a long and
/// a one-tick idle run, which cancels the set-up.
fn idle_tick(dc: &Datacenter, view: &UtilizationView) -> f64 {
    let idle = Workload {
        queries: Vec::new(),
        arrivals: Vec::new(),
    };
    let run = |ticks: u64| {
        let mut cfg = config();
        cfg.horizon = SimDuration::ZERO;
        cfg.drain = SimDuration::from_millis(SAMPLE_INTERVAL.as_millis() * ticks);
        let sim = SchedSim::new(dc, view, &idle, cfg);
        let t0 = Instant::now();
        black_box(sim.run());
        t0.elapsed().as_secs_f64()
    };
    (run(IDLE_TICKS + 1) - run(1)) / IDLE_TICKS as f64
}

/// Median of `iters` timings.
fn median(iters: usize, mut time: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| Duration::from_secs_f64(time()))
        .collect();
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

/// Mean servers visited per tick — changed disks plus occupied servers
/// — from one recorded run's tick histograms.
fn mean_tick_visits(dc: &Datacenter, view: &UtilizationView, workload: &Workload) -> f64 {
    let mut rec = Recorder::new("sched-tick-bench");
    SchedSim::new(dc, view, workload, config()).run_recorded(&mut rec);
    let report = json::parse(&rec.metrics_json()).expect("metrics report parses");
    let mean = |name: &str| {
        report
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("mean"))
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("recorded run has no {name} histogram"))
    };
    mean("sched/tick_changed_disks") + mean("sched/tick_occupied_servers")
}

fn main() {
    let profile = DatacenterProfile::dc(9);
    let dc = Datacenter::generate(&profile, 42);
    let view = UtilizationView::unscaled(&dc);
    let suite: Vec<_> = tpcds_suite()
        .iter()
        .map(|q| scale_job(q, DURATION_FACTOR, 1.0))
        .collect();
    let mut wl_rng = stream_rng(42, "sched-tick-wl");
    let workload = Workload::poisson(&mut wl_rng, suite, ARRIVAL_GAP, HORIZON);
    let ticks = (HORIZON + DRAIN).as_millis() / SAMPLE_INTERVAL.as_millis();
    println!(
        "sched_tick bench: unscaled {} ({} servers), {} jobs over {}h + {}h drain, {} ticks",
        profile.name(),
        dc.n_servers(),
        workload.n_jobs(),
        HORIZON.as_hours_f64(),
        DRAIN.as_hours_f64(),
        ticks,
    );
    let (_, stats) = run_once(&dc, &view, &workload);
    assert!(stats.tasks_started > 0, "bench placed nothing");

    if std::env::var_os("SCHED_TICK_SMOKE").is_some() {
        // CI budget guard: every bound is machine-independent (the
        // timings share the machine; the visit count is deterministic).
        // Best of three each: the runs are milliseconds, so a single
        // descheduling blip must not decide a ratio.
        let floor = 3.0;
        let best = |time: &dyn Fn() -> f64| (0..3).map(|_| time()).fold(f64::INFINITY, f64::min);
        let run = best(&|| run_once(&dc, &view, &workload).0);
        let walk = best(&|| fleet_walk(&view));
        let ratio = (run + walk) / run;
        println!("bench sched_tick/dc9_run                    {run:>10.3}s (smoke, best of 3)");
        println!("bench sched_tick/dc9_fleet_walks            {walk:>10.3}s (smoke, best of 3)");
        println!("bench sched_tick/walk_ratio                 {ratio:>10.2}x");
        assert!(
            ratio >= floor,
            "(run + fleet walks) / run is only {ratio:.1}x (floor {floor}x) — the tick \
             path has regressed toward whole-fleet walks"
        );
        let idle = best(&|| idle_tick(&dc, &view));
        let walk_tick = walk / ticks as f64;
        println!(
            "bench sched_tick/idle_tick                   {:>10.3}us (smoke, best of 3; walks {:.1}us)",
            idle * 1e6,
            walk_tick * 1e6
        );
        assert!(
            idle * 100.0 <= walk_tick,
            "an idle tick costs {:.2}% of one tick's fleet walks (ceiling 1%) — the \
             tick path has regressed toward whole-fleet walks",
            idle / walk_tick * 100.0
        );
        let visits = mean_tick_visits(&dc, &view, &workload);
        let ceiling = 2.0 * dc.n_servers() as f64 / 3.0;
        println!(
            "bench sched_tick/mean_tick_visits           {visits:>10.1} (ceiling {ceiling:.0})"
        );
        assert!(
            visits <= ceiling,
            "ticks visit {visits:.0} servers on average (ceiling {ceiling:.0}) — the tick \
             path has regressed toward whole-fleet walks"
        );
        return;
    }

    let run = median(3, || run_once(&dc, &view, &workload).0);
    println!("bench sched_tick/dc9_run                    {run:>10.4}s median of 3");
    let walk = median(3, || fleet_walk(&view));
    println!("bench sched_tick/dc9_fleet_walks            {walk:>10.4}s median of 3");
    let ratio = (run + walk) / run;
    println!("bench sched_tick/walk_ratio                 {ratio:>10.2}x");
    let idle = median(3, || idle_tick(&dc, &view));
    println!(
        "bench sched_tick/idle_tick                   {:>10.3}us median of 3",
        idle * 1e6
    );
    let visits = mean_tick_visits(&dc, &view, &workload);
    println!("bench sched_tick/mean_tick_visits           {visits:>10.1}");

    let json = format!(
        "{{\n  \"bench\": \"sched_tick\",\n  \"cluster\": {{ \"profile\": \"{}\", \"servers\": {} }},\n  \"workload\": \"{} TPC-DS jobs over {}h horizon + {}h drain, disks on, YARN-PT, {} two-minute ticks\",\n  \"machine\": {{ \"cores\": {} }},\n  \"dc9_tick\": {{ \"incremental_secs\": {run:.6}, \"fleet_walk_secs\": {walk:.6}, \"walk_ratio\": {ratio:.2}, \"idle_tick_us\": {:.3}, \"mean_tick_visits\": {visits:.1} }}\n}}\n",
        profile.name(),
        dc.n_servers(),
        workload.n_jobs(),
        HORIZON.as_hours_f64(),
        DRAIN.as_hours_f64(),
        ticks,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        idle * 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(path, &json).expect("write BENCH_sched.json");
    println!("wrote {path}");
}
