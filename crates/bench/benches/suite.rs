//! Experiment-suite fan-out bench: the quick-scale durability + sched
//! sweeps (fig15 + fig13, the two widest task matrices in `repro`) at
//! one worker vs. all of them.
//!
//! After PRs 3/4 made single-simulation hot paths incremental, suite
//! wall clock is dominated by the embarrassingly-parallel sweep matrix
//! that the supervised worker loop (`harvest_sim::supervise`) fans
//! out. This bench times the sequential reference path (`jobs = 1`)
//! against the parallel harness (`jobs = available cores`) on the
//! same experiments and asserts the
//! rendered reports are *byte-identical* — the determinism contract the
//! speedup must never buy anything with.
//!
//! Modes:
//! * default — times both paths best-of-two (a one-shot timing on a
//!   shared box can swing past the 1.05x supervision gate below on
//!   noise alone) and (re)writes `BENCH_suite.json` at the workspace root
//!   with the machine's core count next to the measured speedup. The
//!   issue's acceptance bar is ≥ 3× for the sweep on a ≥ 4-core
//!   machine; on fewer cores the JSON records what the hardware can
//!   show, and on one core it records `"speedup": null` (unmeasured)
//!   rather than a 1.00× that no second worker could have beaten.
//! * `SUITE_SMOKE=1` — a reduced slice of the same sweeps sized for
//!   CI's 2-core runner under `timeout 300`, asserting byte-identical
//!   reports always, and a machine-independent ≥ 1.5× floor whenever
//!   ≥ 2 cores are actually available (both paths share the machine,
//!   so the floor does not depend on absolute speed). Each path is
//!   timed best-of-two so a single noisy-neighbor episode on the
//!   shared runner cannot flake the ratio (the sched_tick smoke's
//!   lesson).

use std::time::Instant;

use harvest_core::{run_experiment, Scale};
use harvest_sim::obs::Recorder;
use harvest_sim::par::default_jobs;

/// The recorded sequential baseline out of a previous `BENCH_suite.json`,
/// if the file exists and parses.
fn suite_baseline(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"sequential_secs\":";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// The suite slice under test: the two widest sweep matrices.
const EXPERIMENTS: [&str; 2] = ["fig15", "fig13"];

fn scale(jobs: usize, smoke: bool) -> Scale {
    let mut s = Scale::quick();
    s.jobs = jobs;
    if smoke {
        // A slice of the quick sweep that still fans out plenty of
        // tasks (10 DCs × 4 cells × 2 runs for fig15; 2 scalings × 2
        // runs for fig13) but fits CI's compile + run budget twice.
        s.runs = 2;
        s.sched_hours = 4;
        s.durability_months = 3;
        s.utilizations = vec![0.45];
    }
    s
}

/// Runs the suite slice, returning (wall seconds, rendered reports).
fn run_suite(scale: &Scale) -> (f64, Vec<String>) {
    let t0 = Instant::now();
    let reports: Vec<String> = EXPERIMENTS
        .iter()
        .map(|id| run_experiment(id, scale, &mut Recorder::off()).expect("experiment runs"))
        .collect();
    (t0.elapsed().as_secs_f64(), reports)
}

fn main() {
    let cores = default_jobs();
    let smoke = std::env::var_os("SUITE_SMOKE").is_some();
    println!(
        "suite bench: {} at quick scale{}, 1 worker vs {cores}",
        EXPERIMENTS.join("+"),
        if smoke { " (smoke slice)" } else { "" },
    );

    // Best of two passes per path: asserts ride on both modes now (the
    // smoke floor and the recorded-baseline 1.05x gate), and a single
    // noisy-neighbor episode on a shared box swings a one-shot timing
    // by more than the margin either assert leaves.
    let iters = 2;
    let best = |jobs: usize| -> (f64, Vec<String>) {
        (0..iters)
            .map(|_| run_suite(&scale(jobs, smoke)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("iters >= 1")
    };
    let (seq_secs, seq_reports) = best(1);
    println!("bench suite/sequential (1 worker)           {seq_secs:>10.3}s");
    let (par_secs, par_reports) = best(cores);
    println!("bench suite/parallel ({cores} workers)          {par_secs:>10.3}s");
    // A one-worker "parallel" run measures no speedup; say so rather
    // than record 1.00x.
    let speedup = (cores >= 2).then(|| seq_secs / par_secs);
    match speedup {
        Some(x) => println!("bench suite/speedup                         {x:>10.2}x"),
        None => println!("bench suite/speedup: unmeasured (<2 cores)"),
    }

    // The determinism contract: identical sweep outcomes, byte for byte.
    assert_eq!(
        seq_reports, par_reports,
        "suite reports differ between 1 worker and {cores}"
    );
    for report in &seq_reports {
        assert!(report.contains("Figure"), "suite produced an empty report");
    }

    if smoke {
        // Machine-independent floor, only meaningful when the machine
        // can actually run two workers at once.
        let floor = 1.5;
        match speedup {
            Some(x) => assert!(
                x >= floor,
                "parallel suite only {x:.2}x faster than sequential on {cores} cores \
                 (floor {floor}x) — the sweep matrix has regressed toward serial execution"
            ),
            None => println!("single-core machine: skipping the {floor}x floor assert"),
        }
        return;
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    // Supervision-off guard: the sweeps now run under the resilience
    // harness (watchdog + catch_unwind per task) with checkpointing and
    // deadlines off — that must cost at most 5% against the baseline
    // recorded before this run overwrites it.
    match suite_baseline(path) {
        Some(b) => {
            let ratio = seq_secs / b;
            println!("bench suite/sequential vs recorded baseline: {ratio:.3}x");
            assert!(
                ratio <= 1.05,
                "supervised sweep is {ratio:.3}x the recorded sequential baseline \
                 ({seq_secs:.3}s vs {b:.3}s) — supervision with checkpointing off must be \
                 within 5% (stale baseline from another machine? re-record and re-run)"
            );
        }
        None => {
            println!("no BENCH_suite.json baseline to compare against; skipping the 1.05x gate")
        }
    }

    let speedup = speedup.map_or("null".to_string(), |x| format!("{x:.2}"));
    let json = format!(
        "{{\n  \"bench\": \"suite\",\n  \"workload\": \"repro {} at quick scale (the durability and scheduling sweep matrices)\",\n  \"cores\": {cores},\n  \"suite\": {{ \"sequential_secs\": {seq_secs:.3}, \"parallel_secs\": {par_secs:.3}, \"speedup\": {speedup} }},\n  \"note\": \"speedup scales with cores (acceptance bar: >= 3x on a >= 4-core machine); reports asserted byte-identical across worker counts; sequential path gated at <= 1.05x the previous recording (supervision harness must stay free when checkpointing is off)\"\n}}\n",
        EXPERIMENTS.join(" "),
    );
    std::fs::write(path, &json).expect("write BENCH_suite.json");
    println!("wrote {path}");
}
