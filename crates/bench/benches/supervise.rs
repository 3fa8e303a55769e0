//! Checkpoint/resume overhead bench: the fig15 durability sweep (the
//! widest task matrix in `repro`) with the crash-safe journal off, on,
//! and restoring.
//!
//! The resilience harness itself (per-task `catch_unwind`, the straggler
//! watchdog) is always on and gated by the suite bench's 1.05x guard;
//! this bench prices the parts that are opt-in:
//!
//! * `checkpoint` — every completed task appended to a checksummed
//!   journal through `obs::json`, fsync'd in batches of 32. The report
//!   must stay byte-identical to the journal-free run.
//! * `resume` — a second run restoring every task from that journal,
//!   computing nothing. This is the crash-recovery payoff: wall clock
//!   collapses to parse + render.
//!
//! Modes:
//! * default — times each path once and writes `BENCH_supervise.json`
//!   at the workspace root.
//! * `SUPERVISE_SMOKE=1` — a reduced slice for CI, best-of-two per
//!   path, asserting byte-identical reports, a full restore, and a
//!   bounded journaling overhead (<= 1.25x + 0.1s absolute slack; the
//!   journal is tens of lines, so the budget is mostly fsync).

use std::sync::Arc;
use std::time::Instant;

use harvest_core::{run_experiment, Checkpoint, Scale};
use harvest_sim::par::default_jobs;

const EXPERIMENT: &str = "fig15";

fn scale(smoke: bool) -> Scale {
    let mut s = Scale::quick();
    s.jobs = default_jobs();
    if smoke {
        s.runs = 2;
        s.durability_months = 3;
        s.utilizations = vec![0.45];
    }
    s
}

/// Runs fig15 with the given journal wiring, returning (wall seconds,
/// report, results restored from the journal).
fn run(smoke: bool, write: Option<&str>, resume: Option<&str>) -> (f64, String, u64) {
    let mut s = scale(smoke);
    let cp = Checkpoint::open(write, resume, &s)
        .expect("journal opens")
        .map(|(cp, _, _)| Arc::new(cp));
    s.harness.checkpoint = cp.clone();
    let t0 = Instant::now();
    let report = run_experiment(EXPERIMENT, &s).expect("experiment runs");
    let secs = t0.elapsed().as_secs_f64();
    if let Some(cp) = cp {
        cp.flush().expect("journal flushes");
    }
    (secs, report, s.harness.stats.take().restored)
}

fn main() {
    let smoke = std::env::var_os("SUPERVISE_SMOKE").is_some();
    let journal =
        std::env::temp_dir().join(format!("harvest-supervise-{}.journal", std::process::id()));
    let journal = journal.to_str().expect("utf-8 temp path");
    println!(
        "supervise bench: {EXPERIMENT} at quick scale{}, journal off vs on vs restoring",
        if smoke { " (smoke slice)" } else { "" },
    );

    let iters = if smoke { 2 } else { 1 };
    let best = |write: Option<&str>, resume: Option<&str>| -> (f64, String, u64) {
        (0..iters)
            .map(|_| run(smoke, write, resume))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("iters >= 1")
    };

    let (off_secs, off_report, _) = best(None, None);
    println!("bench supervise/journal-off      {off_secs:>10.3}s");
    let (on_secs, on_report, _) = best(Some(journal), None);
    println!("bench supervise/journal-on       {on_secs:>10.3}s");
    // The resume pass restores from the journal the timed pass above
    // just finished writing (best-of-N reuses the same path, so the
    // file is always the complete run).
    let (resume_secs, resume_report, restored) = best(None, Some(journal));
    println!("bench supervise/resume           {resume_secs:>10.3}s ({restored} restored)");
    let overhead = on_secs / off_secs;
    println!("bench supervise/journal overhead {overhead:>10.3}x");

    assert_eq!(off_report, on_report, "journaling changed the report bytes");
    assert_eq!(
        off_report, resume_report,
        "restoring changed the report bytes"
    );
    assert!(restored > 0, "resume pass restored nothing");
    assert!(
        resume_secs < off_secs,
        "restoring every task ({resume_secs:.3}s) should beat recomputing ({off_secs:.3}s)"
    );

    if smoke {
        assert!(
            on_secs <= off_secs * 1.25 + 0.1,
            "journaling cost {:.1}% over the journal-free sweep",
            (overhead - 1.0) * 100.0
        );
        let _ = std::fs::remove_file(journal);
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"supervise\",\n  \"workload\": \"repro {EXPERIMENT} at quick scale under the resilience harness\",\n  \"overhead\": {{ \"journal_off_secs\": {off_secs:.3}, \"journal_on_secs\": {on_secs:.3}, \"journal_overhead\": {overhead:.3}, \"resume_secs\": {resume_secs:.3}, \"restored\": {restored} }},\n  \"note\": \"journal-on appends checksummed lines with batched fsync and must keep the report byte-identical; resume restores every task from the journal and computes nothing\"\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_supervise.json");
    std::fs::write(path, &json).expect("write BENCH_supervise.json");
    println!("wrote {path}");
    let _ = std::fs::remove_file(journal);
}
