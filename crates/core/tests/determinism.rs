//! The parallel-harness determinism oracle.
//!
//! The contract behind `repro --jobs N`: thread count decides only *who*
//! computes each sweep task, never what any report contains. These tests
//! pin it the same way the `TickSweep::Full` oracle and the
//! `harvest-oracle` reference allocators pin their incremental
//! counterparts — run the reference path
//! (`jobs = 1`, one worker taking the tasks in input order) and a
//! contended parallel path (`jobs = 4`, forced even on fewer cores;
//! threads do not need cores to interleave) and assert the rendered
//! reports are byte-identical.
//!
//! `micro` is the one deliberate exception: its report *is* a table of
//! measured wall-clock times, so its stdout is not comparable across any
//! two runs, parallel or not.

use harvest_core::{run_experiment, Scale};

/// A scale small enough to run every experiment twice in a test, while
/// still fanning out multiple tasks per experiment (2 runs, 2 scalings,
/// several utilization points).
fn tiny(jobs: usize) -> Scale {
    let mut s = Scale::quick();
    s.dc_scale = 0.02;
    s.runs = 2;
    s.sched_hours = 1;
    s.durability_months = 2;
    s.availability_days = 1;
    s.utilizations = vec![0.45];
    s.jobs = jobs;
    s
}

/// Every report-generating experiment (micro excluded, see above;
/// fig14 excluded from the in-process sweep purely for test budget —
/// its parallel machinery is exactly fig13's task flattening plus
/// fig15's parallel datacenter generation, both pinned here).
const EXPERIMENTS: [&str; 13] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12",
    "fig13", "fig15",
];

#[test]
fn reports_are_byte_identical_at_any_thread_count() {
    for id in EXPERIMENTS {
        let sequential = run_experiment(id, &tiny(1)).expect("experiment runs");
        let parallel = run_experiment(id, &tiny(4)).expect("experiment runs");
        assert!(
            sequential == parallel,
            "{id} report differs between --jobs 1 and --jobs 4:\n\
             --- jobs=1 ---\n{sequential}\n--- jobs=4 ---\n{parallel}"
        );
        assert!(sequential.contains("Figure"), "{id} missing title");
    }
}

#[test]
fn fig16_is_byte_identical_at_any_thread_count() {
    // fig16 appends two extra utilization points (0.70, 0.80), so it is
    // the widest sweep in the suite — kept out of the shared loop so a
    // failure names it directly.
    let sequential = run_experiment("fig16", &tiny(1)).expect("experiment runs");
    let parallel = run_experiment("fig16", &tiny(4)).expect("experiment runs");
    assert_eq!(sequential, parallel);
}

#[test]
fn repro_stdout_is_byte_identical_across_jobs() {
    // The binary-level pin: full stdout (reports + print layer) of the
    // cheap experiments must not move with --jobs; the wall-clock
    // timing table goes to stderr precisely so this holds.
    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fig7", "fig8", "--jobs", jobs])
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro --jobs {jobs} failed");
        out
    };
    let sequential = run("1");
    let parallel = run("4");
    assert_eq!(
        sequential.stdout, parallel.stdout,
        "repro stdout differs between --jobs 1 and --jobs 4"
    );
    let stderr = String::from_utf8_lossy(&parallel.stderr);
    assert!(
        stderr.contains("timing (4 workers):") && stderr.contains("total"),
        "missing timing table on stderr: {stderr}"
    );
}

#[test]
fn recording_leaves_stdout_byte_identical() {
    // The observability layer's stdout contract: turning the recorder
    // on (--trace-out/--metrics-out) must not move a single stdout
    // byte — recording writes only to the named files and stderr.
    let tmp = std::env::temp_dir();
    let trace = tmp.join(format!("harvest-obs-trace-{}.json", std::process::id()));
    let metrics = tmp.join(format!("harvest-obs-metrics-{}.json", std::process::id()));

    let off = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "fig8", "--jobs", "2"])
        .output()
        .expect("repro runs");
    assert!(off.status.success(), "recorder-off run failed");
    let on = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "fig8", "--jobs", "2"])
        .args(["--trace-out".as_ref(), trace.as_os_str()])
        .args(["--metrics-out".as_ref(), metrics.as_os_str()])
        .output()
        .expect("repro runs");
    assert!(on.status.success(), "recorder-on run failed");
    assert_eq!(
        off.stdout, on.stdout,
        "recording changed repro's stdout bytes"
    );

    // Both exports exist and parse with the in-repo JSON parser.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
    let trace_json = harvest_sim::obs::json::parse(&trace_text).expect("trace parses");
    assert!(
        trace_json
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .is_some_and(|evs| !evs.is_empty()),
        "trace has no events"
    );
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let metrics_json = harvest_sim::obs::json::parse(&metrics_text).expect("metrics parses");
    assert!(
        metrics_json.get("counters").is_some(),
        "metrics report lacks counters"
    );

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// Crash-safe checkpoint/resume: journal a run, cut the journal to a
/// prefix ending mid-line (what a SIGKILL during a write leaves
/// behind), resume at a different thread count, and the final stdout is
/// byte-identical to a run that was never interrupted.
#[test]
fn killed_and_resumed_stdout_is_byte_identical() {
    let journal =
        std::env::temp_dir().join(format!("harvest-resume-{}.journal", std::process::id()));
    let journal = journal.to_str().expect("utf-8 temp path");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let clean = run(&["fig15", "--jobs", "4"]);
    run(&["fig15", "--jobs", "4", "--checkpoint", journal]);

    // "Kill" the journaling run: keep a prefix that ends mid-line —
    // a little past a line boundary, so the tail is a torn write.
    let bytes = std::fs::read(journal).expect("journal written");
    assert!(bytes.len() > 200, "journal suspiciously small");
    let boundaries: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let cut = boundaries[boundaries.len() * 3 / 5] + 10;
    std::fs::write(journal, &bytes[..cut]).expect("truncate journal");

    let resumed = run(&[
        "fig15",
        "--jobs",
        "2",
        "--checkpoint",
        journal,
        "--resume",
        journal,
    ]);
    assert_eq!(
        clean.stdout, resumed.stdout,
        "resumed stdout differs from an uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("results restored") && !stderr.contains("[resume: 0 results"),
        "resume restored nothing: {stderr}"
    );
    assert!(
        stderr.contains("torn lines dropped"),
        "mid-line cut not reported as torn: {stderr}"
    );
    let _ = std::fs::remove_file(journal);
}

/// Panic isolation at the binary level: force one sweep task to panic
/// and only its table cell degrades — every other line of the report is
/// unchanged (modulo column re-padding) and the report names the
/// quarantined task.
#[test]
fn quarantined_task_degrades_only_its_cell() {
    let run = |forced: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["fig7", "--jobs", "2"]);
        match forced {
            Some(key) => cmd.env("HARVEST_FORCE_PANIC", key),
            None => cmd.env_remove("HARVEST_FORCE_PANIC"),
        };
        let out = cmd.output().expect("repro runs");
        assert!(out.status.success(), "repro failed");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let clean = run(None);
    let forced = run(Some("fig7/lv1"));
    assert!(
        forced.contains("`fig7/lv1` quarantined after"),
        "missing quarantine note:\n{forced}"
    );
    assert!(forced.contains("(quarantined)"), "missing placeholder row");

    // Every line except the quarantined row and the harness note is
    // unchanged (columns may re-pad around the placeholder).
    let normalize = |text: &str| -> Vec<String> {
        text.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .filter(|l| !l.is_empty())
            .filter(|l| !l.starts_with("| 1 |") && !l.contains("quarantined"))
            .collect()
    };
    assert_eq!(
        normalize(&clean),
        normalize(&forced),
        "a healthy row changed alongside the quarantine"
    );
}

/// Runs `repro` with `args`, asserting it fails with empty stdout and
/// a one-line stderr error, which it returns.
fn fails_with_one_line(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        !out.status.success(),
        "repro {args:?} unexpectedly succeeded"
    );
    assert!(out.stdout.is_empty(), "error path wrote to stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "want one-line error, got: {stderr}"
    );
    stderr
}

/// Malformed invocations die fast with a one-line error and a nonzero
/// exit, before any experiment burns time.
#[test]
fn bad_arguments_fail_fast() {
    let run = fails_with_one_line;
    assert!(run(&["--jobs", "0", "fig7"]).contains("--jobs requires an integer >= 1"));
    assert!(run(&["--jobs", "x", "fig7"]).contains("--jobs requires an integer >= 1"));
    assert!(run(&["--task-deadline", "0", "fig7"]).contains("--task-deadline requires"));
    assert!(run(&["--seed", "x", "fig7"]).contains("--seed requires an integer"));
    assert!(run(&["fig7", "--trace-out"]).contains("--trace-out requires a file path"));
    let faults = run(&["--faults", "nope", "fig7"]);
    assert!(
        faults.contains("'nope'") && faults.contains("rack-loss"),
        "{faults}"
    );
    // An unknown flag is rejected as a flag, before anything runs —
    // not misread as an experiment name (nor is its value).
    assert_eq!(
        run(&["--no-such-flag", "value", "fig7"]).trim_end(),
        "error: unknown flag '--no-such-flag'"
    );
    assert!(run(&["--resume", "/nonexistent/dir/x.journal", "fig7"])
        .contains("error: cannot read resume journal"));

    let corrupt =
        std::env::temp_dir().join(format!("harvest-corrupt-{}.journal", std::process::id()));
    std::fs::write(&corrupt, "not a journal line\nalso not one\n").expect("write corrupt file");
    let stderr = run(&["--resume", corrupt.to_str().expect("utf-8"), "fig7"]);
    assert!(
        stderr.contains("error: corrupt resume journal"),
        "corrupt journal not rejected: {stderr}"
    );
    let _ = std::fs::remove_file(&corrupt);
}

/// A journal records the settings that shaped its results: resuming it
/// under another seed or another transfer model is refused up front,
/// while a setting that cannot change a report (`--jobs`) is not.
#[test]
fn resume_under_other_settings_is_refused() {
    let journal =
        std::env::temp_dir().join(format!("harvest-settings-{}.journal", std::process::id()));
    let journal = journal.to_str().expect("utf-8 temp path");
    let repro = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs")
    };
    let written = repro(&["fig7", "--checkpoint", journal]);
    assert!(written.status.success(), "journaling run failed");

    for other in [["--seed", "7"].as_slice(), ["--net"].as_slice()] {
        let args: Vec<&str> = other
            .iter()
            .copied()
            .chain(["--resume", journal, "fig7"])
            .collect();
        let stderr = fails_with_one_line(&args);
        assert!(stderr.contains("other settings"), "{other:?}: {stderr}");
    }
    let resumed = repro(&["fig7", "--jobs", "1", "--resume", journal]);
    assert!(
        resumed.status.success(),
        "same-settings resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, written.stdout);
    let _ = std::fs::remove_file(journal);
}
