//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--net] [--disk] [--full-sweep]
//!       [--faults PROFILE] [--jobs N] [--seed N] [--trace-out FILE]
//!       [--metrics-out FILE] [--checkpoint FILE] [--resume FILE]
//!       [--task-deadline SECS] [--explain] [EXPERIMENT...]
//! repro analyze TRACE.json
//!
//!   EXPERIMENT    fig1..fig8, fig10..fig16, micro, or "all" (default)
//!   --full        bigger clusters, the paper's five runs per data point
//!                 (slower, tighter bands)
//!   --net         run over the harvest-net fabric (repair, remote
//!                 reads, and shuffles pay for bandwidth)
//!   --disk        run over the harvest-disk model (the same bytes pay
//!                 for platter bandwidth too; composes with --net)
//!   --full-sweep  run the scheduling simulations with full-fleet tick
//!                 sweeps instead of the change-driven default — the
//!                 bitwise-identical reference mode (slower; for
//!                 validation)
//!   --faults PROFILE  arm a deterministic fault plan (rack power loss,
//!                 uplink flaps, disk failures and brown-outs) in the
//!                 experiments that take one — fig15 (durability) and
//!                 fig16 (availability). Profiles: rack-loss,
//!                 link-flap, disk-rot, correlated-storm. Without the
//!                 flag every report is byte-identical to a build
//!                 without the fault machinery
//!   --jobs N      worker threads for the sweep matrices (default: all
//!                 available cores; 1 = the sequential reference path;
//!                 reports are byte-identical for any N)
//!   --seed N      master seed (default 42)
//!   --trace-out FILE    write a Chrome-trace/Perfetto JSON of the run
//!   --metrics-out FILE  write a machine-readable metrics report (JSON)
//!   --checkpoint FILE   append each completed sweep task to a crash-safe
//!                 journal (checksummed lines, batched fsync)
//!   --resume FILE       restore completed sweep tasks from a journal and
//!                 compute only the remainder; combine with
//!                 `--checkpoint FILE` (same path is fine) to keep
//!                 journaling. Stdout is byte-identical to an
//!                 uninterrupted run
//!   --task-deadline SECS  flag sweep tasks running longer than SECS as
//!                 stragglers and cancel them cooperatively
//!   --explain     print a per-experiment blame table (wait-state and
//!                 critical-path attribution) to stderr
//! ```
//!
//! # Surviving failures
//!
//! Every sweep runs under a supervisor: a panicking task is retried on
//! a jittered backoff and, if it keeps failing, quarantined — its table
//! cell degrades while every other result stays bitwise identical to a
//! clean run, and the report gains a note naming the quarantined task.
//! `--checkpoint`/`--resume` make long sweeps crash-safe: kill the
//! process at any point, resume, and the final stdout is byte-identical
//! to the run that was never killed (the determinism oracle pins this).
//! A torn final journal line (from a crash mid-write) is detected by
//! its length/checksum header and dropped; corruption anywhere else is
//! a hard error.
//!
//! # Inspecting a run
//!
//! `--trace-out` and `--metrics-out` turn the observability layer on:
//! recording-aware experiments (currently `micro`) replay instrumented
//! runs whose sim-time spans, counters, gauges, and latency sketches
//! land in the files, and the harness adds one wall-time span per
//! experiment. Load the trace file in `chrome://tracing` or
//! <https://ui.perfetto.dev>; the metrics file is plain JSON (see
//! `harvest_sim::obs`). Recording never touches stdout — reports stay
//! byte-identical with it on or off.
//!
//! `repro analyze TRACE.json` turns an exported trace into "where did
//! the time go": per-track busy time and critical path, and — for the
//! wait-state tracks — a per-state blame breakdown with an exact
//! conservation check (every entity's states tile its lifetime; see
//! `harvest_sim::obs::analyze`). `--explain` computes the same tables
//! in-process per experiment and prints them to stderr, so stdout stays
//! byte-comparable.
//!
//! Reports go to stdout; per-experiment wall-clock timings (which vary
//! run to run) go to stderr as a closing table, so stdout stays
//! byte-for-byte comparable across runs and `--jobs` settings.

use std::process::ExitCode;
use std::sync::Arc;

use harvest_core::{run_experiment_recorded, Checkpoint, Scale, SweepSnapshot, ALL_EXPERIMENTS};
use harvest_sim::fault::FaultProfile;
use harvest_sim::obs::Recorder;

/// One experiment's sweep outcomes as a short stderr summary, e.g.
/// `"3 restored, 1 quarantined"`. Empty when nothing noteworthy
/// happened (the overwhelmingly common case).
fn snapshot_summary(snap: &SweepSnapshot) -> String {
    let mut parts = Vec::new();
    for (n, what) in [
        (snap.restored, "restored"),
        (snap.journaled, "journaled"),
        (snap.retries, "retries"),
        (snap.quarantined, "quarantined"),
    ] {
        if n > 0 {
            parts.push(format!("{n} {what}"));
        }
    }
    if snap.stragglers > 0 {
        if snap.cancelled > 0 {
            parts.push(format!(
                "{} stragglers ({} cancelled)",
                snap.stragglers, snap.cancelled
            ));
        } else {
            parts.push(format!("{} stragglers", snap.stragglers));
        }
    }
    parts.join(", ")
}

/// The valid `--faults` names, space-separated, for error messages.
fn profile_names() -> String {
    FaultProfile::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> ExitCode {
    // Collect flags first, apply them to the scale afterwards, so flag
    // order never matters (`--seed 7 --full` must keep seed 7).
    let mut full = false;
    let mut net = false;
    let mut disk = false;
    let mut full_sweep = false;
    let mut explain = false;
    let mut faults = None;
    let mut seed = None;
    let mut jobs = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut task_deadline: Option<u64> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--net" => net = true,
            "--disk" => disk = true,
            "--full-sweep" => full_sweep = true,
            "--explain" => explain = true,
            "--faults" => match args.next() {
                Some(name) => match FaultProfile::parse(&name) {
                    Some(p) => faults = Some(p),
                    None => {
                        eprintln!("error: unknown fault profile '{name}'");
                        eprintln!("valid profiles: {}", profile_names());
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--faults requires a profile name ({})", profile_names());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => {
                    eprintln!("--metrics-out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs requires an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match args.next() {
                Some(path) => checkpoint_path = Some(path),
                None => {
                    eprintln!("--checkpoint requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match args.next() {
                Some(path) => resume_path = Some(path),
                None => {
                    eprintln!("--resume requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--task-deadline" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(secs) if secs >= 1 => task_deadline = Some(secs),
                _ => {
                    eprintln!("--task-deadline requires an integer number of seconds >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro [--full] [--net] [--disk] [--full-sweep] [--faults PROFILE] [--jobs N] [--seed N] \
                     [--trace-out FILE] [--metrics-out FILE] [--checkpoint FILE] \
                     [--resume FILE] [--task-deadline SECS] [--explain] \
                     [EXPERIMENT...]"
                );
                println!("       repro analyze TRACE.json");
                println!("experiments: {} all", ALL_EXPERIMENTS.join(" "));
                println!(
                    "--full runs the paper's five runs per sweep point; --jobs N sets \
                     the sweep worker count (default: all cores, 1 = sequential \
                     reference; output is byte-identical for any N)"
                );
                println!();
                println!("inspecting a run:");
                println!(
                    "  --trace-out FILE    write a Chrome-trace/Perfetto JSON of the run \
                     (open in chrome://tracing or ui.perfetto.dev): sim-time tracks per \
                     subsystem (sched ticks, fabric flows, disk streams, dfs repairs) \
                     plus wall-time tracks for the harness and parallel workers"
                );
                println!(
                    "  --metrics-out FILE  write a machine-readable JSON report: counters, \
                     gauge envelopes, and latency-sketch quantiles (p50/p90/p99)"
                );
                println!(
                    "  either flag turns recording on (the `micro` experiment then replays \
                     instrumented runs); stdout stays byte-identical with recording on or off"
                );
                println!(
                    "  analyze TRACE.json  turn an exported trace into blame tables: \
                     per-track busy time, critical path, and per-state wait breakdowns \
                     with an exact conservation check (states tile each entity's lifetime)"
                );
                println!(
                    "  --explain           compute the same blame tables in-process for \
                     each experiment and print them to stderr (stdout is untouched)"
                );
                println!();
                println!("injecting faults:");
                println!(
                    "  --faults PROFILE    arm a deterministic fault plan — rack power \
                     loss, uplink flaps, disk failures and brown-outs — drawn from the \
                     seed on a dedicated RNG stream and injected through the shared \
                     event queue. fig15 (durability) and fig16 (availability) react: \
                     heartbeat failure detection, repair retry with exponential \
                     backoff, and bounded retry budgets whose exhaustion is counted \
                     as permanent loss. Each armed report gains a fault-accounting \
                     note; without the flag every report is byte-identical to a \
                     build without the fault machinery"
                );
                println!("  profiles: {}", profile_names());
                println!();
                println!("surviving failures:");
                println!(
                    "  every sweep task runs under a supervisor: a panicking task is \
                     retried on a jittered backoff and, if it keeps failing, \
                     quarantined — its table cell degrades while every other result \
                     stays bitwise identical to a clean run, and the report notes \
                     the quarantined task"
                );
                println!(
                    "  --checkpoint FILE   append each completed sweep task to a \
                     crash-safe journal (checksummed lines, batched fsync); kill the \
                     process at any point and resume without losing finished work"
                );
                println!(
                    "  --resume FILE       restore completed tasks from a journal and \
                     compute only the remainder; stdout is byte-identical to an \
                     uninterrupted run at any --jobs. Pass the same path to both \
                     flags to keep journaling into the same file; a torn final line \
                     (crash mid-write) is detected and dropped"
                );
                println!(
                    "  --task-deadline SECS  flag sweep tasks running longer than \
                     SECS as stragglers and cancel them cooperatively; cancelled \
                     tasks degrade like quarantined ones. Without the flag, tasks \
                     8x slower than the running median are flagged (never \
                     cancelled) in the stderr timing table"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag '{flag}'");
                return ExitCode::FAILURE;
            }
            other => experiments.push(other.to_string()),
        }
    }
    // `repro analyze TRACE.json` is a pure post-processing mode: no
    // experiments run, the blame tables go to stdout.
    if experiments.first().is_some_and(|e| e == "analyze") {
        if experiments.len() != 2 {
            eprintln!("usage: repro analyze TRACE.json");
            return ExitCode::FAILURE;
        }
        let path = &experiments[1];
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match harvest_sim::obs::analyze::analyze_trace_text(&text) {
            Ok(analysis) => {
                print!("{}", analysis.render());
                if !analysis.conserved() {
                    eprintln!("warning: some entities failed the state-conservation check");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path} is not an analyzable trace: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut scale = if full { Scale::full() } else { Scale::quick() };
    if net {
        scale.network = Some(harvest_net::NetworkConfig::datacenter());
    }
    if disk {
        scale.disk = Some(harvest_disk::DiskConfig::datacenter());
    }
    if full_sweep {
        scale.tick_sweep = harvest_sched::TickSweep::Full;
    }
    scale.faults = faults;
    if let Some(jobs) = jobs {
        scale.jobs = jobs;
    }
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    // Open the journal before any experiment runs: an unreadable or
    // corrupt resume file must fail fast, not after an hour of sweeps.
    let checkpoint = match Checkpoint::open(checkpoint_path.as_deref(), resume_path.as_deref()) {
        Ok(cp) => cp.map(|(cp, torn, restored)| {
            if resume_path.is_some() {
                if torn > 0 {
                    eprintln!("[resume: {restored} results restored, {torn} torn lines dropped]");
                } else {
                    eprintln!("[resume: {restored} results restored]");
                }
            }
            Arc::new(cp)
        }),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    scale.harness.checkpoint = checkpoint.clone();
    scale.harness.deadline = task_deadline.map(std::time::Duration::from_secs);
    let mut rec = if trace_out.is_some() || metrics_out.is_some() || explain {
        Recorder::new("repro")
    } else {
        Recorder::off()
    };
    scale.record = rec.is_on();
    // Validate every experiment name before expanding "all" or running
    // anything: a typo anywhere in the list (including a mistyped flag,
    // which parses as a name) must not cost the hour of experiments
    // around it.
    let unknown: Vec<&String> = experiments
        .iter()
        .filter(|e| *e != "all" && !ALL_EXPERIMENTS.contains(&e.as_str()))
        .collect();
    if !unknown.is_empty() {
        for e in unknown {
            eprintln!("error: unknown experiment '{e}'");
        }
        eprintln!("valid experiments: {} all", ALL_EXPERIMENTS.join(" "));
        return ExitCode::FAILURE;
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    // (experiment id, wall seconds, sweep outcomes) for the closing
    // timing table.
    let mut timings: Vec<(String, f64, SweepSnapshot)> = Vec::with_capacity(experiments.len());
    let suite_started = std::time::Instant::now();
    // Suite-level perf visibility without a profiler: per-experiment
    // wall clock plus the total, on stderr so stdout stays
    // byte-identical across runs and `--jobs` settings. Printed even
    // after a mid-suite error — the completed timings are still useful.
    let timing_table = |timings: &[(String, f64, SweepSnapshot)], total: f64| {
        eprintln!("timing ({} workers):", scale.jobs);
        for (id, secs, snap) in timings {
            let suffix = snapshot_summary(snap);
            let suffix = if suffix.is_empty() {
                String::new()
            } else {
                format!("  [{suffix}]")
            };
            eprintln!("  {id:<8} {secs:>8.1}s{suffix}");
        }
        eprintln!("  {:<8} {total:>8.1}s", "total");
    };
    for id in &experiments {
        let started = std::time::Instant::now();
        let t0_us = suite_started.elapsed().as_micros() as u64;
        // With --explain each experiment records into its own child so
        // its blame tables cover exactly this experiment's runs; the
        // child is absorbed back, so exports still see everything.
        let result = if explain {
            let mut erec = rec.child();
            let r = run_experiment_recorded(id, &scale, &mut erec);
            if r.is_ok() {
                match harvest_sim::obs::analyze::analyze_recorder(&erec) {
                    Ok(analysis) => {
                        eprintln!("[{id} blame]");
                        eprint!("{}", analysis.render());
                    }
                    Err(e) => eprintln!("[{id} blame unavailable: {e}]"),
                }
                // Sharing-engine classification: which fair-sharing tier
                // served this experiment's transfers. Only printed when
                // a transfer model ran (the counters exist).
                let cv = |name| erec.counter_value(name).unwrap_or(0);
                let net_analytic = cv("net/analytic_events");
                let disk_analytic = cv("disk/analytic_events");
                if erec.counter_value("net/analytic_components").is_some()
                    || erec.counter_value("disk/analytic_channels").is_some()
                {
                    eprintln!(
                        "[{id} sharing: {} fabric components promoted to the analytic \
                         tier ({} completions served in O(log n), {} migrated back to \
                         progressive filling); {} disk channel engines ({} analytic \
                         completions)]",
                        cv("net/analytic_components"),
                        net_analytic,
                        cv("net/fallback_migrations"),
                        cv("disk/analytic_channels"),
                        disk_analytic,
                    );
                }
            }
            rec.absorb(erec);
            r
        } else {
            run_experiment_recorded(id, &scale, &mut rec)
        };
        match result {
            Ok(report) => {
                println!("{report}");
                let secs = started.elapsed().as_secs_f64();
                rec.wall_span(
                    "harness",
                    id,
                    t0_us,
                    suite_started.elapsed().as_micros() as u64,
                );
                // Drain this experiment's sweep outcomes so the next
                // experiment's snapshot starts clean.
                let snap = scale.harness.stats.take();
                if snap.any() {
                    eprintln!("[{id} harness: {}]", snapshot_summary(&snap));
                }
                if rec.is_on() {
                    for (name, v) in [
                        ("harness/restored", snap.restored),
                        ("harness/journaled", snap.journaled),
                        ("harness/retries", snap.retries),
                        ("harness/quarantined", snap.quarantined),
                        ("harness/stragglers", snap.stragglers),
                        ("harness/cancelled", snap.cancelled),
                    ] {
                        if v > 0 {
                            let c = rec.counter(name);
                            rec.add(c, v);
                        }
                    }
                }
                // Live progress for long suites; the table recaps.
                eprintln!("[{id} took {secs:.1}s]");
                timings.push((id.clone(), secs, snap));
            }
            Err(e) => {
                eprintln!("error: {e}");
                timing_table(&timings, suite_started.elapsed().as_secs_f64());
                return ExitCode::FAILURE;
            }
        }
    }
    timing_table(&timings, suite_started.elapsed().as_secs_f64());
    // Seal the journal: the final fsync and any latched write error.
    if let Some(cp) = &checkpoint {
        if let Err(e) = cp.flush() {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Exports last, after the timing table: on stderr either way, and
    // a write failure fails the run.
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, rec.chrome_trace_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[trace written to {path}]");
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, rec.metrics_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[metrics written to {path}]");
    }
    ExitCode::SUCCESS
}
