//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [FLAG...] [EXPERIMENT...]
//! repro analyze TRACE.json
//! ```
//!
//! `EXPERIMENT` is `fig1`..`fig8`, `fig10`..`fig16`, `micro`, or `all`
//! (the default). `repro --help` lists every flag with what it does;
//! the parser, the usage line and that list are all generated from one
//! table, [`FLAGS`].
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
//! a hard error, and so is resuming under other settings than the ones
//! that wrote the journal.
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
use std::str::FromStr;
use std::sync::Arc;

use harvest_core::{run_experiment, Checkpoint, Scale, SweepSnapshot, ALL_EXPERIMENTS};
use harvest_sim::fault::FaultProfile;
use harvest_sim::obs::Recorder;

/// Everything the flags set. Flags only record here; the scale is built
/// after parsing, so flag order never matters (`--seed 7 --full` keeps
/// seed 7).
#[derive(Default)]
struct Opts {
    help: bool,
    full: bool,
    net: bool,
    disk: bool,
    faults: Option<FaultProfile>,
    jobs: Option<usize>,
    seed: Option<u64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
    task_deadline: Option<u64>,
    explain: bool,
}

/// Sets a flag's value (`None` when the command line ends first) or,
/// when it is missing or bad, returns what a good one is.
type Setter = fn(&mut Opts, Option<&str>) -> Result<(), String>;

/// What a flag takes.
enum Arg {
    /// Nothing: the flag turns the returned field on.
    Switch(fn(&mut Opts) -> &mut bool),
    /// One value, shown as the placeholder.
    Value(&'static str, Setter),
}
use Arg::{Switch, Value};

/// One flag: its name (alternatives separated by ` | `), what it takes,
/// and its `--help` text.
struct Flag {
    name: &'static str,
    arg: Arg,
    help: &'static str,
}

/// `v` parsed and accepted by `ok`, or `what` a good value is.
fn need<T: FromStr>(v: Option<&str>, ok: fn(&T) -> bool, what: &str) -> Result<Option<T>, String> {
    let v = v.and_then(|v| v.parse().ok()).filter(ok);
    v.map(Some).ok_or_else(|| what.to_string())
}

/// A file path, or what one is. A value spelled like a flag is
/// refused, so a forgotten path cannot swallow the next flag.
fn file(v: Option<&str>) -> Result<Option<String>, String> {
    match v {
        Some(path) if !path.starts_with("--") => Ok(Some(path.to_string())),
        _ => Err(format!(
            "a file path{}",
            v.map(|v| format!(", not '{v}'")).unwrap_or_default()
        )),
    }
}

/// Every flag `repro` accepts, in `--help` order.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--full",
        arg: Switch(|o| &mut o.full),
        help: "bigger clusters, longer horizons, the paper's five runs per data point",
    },
    Flag {
        name: "--net",
        arg: Switch(|o| &mut o.net),
        help: "run over the harvest-net fabric: repairs, reads and shuffles pay for bandwidth",
    },
    Flag {
        name: "--disk",
        arg: Switch(|o| &mut o.disk),
        help: "run over the harvest-disk model: the same bytes pay for disk bandwidth too",
    },
    Flag {
        name: "--faults",
        arg: Value("PROFILE", |o, v| {
            o.faults = v.and_then(FaultProfile::parse);
            let names = FaultProfile::ALL.map(FaultProfile::name).join(" ");
            let got = v.map(|v| format!(", not '{v}'")).unwrap_or_default();
            o.faults
                .map(|_| ())
                .ok_or(format!("a profile name ({names}){got}"))
        }),
        help: "arm a fault plan (rack-loss, link-flap, disk-rot or correlated-storm) in \
               fig15 and fig16; without it reports are as if faults did not exist",
    },
    Flag {
        name: "--jobs",
        arg: Value("N", |o, v| {
            need(v, |&n| n >= 1, "an integer >= 1").map(|n| o.jobs = n)
        }),
        help: "sweep worker threads (default: all cores); reports are identical for any N",
    },
    Flag {
        name: "--seed",
        arg: Value("N", |o, v| {
            need(v, |_| true, "an integer").map(|n| o.seed = n)
        }),
        help: "master seed (default 42)",
    },
    Flag {
        name: "--trace-out",
        arg: Value("FILE", |o, v| file(v).map(|p| o.trace_out = p)),
        help: "write a Chrome-trace/Perfetto JSON of the run (turns recording on; micro \
               then replays instrumented runs). Stdout is byte-identical either way",
    },
    Flag {
        name: "--metrics-out",
        arg: Value("FILE", |o, v| file(v).map(|p| o.metrics_out = p)),
        help: "write counters, gauges and latency quantiles as JSON (turns recording on)",
    },
    Flag {
        name: "--checkpoint",
        arg: Value("FILE", |o, v| file(v).map(|p| o.checkpoint = p)),
        help: "journal each finished sweep task, after the run's settings, to resume from",
    },
    Flag {
        name: "--resume",
        arg: Value("FILE", |o, v| file(v).map(|p| o.resume = p)),
        help: "restore the tasks of a journal written under the same settings and compute \
               the rest (stdout as if never killed); pair with --checkpoint FILE to go on",
    },
    Flag {
        name: "--task-deadline",
        arg: Value("SECS", |o, v| {
            let what = "an integer number of seconds >= 1";
            need(v, |&s| s >= 1, what).map(|s| o.task_deadline = s)
        }),
        help: "flag tasks running over SECS as stragglers and cancel them (default: \
               flag, never cancel, tasks 8x over the running median)",
    },
    Flag {
        name: "--explain",
        arg: Switch(|o| &mut o.explain),
        help: "print per-experiment blame tables (wait states, critical path) to stderr",
    },
    Flag {
        name: "-h | --help",
        arg: Switch(|o| &mut o.help),
        help: "print this help",
    },
];

/// Parses the arguments after the program name into options and
/// experiment names, stopping at `--help`. An unknown `--` flag or a
/// missing or bad value is a one-line error.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(Opts, Vec<String>), String> {
    let mut opts = Opts::default();
    let mut experiments = Vec::new();
    while let Some(arg) = args.next().filter(|_| !opts.help) {
        let Some(flag) = FLAGS.iter().find(|f| f.name.split(" | ").any(|n| n == arg)) else {
            if arg.starts_with("--") {
                return Err(format!("error: unknown flag '{arg}'"));
            }
            experiments.push(arg);
            continue;
        };
        match flag.arg {
            Switch(field) => *field(&mut opts) = true,
            Value(_, set) => set(&mut opts, args.next().as_deref())
                .map_err(|what| format!("{} requires {what}", flag.name))?,
        }
    }
    Ok((opts, experiments))
}

/// A flag as the usage line and `--help` spell it.
fn spelled(flag: &Flag) -> String {
    match flag.arg {
        Switch(_) => flag.name.to_string(),
        Value(placeholder, _) => format!("{} {placeholder}", flag.name),
    }
}

/// `words` filled into 78 columns, the first line starting and every
/// later one indented at column `indent`.
fn wrap<S: AsRef<str>>(words: impl IntoIterator<Item = S>, indent: usize) -> String {
    let (mut out, mut col) = (String::new(), indent);
    for word in words.into_iter().map(|w| w.as_ref().to_string()) {
        if col > indent && col + 1 + word.len() > 78 {
            out.push_str(&format!("\n{:indent$}", ""));
            col = indent;
        } else if col > indent {
            out.push(' ');
            col += 1;
        }
        out.push_str(&word);
        col += word.len();
    }
    out
}

/// The `--help` text, generated from [`FLAGS`].
fn help() -> String {
    let usage = FLAGS.iter().map(|f| format!("[{}]", spelled(f)));
    let mut text = format!(
        "usage: repro {}\n       repro analyze TRACE.json\nexperiments: {} all\n\n",
        wrap(usage.chain(["[EXPERIMENT...]".to_string()]), 13),
        ALL_EXPERIMENTS.join(" "),
    );
    for flag in FLAGS {
        let help = wrap(flag.help.split_whitespace(), 24);
        text.push_str(&format!("  {:<21} {help}\n", spelled(flag)));
    }
    let analyze = "turn an exported trace into per-track busy time, the critical path, \
                   and per-state blame tables with an exact conservation check";
    let analyze = wrap(analyze.split_whitespace(), 24);
    text.push_str(&format!("  {:<21} {analyze}\n", "analyze TRACE.json"));
    text
}

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
        (snap.stragglers, "stragglers"),
    ] {
        if n > 0 {
            parts.push(format!("{n} {what}"));
        }
    }
    // Cancelled tasks are stragglers too, so the stragglers part is last.
    if let (Some(stragglers), n @ 1..) = (parts.last_mut(), snap.cancelled) {
        stragglers.push_str(&format!(" ({n} cancelled)"));
    }
    parts.join(", ")
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// `repro analyze TRACE.json`, a pure post-processing mode: no
/// experiments run, the blame tables go to stdout.
fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("usage: repro analyze TRACE.json".to_string());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("error: cannot read {path}: {e}"))?;
    let analysis = harvest_sim::obs::analyze::analyze_trace_text(&text)
        .map_err(|e| format!("error: {path} is not an analyzable trace: {e}"))?;
    print!("{}", analysis.render());
    if !analysis.conserved() {
        eprintln!("warning: some entities failed the state-conservation check");
    }
    Ok(ExitCode::SUCCESS)
}

/// The whole run. An `Err` is a one-line message for stderr.
fn run() -> Result<ExitCode, String> {
    let (opts, mut experiments) = parse(std::env::args().skip(1))?;
    if opts.help {
        print!("{}", help());
        return Ok(ExitCode::SUCCESS);
    }
    if experiments.first().is_some_and(|e| e == "analyze") {
        return analyze(&experiments[1..]);
    }

    let mut scale = if opts.full {
        Scale::full()
    } else {
        Scale::quick()
    };
    if opts.net {
        scale.network = Some(harvest_net::NetworkConfig::datacenter());
    }
    if opts.disk {
        scale.disk = Some(harvest_disk::DiskConfig::datacenter());
    }
    scale.faults = opts.faults;
    scale.jobs = opts.jobs.unwrap_or(scale.jobs);
    scale.seed = opts.seed.unwrap_or(scale.seed);
    // Open the journal before any experiment runs: an unreadable or
    // corrupt resume file must fail fast, not after an hour of sweeps.
    let checkpoint = Checkpoint::open(opts.checkpoint.as_deref(), opts.resume.as_deref(), &scale)
        .map_err(|e| format!("error: {e}"))?
        .map(|(cp, torn, restored)| {
            if opts.resume.is_some() {
                let dropped = format!(", {torn} torn lines dropped");
                let torn = if torn > 0 { dropped.as_str() } else { "" };
                eprintln!("[resume: {restored} results restored{torn}]");
            }
            Arc::new(cp)
        });
    scale.harness.checkpoint = checkpoint.clone();
    scale.harness.deadline = opts.task_deadline.map(std::time::Duration::from_secs);
    let mut rec = if opts.trace_out.is_some() || opts.metrics_out.is_some() || opts.explain {
        Recorder::new("repro")
    } else {
        Recorder::off()
    };
    // Validate every experiment name before expanding "all" or running
    // anything: a typo anywhere in the list (including a mistyped flag,
    // which parses as a name) must not cost the hour of experiments
    // around it.
    let unknown: Vec<&String> = experiments
        .iter()
        .filter(|e| *e != "all" && !ALL_EXPERIMENTS.contains(&e.as_str()))
        .collect();
    if !unknown.is_empty() {
        let unknown: Vec<String> = unknown.iter().map(|e| format!("'{e}'")).collect();
        return Err(format!(
            "error: unknown experiment {} (valid experiments: {} all)",
            unknown.join(", "),
            ALL_EXPERIMENTS.join(" ")
        ));
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
        let t0_us = rec.wall_us(started);
        // With --explain each experiment records into its own child so
        // its blame tables cover exactly this experiment's runs; the
        // child is absorbed back, so exports still see everything.
        let result = if opts.explain {
            let mut erec = rec.child();
            let r = run_experiment(id, &scale, &mut erec);
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
            run_experiment(id, &scale, &mut rec)
        };
        match result {
            Ok(report) => {
                println!("{report}");
                let secs = started.elapsed().as_secs_f64();
                let t1_us = rec.wall_us(std::time::Instant::now());
                rec.wall_span("harness", id, t0_us, t1_us);
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
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    timing_table(&timings, suite_started.elapsed().as_secs_f64());
    // Seal the journal: the final fsync and any latched write error.
    if let Some(cp) = &checkpoint {
        cp.flush().map_err(|e| format!("error: {e}"))?;
    }
    // Exports last, after the timing table: on stderr either way, and
    // a write failure fails the run.
    if let Some(path) = opts.trace_out {
        std::fs::write(&path, rec.chrome_trace_json())
            .map_err(|e| format!("error: cannot write trace to {path}: {e}"))?;
        eprintln!("[trace written to {path}]");
    }
    if let Some(path) = opts.metrics_out {
        std::fs::write(&path, rec.metrics_json())
            .map_err(|e| format!("error: cannot write metrics to {path}: {e}"))?;
        eprintln!("[metrics written to {path}]");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_describes_every_flag() {
        let text = help();
        for flag in FLAGS.iter().map(spelled) {
            assert!(text.contains(&format!("[{flag}]")), "usage lacks {flag}");
            assert!(text.contains(&format!("\n  {flag} ")), "no help for {flag}");
        }
        for name in FaultProfile::ALL.map(FaultProfile::name) {
            assert!(text.contains(name), "help lacks profile {name}");
        }
    }
}
