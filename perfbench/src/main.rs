//! End-to-end benchmark of the harvest simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload on one worker thread, in rounds for `--seconds`
//! seconds: each round builds the inputs from the seed (set-up) and
//! simulates once, and every result and digest is checked. The last
//! line of stdout is one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which adds one recorded run and writes its Chrome
//! trace and metrics report under `perfbench/out/`). See `README.md`.

mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use harvest_sim::obs::Recorder;

use crate::layers::PER_LAYER;
use crate::workloads::{setup, simulate, Call, Inputs, Outcome, Workload};

/// The default workload seed. Seed 1009 is held out: no change is
/// tuned against it, and a claimed gain must hold on it too.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per measurement round: repeated until they have taken this
/// long, so a short set-up is still measured over enough work to read
/// steadily.
const SETUP_ROUND_SECONDS: f64 = 0.5;
/// Timed rounds per run, at least.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload reimage-storm|shuffle-dc9 \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be in 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The repository the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// The checked-out git commit, read from `.git` directly; `none` in a
/// checkout without git metadata.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and contents of the simulator's sources
/// (`*.rs` and `*.toml` under `crates/`, `src/`, `vendor/`, plus the
/// root manifest and lock file): identifies the code measured even
/// where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["crates", "src", "vendor"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain([0u8].iter()).chain(&body) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Provenance fields printed by every run and written into the traced
/// run's metrics report.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let root = repo_root();
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("params", args.workload.params()),
        ("workers", "1".to_string()),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_revision", git_revision(&root)),
        ("source_digest", source_digest(&root)),
    ]
}

/// Tally of every simulation call a run makes.
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
}

impl Tally {
    fn new(workload: Workload) -> Self {
        Tally {
            workload,
            attempted: 0,
            failed: 0,
            digests: Vec::new(),
        }
    }

    /// Runs one simulation call, counting it and its failures; returns
    /// the outcome and the call's host seconds.
    fn call(&mut self, inputs: &Inputs, rec: &mut Recorder) -> (Outcome, f64) {
        let (out, call) = Call::time("simulate", || simulate(self.workload, inputs, rec));
        self.attempted += 1;
        if !out.failures.is_empty() {
            self.failed += 1;
            for f in &out.failures {
                println!("FAILED: {f}");
            }
        }
        self.digests.push(out.digest);
        (out, call.secs)
    }

    /// Whether every call succeeded with one and the same digest.
    fn correct(&self) -> bool {
        self.failed == 0
            && !self.digests.is_empty()
            && self.digests.iter().all(|&d| d == self.digests[0])
    }
}

/// `min/median/max` of a sample, for the human-readable lines.
fn summary(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    format!(
        "{} reps, median {:.4} s (min {min:.4}, max {max:.4})",
        xs.len(),
        median(xs)
    )
}

/// What the measurement rounds of one run found.
struct Measured {
    /// The inputs of the last round.
    inputs: Inputs,
    /// Median seconds of one simulation call.
    wall_s: f64,
    /// Median seconds of one set-up.
    setup_s: f64,
    /// Median seconds of each set-up phase, in call order.
    phases: Vec<(&'static str, f64)>,
}

/// Per-phase set-up samples, in call order.
type PhaseSamples = Vec<(&'static str, Vec<f64>)>;

/// One measurement round: builds the inputs, repeatedly for at least
/// [`SETUP_ROUND_SECONDS`], then makes one untraced simulation call on
/// the last build. Returns the set-up seconds, the call's outcome and
/// its seconds.
fn round(
    w: Workload,
    seed: u64,
    tally: &mut Tally,
    inputs: &mut Option<Inputs>,
    phases: &mut PhaseSamples,
) -> (Vec<f64>, Outcome, f64) {
    let mut setups = Vec::new();
    while setups.iter().sum::<f64>() < SETUP_ROUND_SECONDS {
        drop(inputs.take());
        let (s, call) = Call::time("setup", || setup(w, seed));
        setups.push(call.secs);
        for (i, phase) in s.phases.iter().enumerate() {
            if phases.len() <= i {
                phases.push((phase.name, Vec::new()));
            }
            phases[i].1.push(phase.secs);
        }
        *inputs = Some(s.inputs);
    }
    let built = inputs.as_ref().expect("a set-up ran");
    let (out, secs) = tally.call(built, &mut Recorder::off());
    (setups, out, secs)
}

/// One untimed warm-up round, then timed rounds for `seconds` (at least
/// [`MIN_ROUNDS`]). Interleaving set-up and simulation spreads the
/// samples of both metrics over the whole run, so a slow spell of the
/// host weighs on them alike instead of on whichever ran during it.
fn measure(w: Workload, seed: u64, tally: &mut Tally, seconds: f64) -> Measured {
    let mut inputs = None;
    let mut phases = PhaseSamples::new();
    // The warm-up round pages in the code and lets the allocator
    // settle; its timings are not kept.
    let (warm_setups, out, warm) = round(w, seed, tally, &mut inputs, &mut phases);
    println!(
        "warm-up: setup {:.4} s, simulate {warm:.4} s",
        warm_setups[0]
    );
    let counts: Vec<String> = out.layers.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counts: {}", counts.join(" "));
    phases.clear();

    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let (s, _, secs) = round(w, seed, tally, &mut inputs, &mut phases);
        setups.extend(s);
        walls.push(secs);
    }
    println!("setup: {}", summary(&setups));
    println!("simulate: {}", summary(&walls));
    Measured {
        inputs: inputs.expect("a set-up ran"),
        wall_s: median(&walls),
        setup_s: median(&setups),
        phases: phases
            .into_iter()
            .map(|(name, v)| (name, median(&v)))
            .collect(),
    }
}

fn json_metrics(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("{k}: {v}");
    }
    let mut tally = Tally::new(args.workload);

    let line = if !args.trace {
        let m = measure(args.workload, args.seed, &mut tally, args.seconds);
        let values = [m.wall_s, m.setup_s, peak_rss_mb()];
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        json_metrics(&tally, &metrics)
    } else {
        let m = measure(args.workload, args.seed, &mut tally, args.seconds / 2.0);
        let traced = layers::traced_run(
            args.workload,
            args.seed,
            &m.inputs,
            m.wall_s,
            &m.phases,
            &mut tally,
        )
        .and_then(|t| layers::write_outputs(args.workload, &prov, &t).map(|()| t));
        let traced = match traced {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (k, v) in &traced.layers {
            println!("layer {k} = {v}");
        }
        let metrics: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, traced.layers.get(n).copied().unwrap_or(0.0)))
            .collect();
        json_metrics(&tally, &metrics)
    };
    let distinct: std::collections::BTreeSet<u64> = tally.digests.iter().copied().collect();
    println!(
        "digest: {} ({} calls, {} distinct)",
        tally
            .digests
            .first()
            .map_or("none".to_string(), |d| format!("{d:016x}")),
        tally.digests.len(),
        distinct.len()
    );
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! Coverage guards: each workload keeps stressing the layers
    //! `BENCHMARK.json` says it does. They read only modelled
    //! quantities, which are the same in every fair-sharing tier.

    use super::*;
    use crate::workloads::Layers;

    /// The seed no change is tuned against; see `README.md`.
    const HELD_OUT_SEED: u64 = 1009;

    /// One untraced and one traced call, as a `--trace 1` run makes.
    fn traced(w: Workload, seed: u64) -> (Layers, Tally) {
        let s = setup(w, seed);
        let phases: Vec<(&'static str, f64)> = s.phases.iter().map(|c| (c.name, c.secs)).collect();
        let mut tally = Tally::new(w);
        let (_, wall) = tally.call(&s.inputs, &mut Recorder::off());
        let t = layers::traced_run(w, seed, &s.inputs, wall, &phases, &mut tally)
            .expect("the traced run completes");
        // A misspelt key would silently report 0 under its real name.
        for k in t.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == k) || *k == "disk.stale_events",
                "{k} is not a per-layer metric"
            );
        }
        (t.layers, tally)
    }

    /// A layer value; metrics a workload never sets read 0.
    fn at(l: &Layers, k: &str) -> f64 {
        l.get(k).copied().unwrap_or(0.0)
    }

    #[test]
    fn storm_stresses_placement_repair_and_transfers_but_not_the_scheduler() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let (l, tally) = traced(Workload::ReimageStorm, seed);
            assert!(
                tally.correct(),
                "seed {seed}: a call failed or digests differ"
            );
            assert_eq!(at(&l, "sched.ticks"), 0.0);
            assert!(
                at(&l, "dfs.placement.placed") > 1e6,
                "{}",
                at(&l, "dfs.placement.placed")
            );
            assert!(
                at(&l, "dfs.repair.repairs") > 1e5,
                "{}",
                at(&l, "dfs.repair.repairs")
            );
            // The burst fills the repair-stream cap: 256 flows, each
            // with a read and a write stream.
            assert_eq!(at(&l, "net.peak_active"), 256.0);
            assert_eq!(at(&l, "disk.peak_active"), 512.0);
        }
    }

    #[test]
    fn shuffle_stresses_the_scheduler_and_places_no_blocks() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let (l, tally) = traced(Workload::ShuffleDc9, seed);
            assert!(
                tally.correct(),
                "seed {seed}: a call failed or digests differ"
            );
            assert_eq!(at(&l, "dfs.placement.placed"), 0.0);
            assert_eq!(at(&l, "dfs.repair.repairs"), 0.0);
            assert!(at(&l, "sched.ticks") > 1000.0, "{}", at(&l, "sched.ticks"));
            assert!(
                at(&l, "sched.tasks_started") > 1e5,
                "{}",
                at(&l, "sched.tasks_started")
            );
            assert!(at(&l, "jobs.jobs") > 500.0, "{}", at(&l, "jobs.jobs"));
            assert_eq!(at(&l, "sched.jobs_completed"), at(&l, "jobs.jobs"));
            assert!(at(&l, "net.flows") > 1e4, "{}", at(&l, "net.flows"));
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
