//! The traced run: one more simulation call through the recorded entry
//! points, wall spans around every public call, and the per-layer
//! metrics read from the results, the recorder, and the benchmark's own
//! timers.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use harvest_sim::obs::json::{self, Value};
use harvest_sim::obs::Recorder;

use crate::workloads::{redrive_fill, setup, Call, Inputs, Layers, Workload};
use crate::{repo_root, Tally};

/// Per-layer metrics, in `BENCHMARK.json` order. A metric a workload
/// does not exercise, or that its engine does not record, reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("trace.generate_s", "s"),
    ("trace.calibrate_s", "s"),
    ("cluster.view_s", "s"),
    ("jobs.workload_s", "s"),
    ("jobs.jobs", "count"),
    ("dfs.placement.fill_s", "s"),
    ("dfs.placement.placed", "count"),
    ("dfs.placement.failed", "count"),
    ("dfs.repair.repairs", "count"),
    ("dfs.repair.replicas_lost", "count"),
    ("dfs.repair.lost_blocks", "count"),
    ("dfs.repair.p50_s", "s"),
    ("dfs.repair.p99_s", "s"),
    ("dfs.repair.queued_frac", "ratio"),
    ("dfs.repair.net_frac", "ratio"),
    ("dfs.repair.disk_frac", "ratio"),
    ("net.flows", "count"),
    ("net.reshares", "count"),
    ("net.stale_events", "count"),
    ("net.stale_ratio", "ratio"),
    ("net.peak_active", "count"),
    ("net.analytic_events", "count"),
    ("net.fallback_migrations", "count"),
    ("disk.streams", "count"),
    ("disk.reshares", "count"),
    ("disk.stale_ratio", "ratio"),
    ("disk.peak_active", "count"),
    ("disk.parks", "count"),
    ("disk.analytic_events", "count"),
    ("sim.fairshare.events", "count"),
    ("sim.queue.peak_len", "count"),
    ("sim.queue.tombstone_ratio", "ratio"),
    ("sched.ticks", "count"),
    ("sched.tasks_started", "count"),
    ("sched.kills", "count"),
    ("sched.kill_ratio", "ratio"),
    ("sched.jobs_completed", "count"),
    ("sched.tick_occupied_p50", "count"),
    ("sched.stage_net_frac", "ratio"),
    ("harness.overhead_s", "s"),
    ("harness.retries", "count"),
    ("harness.quarantined", "count"),
    ("sim.host_us_per_event", "us"),
    ("sim.events", "count"),
    ("obs.tracing_overhead_s", "s"),
];

/// `num / den`, 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sim time per state of the named wait-state tracks, summed over the
/// Chrome trace's closed state intervals. The trace is read one event
/// (one line) at a time: the storm's holds millions of events, and
/// parsing it as one document took gigabytes.
fn state_time(trace: &str, tracks: &[&str]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut tids: HashMap<u64, String> = HashMap::new();
    let mut open: HashMap<(u64, String), (String, f64)> = HashMap::new();
    let mut time: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for line in trace.lines() {
        let line = line.trim_end_matches(',');
        if !["{\"ph\":\"M\"", "{\"ph\":\"b\"", "{\"ph\":\"e\""]
            .iter()
            .any(|p| line.starts_with(p))
        {
            continue;
        }
        let Ok(ev) = json::parse(line) else { continue };
        let field = |k: &str| ev.get(k);
        let num = |k: &str| field(k).and_then(Value::as_f64).unwrap_or(-1.0);
        let text = |k: &str| field(k).and_then(Value::as_str).unwrap_or("").to_string();
        if num("pid") != 1.0 {
            continue;
        }
        let tid = num("tid") as u64;
        match text("ph").as_str() {
            "M" => {
                let name = field("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str);
                if let Some(track) = name.filter(|n| tracks.contains(n)) {
                    tids.insert(tid, track.to_string());
                }
            }
            "b" if tids.contains_key(&tid) => {
                open.insert((tid, text("id")), (text("name"), num("ts")));
            }
            "e" => {
                if let Some((state, start)) = open.remove(&(tid, text("id"))) {
                    let track = time.entry(tids[&tid].clone()).or_default();
                    *track.entry(state).or_default() += num("ts") - start;
                }
            }
            _ => {}
        }
    }
    time
}

/// Share of a wait-state track's summed time spent in `states`.
fn state_frac(track: Option<&BTreeMap<String, f64>>, states: &[&str]) -> f64 {
    let Some(t) = track else { return 0.0 };
    let total = t.values().fold(0.0, |a, b| a + b);
    let part = states
        .iter()
        .filter_map(|s| t.get(*s))
        .fold(0.0, |a, b| a + b);
    ratio(part, total)
}

/// A numeric field of a named entry in one section of the recorder's
/// metrics report (`gauges`/`histograms`), 0 when absent.
fn report_field(report: &Value, section: &str, name: &str, field: &str) -> f64 {
    report
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Wall spans on one track, in µs since the run's epoch; Chrome-trace
/// viewers nest them by containment, so the workload span parents the
/// set-up, simulation and fill spans, which parent their calls.
struct Spans {
    epoch: Instant,
}

impl Spans {
    const TRACK: &'static str = "perfbench";

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn call(&self, rec: &mut Recorder, c: &Call) {
        let start = self.us(c.start);
        rec.wall_span(Self::TRACK, c.name, start, start + (c.secs * 1e6) as u64);
    }

    fn between(&self, rec: &mut Recorder, label: &str, start: Instant, end: Instant) {
        rec.wall_span(Self::TRACK, label, self.us(start), self.us(end));
    }
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// What the traced run produced.
pub struct Traced {
    pub layers: Layers,
    /// Chrome Trace Event JSON: the engines' sim-time tracks plus the
    /// benchmark's wall spans.
    pub trace: String,
    /// The recorder's metrics report.
    pub report: String,
}

/// Runs the traced set-up, simulation call and fill re-drive and
/// returns the per-layer values with the recording. `untraced_wall_s`
/// is the untraced median of the same call; `setup_phases` holds the
/// untraced set-up medians per phase.
pub fn traced_run(
    w: Workload,
    seed: u64,
    inputs: &Inputs,
    untraced_wall_s: f64,
    setup_phases: &[(&'static str, f64)],
    tally: &mut Tally,
) -> Result<Traced, String> {
    let spans = Spans {
        epoch: Instant::now(),
    };
    let mut rec = Recorder::new(&format!("perfbench {}", w.name()));
    let run_start = Instant::now();

    // Set-up once more, for its spans.
    let setup_start = Instant::now();
    let traced_setup = setup(w, seed);
    spans.between(&mut rec, "setup", setup_start, Instant::now());
    for c in &traced_setup.phases {
        spans.call(&mut rec, c);
    }
    drop(traced_setup);

    // The traced simulation call.
    let sim_start = Instant::now();
    let (out, traced_s) = tally.call(inputs, &mut rec);
    spans.between(&mut rec, "par_map_supervised", sim_start, Instant::now());
    if let Some(c) = &out.task {
        spans.call(&mut rec, c);
    }

    // The fill, re-driven through the placement layer.
    let fill = redrive_fill(inputs);
    if let Some(f) = &fill {
        spans.call(&mut rec, &f.call);
        if f.placed != out.blocks {
            tally.failed += 1;
            println!(
                "FAILED: fill re-drive placed {} blocks, the storm created {}",
                f.placed, out.blocks
            );
        }
    }
    spans.between(&mut rec, w.name(), run_start, Instant::now());

    // Per-layer values: result structs first, then the recorder.
    let mut l = out.layers.clone();
    for &(name, secs) in setup_phases {
        l.insert(name, secs);
    }
    if let Some(f) = &fill {
        l.insert("dfs.placement.fill_s", f.call.secs);
        l.insert("dfs.placement.placed", f.placed as f64);
        l.insert("dfs.placement.failed", f.failed as f64);
    }
    if let Inputs::Shuffle { jobs, .. } = inputs {
        l.insert("jobs.jobs", jobs.n_jobs() as f64);
    }
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    // Stale completion events over all completion events.
    for (metric, stale, done) in [
        ("net.stale_ratio", "net.stale_events", "net.flows"),
        ("disk.stale_ratio", "disk.stale_events", "disk.streams"),
    ] {
        let stale = get(&l, stale);
        l.insert(metric, ratio(stale, stale + get(&l, done)));
    }
    l.insert(
        "sched.kill_ratio",
        ratio(get(&l, "sched.kills"), get(&l, "sched.tasks_started")),
    );
    l.insert(
        "disk.parks",
        rec.counter_value("disk/parks").unwrap_or(0) as f64,
    );

    let report_text = rec.metrics_json();
    let report = json::parse(&report_text).map_err(|e| format!("metrics report: {e}"))?;
    l.insert(
        "dfs.repair.p50_s",
        report_field(&report, "histograms", "dfs/repair_secs", "p50"),
    );
    l.insert(
        "dfs.repair.p99_s",
        report_field(&report, "histograms", "dfs/repair_secs", "p99"),
    );
    l.insert(
        "sched.ticks",
        report_field(
            &report,
            "histograms",
            "sched/tick_occupied_servers",
            "count",
        ),
    );
    l.insert(
        "sched.tick_occupied_p50",
        report_field(&report, "histograms", "sched/tick_occupied_servers", "p50"),
    );
    let gauge_max = |name: &str| report_field(&report, "gauges", name, "max");
    let tombstones = gauge_max("fabric/queue_tombstones").max(gauge_max("disk/queue_tombstones"));
    let queue = gauge_max("fabric/queue_len").max(gauge_max("disk/queue_len"));
    l.insert("sim.queue.tombstone_ratio", ratio(tombstones, queue));

    let trace = rec.chrome_trace_json();
    let states = state_time(&trace, &["dfs/repair", "sched/stage"]);
    let repair = states.get("dfs/repair");
    l.insert("dfs.repair.queued_frac", state_frac(repair, &["queued"]));
    l.insert(
        "dfs.repair.net_frac",
        state_frac(repair, &["blocked_on_net"]),
    );
    l.insert(
        "dfs.repair.disk_frac",
        state_frac(repair, &["blocked_on_disk_read", "blocked_on_disk_write"]),
    );
    l.insert(
        "sched.stage_net_frac",
        state_frac(states.get("sched/stage"), &["blocked_on_net"]),
    );

    // Modelled operations: placements, repairs, transfers, ticks, tasks.
    let events: f64 = [
        "dfs.placement.placed",
        "dfs.repair.repairs",
        "net.flows",
        "disk.streams",
        "sched.ticks",
        "sched.tasks_started",
    ]
    .iter()
    .map(|k| get(&l, k))
    .sum();
    l.insert("sim.events", events);
    l.insert(
        "sim.host_us_per_event",
        ratio(untraced_wall_s * 1e6, events),
    );
    l.insert("obs.tracing_overhead_s", traced_s - untraced_wall_s);

    Ok(Traced {
        layers: l,
        trace,
        report: report_text,
    })
}

/// Writes `<workload>.trace.json` (Chrome trace) and
/// `<workload>.metrics.json` (provenance, layer values, recorder
/// report) under `perfbench/out/`, replacing the previous run's.
pub fn write_outputs(
    w: Workload,
    prov: &[(&'static str, String)],
    traced: &Traced,
) -> Result<(), String> {
    let dir = repo_root().join("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = w.name();
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("    {}: {}", jstr(k), jstr(v)))
        .collect();
    let layer_json: Vec<String> = traced
        .layers
        .iter()
        .map(|(k, v)| {
            format!(
                "    {}: {:?}",
                jstr(k),
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    let metrics = format!(
        "{{\n  \"provenance\": {{\n{}\n  }},\n  \"layers\": {{\n{}\n  }},\n  \"recorder\": {}}}\n",
        prov_json.join(",\n"),
        layer_json.join(",\n"),
        traced.report.trim_end()
    );
    for (ext, body) in [
        ("trace.json", traced.trace.as_str()),
        ("metrics.json", &metrics),
    ] {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
