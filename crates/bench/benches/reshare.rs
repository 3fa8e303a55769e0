//! Re-share scaling benches: storm-sized flow convoys on an *unscaled*
//! DC-9 topology, one row per fair-sharing path.
//!
//! * `analytic` — the rack-pair convoy: groups of 20 flows between a
//!   rack pair, the locality real repair storms and shuffle waves have,
//!   so each rack pair's flows form one component whose rack uplink is
//!   the single bottleneck. The classifier promotes every component to
//!   the O(log n) fair-work clock, so per-event cost stays near-flat as
//!   the convoy grows (200 → 1 000 000 flows). Its classifier traffic
//!   (`analytic_events`, `fallback_migrations`) is deterministic and
//!   pinned exactly.
//! * `component` — the clique convoy, a shape the classifier cannot
//!   promote: clusters of five racks where every rack sends one flow to
//!   each of the other four, from and to servers that carry no other
//!   flow. Every flow is bound by its own NIC (four flows leave a rack
//!   uplink spare), so no filling pass ever freezes a whole component
//!   in one iteration and every event is served by component filling,
//!   O(component) per event. Waves of at most one flow per NIC start
//!   200 ms apart.
//! * `global` — the `harvest-oracle` reference on the rack-pair
//!   convoy: progressive filling over every active flow on every
//!   event, recorded only where it terminates in reasonable time.
//!
//! Modes:
//! * default — measures everything and (re)writes `BENCH_reshare.json`
//!   at the workspace root with per-path wall clock and per-event cost;
//! * `RESHARE_SMOKE=1` — runs the 2 000- and 10 000-flow clique convoys
//!   and the 100 000-flow rack-pair convoy once each, asserting
//!   wall-clock ceilings sized far above the recorded baselines but far
//!   below the next-slower path, and the 100k convoy's exact classifier
//!   counts — so a regression that silently demotes the fast path
//!   fails the assert (and, belt-and-braces, CI's wrapping `timeout`).

use std::time::{Duration, Instant};

use harvest_cluster::ServerId;
use harvest_net::{Fabric, FabricStats, NetworkConfig, Topology};
use harvest_oracle::OracleFabric;
use harvest_sim::SimTime;
use harvest_trace::datacenter::DatacenterProfile;
use std::hint::black_box;

const MB: u64 = 1024 * 1024;
const RACK_SIZE: u32 = harvest_cluster::datacenter::RACK_SIZE;
const GROUP: u64 = 20;
/// Racks per clique-convoy cluster.
const CLIQUE: u32 = 5;
/// Start spacing of the clique convoy's waves.
const WAVE_MS: u64 = 200;

/// `(flows, analytic_events, fallback_migrations)` of the rack-pair convoy,
/// recorded when the classifier was introduced. Both are deterministic;
/// any change to what the classifier promotes or demotes moves them.
const PINS: [(u64, u64, u64); 4] = [
    (200, 262, 11),
    (2_000, 2_746, 102),
    (10_000, 15_678, 351),
    (100_000, 195_860, 345),
];

/// One convoy under measurement.
#[derive(Clone, Copy, PartialEq)]
enum Run {
    /// The rack-pair convoy on the product fabric.
    Analytic,
    /// The clique convoy on the product fabric.
    Component,
    /// The rack-pair convoy on the reference.
    Global,
}

/// `(start, src, dst)` of flow `i` of the rack-pair convoy.
fn rack_pair_flow(topo: &Topology, i: u64) -> (SimTime, ServerId, ServerId) {
    // Only full racks host convoy lanes (the trailing rack may be
    // partial and its missing servers would be out of range).
    let pairs = topo.n_servers() as u64 / RACK_SIZE as u64 / 2;
    let lane = (i % GROUP) as u32;
    let pair = ((i / GROUP) % pairs) as u32;
    let src = ServerId(2 * pair * RACK_SIZE + lane);
    let dst = ServerId((2 * pair + 1) * RACK_SIZE + lane);
    // Staggered within 97 ms so the whole convoy overlaps.
    (SimTime::from_millis(i % 97), src, dst)
}

/// `(start, src, dst)` of flow `i` of the clique convoy.
fn clique_flow(topo: &Topology, i: u64) -> (SimTime, ServerId, ServerId) {
    let clusters = topo.n_servers() as u64 / RACK_SIZE as u64 / CLIQUE as u64;
    let per_cluster = (CLIQUE * (CLIQUE - 1)) as u64;
    let per_wave = clusters * per_cluster;
    let (wave, j) = (i / per_wave, i % per_wave);
    let cluster = (j / per_cluster) as u32;
    let k = (j % per_cluster) as u32;
    // Ordered pair (a, a + d) within the cluster; rack a sends on lane
    // d - 1 and rack a + d receives on lane CLIQUE - 1 - d, so every
    // server's TX and RX carry at most one flow per wave.
    let (a, d) = (k / (CLIQUE - 1), k % (CLIQUE - 1) + 1);
    let b = (a + d) % CLIQUE;
    let rack = |r: u32| (cluster * CLIQUE + r) * RACK_SIZE;
    let src = ServerId(rack(a) + d - 1);
    let dst = ServerId(rack(b) + CLIQUE - 1 - d);
    // Waves never overlap: a 64 MiB flow at NIC speed takes ~54 ms.
    (SimTime::from_millis(wave * WAVE_MS + j % 97), src, dst)
}

/// Builds and fully drains one convoy of `n_flows`, returning the
/// product fabric's stats (`None` for the reference).
fn run_convoy(topo: &Topology, n_flows: u64, run: Run) -> Option<FabricStats> {
    let net = NetworkConfig::datacenter();
    let flow = |i| match run {
        Run::Component => clique_flow(topo, i),
        Run::Analytic | Run::Global => rack_pair_flow(topo, i),
    };
    if run == Run::Global {
        let mut oracle = OracleFabric::new(topo.clone(), &net);
        for i in 0..n_flows {
            let (at, src, dst) = flow(i);
            oracle.schedule_flow(at, src, dst, 64 * MB, i);
        }
        assert_eq!(oracle.drain().len() as u64, n_flows, "convoy lost flows");
        return None;
    }
    let mut fabric = Fabric::new(topo.clone(), &net);
    for i in 0..n_flows {
        let (at, src, dst) = flow(i);
        fabric.schedule_flow(at, src, dst, 64 * MB, i);
    }
    assert_eq!(fabric.drain().len() as u64, n_flows, "convoy lost flows");
    let stats = *fabric.stats();
    if run == Run::Analytic {
        assert!(
            stats.analytic_events > 0,
            "analytic tier never engaged on the rack-pair convoy"
        );
    } else {
        assert_eq!(
            stats.analytic_components, 0,
            "the classifier promoted part of the clique convoy"
        );
    }
    Some(stats)
}

/// Median wall-clock seconds over `iters` runs, and the last run's
/// stats.
fn measure(topo: &Topology, n_flows: u64, run: Run, iters: usize) -> (f64, Option<FabricStats>) {
    let mut samples: Vec<Duration> = Vec::with_capacity(iters);
    let mut stats = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        stats = black_box(run_convoy(topo, n_flows, run));
        samples.push(t0.elapsed());
    }
    samples.sort();
    (samples[samples.len() / 2].as_secs_f64(), stats)
}

/// Asserts the rack-pair convoy's classifier counts against [`PINS`].
fn check_pins(n: u64, stats: &FabricStats) {
    if let Some(&(_, events, migrations)) = PINS.iter().find(|p| p.0 == n) {
        assert_eq!(
            (stats.analytic_events, stats.fallback_migrations),
            (events, migrations),
            "{n}-flow rack-pair convoy: (analytic_events, fallback_migrations) moved — \
             the classifier now promotes or demotes differently"
        );
    }
}

fn main() {
    let profile = DatacenterProfile::dc(9);
    let n_servers = profile.expected_servers();
    let topo = Topology::synthetic(n_servers, &NetworkConfig::datacenter());
    println!(
        "reshare bench: unscaled {} topology, {} servers / {} racks / {} links",
        profile.name(),
        topo.n_servers(),
        topo.n_racks(),
        topo.n_links(),
    );

    if std::env::var_os("RESHARE_SMOKE").is_some() {
        // CI budget guards: ceilings keep the recorded headroom over
        // the baselines in BENCH_reshare.json (~20x at 2k, ~150x at
        // 10k) yet sit far below the quadratic global recompute, so an
        // assert firing means component filling has regressed toward
        // the path it was built to replace.
        for (n, baseline, ceiling) in [(2_000u64, 0.026, 0.5), (10_000, 0.20, 30.0)] {
            let (secs, _) = measure(&topo, n, Run::Component, 1);
            println!("bench reshare/convoy_{n}_component           {secs:>10.3}s (smoke)");
            assert!(
                secs < ceiling,
                "{n}-flow clique convoy took {secs:.2}s against a {ceiling}s budget — \
                 component filling has regressed toward the global recompute \
                 (baseline ~{baseline}s)"
            );
        }
        // The million-flow regime in miniature: the 100k rack-pair
        // convoy must stay on the fast path (exact classifier counts)
        // and under an absolute ceiling.
        let (analytic, stats) = measure(&topo, 100_000, Run::Analytic, 1);
        println!("bench reshare/convoy_100000_analytic           {analytic:>10.3}s (smoke)");
        check_pins(100_000, &stats.expect("product run"));
        assert!(
            analytic < 30.0,
            "100k-flow analytic convoy took {analytic:.2}s against a 30s budget — \
             the fast path has regressed"
        );
        return;
    }

    let mut json_rows: Vec<String> = Vec::new();
    for &n in &[200u64, 2_000, 10_000, 100_000, 1_000_000] {
        // The analytic tier runs everywhere — its per-event cost is the
        // point of the recording and must stay near-flat to a million
        // flows.
        let ana_iters = if n >= 100_000 { 1 } else { 3 };
        let (ana, stats) = measure(&topo, n, Run::Analytic, ana_iters);
        let stats = stats.expect("product run");
        check_pins(n, &stats);
        let per_event_us = ana / n as f64 * 1e6;
        println!(
            "bench reshare/convoy_{n}_analytic           {ana:>10.4}s median of {ana_iters}  \
             ({per_event_us:.2} us/event, {} analytic events, {} migrations)",
            stats.analytic_events, stats.fallback_migrations,
        );
        // Component filling is O(component) per event: feasible to
        // 100k, pointless to wait for at 1M.
        let comp = (n <= 100_000).then(|| {
            let iters = if n >= 10_000 { 1 } else { 5 };
            let (c, _) = measure(&topo, n, Run::Component, iters);
            println!("bench reshare/convoy_{n}_component           {c:>10.4}s median of {iters}");
            c
        });
        // The reference recomputes every flow on every event; past 2k
        // flows it is far into the quadratic regime.
        let glob = (n <= 2_000).then(|| {
            let iters = if n <= 200 { 5 } else { 1 };
            let (g, _) = measure(&topo, n, Run::Global, iters);
            println!("bench reshare/convoy_{n}_global              {g:>10.4}s median of {iters}");
            g
        });
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.6}"),
            None => "null".into(),
        };
        json_rows.push(format!(
            "    \"convoy_{n}\": {{ \"analytic_secs\": {ana:.6}, \
             \"analytic_per_event_us\": {per_event_us:.3}, \
             \"analytic_events\": {}, \"fallback_migrations\": {}, \
             \"component_secs\": {}, \"global_secs\": {}, \
             \"analytic_speedup_vs_global\": {} }}",
            stats.analytic_events,
            stats.fallback_migrations,
            fmt_opt(comp),
            fmt_opt(glob),
            glob.map_or("null".into(), |g| format!("{:.2}", g / ana)),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"reshare\",\n  \"cores\": {},\n  \"topology\": {{ \"profile\": \"{}\", \"servers\": {}, \"racks\": {}, \"links\": {} }},\n  \"workload\": \"64 MiB flows; analytic and global: rack-pair convoy, {}-flow groups, starts staggered over 97 ms; component: clique convoy, {}-rack clusters, every flow NIC-bound, waves {} ms apart\",\n  \"paths\": \"analytic = product fabric on the rack-pair convoy (classifier promotes every component), component = product fabric on the clique convoy (classifier promotes nothing), global = harvest-oracle progressive filling over every flow on every event\",\n  \"convoys\": {{\n{}\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile.name(),
        topo.n_servers(),
        topo.n_racks(),
        topo.n_links(),
        GROUP,
        CLIQUE,
        WAVE_MS,
        json_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reshare.json");
    std::fs::write(path, &json).expect("write BENCH_reshare.json");
    println!("wrote {path}");
}
