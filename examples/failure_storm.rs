//! Replay the durability experiment under every named fault profile and
//! show the failure-handling machinery working: detection (heartbeat
//! timeouts turn crashes into repair work), bounded retry with
//! exponential backoff (fault-aborted repairs come back), and graceful
//! degradation (exhausted retry budgets become permanent loss).
//!
//! ```sh
//! cargo run --release --example failure_storm
//! ```
//!
//! The fault-free baseline runs first; each profile then reuses the
//! same datacenter and seed, so every difference in the table is the
//! injected faults. The correlated-storm run is recorded and its
//! `dfs/repair_retry` blame line printed — `failed`/`retrying` time
//! shows up as attributable wait states, and the analyzer's
//! conservation check (states tile each entity's lifetime) must pass on
//! the faulted trace.

use harvest::cluster::Datacenter;
use harvest::dfs::durability::{simulate_durability, DurabilityConfig};
use harvest::dfs::placement::PlacementPolicy;
use harvest::net::NetworkConfig;
use harvest::prelude::DatacenterProfile;
use harvest::sim::fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile};
use harvest::sim::obs::Recorder;
use harvest::sim::{SimDuration, SimTime};

fn main() {
    let seed = 42;
    let months = 6;
    let profile = DatacenterProfile::dc(9).scaled(0.03);
    let dc = Datacenter::generate(&profile, seed);
    let shape = dc.cluster_shape();
    let horizon = SimDuration::from_days(30 * months as u64);
    println!(
        "{}: {} servers in {} racks, Stock R=3, {months} months\n",
        dc.name,
        dc.n_servers(),
        dc.n_racks(),
    );

    let run = |faults: FaultPlan| {
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, seed);
        cfg.months = months;
        cfg.faults = faults;
        simulate_durability(&dc, &cfg, &mut Recorder::off())
    };

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "profile", "faults", "aborted", "retried", "gave up", "lost blks", "lost %"
    );
    let baseline = run(FaultPlan::none());
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8.3}",
        "(none)",
        baseline.faults_injected,
        baseline.repairs_aborted,
        baseline.fault_retries,
        baseline.retries_exhausted,
        baseline.lost_blocks,
        baseline.lost_percent,
    );
    for p in FaultProfile::ALL {
        let r = run(p.plan(seed, shape, horizon));
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8.3}",
            p.name(),
            r.faults_injected,
            r.repairs_aborted,
            r.fault_retries,
            r.retries_exhausted,
            r.lost_blocks,
            r.lost_percent,
        );
        assert!(r.faults_injected > 0, "{} never fired", p.name());
        // Correlated loss must cost blocks. Scattered single-disk
        // failures can come out slightly *ahead* of the baseline: each
        // one triggers immediate re-replication, which happens to move
        // replicas off servers a later reimage would have wiped — so no
        // blanket "faults always hurt" assertion here.
        if p == FaultProfile::RackLoss {
            assert!(
                r.lost_blocks > baseline.lost_blocks,
                "a rack power loss must cost blocks"
            );
        }
    }

    // Retries earn their keep. Without a transfer model repairs are
    // instant — there is never anything in flight for a fault to abort
    // (the "aborted" column above) — so this stage prices repairs over
    // a slow fabric that keeps a standing population of transfers in
    // flight, then lands a storm on them: rack 0 dies for good near
    // the end of the month, and mid-way through its repair storm two
    // more racks brown out for five minutes. The brown-outs are
    // shorter than the heartbeat window, so no re-replication is ever
    // queued for their aborted transfers — the backoff retry is the
    // only path that finishes those repairs, which is exactly what the
    // max_retries = 0 comparison measures.
    // A smaller cluster keeps the two priced month-long runs quick.
    let small = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.01), seed);
    let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, seed);
    cfg.months = 1;
    cfg.network = Some(NetworkConfig {
        nic_gbps: 0.1,
        oversubscription: 4.0,
        ..NetworkConfig::datacenter()
    });
    let h = SimTime::ZERO + SimDuration::from_days(28);
    let mut events = vec![FaultEvent {
        at: h + SimDuration::from_hours(1),
        kind: FaultKind::RackPowerLoss { rack: 0 },
    }];
    for rack in [1u32, 2] {
        events.push(FaultEvent {
            at: h + SimDuration::from_mins(90),
            kind: FaultKind::RackPowerLoss { rack },
        });
        events.push(FaultEvent {
            at: h + SimDuration::from_mins(95),
            kind: FaultKind::RackPowerRestore { rack },
        });
    }
    let plan = FaultPlan::with_events(events);
    let mut with_cfg = cfg.clone();
    with_cfg.faults = plan.clone();
    let mut without_cfg = cfg.clone();
    without_cfg.faults = plan;
    without_cfg.faults.max_retries = 0;
    let with_retries = simulate_durability(&small, &with_cfg, &mut Recorder::off());
    let without = simulate_durability(&small, &without_cfg, &mut Recorder::off());
    println!(
        "\nstaged storm on {} servers over a slow fabric \
         ({} transfers aborted mid-flight):",
        small.n_servers(),
        with_retries.repairs_aborted,
    );
    println!(
        "  with backoff retries:  {:>6} repairs finished, {:>4} blocks lost \
         ({} retried)",
        with_retries.repairs, with_retries.lost_blocks, with_retries.fault_retries,
    );
    println!(
        "  max_retries = 0:       {:>6} repairs finished, {:>4} blocks lost \
         ({} budgets exhausted)",
        without.repairs, without.lost_blocks, without.retries_exhausted,
    );
    assert!(
        with_retries.repairs_aborted > 0,
        "storm never aborted an in-flight repair"
    );
    assert!(
        with_retries.repairs > without.repairs,
        "backoff retries must finish repairs a zero budget abandons"
    );
    assert!(
        with_retries.lost_blocks <= without.lost_blocks,
        "retries must not lose more blocks than giving up"
    );

    // Record the correlated storm and ask the analyzer where repair
    // time went. Faulted traces must still conserve: every entity's
    // states — `failed` and `retrying` included — tile its lifetime.
    let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, seed);
    cfg.months = months;
    cfg.faults = FaultProfile::CorrelatedStorm.plan(seed, shape, horizon);
    let mut rec = Recorder::new("failure-storm");
    simulate_durability(&dc, &cfg, &mut rec);
    let analysis =
        harvest::sim::obs::analyze::analyze_recorder(&rec).expect("faulted trace analyzes");
    assert!(
        analysis.conserved(),
        "faulted trace failed the state-conservation check"
    );
    if let Some(s) = analysis
        .states
        .iter()
        .find(|s| s.name == "dfs/repair_retry")
    {
        println!("\ncorrelated-storm repair blame: {}", s.blame_line());
    }
    println!("(conservation check passed on the faulted trace)");
}
