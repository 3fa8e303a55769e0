//! Reimage a whole tenant and replay the recovery under three transfer
//! models — free-instant (fabric off), network-priced (`--net`), and
//! network-plus-disk (`--net --disk`): time-to-full-durability is set by
//! whichever is scarcest — the name node's repair throttle, cross-rack
//! bandwidth, or destination-disk write bandwidth.
//!
//! ```sh
//! cargo run --release --example replication_storm
//! ```

use harvest::cluster::Datacenter;
use harvest::dfs::repair::{simulate_reimage_storm_recorded, StormConfig};
use harvest::disk::DiskConfig;
use harvest::net::NetworkConfig;
use harvest::prelude::DatacenterProfile;
use harvest::sim::obs::{json, Recorder};
use harvest::sim::SimTime;

/// Reads one counter out of a parsed metrics report.
fn counter(report: &json::Value, name: &str) -> u64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as u64
}

fn main() {
    let seed = 42;
    let profile = DatacenterProfile::dc(9).scaled(0.03);
    let dc = Datacenter::generate(&profile, seed);
    let tenant = dc
        .tenants
        .iter()
        .max_by_key(|t| t.n_servers())
        .expect("datacenter has tenants");
    println!(
        "{}: {} servers in {} racks; reimaging tenant '{}' ({} servers) at t=0\n",
        dc.name,
        dc.n_servers(),
        dc.n_racks(),
        tenant.name,
        tenant.n_servers(),
    );

    // Two repair regimes: the paper's steady 30 blocks/hour/server
    // throttle (which hides the transfer models), and the §7 lesson-2
    // failure mode — an effectively unthrottled synchronous storm,
    // bounded only by HDFS's max-streams backpressure, where cross-rack
    // bandwidth and destination disks set the recovery time.
    for (regime, blocks_per_hour, streams) in [
        ("default throttle (30 blocks/h/server)", 30.0, None),
        (
            "unthrottled storm, 64 repair streams",
            1_000_000.0,
            Some(64),
        ),
    ] {
        println!("{regime}:");
        let mut base = StormConfig::new(tenant.id, seed);
        base.fill_fraction = 0.4;
        base.repair.blocks_per_server_per_hour = blocks_per_hour;
        base.max_repair_streams = streams;
        let mut recovered: Vec<SimTime> = Vec::new();
        let mut net_analytic_events: Vec<u64> = Vec::new();
        for (label, network, disk) in [
            ("fabric off  ", None, None),
            ("--net       ", Some(NetworkConfig::datacenter()), None),
            (
                "--net --disk",
                Some(NetworkConfig::datacenter()),
                Some(DiskConfig::datacenter()),
            ),
        ] {
            let mut cfg = base.clone();
            cfg.network = network;
            cfg.disk = disk;
            // Record the run and read every fingerprint back out of the
            // machine-readable metrics report — the same JSON
            // `repro --metrics-out` writes — rather than the in-memory
            // stats structs, demonstrating the report round-trip.
            let mut rec = Recorder::new("replication-storm");
            let r = simulate_reimage_storm_recorded(&dc, &cfg, &mut rec);
            let report = json::parse(&rec.metrics_json()).expect("metrics report parses");
            println!(
                "  {label}  {:>7} replicas lost, {:>7} repairs, full durability at {} \
                 (mean transfer {:.2}s)",
                counter(&report, "dfs/replicas_lost"),
                counter(&report, "dfs/repairs"),
                r.recovered_at,
                r.mean_transfer_secs,
            );
            // Storm churn, for tuning max_repair_streams: how hard the
            // fair-sharing engines worked and how concurrent the storm
            // actually ran.
            if r.fabric.is_some() {
                println!(
                    "                fabric: {} reshares, peak {} active flows, \
                     {} stale events dropped, peak heap {}",
                    counter(&report, "fabric/reshares"),
                    counter(&report, "fabric/peak_active"),
                    counter(&report, "fabric/stale_events_dropped"),
                    counter(&report, "fabric/peak_queue_len"),
                );
                // Which fair-sharing tier actually served the run: the
                // classifier promotes single-bottleneck components to
                // the analytic O(log n) engine and leaves the rest on
                // progressive filling.
                let promoted = counter(&report, "net/analytic_components");
                let analytic = counter(&report, "net/analytic_events");
                let migrations = counter(&report, "net/fallback_migrations");
                if analytic > 0 {
                    println!(
                        "                fabric sharing: analytic fast path \
                         ({promoted} components promoted, {analytic} completions \
                         in O(log n), {migrations} migrated back)",
                    );
                } else {
                    println!("                fabric sharing: progressive filling");
                }
                net_analytic_events.push(analytic);
            }
            if r.disk.is_some() {
                println!(
                    "                disks:  {} reshares, peak {} active streams, \
                     {} stale events dropped, peak heap {}",
                    counter(&report, "disk/reshares"),
                    counter(&report, "disk/peak_active"),
                    counter(&report, "disk/stale_events_dropped"),
                    counter(&report, "disk/peak_queue_len"),
                );
                // Every occupied disk channel is served by its own
                // O(log n) fair-share engine.
                println!(
                    "                disk sharing:   {} channel engines, {} completions \
                     in O(log n)",
                    counter(&report, "disk/analytic_channels"),
                    counter(&report, "disk/analytic_events"),
                );
            }
            recovered.push(r.recovered_at);
        }
        let net_delta = recovered[1].since(recovered[0]);
        let disk_delta = recovered[2].since(recovered[1]);
        println!("  -> the fabric adds {net_delta}; disks add another {disk_delta} on top\n");
        assert!(
            recovered[2] > recovered[1],
            "disks must make recovery strictly slower than net-only"
        );
        if streams.is_some() {
            // The unthrottled storm is the analytic tier's home turf:
            // rack-localized repair convoys are single-bottleneck, so
            // the fabric must have served completions analytically.
            assert!(
                net_analytic_events.iter().any(|&n| n > 0),
                "unthrottled storm never engaged the analytic fast path"
            );
        }
    }
    println!("(the 30 blocks/hour throttle hides both models; remove it — the paper's");
    println!(" synchronous-heartbeat storm — and the 256 MB destination writes, at");
    println!(" 120 MB/s against a 10 GbE fabric, become what sets time-to-durability.)");
}
