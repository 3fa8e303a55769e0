//! The availability simulation (Figure 16).
//!
//! A block access fails when *every* replica sits on a server whose
//! primary CPU utilization exceeds the busy threshold (2/3 — §6.4:
//! "accesses cannot proceed if CPU utilization is higher than 66%").
//! Placement diversity across peak-utilization rows is what keeps at
//! least one replica reachable as utilization scales up.
//!
//! With a [`NetworkConfig`], accesses additionally pay transfer latency:
//! a read served by the block's first replica is local and free, while a
//! busy first replica forces a *remote* read from the nearest available
//! copy — in-rack or across the oversubscribed core — which is the
//! latency penalty hiding inside Figure 16's busy-server story.
//!
//! With a [`DiskConfig`], the story deepens: every read pays disk
//! service time at its source, the source's primary tenant competes for
//! that disk through the configured util→demand mapping, and a replica
//! whose disk the isolation manager has throttled (§6) cannot serve
//! secondary reads at all — so "busy local replica" stops being a CPU
//! coin flip and becomes an emergent property of modeled primary I/O.

use harvest_cluster::reserve::is_busy;
use harvest_cluster::{Datacenter, ServerId, UtilizationView};
use harvest_disk::{DiskConfig, MIN_SERVE_FRACTION};
use harvest_net::{NetworkConfig, Topology};
use harvest_signal::classify::UtilizationPattern;
use harvest_sim::fault::FaultPlan;
use harvest_sim::metrics::Histogram;
use harvest_sim::rng::stream_rng;
use harvest_sim::{dist, SimDuration, SimTime};
use rand::RngExt;

use crate::placement::{PlacementPolicy, Placer};
use crate::store::{BlockId, BlockStore, BLOCK_BYTES};

/// Availability-simulation parameters.
#[derive(Debug, Clone)]
pub struct AvailabilityConfig {
    /// Placement policy under test.
    pub policy: PlacementPolicy,
    /// Replicas per block.
    pub replication: usize,
    /// Fraction of harvestable space filled with blocks.
    pub fill_fraction: f64,
    /// Simulated span (the paper uses one month).
    pub span: SimDuration,
    /// Mean block accesses per second across the cluster.
    pub accesses_per_second: f64,
    /// Master seed.
    pub seed: u64,
    /// When set, successful reads are charged their network transfer
    /// latency over this fabric (`None` keeps reads free, as the seed
    /// model did).
    pub network: Option<NetworkConfig>,
    /// When set, reads also pay disk service time at their source, and
    /// a replica whose disk the isolation manager is throttling (its
    /// primary is doing substantial I/O) cannot serve at all. `None`
    /// keeps disks free and infinitely fast.
    pub disk: Option<DiskConfig>,
    /// Injected faults. A crashed or powered-off server cannot serve
    /// any replica until it restarts, and a failed disk takes its
    /// replicas offline for the rest of the span (the availability
    /// model has no repair process). Uplink and disk-brown-out events
    /// are ignored here: this simulation samples a tick grid rather
    /// than routing individual transfers, so only whole-server
    /// reachability matters. [`FaultPlan::none`] leaves every result
    /// bitwise identical to a build without the fault machinery.
    pub faults: FaultPlan,
}

impl AvailabilityConfig {
    /// The paper's one-month setup.
    pub fn paper(policy: PlacementPolicy, replication: usize, seed: u64) -> Self {
        AvailabilityConfig {
            policy,
            replication,
            fill_fraction: 0.5,
            span: SimDuration::from_days(30),
            accesses_per_second: 10.0,
            seed,
            network: None,
            disk: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Outcome of an availability simulation.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// Blocks placed.
    pub n_blocks: u64,
    /// Total accesses attempted.
    pub accesses: u64,
    /// Accesses that found every replica busy.
    pub failed: u64,
    /// Percentage of failed accesses (Figure 16's y-axis).
    pub failed_percent: f64,
    /// Mean fleet utilization of the view (Figure 16's x-axis).
    pub mean_utilization: f64,
    /// Reads forced off the block's first (local) replica because its
    /// server was busy — CPU-busy, or disk-throttled with the disk model
    /// on (0 with both models off).
    pub forced_remote_reads: u64,
    /// Mean read latency in milliseconds: network transfer plus disk
    /// service, whichever models are on (0 with both off).
    pub mean_read_ms: f64,
    /// 99th-percentile read latency in milliseconds (0 with both models
    /// off).
    pub p99_read_ms: f64,
    /// Accesses that failed *only* because every CPU-available replica
    /// sat behind a throttled disk (0 with the disk model off) — the
    /// unavailability the seed model could not see.
    pub disk_only_failures: u64,
    /// Server-ticks spent fault-down (crashed, powered off, or past a
    /// disk failure) — 0 without an armed fault plan.
    pub fault_down_ticks: u64,
}

/// Runs the availability simulation.
pub fn simulate_availability(
    dc: &Datacenter,
    view: &UtilizationView,
    cfg: &AvailabilityConfig,
) -> AvailabilityResult {
    assert!(cfg.replication >= 1, "replication must be at least 1");
    let placer = Placer::new(dc, cfg.policy);
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(cfg.seed, "availability");
    let n_servers = dc.n_servers();

    // Per-server fault-down intervals, empty without an armed plan —
    // the mask merge below is then a no-op and the trajectory matches
    // the fault-free build bit for bit.
    let down = fault_down_intervals(dc, &cfg.faults, SimTime::ZERO + cfg.span);
    let down_at = |now: SimTime, busy: &mut [bool]| -> u64 {
        let mut n = 0u64;
        for &(start, end, server) in &down {
            if start <= now && now < end {
                busy[server as usize] = true;
                n += 1;
            }
        }
        n
    };

    // Place blocks with the busy mask of time zero (creation-time
    // awareness for PT/H; Stock ignores the mask internally).
    let mut busy0 = busy_mask(dc, view, SimTime::ZERO);
    down_at(SimTime::ZERO, &mut busy0);
    let capacity = dc.total_harvest_blocks();
    let target = ((capacity as f64 * cfg.fill_fraction) / cfg.replication as f64) as u64;
    let mut n_blocks = 0u64;
    for _ in 0..target {
        let writer = ServerId(rng.random_range(0..n_servers) as u32);
        match placer.place_new(&mut rng, &store, writer, cfg.replication, Some(&busy0)) {
            Some(p) => {
                store.create_block(&p.servers);
                n_blocks += 1;
            }
            None => break,
        }
    }

    // Replay a month of accesses on the two-minute utilization grid.
    let topo = cfg
        .network
        .as_ref()
        .map(|net| Topology::from_datacenter(dc, net));
    // With the disk model on, each server's primary disk demand follows
    // its tenant's class and CPU utilization.
    let patterns: Vec<UtilizationPattern> = if cfg.disk.is_some() {
        dc.servers
            .iter()
            .map(|s| dc.tenant(s.tenant).pattern)
            .collect()
    } else {
        Vec::new()
    };
    let tick = harvest_trace::SAMPLE_INTERVAL;
    let accesses_per_tick = cfg.accesses_per_second * tick.as_secs_f64();
    let n_ticks = cfg.span.div_duration(tick);
    let mut accesses = 0u64;
    let mut failed = 0u64;
    let mut forced_remote = 0u64;
    let mut disk_only = 0u64;
    let mut fault_down_ticks = 0u64;
    // A month of accesses is tens of millions of samples; a fixed-bin
    // histogram gives the mean and p99 the result reports in O(bins)
    // memory instead of storing every latency. Its ceiling is the
    // fabric's worst-case idle transfer plus the slowest disk read a
    // replica is still allowed to serve (plus slack), so no
    // configuration — however slow — can clamp the reported p99.
    let net_ceiling = topo
        .as_ref()
        .map(|t| t.max_idle_transfer_secs(BLOCK_BYTES) * 1_000.0);
    let disk_ceiling = cfg.disk.as_ref().map(|d| {
        (BLOCK_BYTES as f64 / (d.read_bytes_per_sec() * MIN_SERVE_FRACTION) + d.seek_ms / 1_000.0)
            * 1_000.0
    });
    let ceiling_ms = match (net_ceiling, disk_ceiling) {
        (None, None) => 1_000.0,
        (n, d) => (n.unwrap_or(0.0) + d.unwrap_or(0.0)) * 1.01,
    };
    let mut latencies = Histogram::new(0.0, ceiling_ms, 2_000);
    let mut latency_sum = 0.0;
    let mut served_tracked = 0u64;
    for k in 0..n_ticks {
        let now = SimTime::ZERO + tick.mul_f64(k as f64);
        let utils: Vec<f64> = (0..dc.n_servers())
            .map(|s| view.server_util(ServerId(s as u32), now))
            .collect();
        let mut busy: Vec<bool> = utils.iter().map(|&u| is_busy(u)).collect();
        fault_down_ticks += down_at(now, &mut busy);
        let busy = busy;
        // A replica's disk service time for a block read, or `None` when
        // the isolation manager has its secondary I/O throttled below a
        // usable share (the replica cannot serve).
        let disk_ms = |s: usize| -> Option<f64> {
            match cfg.disk.as_ref() {
                None => Some(0.0),
                Some(d) => {
                    let demand = d.primary.demand_fraction(patterns[s], utils[s]);
                    d.read_service_secs(demand, BLOCK_BYTES)
                        .map(|t| t * 1_000.0)
                }
            }
        };
        let n_acc = dist::poisson(&mut rng, accesses_per_tick);
        // Degenerate but reachable on tiny clusters under a hostile
        // creation-time busy mask: not a single block could be placed.
        // Every access then fails instead of panicking on an empty draw.
        if n_blocks == 0 {
            accesses += n_acc;
            failed += n_acc;
            continue;
        }
        for _ in 0..n_acc {
            let block = BlockId(rng.random_range(0..n_blocks));
            accesses += 1;
            let replicas = store.replicas(block);
            let cpu_available = replicas.iter().any(|&s| !busy[s as usize]);
            // A replica serves when its CPU is below the busy threshold
            // *and* (with the disk model) its disk will take secondary
            // reads.
            let service_of = |s: u32| -> Option<f64> {
                if busy[s as usize] {
                    return None;
                }
                disk_ms(s as usize)
            };
            if !replicas.iter().any(|&s| service_of(s).is_some()) {
                failed += 1;
                if cpu_available {
                    disk_only += 1;
                }
                continue;
            }
            // The read is served. Charge what the enabled models price:
            // the first replica is the writer-local copy the consuming
            // task was scheduled next to; a busy local server forces the
            // read to the cheapest serving copy across the network.
            if topo.is_none() && cfg.disk.is_none() {
                continue;
            }
            let local = ServerId(replicas[0]);
            let net_ms = |s: ServerId| -> f64 {
                topo.as_ref()
                    .map(|t| t.idle_transfer_secs(s, local, BLOCK_BYTES) * 1_000.0)
                    .unwrap_or(0.0)
            };
            let ms = match service_of(replicas[0]) {
                Some(local_disk_ms) => local_disk_ms,
                None => {
                    forced_remote += 1;
                    replicas
                        .iter()
                        .filter_map(|&s| Some(service_of(s)? + net_ms(ServerId(s))))
                        .fold(f64::MAX, f64::min)
                }
            };
            latencies.push(ms);
            latency_sum += ms;
            served_tracked += 1;
        }
    }

    AvailabilityResult {
        n_blocks,
        accesses,
        failed,
        failed_percent: if accesses == 0 {
            0.0
        } else {
            failed as f64 / accesses as f64 * 100.0
        },
        mean_utilization: view.mean_fleet_util(),
        forced_remote_reads: forced_remote,
        mean_read_ms: if served_tracked == 0 {
            0.0
        } else {
            latency_sum / served_tracked as f64
        },
        p99_read_ms: latencies.quantile(0.99).unwrap_or(0.0),
        disk_only_failures: disk_only,
        fault_down_ticks,
    }
}

/// Turns a fault plan's actions into `(start, end, server)` down
/// intervals: a server is down while the fault fold finds its data
/// unreachable, from the action that crashes it or fails its disk to
/// the restore that brings it back. A failed disk never comes back, so
/// its interval runs to the end of the span. Only actions strictly
/// before `span_end` count. Uplink and brown-out actions do not produce
/// intervals (see [`AvailabilityConfig::faults`]).
fn fault_down_intervals(
    dc: &Datacenter,
    plan: &FaultPlan,
    span_end: SimTime,
) -> Vec<(SimTime, SimTime, u32)> {
    let Some(mut fold) = plan.arm(dc.n_servers(), 0) else {
        return Vec::new();
    };
    let mut open: Vec<Option<SimTime>> = vec![None; dc.n_servers()];
    let mut intervals = Vec::new();
    let actions = plan.actions(dc.cluster_shape(), span_end);
    for (at, action) in actions.into_iter().filter(|&(at, _)| at < span_end) {
        let Some(server) = action.server() else {
            continue;
        };
        fold.apply(action);
        let slot = &mut open[server as usize];
        match (*slot, fold.unreachable(server)) {
            (None, true) => *slot = Some(at),
            (Some(start), false) => {
                intervals.push((start, at, server));
                *slot = None;
            }
            _ => {}
        }
    }
    let dangling = open.into_iter().enumerate();
    intervals.extend(dangling.filter_map(|(s, start)| Some((start?, span_end, s as u32))));
    intervals
}

/// The busy mask at an instant: true for servers denying accesses.
pub fn busy_mask(dc: &Datacenter, view: &UtilizationView, now: SimTime) -> Vec<bool> {
    (0..dc.n_servers())
        .map(|s| is_busy(view.server_util(ServerId(s as u32), now)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::fault::FaultKind;
    use harvest_trace::datacenter::DatacenterProfile;
    use harvest_trace::scaling::{calibrate, ScalingKind};

    fn setup(target_util: f64) -> (Datacenter, UtilizationView) {
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 31);
        let traces: Vec<_> = dc.tenants.iter().map(|t| &t.trace).collect();
        let factor = calibrate(&traces, ScalingKind::Linear, target_util);
        let view = UtilizationView::scaled(&dc, ScalingKind::Linear, factor);
        (dc, view)
    }

    fn run(policy: PlacementPolicy, util: f64, replication: usize) -> AvailabilityResult {
        let (dc, view) = setup(util);
        let mut cfg = AvailabilityConfig::paper(policy, replication, 7);
        cfg.span = SimDuration::from_days(3);
        cfg.accesses_per_second = 5.0;
        simulate_availability(&dc, &view, &cfg)
    }

    #[test]
    fn low_utilization_has_negligible_failures() {
        // Figure 16: ~0% failed accesses at low utilization. A handful of
        // accesses out of a million can still land on a transiently busy
        // replica set, so assert a negligible *rate* rather than exactly
        // zero (the exact count is RNG-stream dependent).
        for policy in PlacementPolicy::ALL {
            let r = run(policy, 0.25, 3);
            assert!(
                r.failed_percent < 0.01,
                "{policy} failed {}% of accesses at 25% util",
                r.failed_percent
            );
        }
    }

    #[test]
    fn zero_placed_blocks_fails_every_access_without_panicking() {
        // fill_fraction 0 forces the degenerate no-blocks store; the
        // access replay must count failures, not panic on an empty draw.
        let (dc, view) = setup(0.3);
        let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
        cfg.span = SimDuration::from_hours(6);
        cfg.fill_fraction = 0.0;
        let r = simulate_availability(&dc, &view, &cfg);
        assert_eq!(r.n_blocks, 0);
        assert!(r.accesses > 0);
        assert_eq!(r.failed, r.accesses);
        assert_eq!(r.failed_percent, 100.0);
    }

    #[test]
    fn high_utilization_fails_stock_first() {
        let stock = run(PlacementPolicy::Stock, 0.55, 3);
        let hist = run(PlacementPolicy::History, 0.55, 3);
        assert!(
            hist.failed_percent <= stock.failed_percent,
            "HDFS-H ({}) worse than Stock ({})",
            hist.failed_percent,
            stock.failed_percent
        );
    }

    #[test]
    fn extra_replication_reduces_failures() {
        let r3 = run(PlacementPolicy::Stock, 0.6, 3);
        let r4 = run(PlacementPolicy::Stock, 0.6, 4);
        assert!(
            r4.failed_percent <= r3.failed_percent,
            "R=4 ({}) worse than R=3 ({})",
            r4.failed_percent,
            r3.failed_percent
        );
    }

    #[test]
    fn accesses_follow_configured_rate() {
        let r = run(PlacementPolicy::Stock, 0.4, 3);
        let expected = 5.0 * 3.0 * 86_400.0;
        let ratio = r.accesses as f64 / expected;
        assert!((0.95..1.05).contains(&ratio), "accesses off: {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(PlacementPolicy::History, 0.5, 3);
        let b = run(PlacementPolicy::History, 0.5, 3);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.accesses, b.accesses);
    }

    fn run_with_network(policy: PlacementPolicy, util: f64) -> AvailabilityResult {
        let (dc, view) = setup(util);
        let mut cfg = AvailabilityConfig::paper(policy, 3, 7);
        cfg.span = SimDuration::from_days(2);
        cfg.accesses_per_second = 5.0;
        cfg.network = Some(NetworkConfig::datacenter());
        simulate_availability(&dc, &view, &cfg)
    }

    #[test]
    fn network_off_reads_are_free() {
        let r = run(PlacementPolicy::Stock, 0.55, 3);
        assert_eq!(r.forced_remote_reads, 0);
        assert_eq!(r.mean_read_ms, 0.0);
        assert_eq!(r.p99_read_ms, 0.0);
    }

    #[test]
    fn busy_local_replicas_force_paid_remote_reads() {
        let r = run_with_network(PlacementPolicy::Stock, 0.55);
        assert!(r.forced_remote_reads > 0, "no remote reads at 55% util");
        assert!(r.mean_read_ms > 0.0);
        // A forced remote read moves a 256 MB block: at least ~0.2 s on
        // an otherwise-idle 10 GbE path.
        assert!(r.p99_read_ms == 0.0 || r.p99_read_ms >= 200.0);
    }

    #[test]
    fn utilization_scales_the_remote_read_penalty() {
        let low = run_with_network(PlacementPolicy::Stock, 0.3);
        let high = run_with_network(PlacementPolicy::Stock, 0.6);
        assert!(
            high.forced_remote_reads > low.forced_remote_reads,
            "busier fleet forced fewer remote reads? {} vs {}",
            high.forced_remote_reads,
            low.forced_remote_reads
        );
        assert!(high.mean_read_ms >= low.mean_read_ms);
    }

    fn run_with_disk(util: f64, disk: DiskConfig, net: bool) -> AvailabilityResult {
        let (dc, view) = setup(util);
        let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
        cfg.span = SimDuration::from_days(2);
        cfg.accesses_per_second = 5.0;
        cfg.network = net.then(NetworkConfig::datacenter);
        cfg.disk = Some(disk);
        simulate_availability(&dc, &view, &cfg)
    }

    #[test]
    fn disk_off_sees_no_disk_failures() {
        let r = run_with_network(PlacementPolicy::Stock, 0.55);
        assert_eq!(r.disk_only_failures, 0);
    }

    #[test]
    fn disk_service_time_prices_every_read() {
        // Disk on, network off: even local reads pay the platter. A
        // 256 MB block at 160 MB/s is at least 1.6 s.
        let r = run_with_disk(0.3, DiskConfig::datacenter(), false);
        assert!(r.mean_read_ms >= 1_600.0, "mean {} ms", r.mean_read_ms);
        assert!(r.p99_read_ms >= r.mean_read_ms * 0.5);
    }

    #[test]
    fn throttled_disks_create_emergent_unavailability() {
        // At high utilization many primaries' disk demand crosses the
        // isolation threshold; their replicas cannot serve secondary
        // reads even when their CPUs could, so the disk model both
        // forces extra remote reads and fails accesses the CPU-only
        // model would have served.
        let without = run_with_network(PlacementPolicy::Stock, 0.6);
        let with = run_with_disk(0.6, DiskConfig::datacenter(), true);
        assert!(
            with.disk_only_failures > 0,
            "no disk-only failures at 60% util"
        );
        assert!(
            with.failed >= without.failed,
            "disk model reduced failures? {} vs {}",
            with.failed,
            without.failed
        );
        // Locally served reads can only shrink: a local replica now has
        // to pass the disk check too. (Some would-be remote reads fail
        // outright instead, so compare the two pushed-off-local sums.)
        assert!(
            with.forced_remote_reads + with.failed >= without.forced_remote_reads + without.failed,
            "disk model served more reads locally? {}+{} vs {}+{}",
            with.forced_remote_reads,
            with.failed,
            without.forced_remote_reads,
            without.failed
        );
    }

    #[test]
    fn fair_share_disks_serve_slowly_instead_of_failing() {
        // Without an isolation manager the same demand merely slows
        // reads down: fewer disk-only failures, higher tail latency per
        // served read than the throttled config (which refuses the
        // reads it would serve slowest).
        let throttled = run_with_disk(0.6, DiskConfig::datacenter(), true);
        let fair = run_with_disk(0.6, DiskConfig::fair_share(), true);
        assert!(fair.disk_only_failures <= throttled.disk_only_failures);
        assert!(fair.mean_read_ms > 0.0);
    }

    #[test]
    fn armed_plan_with_no_reachable_events_matches_fault_free() {
        // Oracle: an armed plan whose only event is past the span must
        // not perturb a single counter.
        let (dc, view) = setup(0.5);
        let mut base = AvailabilityConfig::paper(PlacementPolicy::History, 3, 7);
        base.span = SimDuration::from_days(2);
        base.accesses_per_second = 5.0;
        base.network = Some(NetworkConfig::datacenter());
        let mut armed = base.clone();
        armed.faults = FaultPlan::with_events(vec![harvest_sim::fault::FaultEvent {
            at: SimTime::ZERO + SimDuration::from_days(365),
            kind: FaultKind::ServerCrash { server: 0 },
        }]);
        let a = simulate_availability(&dc, &view, &base);
        let b = simulate_availability(&dc, &view, &armed);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.forced_remote_reads, b.forced_remote_reads);
        assert_eq!(a.mean_read_ms, b.mean_read_ms);
        assert_eq!(a.p99_read_ms, b.p99_read_ms);
        assert_eq!(b.fault_down_ticks, 0);
    }

    #[test]
    fn rack_loss_degrades_availability() {
        // Powering a rack off for half the span makes every access to a
        // block fully resident there fail — strictly more failures than
        // the fault-free run, visible as fault-down server-ticks.
        let (dc, view) = setup(0.5);
        let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
        cfg.span = SimDuration::from_days(2);
        cfg.accesses_per_second = 5.0;
        let clean = simulate_availability(&dc, &view, &cfg);
        let mut faulted = cfg.clone();
        faulted.faults = FaultPlan::with_events(vec![
            harvest_sim::fault::FaultEvent {
                at: SimTime::ZERO + SimDuration::from_hours(2),
                kind: FaultKind::RackPowerLoss { rack: 0 },
            },
            harvest_sim::fault::FaultEvent {
                at: SimTime::ZERO + SimDuration::from_hours(26),
                kind: FaultKind::RackPowerRestore { rack: 0 },
            },
        ]);
        let f = simulate_availability(&dc, &view, &faulted);
        assert!(f.fault_down_ticks > 0, "no fault-down ticks recorded");
        assert!(
            f.failed > clean.failed,
            "rack loss did not degrade availability: {} vs {}",
            f.failed,
            clean.failed
        );
    }

    #[test]
    fn faulted_availability_is_deterministic() {
        let (dc, view) = setup(0.5);
        let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
        cfg.span = SimDuration::from_days(2);
        cfg.accesses_per_second = 5.0;
        cfg.faults = FaultPlan::with_events(vec![harvest_sim::fault::FaultEvent {
            at: SimTime::ZERO + SimDuration::from_hours(2),
            kind: FaultKind::DiskFail { server: 3 },
        }]);
        let a = simulate_availability(&dc, &view, &cfg);
        let b = simulate_availability(&dc, &view, &cfg);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.fault_down_ticks, b.fault_down_ticks);
    }

    #[test]
    fn restart_does_not_reopen_a_failed_disk() {
        // A failed disk keeps its server's replicas offline to the end of
        // the span, whether the server restarts after the disk failed or
        // was already down when it did; a plain crash closes on restart.
        use harvest_sim::fault::FaultEvent;
        let (dc, _) = setup(0.5);
        let span_end = SimTime::ZERO + SimDuration::from_days(2);
        let at = |hours| SimTime::ZERO + SimDuration::from_hours(hours);
        let event = |hours, kind| FaultEvent {
            at: at(hours),
            kind,
        };
        let plan = FaultPlan::with_events(vec![
            event(2, FaultKind::DiskFail { server: 3 }),
            event(5, FaultKind::ServerRestart { server: 3 }),
            event(6, FaultKind::ServerCrash { server: 4 }),
            event(9, FaultKind::ServerRestart { server: 4 }),
            event(10, FaultKind::ServerCrash { server: 5 }),
            event(11, FaultKind::DiskFail { server: 5 }),
            event(12, FaultKind::ServerRestart { server: 5 }),
        ]);
        assert_eq!(
            fault_down_intervals(&dc, &plan, span_end),
            vec![
                (at(6), at(9), 4),
                (at(2), span_end, 3),
                (at(10), span_end, 5)
            ]
        );
    }

    /// The hand-built edge plan: its down intervals exactly, and the
    /// run's modelled outcome field by field.
    #[test]
    fn edge_plan_is_pinned() {
        use crate::durability::tests::{edge_plan, fnv};
        let (dc, view) = setup(0.5);
        let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
        cfg.span = SimDuration::from_days(2);
        cfg.accesses_per_second = 5.0;
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.faults = edge_plan();
        let min = |m| SimTime::ZERO + SimDuration::from_mins(m);
        let span_end = SimTime::ZERO + cfg.span;
        assert_eq!(
            fault_down_intervals(&dc, &cfg.faults, span_end),
            vec![
                (min(80), min(80), 9),
                (min(90), min(95), 11),
                (min(30), min(120), 3),
                (min(45), span_end, 7),
                (min(44), span_end, 8),
            ]
        );
        let r = simulate_availability(&dc, &view, &cfg);
        let hash = fnv([
            r.n_blocks,
            r.accesses,
            r.failed,
            r.failed_percent.to_bits(),
            r.mean_utilization.to_bits(),
            r.forced_remote_reads,
            r.mean_read_ms.to_bits(),
            r.p99_read_ms.to_bits(),
            r.disk_only_failures,
            r.fault_down_ticks,
        ]);
        assert_eq!(
            hash, 0x4912_30b3_327b_32dd,
            "the edge plan's availability outcome moved"
        );
    }

    /// Every named fault profile, drawn for the cluster over the span:
    /// the faulted result is pinned bitwise (FNV-1a over its `Debug`
    /// rendering), so a change to how plans become down intervals
    /// cannot move a failure or a fault-down tick.
    #[test]
    fn faulted_profiles_are_pinned() {
        use harvest_sim::fault::FaultProfile;
        let (dc, view) = setup(0.5);
        let shape = dc.cluster_shape();
        let pins: [(FaultProfile, u64); 4] = [
            (FaultProfile::RackLoss, 0x7aa7_b89e_ffb2_7937),
            (FaultProfile::LinkFlap, 0x25d7_ce2d_f581_9ef6),
            (FaultProfile::DiskRot, 0xe756_ed35_36f2_dc31),
            (FaultProfile::CorrelatedStorm, 0xbb8e_e427_4158_b535),
        ];
        let got: Vec<(FaultProfile, u64)> = pins
            .iter()
            .map(|&(profile, _)| {
                let mut cfg = AvailabilityConfig::paper(PlacementPolicy::Stock, 3, 7);
                cfg.span = SimDuration::from_days(2);
                cfg.accesses_per_second = 5.0;
                cfg.network = Some(NetworkConfig::datacenter());
                cfg.faults = profile.plan(7, shape, cfg.span);
                let r = simulate_availability(&dc, &view, &cfg);
                let hash = format!("{r:?}")
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                (profile, hash)
            })
            .collect();
        assert_eq!(got, pins, "a faulted availability result moved");
    }

    #[test]
    fn disk_model_is_deterministic() {
        let a = run_with_disk(0.5, DiskConfig::datacenter(), true);
        let b = run_with_disk(0.5, DiskConfig::datacenter(), true);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.disk_only_failures, b.disk_only_failures);
        assert_eq!(a.mean_read_ms, b.mean_read_ms);
        assert_eq!(a.p99_read_ms, b.p99_read_ms);
    }
}
