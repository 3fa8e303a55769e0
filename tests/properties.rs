//! Property-based tests over the workspace's core invariants.

use harvest::cluster::{Datacenter, ServerId};
use harvest::dfs::grid::Grid2D;
use harvest::dfs::placement::{PlacementPolicy, Placer};
use harvest::dfs::store::BlockStore;
use harvest::disk::{DiskConfig, DiskPool, IoDir, StreamCompletion, StreamId};
use harvest::jobs::length::LengthThresholds;
use harvest::net::{Fabric, FlowCompletion, FlowId, NetworkConfig};
use harvest::signal::classify::{classify_with_features, ClassifierConfig, UtilizationPattern};
use harvest::signal::fft::{fft_in_place, ifft_in_place};
use harvest::signal::kmeans::kmeans;
use harvest::signal::spectrum::{
    periodicity_strength_with, power_spectrum_truncated, power_spectrum_truncated_into,
};
use harvest::signal::{Complex, SpectrumScratch};
use harvest::sim::engine::EventQueue;
use harvest::sim::metrics::{empirical_cdf, Percentiles, StreamingStats};
use harvest::sim::time::{SimDuration, SimTime};
use harvest::trace::scaling::{calibrate, scale, ScalingKind};
use harvest::trace::timeseries::TimeSeries;
use harvest_oracle::{OracleFabric, OraclePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// FFT followed by inverse FFT reproduces any real signal.
    #[test]
    fn fft_round_trips(values in prop::collection::vec(-100.0f64..100.0, 1..128)) {
        let n = values.len().next_power_of_two();
        let mut data: Vec<Complex> = values.iter().map(|&x| Complex::from_real(x)).collect();
        data.resize(n, Complex::ZERO);
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (orig, z) in values.iter().zip(&data) {
            prop_assert!((z.re - orig).abs() < 1e-6);
            prop_assert!(z.im.abs() < 1e-6);
        }
    }

    /// Linear scaling never leaves [0, 1] and is monotone in the factor.
    #[test]
    fn scaling_stays_in_unit_interval(
        values in prop::collection::vec(0.0f64..1.0, 1..200),
        factor in 0.0f64..8.0,
    ) {
        let ts = TimeSeries::new(SimDuration::from_mins(2), values);
        let scaled = scale(&ts, ScalingKind::Linear, factor);
        prop_assert!(scaled.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let scaled_more = scale(&ts, ScalingKind::Linear, factor + 0.5);
        for (a, b) in scaled.values().iter().zip(scaled_more.values()) {
            prop_assert!(b >= a);
        }
    }

    /// Calibration hits any reachable target mean for both scalings.
    #[test]
    fn calibration_converges(
        values in prop::collection::vec(0.05f64..0.6, 10..100),
        target in 0.1f64..0.8,
    ) {
        let ts = TimeSeries::new(SimDuration::from_mins(2), values);
        for kind in [ScalingKind::Linear, ScalingKind::Root] {
            let param = calibrate(&[&ts], kind, target);
            let mean = scale(&ts, kind, param).mean();
            prop_assert!((mean - target).abs() < 0.01, "{kind}: {mean} vs {target}");
        }
    }

    /// K-Means assigns every point to an existing centroid and never
    /// leaves a cluster empty.
    #[test]
    fn kmeans_assignments_valid(
        points in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 4..60),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = kmeans(&mut rng, &points, k, 30);
        prop_assert_eq!(result.assignments.len(), points.len());
        prop_assert!(result.assignments.iter().all(|&a| a < result.k()));
        prop_assert!(result.cluster_sizes().iter().all(|&s| s > 0));
        prop_assert!(result.inertia >= 0.0);
    }

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any push sequence.
    #[test]
    fn event_queue_is_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated on equal times");
            }
        }
    }

    /// The 3x3 grid always partitions tenants, never loses space, and
    /// orders columns by reimage rate.
    #[test]
    fn grid_partitions_tenants(
        stats in prop::collection::vec((0.0f64..2.0, 0.0f64..1.0, 10u64..5000), 9..80),
    ) {
        let grid = Grid2D::from_stats(&stats);
        let member_total: usize = Grid2D::cells().map(|c| grid.members(c).len()).sum();
        prop_assert_eq!(member_total, stats.len());
        let space_total: u64 = Grid2D::cells().map(|c| grid.space(c)).sum();
        prop_assert_eq!(space_total, stats.iter().map(|s| s.2).sum::<u64>());
        // Column rate ordering.
        let max_rate_col0 = (0..stats.len())
            .filter(|&t| grid.cell_of(harvest::cluster::TenantId(t as u32)).col == 0)
            .map(|t| stats[t].0)
            .fold(f64::MIN, f64::max);
        let min_rate_col2 = (0..stats.len())
            .filter(|&t| grid.cell_of(harvest::cluster::TenantId(t as u32)).col == 2)
            .map(|t| stats[t].0)
            .fold(f64::MAX, f64::min);
        prop_assert!(max_rate_col0 <= min_rate_col2 + 1e-12);
    }

    /// Job-length thresholds from any history are ordered and classify
    /// consistently.
    #[test]
    fn thresholds_are_ordered(durs in prop::collection::vec(1u64..100_000, 3..300)) {
        let thresholds = LengthThresholds::from_history(
            durs.iter().map(|&d| SimDuration::from_secs(d)).collect(),
        );
        prop_assert!(thresholds.short_max <= thresholds.long_min);
        use harvest::jobs::JobLength;
        let mut last = JobLength::Short;
        for d in [1u64, 1_000, 200_000] {
            let len = thresholds.classify(SimDuration::from_secs(d));
            prop_assert!(len >= last, "classification not monotone");
            last = len;
        }
    }

    /// Streaming stats agree with exact computations.
    #[test]
    fn streaming_stats_match_exact(values in prop::collection::vec(-1e4f64..1e4, 1..300)) {
        let mut s = StreamingStats::new();
        for &v in &values {
            s.push(v);
        }
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - exact_mean).abs() < 1e-6 * (1.0 + exact_mean.abs()));
        let exact_min = values.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert_eq!(s.min(), exact_min);
    }

    /// Empirical CDFs are monotone and end at 1.
    #[test]
    fn cdf_is_monotone(values in prop::collection::vec(-100.0f64..100.0, 1..200)) {
        let cdf = empirical_cdf(values);
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(values in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut p = Percentiles::new();
        p.extend(values.iter().copied());
        let q25 = p.quantile(0.25).unwrap();
        let q50 = p.quantile(0.50).unwrap();
        let q99 = p.quantile(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(q25 >= lo && q99 <= hi);
    }
}

/// A small, fixed datacenter for fabric properties (the properties are
/// over the random *flow populations*, not the topology).
fn fabric_dc() -> Datacenter {
    Datacenter::generate(
        &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.015),
        13,
    )
}

/// Schedules `flows` ((src, dst, bytes, start-ms) tuples mapped into
/// the datacenter) through `schedule` — on a fabric or its reference.
fn schedule_flows(
    dc: &Datacenter,
    flows: &[(usize, usize, u64, u64)],
    mut schedule: impl FnMut(SimTime, ServerId, ServerId, u64, u64),
) {
    let n = dc.n_servers();
    for (i, &(s, d, bytes, at)) in flows.iter().enumerate() {
        schedule(
            SimTime::from_millis(at),
            ServerId((s % n) as u32),
            ServerId((d % n) as u32),
            // 1-64 MB so populations overlap at the probe instant.
            (bytes % 64 + 1) * 1024 * 1024,
            i as u64,
        );
    }
}

/// Builds a fabric carrying `flows` and pumps it to `probe_ms`.
fn loaded_fabric(dc: &Datacenter, flows: &[(usize, usize, u64, u64)], probe_ms: u64) -> Fabric {
    let mut fabric = Fabric::from_datacenter(dc, &NetworkConfig::datacenter());
    schedule_flows(dc, flows, |at, s, d, b, tag| {
        fabric.schedule_flow(at, s, d, b, tag);
    });
    fabric.pump(SimTime::from_millis(probe_ms));
    fabric
}

/// The fabric and the reference filling over the same `flows`, both
/// pumped to `probe_ms`, with the completions each reported by then.
fn fabric_and_oracle(
    dc: &Datacenter,
    flows: &[(usize, usize, u64, u64)],
    probe_ms: u64,
) -> (
    (Fabric, Vec<FlowCompletion>),
    (OracleFabric, Vec<FlowCompletion>),
) {
    let net = NetworkConfig::datacenter();
    let mut fabric = Fabric::from_datacenter(dc, &net);
    let mut oracle = OracleFabric::from_datacenter(dc, &net);
    schedule_flows(dc, flows, |at, s, d, b, tag| {
        fabric.schedule_flow(at, s, d, b, tag);
        oracle.schedule_flow(at, s, d, b, tag);
    });
    let probe = SimTime::from_millis(probe_ms);
    let early = fabric.pump(probe);
    let early_oracle = oracle.pump(probe);
    ((fabric, early), (oracle, early_oracle))
}

/// Every active flow's rate bits, ascending by id.
fn flow_rates(ids: Vec<FlowId>, rate: impl Fn(FlowId) -> Option<f64>) -> Vec<(u64, u64)> {
    ids.into_iter()
        .map(|id| (id.0, rate(id).expect("active").to_bits()))
        .collect()
}

/// A completion list as (time, tag), sorted: completions that share a
/// millisecond may be reported in a different order.
fn sorted_ends<C>(done: Vec<C>, key: impl Fn(&C) -> (SimTime, u64)) -> Vec<(SimTime, u64)> {
    let mut ends: Vec<(SimTime, u64)> = done.iter().map(key).collect();
    ends.sort_unstable();
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Max-min allocation invariant 1 — capacity conservation: no link
    /// carries more than its capacity, for any flow population.
    #[test]
    fn fabric_conserves_link_capacity(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..200), 1..60),
    ) {
        let dc = fabric_dc();
        let fabric = loaded_fabric(&dc, &flows, 100);
        for l in 0..fabric.topology().n_links() {
            let link = harvest::net::LinkId(l as u32);
            let cap = fabric.topology().capacity(link);
            let load = fabric.link_load(link);
            prop_assert!(
                load <= cap * (1.0 + 1e-9),
                "link {l} overloaded: {load} > {cap}"
            );
        }
    }

    /// Max-min allocation invariant 2 — work conservation: every active
    /// flow is bottlenecked by at least one saturated link on its path
    /// (otherwise it could be given more bandwidth).
    #[test]
    fn fabric_is_work_conserving(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..200), 1..60),
    ) {
        let dc = fabric_dc();
        let fabric = loaded_fabric(&dc, &flows, 100);
        for id in fabric.active_flow_ids() {
            let rate = fabric.flow_rate(id).unwrap();
            prop_assert!(rate > 0.0, "active flow {id:?} starved");
            let path = fabric.flow_path(id).unwrap().to_vec();
            let bottlenecked = path.iter().any(|&l| {
                fabric.link_load(l) >= fabric.topology().capacity(l) * (1.0 - 1e-9)
            });
            prop_assert!(bottlenecked, "flow {id:?} has no saturated link");
        }
    }

    /// Max-min allocation invariant 3 — no flow exceeds its bottleneck
    /// fair share: a flow's rate never beats capacity/contenders on any
    /// of its links by more than the share ceded by flows frozen at
    /// other bottlenecks (i.e. it never exceeds the link capacity, and
    /// equal-demand flows sharing a link get equal rates).
    #[test]
    fn fabric_shares_fairly(
        flows in prop::collection::vec((0usize..500, 0u64..64), 2..40),
        src in 0usize..500,
    ) {
        // All flows leave one server, so its TX NIC is every flow's
        // bottleneck: rates must be (nearly) identical.
        let dc = fabric_dc();
        let shaped: Vec<(usize, usize, u64, u64)> = flows
            .iter()
            .map(|&(d, b)| (src, if d % dc.n_servers() == src % dc.n_servers() { d + 1 } else { d }, b, 0))
            .collect();
        let fabric = loaded_fabric(&dc, &shaped, 0);
        let rates: Vec<f64> = fabric
            .active_flow_ids()
            .iter()
            .filter_map(|&id| fabric.flow_rate(id))
            .collect();
        if rates.len() >= 2 {
            let (min, max) = rates
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
            prop_assert!(
                (max - min) / max < 1e-9,
                "unequal shares on a single bottleneck: {min} vs {max}"
            );
        }
    }

    /// The fabric replays bit-identically for identical inputs.
    #[test]
    fn fabric_replays_deterministically(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..500), 1..40),
    ) {
        let dc = fabric_dc();
        let ends = |fl: &[(usize, usize, u64, u64)]| {
            let mut f = loaded_fabric(&dc, fl, 0);
            f.drain()
                .into_iter()
                .map(|c| (c.tag, c.at.as_millis()))
                .collect::<Vec<_>>()
        };
        let a = ends(&flows);
        let b = ends(&flows);
        prop_assert_eq!(a.len(), flows.len(), "flows went missing");
        prop_assert_eq!(a, b);
    }

    /// The incremental-allocator oracle: component-scoped re-sharing,
    /// with the analytic tier on whatever the classifier promotes,
    /// allocates *bitwise* what max-min progressive filling over every
    /// active flow allocates (rates compared by bit pattern), and every
    /// flow completes at the same instant, across randomized storm
    /// workloads. Schedules are compared sorted by (time, tag).
    #[test]
    fn fabric_component_reshare_matches_global_oracle(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..400), 1..60),
        probe_ms in 0u64..400,
    ) {
        let dc = fabric_dc();
        let ((mut f, mut ends), (mut o, mut ends_oracle)) = fabric_and_oracle(&dc, &flows, probe_ms);
        prop_assert_eq!(
            flow_rates(f.active_flow_ids(), |id| f.flow_rate(id)),
            flow_rates(o.active_flow_ids(), |id| o.flow_rate(id)),
            "mid-storm rates diverged"
        );
        ends.extend(f.drain());
        ends_oracle.extend(o.drain());
        let key = |c: &FlowCompletion| (c.at, c.tag);
        prop_assert_eq!(
            sorted_ends(ends, key),
            sorted_ends(ends_oracle, key),
            "completion schedules diverged"
        );
    }

    /// The analytic-tier oracle on its home turf: every flow leaves one
    /// server at t = 0, so the source NIC is the whole component's
    /// single bottleneck and the classifier must promote it (singleton
    /// components are left on filling — the fast path needs at least
    /// two concurrent flows to have anything to share). Mid-storm rates
    /// are *bitwise* the reference filling's (both compute
    /// `capacity / n` on identical populations) and every flow's
    /// completion *time* matches exactly. Completions landing on the
    /// same millisecond may pop in a different order (the analytic heap
    /// breaks ties by fair-work key, the reference by id — the integer
    /// clock erases the sub-ms distinction), so schedules are compared
    /// sorted by (time, tag).
    #[test]
    fn fabric_single_bottleneck_analytic_matches_global_bitwise(
        flows in prop::collection::vec((0usize..500, 0u64..64), 2..50),
        src in 0usize..500,
        probe_ms in 0u64..200,
    ) {
        let dc = fabric_dc();
        let n = dc.n_servers();
        let shaped: Vec<(usize, usize, u64, u64)> = flows
            .iter()
            .map(|&(d, b)| {
                (src, if d % n == src % n { d + 1 } else { d }, b, 0)
            })
            .collect();
        let ((mut f, mut ends), (mut o, mut ends_oracle)) = fabric_and_oracle(&dc, &shaped, probe_ms);
        prop_assert_eq!(
            flow_rates(f.active_flow_ids(), |id| f.flow_rate(id)),
            flow_rates(o.active_flow_ids(), |id| o.flow_rate(id)),
            "mid-storm rates diverged"
        );
        ends.extend(f.drain());
        ends_oracle.extend(o.drain());
        let key = |c: &FlowCompletion| (c.at, c.tag);
        prop_assert_eq!(
            sorted_ends(ends, key),
            sorted_ends(ends_oracle, key),
            "completion schedules diverged"
        );
        prop_assert!(
            f.stats().analytic_events > 0,
            "classifier never promoted a single-bottleneck component"
        );
    }

    /// The analytic tier on *mixed* workloads (arbitrary src/dst pairs,
    /// so components may have several bottlenecks and only some
    /// promote): the fabric conserves capacity and completes the same
    /// flows as the reference filling, with every completion within
    /// 1 ms. Rates are bitwise identical whichever tier serves a
    /// component; completion *times* may differ by float reassociation
    /// and by the order same-millisecond completions are served in,
    /// which the millisecond clock bounds — documented tolerance: one
    /// clock quantum.
    #[test]
    fn fabric_mixed_analytic_matches_global_schedule(
        flows in prop::collection::vec((0usize..500, 0usize..500, 0u64..64, 0u64..400), 1..60),
        probe_ms in 0u64..400,
    ) {
        let dc = fabric_dc();
        let ((mut f, mut ends), (mut o, mut ends_oracle)) = fabric_and_oracle(&dc, &flows, probe_ms);
        for l in 0..f.topology().n_links() {
            let link = harvest::net::LinkId(l as u32);
            prop_assert!(
                f.link_load(link) <= f.topology().capacity(link) * (1.0 + 1e-9),
                "link {} overloaded under analytic sharing", l
            );
        }
        ends.extend(f.drain());
        ends_oracle.extend(o.drain());
        let by_tag = |done: Vec<FlowCompletion>| {
            let mut e: Vec<(u64, i64)> =
                done.iter().map(|c| (c.tag, c.at.as_millis() as i64)).collect();
            e.sort_unstable();
            e
        };
        let (ana, reference) = (by_tag(ends), by_tag(ends_oracle));
        prop_assert_eq!(ana.len(), flows.len(), "flows went missing");
        prop_assert_eq!(ana.len(), reference.len(), "flow counts diverged");
        for (a, r) in ana.iter().zip(reference.iter()) {
            prop_assert_eq!(a.0, r.0, "completion sets diverged");
            prop_assert!(
                (a.1 - r.1).abs() <= 1,
                "flow {} finished at {} vs {} in the reference (> 1 ms apart)",
                a.0, a.1, r.1
            );
        }
    }
}

/// Disks in the pools the disk properties build.
const N_DISKS: usize = 48;

/// Builds a pool of `N_DISKS` carrying `streams` ((server, dir, bytes,
/// start-ms) tuples) under per-disk primary utilizations drawn from
/// `utils`, and pumps it to `probe_ms`.
fn loaded_pool(
    streams: &[(usize, u64, u64, u64)],
    utils: &[(usize, u64)],
    probe_ms: u64,
) -> DiskPool {
    let mut pool = DiskPool::new(N_DISKS, &DiskConfig::datacenter());
    for (server, util) in primary_utils(utils) {
        pool.set_primary_util(SimTime::ZERO, server, util);
    }
    schedule_streams(streams, |at, server, dir, bytes, tag| {
        pool.schedule_stream(at, server, dir, bytes, tag);
    });
    pool.pump(SimTime::from_millis(probe_ms));
    pool
}

/// `utils` ((server, centi-util) pairs) mapped onto the pool's disks.
fn primary_utils(utils: &[(usize, u64)]) -> impl Iterator<Item = (ServerId, f64)> + '_ {
    utils
        .iter()
        .map(|&(server, centi)| (ServerId((server % N_DISKS) as u32), centi as f64 / 100.0))
}

/// Schedules `streams` ((server, write, bytes, start-ms) tuples)
/// through `schedule` — on a pool or its reference.
fn schedule_streams(
    streams: &[(usize, u64, u64, u64)],
    mut schedule: impl FnMut(SimTime, ServerId, IoDir, u64, u64),
) {
    for (i, &(server, write, bytes, at)) in streams.iter().enumerate() {
        schedule(
            SimTime::from_millis(at),
            ServerId((server % N_DISKS) as u32),
            if write % 2 == 1 {
                IoDir::Write
            } else {
                IoDir::Read
            },
            // 1-64 MB so populations overlap at the probe instant.
            (bytes % 64 + 1) * 1024 * 1024,
            i as u64,
        );
    }
}

/// The pool and the reference equal split over the same `streams`
/// and `utils`, not yet pumped.
fn pool_and_oracle(
    streams: &[(usize, u64, u64, u64)],
    utils: &[(usize, u64)],
) -> (DiskPool, OraclePool) {
    let config = DiskConfig::datacenter();
    let mut pool = DiskPool::new(N_DISKS, &config);
    let mut oracle = OraclePool::new(N_DISKS, &config);
    for (server, util) in primary_utils(utils) {
        pool.set_primary_util(SimTime::ZERO, server, util);
        oracle.set_primary_util(SimTime::ZERO, server, util);
    }
    schedule_streams(streams, |at, server, dir, bytes, tag| {
        pool.schedule_stream(at, server, dir, bytes, tag);
        oracle.schedule_stream(at, server, dir, bytes, tag);
    });
    (pool, oracle)
}

/// Every active stream's rate bits, ascending by id.
fn stream_rates(ids: Vec<StreamId>, rate: impl Fn(StreamId) -> Option<f64>) -> Vec<(u64, u64)> {
    ids.into_iter()
        .map(|id| (id.0, rate(id).expect("active").to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Disk invariant 1 — per-channel capacity conservation: secondary
    /// streams never carry more than what the throttle policy leaves
    /// them, which never exceeds the channel's raw capacity.
    #[test]
    fn disks_conserve_channel_capacity(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..200), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100), 0..16),
    ) {
        let pool = loaded_pool(&streams, &utils, 100);
        for s in 0..N_DISKS {
            let server = ServerId(s as u32);
            for dir in [IoDir::Read, IoDir::Write] {
                let load = pool.channel_load(server, dir);
                let allowed = pool.secondary_capacity(server, dir);
                prop_assert!(
                    load <= allowed * (1.0 + 1e-9) + 1e-9,
                    "disk {s} {dir:?} overloaded: {load} > {allowed}"
                );
                prop_assert!(allowed <= pool.capacity(dir) * (1.0 + 1e-9));
            }
        }
    }

    /// Disk invariant 2 — work conservation: a channel with active
    /// streams hands out exactly the bandwidth the policy allows (a
    /// throttled channel hands out its floor — possibly zero — and an
    /// unthrottled one is saturated).
    #[test]
    fn disks_are_work_conserving(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..200), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100), 0..16),
    ) {
        let pool = loaded_pool(&streams, &utils, 100);
        for s in 0..N_DISKS {
            let server = ServerId(s as u32);
            for dir in [IoDir::Read, IoDir::Write] {
                if pool.channel_streams(server, dir) == 0 {
                    continue;
                }
                let load = pool.channel_load(server, dir);
                let allowed = pool.secondary_capacity(server, dir);
                prop_assert!(
                    load >= allowed * (1.0 - 1e-9) - 1e-9,
                    "disk {s} {dir:?} not work-conserving: {load} < {allowed}"
                );
            }
        }
    }

    /// Disk invariant 3 — fair sharing: concurrent streams on one
    /// channel run at (nearly) identical rates.
    #[test]
    fn disks_share_fairly(
        streams in prop::collection::vec((0u64..2, 0u64..64), 2..40),
        server in 0usize..500,
        util in 0u64..100,
    ) {
        let shaped: Vec<(usize, u64, u64, u64)> = streams
            .iter()
            .map(|&(write, bytes)| (server, write, bytes, 0))
            .collect();
        let pool = loaded_pool(&shaped, &[(server, util)], 0);
        for dir in [IoDir::Read, IoDir::Write] {
            let rates: Vec<f64> = pool
                .active_stream_ids()
                .iter()
                .filter(|&&id| pool.stream_channel(id).map(|(_, d)| d) == Some(dir))
                .filter_map(|&id| pool.stream_rate(id))
                .collect();
            if rates.len() >= 2 {
                let (min, max) = rates
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
                prop_assert!(
                    max == 0.0 || (max - min) / max < 1e-9,
                    "unequal shares on one channel: {min} vs {max}"
                );
            }
        }
    }

    /// The disk-pool oracle: channel-scoped sharing is *bitwise* the
    /// reference's equal split of every channel on every event, at any
    /// primary utilization — throttled and fully parked channels
    /// included — across randomized storm workloads.
    #[test]
    fn disk_channel_reshare_matches_global_oracle(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..400), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..100), 0..16),
        probe_ms in 0u64..400,
    ) {
        let (mut p, mut o) = pool_and_oracle(&streams, &utils);
        let probe = SimTime::from_millis(probe_ms);
        let key = |c: &StreamCompletion| (c.at, c.tag);
        prop_assert_eq!(
            sorted_ends(p.pump(probe), key),
            sorted_ends(o.pump(probe), key),
            "completions before the probe diverged"
        );
        prop_assert_eq!(
            stream_rates(p.active_stream_ids(), |id| p.stream_rate(id)),
            stream_rates(o.active_stream_ids(), |id| o.stream_rate(id)),
            "mid-storm rates diverged"
        );
    }

    /// The disk schedule oracle: every occupied channel is served by
    /// its own fair-share engine, and the completion schedule matches
    /// the reference's exactly (the millisecond clock rounds away the
    /// fair-work clock's reassociation drift). Same-millisecond
    /// completions may pop in a different order, so schedules are
    /// compared sorted by (time, tag). Utilizations are capped below
    /// the throttle threshold so drain() terminates.
    #[test]
    fn disk_analytic_matches_global_oracle(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..400), 1..60),
        utils in prop::collection::vec((0usize..500, 0u64..45), 0..8),
    ) {
        let (mut p, mut o) = pool_and_oracle(&streams, &utils);
        let key = |c: &StreamCompletion| (c.at, c.tag);
        let ends = sorted_ends(p.drain(), key);
        prop_assert_eq!(ends.len(), streams.len(), "streams went missing");
        prop_assert_eq!(ends, sorted_ends(o.drain(), key), "completion schedules diverged");
    }

    /// Throttle park and rescue against the reference: mid-run, one
    /// disk's primary crosses the paper policy's throttle threshold
    /// (parking its streams) and drops back, and another disk browns
    /// out to zero and recovers. Rates match bitwise at every stage,
    /// and the whole completion schedule matches exactly.
    #[test]
    fn disk_park_and_rescue_matches_oracle(
        streams in prop::collection::vec((0usize..8, 0u64..2, 0u64..64, 0u64..400), 1..40),
        utils in prop::collection::vec((0usize..500, 0u64..45), 0..8),
        stages in prop::collection::vec(50u64..600, 4),
        hot in 0u32..8,
        offset in 1u32..8,
    ) {
        let (hot, browned) = (ServerId(hot), ServerId((hot + offset) % 8));
        let (mut p, mut o) = pool_and_oracle(&streams, &utils);
        let key = |c: &StreamCompletion| (c.at, c.tag);
        let (mut ends, mut ends_oracle) = (Vec::new(), Vec::new());
        let mut at = SimTime::ZERO;
        // Park (util 0.95 ⇒ demand above the 0.5 threshold), brown out,
        // rescue, restore.
        let steps: [(ServerId, bool, f64); 4] =
            [(hot, true, 0.95), (browned, false, 0.0), (hot, true, 0.1), (browned, false, 1.0)];
        for (&gap, &(server, util, v)) in stages.iter().zip(&steps) {
            at += SimDuration::from_millis(gap);
            ends.extend(p.pump(at));
            ends_oracle.extend(o.pump(at));
            if util {
                p.set_primary_util(at, server, v);
                o.set_primary_util(at, server, v);
            } else {
                p.set_degrade(at, server, v);
                o.set_degrade(at, server, v);
            }
            prop_assert_eq!(
                stream_rates(p.active_stream_ids(), |id| p.stream_rate(id)),
                stream_rates(o.active_stream_ids(), |id| o.stream_rate(id)),
                "rates diverged after setting {:?} to {}", server, v
            );
        }
        prop_assert!(!p.is_throttled(hot));
        ends.extend(p.drain());
        ends_oracle.extend(o.drain());
        prop_assert_eq!(ends.len(), streams.len(), "streams went missing");
        prop_assert_eq!(
            sorted_ends(ends, key),
            sorted_ends(ends_oracle, key),
            "completion schedules diverged"
        );
    }

    /// The disk pool replays bit-identically for identical inputs.
    #[test]
    fn disks_replay_deterministically(
        streams in prop::collection::vec((0usize..500, 0u64..2, 0u64..64, 0u64..500), 1..40),
        utils in prop::collection::vec((0usize..500, 0u64..45), 0..8),
    ) {
        // Utilizations capped below the throttle threshold so every
        // stream finishes and drain() terminates.
        let ends = |st: &[(usize, u64, u64, u64)]| {
            let mut pool = loaded_pool(st, &utils, 0);
            pool.drain()
                .into_iter()
                .map(|c| (c.tag, c.at.as_millis()))
                .collect::<Vec<_>>()
        };
        let a = ends(&streams);
        let b = ends(&streams);
        prop_assert_eq!(a.len(), streams.len(), "streams went missing");
        prop_assert_eq!(a, b);
    }
}

/// A small, fixed DC-9 scale-down for the scheduler tick scenarios.
fn sched_dc() -> (
    harvest::cluster::Datacenter,
    harvest::cluster::UtilizationView,
) {
    let dc = Datacenter::generate(
        &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.015),
        17,
    );
    let view = harvest::cluster::UtilizationView::unscaled(&dc);
    (dc, view)
}

/// The scheduler tick on a scaled DC-9 with both transfer models on,
/// across workloads and policies. Each run checks every tick against
/// the whole-fleet postconditions (debug builds: the fleet lookup
/// equals the per-tenant scan bitwise, no server holds more than its
/// secondary capacity after enforcement, every disk with in-flight
/// streams holds the last tick's sample bitwise), and its outcome —
/// per-job results and makespans, kill counts and per-server kill
/// attribution, placements, utilization bits, fabric and disk stats —
/// matches the fingerprint pinned when a full-fleet sweep was still a
/// run mode and agreed with this path bitwise.
#[test]
fn sched_tick_meets_fleet_postconditions_and_pinned_outcomes() {
    use harvest::jobs::workload::Workload;
    use harvest::sched::policy::SchedPolicy;
    use harvest::sched::sim::{SchedSim, SchedSimConfig};
    use harvest::sim::rng::stream_rng;

    let (dc, view) = sched_dc();
    let horizon = SimDuration::from_hours(1);
    // (workload seed, mean arrival gap in seconds, policy, fingerprint)
    let scenarios = [
        (3, 150, SchedPolicy::PrimaryAware, 0x7008_1730_02b7_286f),
        (58, 200, SchedPolicy::History, 0x69a5_381e_f08d_b67b),
        (404, 420, SchedPolicy::History, 0x6a22_95d8_811d_046a),
        (617, 600, SchedPolicy::PrimaryAware, 0xa726_1586_93fc_cc44),
        (832, 840, SchedPolicy::History, 0xc5f3_d6e9_9cbb_0cca),
        (12, 130, SchedPolicy::PrimaryAware, 0x298b_acf4_c546_3dba),
    ];
    for (seed, gap_secs, policy, pinned) in scenarios {
        let mut wl_rng = stream_rng(seed, "tick-oracle-wl");
        let workload = Workload::poisson(
            &mut wl_rng,
            harvest::jobs::tpcds::tpcds_suite(),
            SimDuration::from_secs(gap_secs),
            horizon,
        );
        let mut cfg = SchedSimConfig::testbed(policy, seed);
        cfg.horizon = horizon;
        cfg.drain = SimDuration::from_hours(2);
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
        let stats = SchedSim::new(&dc, &view, &workload, cfg).run();
        let at = format!("seed {seed}, gap {gap_secs}s, {policy}");
        assert!(stats.tasks_started > 0, "{at}: nothing placed");
        assert!(
            stats.disks.expect("disks on").completed > 0,
            "{at}: no disk streams ran"
        );
        assert!(stats.total_kills > 0, "{at}: no kills exercised");
        // FNV-1a over the `Debug` rendering, which prints every field
        // and every float in exact round-trip form.
        let fingerprint = format!("{stats:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(fingerprint, pinned, "{at}: outcome moved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The precomputed fleet-utilization series serves exactly what the
    /// per-server sweep it replaced computes, bitwise, at any instant.
    #[test]
    fn fleet_series_matches_scan_bitwise(secs in 0u64..90 * 86_400) {
        let (_dc, view) = sched_dc();
        let t = harvest::sim::SimTime::from_secs(secs);
        prop_assert_eq!(
            view.fleet_util(t).to_bits(),
            view.fleet_util_scan(t).to_bits(),
            "fleet lookup diverged from the scan at {}s", secs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 2 placements never duplicate a server and never exceed
    /// capacity, for arbitrary writers and replication levels.
    #[test]
    fn history_placement_invariants(seed in 0u64..50, replication in 1usize..6) {
        let dc = harvest::cluster::Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.03),
            7,
        );
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut store = BlockStore::new(&dc);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..50u32 {
            let writer = harvest::cluster::ServerId(
                (seed as u32 * 31 + i) % dc.n_servers() as u32,
            );
            if let Some(p) = placer.place_new(&mut rng, &store, writer, replication, None) {
                prop_assert_eq!(p.servers.len(), replication);
                let mut dedup = p.servers.clone();
                dedup.sort();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), replication, "duplicate replica servers");
                store.create_block(&p.servers);
            }
        }
        // Space accounting never goes negative (has_space guards it).
        for s in &dc.servers {
            prop_assert!(store.free_on(s.id) <= s.harvest_blocks);
        }
    }
}

// --- block store: packed layout against a naive model ------------------

/// The block store as plain nested vectors: what `BlockStore` computed
/// before its forward map was packed.
struct ModelStore {
    replicas: Vec<Vec<u32>>,
    server_blocks: Vec<Vec<u64>>,
    free: Vec<u32>,
    tenant: Vec<usize>,
    tenant_free: Vec<u64>,
    lost: u64,
}

impl ModelStore {
    fn new(dc: &Datacenter) -> Self {
        let mut tenant_free = vec![0u64; dc.n_tenants()];
        for s in &dc.servers {
            tenant_free[s.tenant.0 as usize] += s.harvest_blocks as u64;
        }
        ModelStore {
            replicas: Vec::new(),
            server_blocks: vec![Vec::new(); dc.n_servers()],
            free: dc.servers.iter().map(|s| s.harvest_blocks).collect(),
            tenant: dc.servers.iter().map(|s| s.tenant.0 as usize).collect(),
            tenant_free,
            lost: 0,
        }
    }

    fn add_replica(&mut self, b: usize, s: u32) {
        self.replicas[b].push(s);
        self.server_blocks[s as usize].push(b as u64);
        self.free[s as usize] -= 1;
        self.tenant_free[self.tenant[s as usize]] -= 1;
    }

    fn reimage(&mut self, s: u32) -> Vec<u64> {
        let blocks = std::mem::take(&mut self.server_blocks[s as usize]);
        self.free[s as usize] += blocks.len() as u32;
        self.tenant_free[self.tenant[s as usize]] += blocks.len() as u64;
        for &b in &blocks {
            let list = &mut self.replicas[b as usize];
            if let Some(pos) = list.iter().position(|&x| x == s) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                self.lost += 1;
            }
        }
        blocks
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed store answers every query exactly as the nested-vector
    /// model does — replica order, counts, free space, losses, and the
    /// order of the blocks a reimage returns — across creates of widths
    /// 1–6 (so the stride grows mid-run), reimages and repairs.
    #[test]
    fn block_store_matches_nested_vector_model(
        ops in prop::collection::vec((0u8..3, 0u32..10_000, 1usize..=6, 0u32..10_000), 1..150),
    ) {
        let dc = harvest::cluster::Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.02),
            11,
        );
        let n = dc.n_servers() as u32;
        let mut store = BlockStore::new(&dc);
        let mut model = ModelStore::new(&dc);
        for (kind, a, width, b) in ops {
            match kind {
                0 => {
                    let step = 1 + b % 5;
                    let locs: Vec<ServerId> =
                        (0..width as u32).map(|k| ServerId((a + k * step) % n)).collect();
                    if locs.iter().any(|s| model.free[s.0 as usize] == 0) {
                        continue;
                    }
                    let id = store.create_block(&locs);
                    prop_assert_eq!(id.0 as usize, model.replicas.len());
                    model.replicas.push(Vec::new());
                    for s in &locs {
                        model.add_replica(id.0 as usize, s.0);
                    }
                }
                1 => {
                    let got: Vec<u64> =
                        store.reimage_server(ServerId(a % n)).iter().map(|b| b.0).collect();
                    prop_assert_eq!(got, model.reimage(a % n));
                }
                _ => {
                    if model.replicas.is_empty() {
                        continue;
                    }
                    let block = a as usize % model.replicas.len();
                    let server = b % n;
                    if model.free[server as usize] == 0 || model.replicas[block].contains(&server) {
                        continue;
                    }
                    store.add_replica(harvest::dfs::store::BlockId(block as u64), ServerId(server));
                    model.add_replica(block, server);
                }
            }
            prop_assert_eq!(store.n_blocks(), model.replicas.len());
            for (i, list) in model.replicas.iter().enumerate() {
                let id = harvest::dfs::store::BlockId(i as u64);
                prop_assert_eq!(store.replicas(id), list.as_slice(), "block {}", i);
                prop_assert_eq!(store.replica_count(id), list.len());
            }
            for s in 0..n {
                prop_assert_eq!(store.free_on(ServerId(s)), model.free[s as usize]);
            }
            for t in &dc.tenants {
                prop_assert_eq!(store.tenant_free(t.id), model.tenant_free[t.id.0 as usize]);
            }
            prop_assert_eq!(store.total_free(), model.tenant_free.iter().sum::<u64>());
            prop_assert_eq!(store.lost_blocks(), model.lost);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The container roster — the index reserve enforcement walks —
    /// answers exactly as a naive model does: per-server lists of the
    /// alive containers in placement order, with liveness owned by the
    /// caller. Random places, releases of any alive container
    /// (tombstoning mid-list, so long lists compact) and youngest-first
    /// kills on three servers: `occupied()` stays ascending and names
    /// exactly the servers with alive containers, `live_on` counts
    /// them, and `youngest` is the model's last alive container across
    /// compactions.
    #[test]
    fn container_roster_matches_naive_model(
        ops in prop::collection::vec((0u8..5, 0u32..1_000, 0u32..1_000), 1..400),
    ) {
        use harvest::sched::roster::ContainerRoster;
        const N: usize = 3;
        let mut roster = ContainerRoster::new(N);
        let mut model: Vec<Vec<usize>> = vec![Vec::new(); N];
        let mut alive: Vec<bool> = Vec::new();
        for (kind, a, b) in ops {
            let s = a as usize % N;
            match kind {
                // Place a new container (the most likely op, so lists
                // grow long enough to compact).
                0..=2 => {
                    roster.place(ServerId(s as u32), alive.len());
                    model[s].push(alive.len());
                    alive.push(true);
                }
                // A container anywhere in the list finishes.
                3 if !model[s].is_empty() => {
                    let i = b as usize % model[s].len();
                    let cid = model[s].remove(i);
                    alive[cid] = false;
                    roster.release(ServerId(s as u32), |c| alive[c]);
                }
                // Reserve enforcement kills the youngest.
                _ => {
                    let youngest = roster.youngest(ServerId(s as u32), |c| alive[c]);
                    prop_assert_eq!(youngest, model[s].last().copied());
                    if let Some(cid) = model[s].pop() {
                        alive[cid] = false;
                        roster.release(ServerId(s as u32), |c| alive[c]);
                    }
                }
            }
            let occupied: Vec<u32> = roster.occupied().map(|s| s.0).collect();
            let expect: Vec<u32> = (0..N as u32).filter(|&s| !model[s as usize].is_empty()).collect();
            prop_assert_eq!(occupied, expect);
            prop_assert_eq!(roster.n_occupied(), roster.occupied().count());
            for (s, list) in model.iter().enumerate() {
                prop_assert_eq!(roster.live_on(ServerId(s as u32)) as usize, list.len());
            }
        }
        // Drain every server youngest-first: the roster must hand the
        // survivors back in reverse placement order.
        for (s, list) in model.iter_mut().enumerate() {
            while let Some(cid) = list.pop() {
                prop_assert_eq!(roster.youngest(ServerId(s as u32), |c| alive[c]), Some(cid));
                alive[cid] = false;
                roster.release(ServerId(s as u32), |c| alive[c]);
            }
            prop_assert_eq!(roster.youngest(ServerId(s as u32), |c| alive[c]), None);
        }
        prop_assert_eq!(roster.n_occupied(), 0);
    }
}

// --- job execution: the cached ready-task count -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `JobExecution` keeps its ready-task count as a field that starts,
    /// finishes and kills update in O(1) (a finish that completes its
    /// stage rescans). On random DAGs under random starts, finishes and
    /// kills, the count equals a from-scratch sum over a model that
    /// tracks per-stage pending/running/done counts on its own: pending
    /// tasks of every stage whose dependencies are all done. The
    /// `next_ready_stage` walk and completion agree with the model too.
    #[test]
    fn cached_ready_count_matches_model(
        shape in prop::collection::vec((1u32..5, 0u8..255), 1..8),
        ops in prop::collection::vec((0u8..3, 0u16..60_000), 0..200),
    ) {
        use harvest::jobs::dag::{stage, DagJob, StageId};
        use harvest::jobs::exec::JobExecution;
        // Stage i depends on the earlier stages set in its bit mask.
        let deps: Vec<Vec<usize>> = shape
            .iter()
            .enumerate()
            .map(|(i, &(_, mask))| (0..i.min(8)).filter(|d| mask & (1 << d) != 0).collect())
            .collect();
        let stages = shape
            .iter()
            .zip(&deps)
            .enumerate()
            .map(|(i, (&(tasks, _), d))| stage(format!("s{i}"), tasks, 10, d.clone()))
            .collect();
        let mut exec = JobExecution::new(DagJob::new("prop", stages), SimTime::ZERO);
        let n = shape.len();
        let tasks: Vec<u32> = shape.iter().map(|&(t, _)| t).collect();
        let mut pending = tasks.clone();
        let mut running = vec![0u32; n];
        let mut done = vec![0u32; n];
        for (step, (kind, pick)) in ops.into_iter().enumerate() {
            let ready =
                |s: usize, done: &[u32]| deps[s].iter().all(|&d| done[d] == tasks[d]);
            let candidates: Vec<usize> = match kind {
                0 => (0..n).filter(|&s| pending[s] > 0 && ready(s, &done)).collect(),
                _ => (0..n).filter(|&s| running[s] > 0).collect(),
            };
            if let Some(&s) = candidates.get(pick as usize % candidates.len().max(1)) {
                let at = SimTime::from_secs(step as u64);
                match kind {
                    0 => {
                        exec.start_task(StageId(s));
                        pending[s] -= 1;
                        running[s] += 1;
                    }
                    1 => {
                        exec.finish_task(StageId(s), at);
                        running[s] -= 1;
                        done[s] += 1;
                    }
                    _ => {
                        exec.kill_task(StageId(s));
                        running[s] -= 1;
                        pending[s] += 1;
                    }
                }
            }
            let expect: u32 = (0..n).filter(|&s| ready(s, &done)).map(|s| pending[s]).sum();
            prop_assert_eq!(exec.ready_task_count(), expect, "after op {}", step);
            let stages: Vec<usize> =
                (0..n).filter(|&s| pending[s] > 0 && ready(s, &done)).collect();
            let walked: Vec<usize> = std::iter::successors(exec.next_ready_stage(0), |s| {
                exec.next_ready_stage(s.0 + 1)
            })
            .map(|s| s.0)
            .collect();
            prop_assert_eq!(walked, stages);
            prop_assert_eq!(exec.is_complete(), done == tasks);
        }
    }
}

// --- utilization view: scaling on read, bit-exact against `scale` ------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A scaled view reads the datacenter's shared traces through the
    /// scaling. Every read equals, bit for bit, the same read of an
    /// unscaled view over traces materialised with `scaling::scale`:
    /// random small datacenters, both kinds at parameters that saturate
    /// (and unscaled), jitter on or off, one tenant with no servers and
    /// one trace off the sampling grid (another interval, or a shorter
    /// span, so the view has no shared grid and no fleet series).
    #[test]
    fn scaled_view_reads_match_materialised_traces_bitwise(
        dc_id in 0usize..10,
        dc_seed in 0u64..1_000,
        kind in 0usize..3,
        param in 0.05f64..4.0,
        empty in 0usize..8,
        odd in 0usize..8,
        odd_kind in 0usize..3,
        jitter in 0usize..2,
        jitter_seed in 0u64..1_000,
        secs in prop::collection::vec(0u64..70 * 86_400, 24),
    ) {
        use harvest::cluster::{TenantId, UtilizationView};
        use harvest::trace::datacenter::DatacenterProfile;
        use harvest::trace::SAMPLE_INTERVAL;

        let profile = DatacenterProfile::dc(dc_id).scaled(0.01);
        let mut specs = profile.sample_tenants(dc_seed);
        let n = specs.len();
        specs[empty % n].n_servers = 0;
        let mut dc = Datacenter::from_specs(profile.name(), &specs, dc_seed);
        let odd = &mut dc.tenants[odd % n].trace;
        let samples = odd.values().to_vec();
        *odd = match odd_kind {
            // Another interval: lookups divide by it, not the grid's.
            0 => TimeSeries::new(SimDuration::from_secs(150), samples),
            // A shorter span on the grid: no fleet series.
            1 => TimeSeries::new(SAMPLE_INTERVAL, samples[..997].to_vec()),
            _ => odd.clone(),
        };
        let scaling = match kind {
            0 => None,
            1 => Some((ScalingKind::Linear, param)),
            // Exponents from 1/20 to 4: far below 1 lifts every sample
            // towards saturation.
            _ => Some((ScalingKind::Root, param)),
        };
        let mut materialised = dc.clone();
        if let Some((kind, param)) = scaling {
            for t in &mut materialised.tenants {
                t.trace = scale(&t.trace, kind, param);
            }
        }
        let amp = [0.0, 0.05][jitter];
        let view = UtilizationView::build(&dc, scaling, amp, jitter_seed);
        // The jitter is the view's own; the tenant-level reads below are
        // checked against the materialised series directly.
        let oracle = UtilizationView::build(&materialised, None, amp, jitter_seed);
        let traces: Vec<&TimeSeries> = materialised.tenants.iter().map(|t| &t.trace).collect();
        let mut weights = vec![0.0; n];
        for s in &dc.servers {
            weights[s.tenant.0 as usize] += 1.0;
        }
        let servers = dc.n_servers() as f64;
        let bits = |v: f64| v.to_bits();
        let per_server_mean =
            dc.servers.iter().map(|s| traces[s.tenant.0 as usize].mean()).sum::<f64>() / servers;
        prop_assert_eq!(bits(view.mean_fleet_util()), bits(per_server_mean));
        let mut buf = Vec::new();
        for t in &materialised.tenants {
            prop_assert_eq!(
                float_bits(view.tenant_samples(t.id, &mut buf)),
                float_bits(t.trace.values())
            );
        }
        let ms = SAMPLE_INTERVAL.as_millis();
        // Random instants, each with its slot's start and the start of
        // the next slot, so change queries see both sides of a boundary.
        let instants = secs.iter().flat_map(|&s| {
            let t = SimTime::from_secs(s);
            let slot = t.as_millis() / ms;
            [t, SimTime::from_millis(slot * ms), SimTime::from_millis((slot + 1) * ms)]
        });
        for t in instants {
            let slot = view.slot_of(t);
            prop_assert_eq!(slot, t.as_millis() / ms);
            let scan = traces.iter().zip(&weights).map(|(tr, &w)| tr.at(t) * w).sum::<f64>()
                / servers;
            prop_assert_eq!(bits(view.fleet_util_scan(t)), bits(scan));
            prop_assert_eq!(bits(view.fleet_util(t)), bits(scan));
            for (tenant, tr) in traces.iter().enumerate() {
                let tid = TenantId(tenant as u32);
                prop_assert_eq!(bits(view.tenant_util(tid, t)), bits(tr.at(t)));
                let changed = slot == 0
                    || tr.at(SimTime::from_millis(slot * ms)).to_bits()
                        != tr.at(SimTime::from_millis((slot - 1) * ms)).to_bits();
                prop_assert_eq!(view.tenant_sample_changed(tid, slot), changed);
            }
            for s in &dc.servers {
                let util = view.server_util(s.id, t);
                prop_assert_eq!(bits(util), bits(oracle.server_util(s.id, t)));
                if amp == 0.0 {
                    prop_assert_eq!(bits(util), bits(traces[s.tenant.0 as usize].at(t)));
                }
                prop_assert_eq!(
                    view.server_sample_changed(s.id, slot),
                    oracle.server_sample_changed(s.id, slot)
                );
            }
        }
    }
}

// --- calibration: bit-exact against the scale-then-mean bisection -------

/// `calibrate`'s reference fleet mean: scale every trace, take each
/// mean, and add the means in trace order.
fn reference_mean(traces: &[&TimeSeries], kind: ScalingKind, param: f64) -> f64 {
    let total: f64 = traces.iter().map(|t| scale(t, kind, param).mean()).sum();
    total / traces.len() as f64
}

/// `calibrate`'s reference: all 60 bisection steps over
/// [`reference_mean`]. Returns the result and the midpoint of each step.
fn reference_calibrate(
    traces: &[&TimeSeries],
    kind: ScalingKind,
    target_mean: f64,
) -> (f64, Vec<f64>) {
    let (mut lo, mut hi, increasing) = match kind {
        ScalingKind::Linear => (0.0f64, 64.0f64, true),
        ScalingKind::Root => (1.0 / 64.0, 64.0f64, false),
    };
    let mut mids = Vec::with_capacity(60);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        mids.push(mid);
        let m = reference_mean(traces, kind, mid);
        let go_up = if increasing {
            m < target_mean
        } else {
            m > target_mean
        };
        if go_up {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi), mids)
}

/// One sample from a `(pick, uniform)` draw: exactly 0, exactly 1
/// (saturated), or uniform in [0, 1).
fn calibration_sample((pick, u): (usize, f64)) -> f64 {
    match pick {
        0 => 0.0,
        1 => 1.0,
        _ => u,
    }
}

proptest! {
    /// `calibrate` returns the reference bisection's exact bits for 1–20
    /// traces (group remainders included) of shared or mixed lengths,
    /// both scalings, targets 0, 1 and between, and samples that are
    /// exactly 0 or saturate. The knife-edge targets are the reference
    /// mean at midpoints the search visits, where a mean off by one ulp
    /// turns the search the other way.
    #[test]
    fn calibration_matches_reference_bitwise(
        shared_len in 1usize..200,
        traces in prop::collection::vec(
            (0usize..8, 1usize..200, prop::collection::vec((0usize..8, 0.0f64..1.0), 200)),
            1..21,
        ),
        target in 0.0f64..1.0,
        steps in prop::collection::vec(0usize..60, 3),
    ) {
        // Most traces share one length, so whole groups run in lockstep;
        // the rest break their group's lengths apart.
        let series: Vec<TimeSeries> = traces
            .iter()
            .map(|(mixed, own_len, samples)| {
                let len = if *mixed == 0 { *own_len } else { shared_len };
                let values = samples[..len].iter().map(|&s| calibration_sample(s)).collect();
                TimeSeries::new(SimDuration::from_mins(2), values)
            })
            .collect();
        let refs: Vec<&TimeSeries> = series.iter().collect();
        for kind in [ScalingKind::Linear, ScalingKind::Root] {
            let (_, mids) = reference_calibrate(&refs, kind, target);
            let knife_edges = steps.iter().map(|&k| reference_mean(&refs, kind, mids[k]));
            for t in [0.0, 1.0, target].into_iter().chain(knife_edges) {
                let got = calibrate(&refs, kind, t);
                let (want, _) = reference_calibrate(&refs, kind, t);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} traces, {kind} to {t}: {got} vs reference {want}",
                    refs.len()
                );
            }
        }
    }
}

/// A long-trace sample: for most picks `knee` with relative spread
/// `spread`, else exactly 0, exactly 1, negative or above 1.
fn knee_sample(knee: f64, spread: f64, (pick, u): (usize, f64)) -> f64 {
    match pick {
        0 => 0.0,
        1 => 1.0,
        2 => -u,
        3 => 1.0 + u,
        _ => knee * (1.0 + spread * (u - 0.5)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `calibrate` returns the reference bisection's exact bits on
    /// traces of 65–700 samples, which span several of the summary
    /// blocks its cheap check reads. Each trace clusters around the
    /// knee `1/k` of one midpoint a linear search over the traces
    /// visits, at a relative spread from 0 to 0.5, so at nearby steps
    /// its blocks straddle the knee while others sit wholly below it or
    /// saturate; a few samples are exactly 0 or 1, negative or above 1.
    /// Both scalings, at targets 0, 1, between and knife edges.
    #[test]
    fn long_trace_calibration_matches_reference_bitwise(
        shared_len in 65usize..=700,
        traces in prop::collection::vec(
            (
                0usize..4,
                65usize..=700,
                0usize..60,
                0usize..4,
                prop::collection::vec((0usize..150, 0.0f64..1.0), 700),
            ),
            1..12,
        ),
        target in 0.0f64..1.0,
        steps in prop::collection::vec(0usize..60, 3),
    ) {
        let build = |mids: &[f64]| -> Vec<TimeSeries> {
            traces
                .iter()
                .map(|(mixed, own_len, knee, spread, samples)| {
                    let len = if *mixed == 0 { *own_len } else { shared_len };
                    let knee = 1.0 / mids[*knee];
                    let spread = [0.0, 1e-9, 1e-3, 0.5][*spread];
                    let values = samples[..len]
                        .iter()
                        .map(|&s| knee_sample(knee, spread, s))
                        .collect();
                    TimeSeries::new(SimDuration::from_mins(2), values)
                })
                .collect()
        };
        // The knees are the midpoints a linear search visits over traces
        // clustered at 1/2; the final traces share its early steps.
        let first = build(&[2.0; 60]);
        let first_refs: Vec<&TimeSeries> = first.iter().collect();
        let (_, mids) = reference_calibrate(&first_refs, ScalingKind::Linear, target);
        let series = build(&mids);
        let refs: Vec<&TimeSeries> = series.iter().collect();
        for kind in [ScalingKind::Linear, ScalingKind::Root] {
            let (_, mids) = reference_calibrate(&refs, kind, target);
            let knife_edges = steps.iter().map(|&k| reference_mean(&refs, kind, mids[k]));
            for t in [0.0, 1.0, target].into_iter().chain(knife_edges) {
                let got = calibrate(&refs, kind, t);
                let (want, _) = reference_calibrate(&refs, kind, t);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} traces, {kind} to {t}: {got} vs reference {want}",
                    refs.len()
                );
            }
        }
    }
}

// --- spectra: bit-exact against the per-block textbook transform -------

/// The textbook per-block transform, the oracle of `harvest-signal`'s
/// own kernel tests, compiled here from the same test-only file.
#[path = "../crates/signal/src/fft/reference.rs"]
mod fft_reference;

/// `power_spectrum_truncated`'s reference: the largest power-of-two
/// prefix, mean-subtracted and Hann-windowed, through the per-block
/// transform; `|X[k]|²` for bins `0..=n/2`.
fn reference_powers(signal: &[f64]) -> (Vec<f64>, usize) {
    let n = 1usize << signal.len().ilog2();
    let mean = signal[..n].iter().sum::<f64>() / n as f64;
    let hann = |i: usize| {
        if n == 1 {
            1.0
        } else {
            (std::f64::consts::PI * i as f64 / (n - 1) as f64)
                .sin()
                .powi(2)
        }
    };
    let mut data: Vec<(f64, f64)> = (0..n)
        .map(|i| ((signal[i] - mean) * hann(i), 0.0))
        .collect();
    fft_reference::per_block_transform(&mut data, false);
    let powers = data[..=n / 2]
        .iter()
        .map(|&(re, im)| re * re + im * im)
        .collect();
    (powers, n)
}

/// `periodicity_strength`'s reference over [`reference_powers`]: the
/// share of the power from bin 2 up that lies within two bins of the
/// first four harmonics of `period`.
fn reference_strength(signal: &[f64], period: f64) -> f64 {
    if signal.len() < 8 || period <= 0.0 {
        return 0.0;
    }
    let (powers, n) = reference_powers(signal);
    let total: f64 = powers.iter().skip(2).sum();
    if total <= 1e-9 {
        return 0.0;
    }
    let mut band = 0.0;
    for harmonic in 1..=4 {
        let center = n as f64 / period * harmonic as f64;
        let lo = (center - 2.0).floor().max(2.0) as usize;
        let hi = ((center + 2.0).ceil() as usize).min(powers.len() - 1);
        if lo <= hi {
            band += powers[lo..=hi].iter().sum::<f64>();
        }
    }
    (band / total).clamp(0.0, 1.0)
}

/// `classify_with_features`' reference: the trace's mean, peak and
/// standard deviation, its [`reference_strength`] at the classifier's
/// period, and the classifier's thresholds over them.
fn reference_classification(
    values: &[f64],
    config: &ClassifierConfig,
) -> (UtilizationPattern, [f64; 4]) {
    let (mean, peak, std_dev) = if values.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let len = values.len() as f64;
        let mean = values.iter().sum::<f64>() / len;
        let peak = values.iter().fold(f64::NEG_INFINITY, |p, &v| p.max(v));
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / len;
        (mean, peak, var.sqrt())
    };
    let strength = reference_strength(values, config.period_samples);
    let cv = if mean.abs() < 1e-9 {
        0.0
    } else {
        std_dev / mean
    };
    let pattern = if values.len() < 8 {
        UtilizationPattern::Unpredictable
    } else if cv <= config.constant_cv_max {
        UtilizationPattern::Constant
    } else if strength >= config.periodic_strength_min {
        UtilizationPattern::Periodic
    } else {
        UtilizationPattern::Unpredictable
    };
    (pattern, [mean, peak, std_dev, strength])
}

fn float_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The spectrum path on real experiment inputs: tenant traces of a
    /// generated datacenter, raw or linear- or root-scaled (saturated
    /// runs included), truncated to lengths from 1 to the full month —
    /// powers of two, others, and lengths below 8. Every power,
    /// periodicity strength, pattern and feature is bitwise its
    /// reference over the per-block transform, with one scratch reused
    /// across every length, as the clustering service reuses it.
    #[test]
    fn spectra_match_the_per_block_reference_on_real_traces(
        dc_seed in 0u64..1_000,
        picks in prop::collection::vec((0usize..64, 0usize..3, 0.2f64..3.0, 1usize..21_600), 3),
    ) {
        let dc = Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.02),
            dc_seed,
        );
        let config = ClassifierConfig::default();
        let mut scratch = SpectrumScratch::new();
        for &(tenant, scaling, param, extra_len) in &picks {
            let raw = &dc.tenants[tenant % dc.tenants.len()].trace;
            let trace = match scaling {
                0 => raw.clone(),
                1 => scale(raw, ScalingKind::Linear, param),
                _ => scale(raw, ScalingKind::Root, param),
            };
            let full = trace.values();
            for len in [1, 2, 3, 5, 7, 8, 9, 720, 1_000, 4_096, extra_len, full.len()] {
                let signal = &full[..len.min(full.len())];
                let (want, want_n) = reference_powers(signal);
                let n = power_spectrum_truncated_into(signal, &mut scratch);
                prop_assert_eq!(n, want_n);
                prop_assert_eq!(float_bits(scratch.powers()), float_bits(&want), "len {}", len);
                let (powers, n) = power_spectrum_truncated(signal);
                prop_assert_eq!(n, want_n);
                prop_assert_eq!(float_bits(&powers), float_bits(&want), "len {}", len);

                for period in [config.period_samples, len as f64 / 6.0] {
                    let got = periodicity_strength_with(signal, period, &mut scratch);
                    let want = reference_strength(signal, period);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "len {}, period {}", len, period);
                }

                let (pattern, features) = classify_with_features(signal, &config, &mut scratch);
                let (want_pattern, want_features) = reference_classification(signal, &config);
                prop_assert_eq!(pattern, want_pattern, "len {}", len);
                prop_assert_eq!(
                    float_bits(&features.to_vec()),
                    float_bits(&want_features),
                    "len {}",
                    len
                );
            }
        }
    }
}

// --- parsers: errors, never panics --------------------------------------

/// Bytes that steer random input into the JSON and journal grammars:
/// structure, string escapes, literals, numbers, hex and separators.
const GRAMMAR_BYTES: &[u8] = b"{}[],:\"\\/bfnrtu0123456789abcdefE+-. \n\tlsenul";

/// Random text: each `(pick, byte)` is a grammar byte or, for pick 0, a
/// raw byte, decoded as lossy UTF-8.
fn fuzz_text(draws: &[(usize, u8)]) -> String {
    let bytes: Vec<u8> = draws
        .iter()
        .map(|&(pick, b)| {
            if pick == 0 {
                b
            } else {
                GRAMMAR_BYTES[b as usize % GRAMMAR_BYTES.len()]
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` with each `(at, byte)` XOR-ed into the byte at `at` (a
/// fraction of the length; a zero byte flips nothing), as lossy UTF-8.
fn flip_bytes(text: &str, flips: &[(f64, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, b) in flips {
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[i] ^= b;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` cut to a fraction `at` of its bytes, as lossy UTF-8.
fn truncate_bytes(text: &str, at: f64) -> String {
    let len = (at * text.len() as f64) as usize;
    String::from_utf8_lossy(&text.as_bytes()[..len]).into_owned()
}

/// Both exports of a small recording with counters, a gauge, sim-time
/// spans and a hostile name.
fn real_exports() -> [String; 2] {
    use harvest::sim::obs::Recorder;
    let mut rec = Recorder::new("props");
    let c = rec.counter("flows \"done\"\n");
    rec.add(c, 42);
    let g = rec.gauge("queue/len");
    rec.gauge_at(g, SimTime::from_millis(3), 7.5);
    let track = rec.track("net/flow");
    rec.span(
        track,
        "transfer",
        SimTime::from_millis(1),
        SimTime::from_millis(9),
    );
    rec.wall_span("worker", "task", 0, 5);
    [rec.metrics_json(), rec.chrome_trace_json()]
}

/// A journal written through `Checkpoint`, holding its settings
/// manifest and three results.
fn real_journal() -> String {
    use harvest::core::checkpoint::{hex_f64, hex_u64, obj, Checkpoint};
    use harvest::core::Scale;
    let path = std::env::temp_dir().join(format!("harvest-props-{}.journal", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let (cp, _, _) = Checkpoint::open(Some(path), None, &Scale::quick())
        .expect("journal opens")
        .expect("a write path gives a checkpoint");
    for (i, key) in [
        "fig15/dc1/cell0/r0",
        "fig15/dc1/cell1/r0",
        "fig13/linear/r1",
    ]
    .iter()
    .enumerate()
    {
        let value = obj(&[
            ("n", hex_u64(i as u64 + 1)),
            ("p", hex_f64(0.25 * i as f64)),
        ]);
        cp.journal(key, &value);
    }
    cp.flush().expect("journal flushes");
    let text = std::fs::read_to_string(path).expect("journal reads back");
    let _ = std::fs::remove_file(path);
    text
}

proptest! {
    /// `obs::json::parse` and `checkpoint::parse_journal` return, never
    /// panic, on arbitrary text.
    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        draws in prop::collection::vec((0usize..3, 0u8..=255), 0..300),
    ) {
        use harvest::core::checkpoint::parse_journal;
        use harvest::sim::obs::json;
        let text = fuzz_text(&draws);
        let _ = json::parse(&text);
        let _ = parse_journal(&text);
    }

    /// Truncated or byte-flipped copies of real exports and journals
    /// never panic the parsers; an export cut short is an error.
    #[test]
    fn parsers_never_panic_on_damaged_real_inputs(
        cut in 0.0f64..1.0,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..=255), 1..4),
    ) {
        use harvest::core::checkpoint::parse_journal;
        use harvest::sim::obs::json;
        for export in real_exports() {
            let truncated = truncate_bytes(export.trim_end(), cut);
            prop_assert!(
                json::parse(&truncated).is_err(),
                "a truncated export parsed: {truncated:?}"
            );
            let flipped = flip_bytes(&export, &flips);
            let _ = json::parse(&flipped);
        }
        let journal = real_journal();
        prop_assert_eq!(parse_journal(&journal)?.map.len(), 4);
        for damaged in [truncate_bytes(&journal, cut), flip_bytes(&journal, &flips)] {
            let _ = parse_journal(&damaged);
        }
    }
}

// --- observability: export → parse round trips -------------------------

/// Characters chosen to stress the JSON escaper: quotes, backslashes,
/// control characters, multibyte unicode (including an astral-plane
/// glyph), structural punctuation, and plain ASCII.
const HOSTILE: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '{', '}', '[', ']', ',', ':', 'é', '→', '日',
    '𝕏', 'a', 'Z', ' ',
];

fn hostile_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| HOSTILE[i % HOSTILE.len()]).collect()
}

proptest! {
    /// Arbitrary hostile names — used as counter, gauge, sim-track, and
    /// wall-track names — survive both exporters and come back intact
    /// through `obs::json::parse`.
    #[test]
    fn obs_exports_round_trip_hostile_names(
        names in prop::collection::vec(prop::collection::vec(0usize..1000, 0..12), 1..5),
    ) {
        use harvest::sim::obs::{json, Recorder};
        let names: Vec<String> = names.iter().map(|p| hostile_string(p)).collect();
        let mut rec = Recorder::new("props");
        for (i, n) in names.iter().enumerate() {
            let c = rec.counter(n);
            rec.add(c, i as u64 + 1);
            let g = rec.gauge(n);
            rec.gauge_at(g, SimTime::from_millis(1), i as f64);
            rec.track(n);
            rec.wall_span(n, n, 0, 5);
        }
        let metrics = json::parse(&rec.metrics_json()).map_err(|e| format!("metrics: {e}"))?;
        let counters = metrics.get("counters").ok_or("no counters")?;
        for n in &names {
            // Interned by name: the last add under a duplicate name wins
            // the id, but every name must be present and parse back to
            // the exact same string.
            prop_assert!(
                counters.get(n).is_some(),
                "counter {n:?} lost in metrics round trip"
            );
        }
        let trace = json::parse(&rec.chrome_trace_json()).map_err(|e| format!("trace: {e}"))?;
        let events = trace.get("traceEvents").and_then(|v| v.as_arr()).ok_or("no events")?;
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for n in &names {
            prop_assert!(
                thread_names.iter().filter(|t| *t == n).count() >= 2,
                "track name {n:?} lost in trace round trip (sim + wall)"
            );
        }
    }

    /// Randomized wait-state histories round-trip through the Chrome
    /// trace into `obs::analyze` with exact conservation, and the
    /// critical path never exceeds the makespan.
    #[test]
    fn obs_state_round_trip_conserves(
        entities in prop::collection::vec(prop::collection::vec((0usize..5, 1u64..100), 1..6), 1..20),
    ) {
        use harvest::sim::obs::{analyze, Recorder};
        const VOCAB: [&str; 5] =
            ["queued", "running", "blocked_on_net", "blocked_on_disk_read", "throttle_parked"];
        let mut rec = Recorder::new("props");
        let st = rec.state_track("props/entity");
        let mut lifetime_ms = 0u64;
        for (e, segs) in entities.iter().enumerate() {
            let mut at = (e as u64) * 13;
            let birth = at;
            for &(s, dur) in segs {
                rec.state_enter(st, e as u64, VOCAB[s], SimTime::from_millis(at));
                at += dur;
            }
            rec.state_exit(st, e as u64, SimTime::from_millis(at));
            lifetime_ms += at - birth;
        }
        let a = analyze::analyze_recorder(&rec).map_err(|e| e.to_string())?;
        prop_assert_eq!(a.states.len(), 1);
        let sb = &a.states[0];
        prop_assert_eq!(sb.entities, entities.len());
        prop_assert_eq!(sb.conserved, entities.len(), "conservation must be exact");
        prop_assert_eq!(sb.lifetime_us, lifetime_ms * 1_000);
        prop_assert!(sb.critical_us <= sb.makespan_us);
    }
}

// --- fault injection: determinism, no-fault oracle, conservation --------

/// A small fig16 scale so the faulted-report properties run in seconds.
fn fault_scale(
    jobs: usize,
    faults: Option<harvest::sim::fault::FaultProfile>,
) -> harvest::core::Scale {
    let mut s = harvest::core::Scale::quick();
    s.dc_scale = 0.02;
    s.availability_days = 1;
    s.utilizations = vec![0.45];
    s.jobs = jobs;
    s.faults = faults;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same fault profile + seed ⇒ byte-identical report at any worker
    /// count: the fault path draws its plan from a dedicated stream per
    /// run, so `par_map`'s order-preserving writes keep thread count
    /// unobservable even mid-storm. Without a profile the report must
    /// carry no fault note at all (the no-fault stdout oracle).
    #[test]
    fn faulted_reports_identical_at_any_jobs(
        seed in 0u64..1_000,
        pick in 0usize..4,
        jobs in 2usize..8,
    ) {
        let profile = harvest::sim::fault::FaultProfile::ALL[pick];
        let render = |jobs: usize, faults| {
            let mut s = fault_scale(jobs, faults);
            s.seed = seed;
            harvest::core::run_experiment("fig16", &s, &mut harvest::sim::obs::Recorder::off()).expect("fig16 renders")
        };
        let armed_seq = render(1, Some(profile));
        let armed_par = render(jobs, Some(profile));
        prop_assert_eq!(&armed_seq, &armed_par, "faulted report depends on --jobs");
        prop_assert!(
            armed_seq.contains("fault profile"),
            "armed report lacks its fault-accounting note"
        );
        let clean_seq = render(1, None);
        let clean_par = render(jobs, None);
        prop_assert_eq!(&clean_seq, &clean_par, "clean report depends on --jobs");
        prop_assert!(
            !clean_seq.contains("fault profile"),
            "unarmed report mentions faults"
        );
    }

    /// The no-fault oracle at the experiment layer: a plan with zero
    /// events is bitwise inert no matter how its reaction knobs are
    /// set — retry budget, backoff, and shedding only matter once an
    /// event fires.
    #[test]
    fn empty_fault_plan_is_bitwise_inert(
        seed in 0u64..1_000,
        retries in 0u32..8,
        shed in 1usize..64,
    ) {
        use harvest::core::experiments::durability::run_loss;
        use harvest::sim::fault::FaultPlan;
        let dc = Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(3).scaled(0.01),
            11,
        );
        let mut knobs = FaultPlan::none();
        knobs.max_retries = retries;
        knobs.shed_inflight_above = Some(shed);
        let a = run_loss(
            &dc, PlacementPolicy::Stock, 3, 2, seed, 0, None, None, &FaultPlan::none(),
        );
        let b = run_loss(&dc, PlacementPolicy::Stock, 3, 2, seed, 0, None, None, &knobs);
        prop_assert_eq!(a.percent.to_bits(), b.percent.to_bits());
        prop_assert_eq!(a.blocks, b.blocks);
        prop_assert_eq!(b.faults_injected, 0);
        prop_assert_eq!(b.repairs_aborted, 0);
        prop_assert_eq!(b.fault_retries, 0);
        prop_assert_eq!(b.retries_exhausted, 0);
    }

    /// Faulted recorded traces still conserve: every repair entity's
    /// states — `failed` and `retrying` included — tile its lifetime
    /// exactly, for any profile and seed.
    #[test]
    fn faulted_traces_conserve(seed in 0u64..1_000, pick in 0usize..4) {
        use harvest::dfs::durability::{simulate_durability, DurabilityConfig};
        use harvest::sim::obs::{analyze, Recorder};
        let profile = harvest::sim::fault::FaultProfile::ALL[pick];
        let dc = Datacenter::generate(
            &harvest::trace::datacenter::DatacenterProfile::dc(9).scaled(0.01),
            11,
        );
        let mut cfg = DurabilityConfig::paper(PlacementPolicy::Stock, 3, seed);
        cfg.months = 2;
        cfg.faults = profile.plan(seed, dc.cluster_shape(), SimDuration::from_days(60));
        let mut rec = Recorder::new("fault-prop");
        let r = simulate_durability(&dc, &cfg, &mut rec);
        prop_assert!(r.faults_injected > 0, "{} never fired", profile.name());
        let a = analyze::analyze_recorder(&rec).map_err(|e| e.to_string())?;
        prop_assert!(a.conserved(), "faulted trace failed conservation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Panic isolation: force exactly one task to panic at a random
    /// index and the supervisor quarantines exactly that task — every
    /// other slot's result is bitwise identical to a clean run, at any
    /// worker count.
    #[test]
    fn supervised_map_quarantines_only_the_panicking_task(
        n in 1usize..40,
        panic_pick in 0usize..1_000,
        jobs in 1usize..5,
    ) {
        use harvest::sim::supervise::{par_map_supervised, RetryBudget, SuperviseConfig};
        let panic_at = panic_pick % n;
        let tasks: Vec<u64> = (0..n as u64).collect();
        let cfg = SuperviseConfig {
            retry: RetryBudget { max_retries: 1, base_ms: 1, cap_ms: 2 },
            ..SuperviseConfig::default()
        };
        let value = |t: u64| t.wrapping_mul(0x9e37_79b9_7f4a_7c15) as f64 / 7.0;
        let out = par_map_supervised(jobs, &tasks, &cfg, |i, &t, _cancel| {
            if i == panic_at {
                panic!("forced panic at {i}");
            }
            value(t)
        });
        prop_assert_eq!(out.quarantined.len(), 1, "exactly one quarantine");
        prop_assert_eq!(out.quarantined[0].task, panic_at);
        // One retry was spent before giving up (max_retries = 1).
        prop_assert_eq!(out.quarantined[0].attempts, 2);
        prop_assert!(out.quarantined[0].payload.contains("forced panic"));
        for (i, (slot, &t)) in out.results.iter().zip(&tasks).enumerate() {
            if i == panic_at {
                prop_assert!(slot.is_none(), "quarantined slot must be empty");
            } else {
                let got = slot.expect("healthy task has a result");
                prop_assert_eq!(got.to_bits(), value(t).to_bits());
            }
        }
    }
}

/// A reference copy of the event queue as it was when its live set was
/// a SipHash `HashSet`: the heap, tombstones, top purge and compaction
/// rule are what `EventQueue::len`/`n_stale` report and `repro` prints,
/// so any rewrite of the queue must reproduce every counter of this
/// copy after every operation.
mod reference_queue {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    use harvest::sim::time::SimTime;

    const COMPACT_MIN_TOMBSTONES: usize = 64;

    struct Scheduled {
        time: SimTime,
        seq: u64,
        event: u64,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl Eq for Scheduled {}

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    #[derive(Default)]
    pub struct RefQueue {
        heap: BinaryHeap<Scheduled>,
        live: HashSet<u64>,
        next_seq: u64,
        now: SimTime,
        dead_cancels: u64,
    }

    impl RefQueue {
        pub fn push_keyed(&mut self, time: SimTime, event: u64) -> u64 {
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.live.insert(seq);
            self.heap.push(Scheduled { time, seq, event });
            seq
        }

        pub fn cancel(&mut self, key: u64) -> bool {
            if !self.live.remove(&key) {
                self.dead_cancels += 1;
                return false;
            }
            self.purge_top();
            let tombstones = self.heap.len() - self.live.len();
            if tombstones > COMPACT_MIN_TOMBSTONES && tombstones > self.live.len() {
                let mut entries = std::mem::take(&mut self.heap).into_vec();
                entries.retain(|s| self.live.contains(&s.seq));
                self.heap = BinaryHeap::from(entries);
            }
            true
        }

        fn purge_top(&mut self) {
            while let Some(s) = self.heap.peek() {
                if self.live.contains(&s.seq) {
                    break;
                }
                self.heap.pop();
            }
        }

        pub fn pop(&mut self) -> Option<(SimTime, u64)> {
            let s = self.heap.pop()?;
            self.live.remove(&s.seq);
            self.purge_top();
            self.now = s.time;
            Some((s.time, s.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.time)
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn live_len(&self) -> usize {
            self.live.len()
        }

        pub fn n_stale(&self) -> usize {
            self.heap.len() - self.live.len()
        }

        pub fn n_dead_cancels(&self) -> u64 {
            self.dead_cancels
        }
    }
}

proptest! {
    /// The event queue's observable behaviour is pinned to the
    /// reference copy: after every push, keyed push, re-prediction
    /// (cancel a live event, push its replacement — the engines' churn),
    /// cancel of any key (live, fired or already cancelled) and pop,
    /// both agree on what popped, `peek_time`, `len`, `n_stale`,
    /// `live_len` and `n_dead_cancels`. Re-predictions outpace pops, so
    /// tombstones outgrow live events and the heap is compacted many
    /// times over.
    #[test]
    fn event_queue_counters_match_the_reference(
        ops in prop::collection::vec((0u8..8, 0u64..400, 0usize..1 << 20), 1..2_000),
    ) {
        use std::collections::BTreeMap;

        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r = reference_queue::RefQueue::default();
        // Every key issued, and the keyed events still pending, by
        // payload; product and reference keys side by side.
        let mut keys = Vec::new();
        let mut pending = BTreeMap::new();
        for (step, &(op, dt, pick)) in ops.iter().enumerate() {
            let at = q.now() + SimDuration::from_millis(dt);
            let payload = step as u64;
            match op {
                0 => {
                    q.push(at, payload);
                    r.push_keyed(at, payload);
                }
                1..=5 => {
                    if op >= 3 && !pending.is_empty() {
                        let victim = *pending.keys().nth(pick % pending.len()).expect("in range");
                        let (k, rk) = pending.remove(&victim).expect("pending");
                        prop_assert!(q.cancel(k), "live cancel at step {}", step);
                        prop_assert!(r.cancel(rk));
                    }
                    let pair = (q.push_keyed(at, payload), r.push_keyed(at, payload));
                    keys.push(pair);
                    pending.insert(payload, pair);
                }
                6 if !keys.is_empty() => {
                    let (k, rk) = keys[pick % keys.len()];
                    prop_assert_eq!(q.cancel(k), r.cancel(rk), "cancel at step {}", step);
                    pending.retain(|_, pair: &mut (_, u64)| pair.1 != rk);
                }
                _ => {
                    let popped = q.pop();
                    prop_assert_eq!(popped, r.pop(), "pop at step {}", step);
                    if let Some((_, payload)) = popped {
                        pending.remove(&payload);
                    }
                }
            }
            prop_assert_eq!(q.now(), r.now());
            prop_assert_eq!(q.peek_time(), r.peek_time(), "peek at step {}", step);
            prop_assert_eq!(q.len(), r.len(), "len at step {}", step);
            prop_assert_eq!(q.n_stale(), r.n_stale(), "n_stale at step {}", step);
            prop_assert_eq!(q.live_len(), r.live_len(), "live_len at step {}", step);
            prop_assert_eq!(q.n_dead_cancels(), r.n_dead_cancels());
            prop_assert_eq!(q.is_empty(), r.len() == 0);
        }
        // Drain: the survivors pop in the same order.
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
    }
}
