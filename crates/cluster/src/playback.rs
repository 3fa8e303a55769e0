//! Utilization playback: "what is this server's primary CPU utilization
//! at time T?"
//!
//! A [`UtilizationView`] reads the datacenter's tenant traces through an
//! optional scaling and answers per-server lookups. Servers of the same
//! tenant share the tenant's "average server" trace plus a small
//! deterministic per-server jitter, reflecting §3.2's observation that
//! load "is not always evenly balanced across all servers of a primary
//! tenant".
//!
//! # Cost model
//!
//! The view is built once and queried millions of times, so queries are
//! index arithmetic, never scans, and the view holds no copy of the
//! traces:
//!
//! * The view shares the `Datacenter`'s own trace buffers (a
//!   [`TimeSeries`] clone is a reference-count bump) and applies
//!   [`ScalingKind::apply`] to each sample it reads — the per-sample
//!   transform `scaling::scale` maps over a series, so every read has
//!   the bits a materialised scaled trace would give. Full-size DC-9
//!   holds 520 × 21,600 samples (~90 MB); a copy per view used to
//!   double that for every sweep point. A read costs one grid-slot
//!   division by the constant sampling interval (shared with the
//!   jitter hash), one modulo into the trace and the transform: a
//!   multiply and a clamp under linear scaling, a `powf` (~22 ns)
//!   under root scaling.
//! * [`UtilizationView::fleet_util`] is one array lookup into a
//!   server-weighted fleet [`TimeSeries`] precomputed at build time.
//!   The accumulation is per *tenant* (each tenant's scaled sample times
//!   its server count), so the precompute is O(samples × tenants)
//!   instead of O(samples × servers), and a tick pays one lookup instead
//!   of an O(servers) sweep. Each trace is scaled into one reused buffer
//!   and added into the accumulator while that buffer is still in
//!   cache; an unscaled view adds the shared samples directly.
//!   [`UtilizationView::fleet_util_scan`] recomputes the same quantity
//!   per call (same tenant-order accumulation, so bitwise identical):
//!   it is the fallback for views whose traces share no sampling grid,
//!   and the oracle that tests and the scheduler's debug-build tick
//!   postconditions check the lookup against. It differs from the
//!   naive per-server sum only by float-rounding ulps (well inside the
//!   1e-9 the tests allow).
//! * [`UtilizationView::tenant_samples`] hands out one tenant's samples
//!   as the view reads them — the shared samples when unscaled, else
//!   scaled into a caller-owned buffer with the kind matched once per
//!   trace — for whole-trace consumers such as the clustering service.
//! * [`UtilizationView::mean_fleet_util`] takes each tenant's scaled
//!   mean once and adds those means per server, in server order.
//! * [`UtilizationView::slot_of`], [`UtilizationView::tenant_sample_changed`],
//!   and [`UtilizationView::server_sample_changed`] expose the sampling
//!   grid so change-driven callers (the scheduler's tick) can skip
//!   tenants and servers whose sample did not move across a tick
//!   boundary, instead of re-reading the whole fleet.
//!
//! Everything stays deterministic: jitter is a hash of (seed, server,
//! slot), and "changed" compares samples bitwise, so a change-driven
//! replay touches exactly the servers whose playback value moved.

use harvest_sim::rng::splitmix64;
use harvest_sim::{SimDuration, SimTime};
use harvest_trace::scaling::ScalingKind;
use harvest_trace::timeseries::TimeSeries;
use harvest_trace::SAMPLE_INTERVAL;

use crate::datacenter::Datacenter;
use crate::server::{ServerId, TenantId};

/// Default per-server jitter amplitude around the tenant trace.
pub const DEFAULT_JITTER: f64 = 0.01;

/// A scaled, queryable view of every tenant's utilization.
#[derive(Debug, Clone)]
pub struct UtilizationView {
    /// The datacenter's tenant traces, unscaled (shared, not copied).
    traces: Vec<TimeSeries>,
    /// The scaling every read applies (`None`: the traces as they are).
    scaling: Option<(ScalingKind, f64)>,
    server_tenant: Vec<u32>,
    /// Servers per tenant — the fleet-average weights.
    tenant_servers: Vec<f64>,
    jitter_amp: f64,
    jitter_seed: u64,
    /// Server-weighted fleet utilization, one sample per trace slot,
    /// precomputed at build time (`None` when the tenant traces do not
    /// share a sampling grid and the scan fallback must be used).
    fleet: Option<TimeSeries>,
}

impl UtilizationView {
    /// A view of the unscaled traces.
    pub fn unscaled(dc: &Datacenter) -> Self {
        Self::build(dc, None, DEFAULT_JITTER, 0)
    }

    /// A view with the given scaling applied to every tenant trace.
    pub fn scaled(dc: &Datacenter, kind: ScalingKind, param: f64) -> Self {
        Self::build(dc, Some((kind, param)), DEFAULT_JITTER, 0)
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics if the scaling parameter is invalid for its kind (see
    /// [`ScalingKind::check_param`]).
    pub fn build(
        dc: &Datacenter,
        scaling: Option<(ScalingKind, f64)>,
        jitter_amp: f64,
        jitter_seed: u64,
    ) -> Self {
        if let Some((kind, param)) = scaling {
            kind.check_param(param);
        }
        let server_tenant: Vec<u32> = dc.servers.iter().map(|s| s.tenant.0).collect();
        let mut tenant_servers = vec![0.0f64; dc.tenants.len()];
        for &tid in &server_tenant {
            tenant_servers[tid as usize] += 1.0;
        }
        let mut view = UtilizationView {
            traces: dc.tenants.iter().map(|t| t.trace.clone()).collect(),
            scaling,
            server_tenant,
            tenant_servers,
            jitter_amp,
            jitter_seed,
            fleet: None,
        };
        view.fleet = view.fleet_series();
        view
    }

    /// The precomputed fleet series, or `None` if the view has no
    /// servers or its traces do not share one grid (see [`FleetSum`]).
    fn fleet_series(&self) -> Option<TimeSeries> {
        let mut fleet = FleetSum::new(&self.traces, self.n_servers())?;
        let mut buf = Vec::new();
        for (tid, &weight) in self.tenant_servers.iter().enumerate() {
            fleet.add(self.tenant_samples(TenantId(tid as u32), &mut buf), weight);
        }
        Some(fleet.finish(self.n_servers()))
    }

    /// A raw sample under the view's scaling.
    #[inline]
    fn apply(&self, v: f64) -> f64 {
        match self.scaling {
            None => v,
            Some((kind, param)) => kind.apply(v, param),
        }
    }

    /// The tenant's unscaled sample covering `t`, which lies in grid
    /// slot `slot`: an on-grid trace (every generated one) is indexed
    /// by the slot, with no second division.
    #[inline]
    fn raw_sample(&self, tenant: usize, slot: u64, t: SimTime) -> f64 {
        let tr = &self.traces[tenant];
        if tr.interval() == SAMPLE_INTERVAL {
            tr.at_slot(slot)
        } else {
            tr.at(t)
        }
    }

    /// The tenant's (average-server) utilization at `t`.
    pub fn tenant_util(&self, tenant: TenantId, t: SimTime) -> f64 {
        self.apply(self.raw_sample(tenant.0 as usize, self.slot_of(t), t))
    }

    /// The tenant's samples as the view reads them: the shared trace
    /// itself when the view is unscaled, else every sample scaled into
    /// `buf` (cleared first; the kind is matched once, so the loop
    /// inlines the transform). Callers walking many tenants reuse one
    /// buffer.
    pub fn tenant_samples<'a>(&'a self, tenant: TenantId, buf: &'a mut Vec<f64>) -> &'a [f64] {
        let raw = self.traces[tenant.0 as usize].values();
        let Some((kind, param)) = self.scaling else {
            return raw;
        };
        buf.clear();
        match kind {
            ScalingKind::Linear => {
                buf.extend(raw.iter().map(|&v| ScalingKind::Linear.apply(v, param)))
            }
            ScalingKind::Root => buf.extend(raw.iter().map(|&v| ScalingKind::Root.apply(v, param))),
        }
        buf
    }

    /// The server's utilization at `t`: its tenant's trace plus the
    /// server's deterministic jitter, clamped to `[0, 1]`.
    pub fn server_util(&self, server: ServerId, t: SimTime) -> f64 {
        let slot = self.slot_of(t);
        let tenant = self.server_tenant[server.0 as usize] as usize;
        let base = self.apply(self.raw_sample(tenant, slot, t));
        (base + self.jitter_at_slot(server, slot)).clamp(0.0, 1.0)
    }

    /// The sampling-grid slot covering instant `t` (the grid is the
    /// trace sampling interval; the scheduler's tick sits on the same
    /// grid, so every instant within one tick maps to one slot).
    #[inline]
    pub fn slot_of(&self, t: SimTime) -> u64 {
        t.as_millis() / SAMPLE_INTERVAL.as_millis()
    }

    /// Whether the tenant's sample at `slot` differs bitwise from its
    /// sample at the previous slot (slot 0 always counts as changed).
    pub fn tenant_sample_changed(&self, tenant: TenantId, slot: u64) -> bool {
        if slot == 0 {
            return true;
        }
        let ms = SAMPLE_INTERVAL.as_millis();
        let tenant = tenant.0 as usize;
        let now = self.raw_sample(tenant, slot, SimTime::from_millis(slot * ms));
        let prev = self.raw_sample(tenant, slot - 1, SimTime::from_millis((slot - 1) * ms));
        // Equal raw samples scale equally; different ones may still
        // saturate to the same value.
        now.to_bits() != prev.to_bits() && self.apply(now).to_bits() != self.apply(prev).to_bits()
    }

    /// Whether the server's playback value at `slot` can differ from its
    /// value at the previous slot: the tenant's sample moved, or the
    /// server's jitter re-rolled to a different offset. Conservative
    /// (clamping can still map two different raw values to the same
    /// utilization) but never reports "unchanged" for a moved value —
    /// change-driven callers may safely skip unchanged servers.
    pub fn server_sample_changed(&self, server: ServerId, slot: u64) -> bool {
        if slot == 0 {
            return true;
        }
        if self.jitter_amp != 0.0
            && self.jitter_at_slot(server, slot) != self.jitter_at_slot(server, slot - 1)
        {
            return true;
        }
        self.tenant_sample_changed(TenantId(self.server_tenant[server.0 as usize]), slot)
    }

    fn jitter_at_slot(&self, server: ServerId, slot: u64) -> f64 {
        if self.jitter_amp == 0.0 {
            return 0.0;
        }
        let h = splitmix64(
            self.jitter_seed
                ^ splitmix64(server.0 as u64)
                ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (unit * 2.0 - 1.0) * self.jitter_amp
    }

    /// Fleet-average utilization at `t` (per-server, without jitter —
    /// jitter is zero-mean so it would only add noise). One array
    /// lookup into the precomputed fleet series; falls back to
    /// [`UtilizationView::fleet_util_scan`] only if the tenant traces
    /// do not share a sampling grid.
    pub fn fleet_util(&self, t: SimTime) -> f64 {
        match &self.fleet {
            Some(fleet) => fleet.at(t),
            None => self.fleet_util_scan(t),
        }
    }

    /// Fleet-average utilization at `t` recomputed on the fly, bitwise
    /// identical to [`UtilizationView::fleet_util`] (the precompute
    /// runs exactly this tenant-order accumulation per slot). It is
    /// `fleet_util`'s fallback for traces without a shared grid, and
    /// the oracle the tests and the scheduler's debug-build tick
    /// postconditions check the precomputed series against.
    pub fn fleet_util_scan(&self, t: SimTime) -> f64 {
        if self.server_tenant.is_empty() {
            return 0.0;
        }
        let slot = self.slot_of(t);
        let sum: f64 = self
            .tenant_servers
            .iter()
            .enumerate()
            .map(|(tid, &weight)| self.apply(self.raw_sample(tid, slot, t)) * weight)
            .sum();
        sum / self.server_tenant.len() as f64
    }

    /// Fleet-average of the tenants' mean utilization, server-weighted
    /// (the x-axis of Figures 13 and 16): each tenant's scaled mean,
    /// taken once, added per server in server order — the bits of
    /// summing every server's tenant mean.
    pub fn mean_fleet_util(&self) -> f64 {
        if self.server_tenant.is_empty() {
            return 0.0;
        }
        let mut buf = Vec::new();
        let means: Vec<f64> = (0..self.traces.len())
            .map(|tid| {
                let samples = self.tenant_samples(TenantId(tid as u32), &mut buf);
                samples.iter().sum::<f64>() / samples.len() as f64
            })
            .collect();
        let sum: f64 = self
            .server_tenant
            .iter()
            .map(|&tid| means[tid as usize])
            .sum();
        sum / self.server_tenant.len() as f64
    }

    /// Number of tenants in the view.
    pub fn n_tenants(&self) -> usize {
        self.traces.len()
    }

    /// Number of servers in the view.
    pub fn n_servers(&self) -> usize {
        self.server_tenant.len()
    }
}

/// The server-weighted fleet series, accumulated trace by trace: for
/// every trace slot, the same tenant-order weighted sum
/// [`UtilizationView::fleet_util_scan`] performs at query time. The sum
/// starts from `-0.0` (what `Iterator::sum` starts from) and takes the
/// tenants in order, so every slot adds their weighted scaled samples
/// in the scan's order and the lookup is bitwise equal to the scan,
/// while memory is read sequentially with no per-sample modulo.
struct FleetSum {
    interval: SimDuration,
    sums: Vec<f64>,
}

impl FleetSum {
    /// An empty sum over the traces' grid, or `None` if there are no
    /// servers or the traces do not all share one interval and length
    /// (generated datacenters always do: every tenant carries a
    /// month-long trace on the sampling grid).
    fn new(traces: &[TimeSeries], n_servers: usize) -> Option<Self> {
        let first = traces.first()?;
        let uniform = traces
            .iter()
            .all(|t| t.len() == first.len() && t.interval() == first.interval());
        (uniform && n_servers > 0).then(|| FleetSum {
            interval: first.interval(),
            sums: vec![-0.0; first.len()],
        })
    }

    /// Adds the next tenant's scaled samples, weighted by its server
    /// count.
    fn add(&mut self, samples: &[f64], weight: f64) {
        for (sum, &v) in self.sums.iter_mut().zip(samples) {
            *sum += v * weight;
        }
    }

    /// The fleet series: every sum over the server count.
    fn finish(mut self, n_servers: usize) -> TimeSeries {
        let n = n_servers as f64;
        for v in &mut self.sums {
            *v /= n;
        }
        TimeSeries::new(self.interval, self.sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;
    use harvest_trace::scaling::scale;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 7)
    }

    #[test]
    fn server_util_tracks_tenant_trace() {
        let dc = dc();
        let view = UtilizationView::build(&dc, None, 0.0, 0);
        let t = SimTime::from_secs(3_600);
        for s in &dc.servers {
            let su = view.server_util(s.id, t);
            let tu = view.tenant_util(s.tenant, t);
            assert_eq!(su, tu, "no jitter => identical");
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let dc = dc();
        let view = UtilizationView::unscaled(&dc);
        let t = SimTime::from_secs(7_200);
        for s in &dc.servers {
            let su = view.server_util(s.id, t);
            let tu = view.tenant_util(s.tenant, t);
            assert!((su - tu).abs() <= DEFAULT_JITTER + 1e-12);
            assert_eq!(su, view.server_util(s.id, t), "jitter not deterministic");
        }
    }

    #[test]
    fn scaling_changes_levels() {
        let dc = dc();
        let base = UtilizationView::unscaled(&dc);
        let doubled = UtilizationView::scaled(&dc, ScalingKind::Linear, 2.0);
        assert!(doubled.mean_fleet_util() > base.mean_fleet_util());
        let t = SimTime::from_secs(1_000);
        assert!(doubled.fleet_util(t) >= base.fleet_util(t) - 1e-9);
    }

    #[test]
    fn fleet_util_is_average_of_servers() {
        let dc = dc();
        let view = UtilizationView::build(&dc, None, 0.0, 0);
        let t = SimTime::from_secs(60);
        let manual: f64 = dc
            .servers
            .iter()
            .map(|s| view.server_util(s.id, t))
            .sum::<f64>()
            / dc.n_servers() as f64;
        assert!((view.fleet_util(t) - manual).abs() < 1e-9);
    }

    /// The precomputed fleet series is *bitwise* the per-slot scan at
    /// every slot of the trace span and at off-grid instants (including
    /// far past the span, where lookups wrap): unscaled, scaled, and
    /// with a tenant that owns no servers. A view whose traces share no
    /// grid has no series and falls back to the scan.
    #[test]
    fn fleet_lookup_matches_scan_bitwise() {
        let dc = dc();
        let mut specs = DatacenterProfile::dc(9).scaled(0.02).sample_tenants(7);
        specs[1].n_servers = 0;
        let sparse = Datacenter::from_specs("sparse".into(), &specs, 7);
        assert_eq!(sparse.tenants[1].n_servers(), 0);
        let mut off_grid = dc.clone();
        let short = off_grid.tenants[0].trace.values()[..1_000].to_vec();
        off_grid.tenants[0].trace = TimeSeries::new(SAMPLE_INTERVAL, short);
        let ms = SAMPLE_INTERVAL.as_millis();
        let linear = Some((ScalingKind::Linear, 1.7));
        for (dc, scaling, has_series) in [
            (&dc, None, true),
            (&dc, linear, true),
            (&sparse, linear, true),
            (&off_grid, None, false),
        ] {
            let view = UtilizationView::build(dc, scaling, DEFAULT_JITTER, 0);
            assert_eq!(view.fleet.is_some(), has_series);
            // Tenant 1's trace as `scale` materialises it.
            let trace = match scaling {
                Some((kind, param)) => scale(&dc.tenants[1].trace, kind, param),
                None => dc.tenants[1].trace.clone(),
            };
            let slots = trace.len() as u64;
            let instants = (0..slots)
                .map(|slot| SimTime::from_millis(slot * ms))
                .chain([59u64, 3_601, 86_400, 40 * 86_400].map(SimTime::from_secs));
            for t in instants {
                assert_eq!(
                    view.fleet_util(t).to_bits(),
                    view.fleet_util_scan(t).to_bits(),
                    "fleet lookup diverged from the scan at {t:?}"
                );
                assert_eq!(
                    view.tenant_util(TenantId(1), t).to_bits(),
                    trace.at(t).to_bits(),
                    "tenant read diverged from the scaled trace at {t:?}"
                );
            }
        }
    }

    /// `mean_fleet_util` takes each tenant's mean once, yet keeps the
    /// bits of the per-server scan it replaced: every server's scaled
    /// tenant mean, added in server order. Unscaled, linear past
    /// saturation and root, with a tenant that owns no servers.
    #[test]
    fn mean_fleet_util_matches_per_server_scan_bitwise() {
        let dc = dc();
        let mut specs = DatacenterProfile::dc(9).scaled(0.02).sample_tenants(7);
        specs[1].n_servers = 0;
        let sparse = Datacenter::from_specs("sparse".into(), &specs, 7);
        for dc in [&dc, &sparse] {
            for scaling in [
                None,
                Some((ScalingKind::Linear, 2.5)),
                Some((ScalingKind::Root, 0.5)),
            ] {
                let view = UtilizationView::build(dc, scaling, DEFAULT_JITTER, 0);
                let means: Vec<f64> = dc
                    .tenants
                    .iter()
                    .map(|t| match scaling {
                        Some((kind, param)) => scale(&t.trace, kind, param).mean(),
                        None => t.trace.mean(),
                    })
                    .collect();
                let scan = dc
                    .servers
                    .iter()
                    .map(|s| means[s.tenant.0 as usize])
                    .sum::<f64>()
                    / dc.n_servers() as f64;
                assert_eq!(
                    view.mean_fleet_util().to_bits(),
                    scan.to_bits(),
                    "{scaling:?}: {} vs {scan}",
                    view.mean_fleet_util()
                );
            }
        }
    }

    #[test]
    fn slots_and_change_queries_track_the_grid() {
        let dc = dc();
        let tick = harvest_trace::SAMPLE_INTERVAL;
        // Unscaled, linear far past saturation (runs of saturated
        // samples that moved before scaling), and root.
        for scaling in [
            None,
            Some((ScalingKind::Linear, 4.0)),
            Some((ScalingKind::Root, 0.5)),
        ] {
            let view = UtilizationView::build(&dc, scaling, 0.0, 0);
            // Every instant inside one tick maps to the tick's slot.
            assert_eq!(view.slot_of(SimTime::ZERO), 0);
            assert_eq!(view.slot_of(SimTime::from_millis(tick.as_millis() - 1)), 0);
            assert_eq!(view.slot_of(SimTime::from_millis(tick.as_millis())), 1);
            // Slot 0 always reads as changed; later slots change exactly
            // when the scaled sample moves bitwise.
            let tid = TenantId(0);
            assert!(view.tenant_sample_changed(tid, 0));
            let raw = &dc.tenants[0].trace;
            let tr = match scaling {
                Some((kind, param)) => scale(raw, kind, param),
                None => raw.clone(),
            };
            for slot in 1..200u64 {
                let expect = tr.at_slot(slot).to_bits() != tr.at_slot(slot - 1).to_bits();
                assert_eq!(view.tenant_sample_changed(tid, slot), expect, "slot {slot}");
            }
        }
    }

    #[test]
    fn server_change_is_conservative() {
        let dc = dc();
        // With jitter off, a server changes exactly with its tenant.
        let flat = UtilizationView::build(&dc, None, 0.0, 0);
        let s = dc.servers[0].id;
        let tid = TenantId(flat.server_tenant[s.0 as usize]);
        for slot in 1..100u64 {
            assert_eq!(
                flat.server_sample_changed(s, slot),
                flat.tenant_sample_changed(tid, slot)
            );
        }
        // With jitter on, "changed" must never be false when the
        // playback value actually moved across the boundary.
        let view = UtilizationView::unscaled(&dc);
        let ms = harvest_trace::SAMPLE_INTERVAL.as_millis();
        for slot in 1..100u64 {
            let now = view.server_util(s, SimTime::from_millis(slot * ms));
            let prev = view.server_util(s, SimTime::from_millis((slot - 1) * ms));
            if now.to_bits() != prev.to_bits() {
                assert!(view.server_sample_changed(s, slot), "missed move at {slot}");
            }
        }
    }

    #[test]
    fn utils_stay_in_unit_interval() {
        let dc = dc();
        let view = UtilizationView::scaled(&dc, ScalingKind::Linear, 5.0);
        for hour in 0..48 {
            let t = SimTime::from_secs(hour * 3_600);
            for s in &dc.servers {
                let u = view.server_util(s.id, t);
                assert!((0.0..=1.0).contains(&u), "util {u} out of range");
            }
        }
    }
}
