//! Utilization playback: "what is this server's primary CPU utilization
//! at time T?"
//!
//! A [`UtilizationView`] holds the (optionally scaled) tenant traces and
//! answers per-server lookups. Servers of the same tenant share the
//! tenant's "average server" trace plus a small deterministic per-server
//! jitter, reflecting §3.2's observation that load "is not always evenly
//! balanced across all servers of a primary tenant".
//!
//! # Cost model
//!
//! The view is built once and queried millions of times, so queries are
//! index arithmetic, never scans:
//!
//! * [`UtilizationView::fleet_util`] is one array lookup into a
//!   server-weighted fleet [`TimeSeries`] precomputed at build time.
//!   The accumulation is per *tenant* (each tenant's sample times its
//!   server count), so the precompute is O(samples × tenants) instead
//!   of O(samples × servers), and a tick pays one lookup instead of an
//!   O(servers) sweep. Each trace is added into one accumulator vector
//!   right after it is scaled (or copied), while it is still in cache,
//!   reading memory in order; a slot-by-slot scan across the 520
//!   month-long traces of full-size DC-9 takes 80–100 ms on a 2-core VM.
//!   [`UtilizationView::fleet_util_scan`] recomputes the same quantity
//!   per call (same tenant-order accumulation, so bitwise identical):
//!   it is the fallback for views whose traces share no sampling grid,
//!   and the oracle that tests and the scheduler's debug-build tick
//!   postconditions check the lookup against. It differs from the
//!   naive per-server sum only by float-rounding ulps (well inside the
//!   1e-9 the tests allow).
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
use harvest_trace::scaling::{scale, ScalingKind};
use harvest_trace::timeseries::TimeSeries;
use harvest_trace::SAMPLE_INTERVAL;

use crate::datacenter::Datacenter;
use crate::server::{ServerId, TenantId};

/// Default per-server jitter amplitude around the tenant trace.
pub const DEFAULT_JITTER: f64 = 0.01;

/// A scaled, queryable view of every tenant's utilization.
#[derive(Debug, Clone)]
pub struct UtilizationView {
    traces: Vec<TimeSeries>,
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
    pub fn build(
        dc: &Datacenter,
        scaling: Option<(ScalingKind, f64)>,
        jitter_amp: f64,
        jitter_seed: u64,
    ) -> Self {
        let server_tenant: Vec<u32> = dc.servers.iter().map(|s| s.tenant.0).collect();
        let mut tenant_servers = vec![0.0f64; dc.tenants.len()];
        for &tid in &server_tenant {
            tenant_servers[tid as usize] += 1.0;
        }
        let mut fleet = FleetSum::new(dc, server_tenant.len());
        // Each trace is added into the fleet series right after it is
        // scaled, while it is still in cache.
        let traces: Vec<TimeSeries> = dc
            .tenants
            .iter()
            .zip(&tenant_servers)
            .map(|(t, &weight)| {
                let trace = match scaling {
                    Some((kind, param)) => scale(&t.trace, kind, param),
                    None => t.trace.clone(),
                };
                if let Some(fleet) = &mut fleet {
                    fleet.add(&trace, weight);
                }
                trace
            })
            .collect();
        let fleet = fleet.map(|fleet| fleet.finish(server_tenant.len()));
        UtilizationView {
            traces,
            server_tenant,
            tenant_servers,
            jitter_amp,
            jitter_seed,
            fleet,
        }
    }

    /// The tenant's (average-server) utilization at `t`.
    pub fn tenant_util(&self, tenant: TenantId, t: SimTime) -> f64 {
        self.traces[tenant.0 as usize].at(t)
    }

    /// The scaled trace of a tenant.
    pub fn tenant_trace(&self, tenant: TenantId) -> &TimeSeries {
        &self.traces[tenant.0 as usize]
    }

    /// The server's utilization at `t`: its tenant's trace plus the
    /// server's deterministic jitter, clamped to `[0, 1]`.
    pub fn server_util(&self, server: ServerId, t: SimTime) -> f64 {
        let tenant = self.server_tenant[server.0 as usize];
        let base = self.traces[tenant as usize].at(t);
        (base + self.jitter_at_slot(server, self.slot_of(t))).clamp(0.0, 1.0)
    }

    /// The sampling-grid slot covering instant `t` (the grid is the
    /// trace sampling interval; the scheduler's tick sits on the same
    /// grid, so every instant within one tick maps to one slot).
    pub fn slot_of(&self, t: SimTime) -> u64 {
        t.as_millis() / SAMPLE_INTERVAL.as_millis()
    }

    /// Whether the tenant's sample at `slot` differs bitwise from its
    /// sample at the previous slot (slot 0 always counts as changed).
    pub fn tenant_sample_changed(&self, tenant: TenantId, slot: u64) -> bool {
        let tr = &self.traces[tenant.0 as usize];
        if tr.interval() == SAMPLE_INTERVAL {
            // Generated datacenters always sit on the sampling grid.
            return tr.sample_changed(slot);
        }
        // Off-grid trace: map the grid slots to instants instead.
        if slot == 0 {
            return true;
        }
        let ms = SAMPLE_INTERVAL.as_millis();
        tr.at(SimTime::from_millis(slot * ms)).to_bits()
            != tr.at(SimTime::from_millis((slot - 1) * ms)).to_bits()
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
        let sum: f64 = self
            .traces
            .iter()
            .zip(&self.tenant_servers)
            .map(|(tr, &weight)| tr.at(t) * weight)
            .sum();
        sum / self.server_tenant.len() as f64
    }

    /// Fleet-average of the tenants' mean utilization, server-weighted
    /// (the x-axis of Figures 13 and 16).
    pub fn mean_fleet_util(&self) -> f64 {
        if self.server_tenant.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .server_tenant
            .iter()
            .map(|&tid| self.traces[tid as usize].mean())
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
/// tenants in order, so every slot adds their weighted samples in the
/// scan's order and the lookup is bitwise equal to the scan, while
/// memory is read sequentially with no per-sample modulo.
struct FleetSum {
    interval: SimDuration,
    sums: Vec<f64>,
}

impl FleetSum {
    /// An empty sum over the datacenter's trace grid, or `None` if it
    /// has no servers or its traces do not all share one interval and
    /// length (generated datacenters always do: every tenant carries a
    /// month-long trace on the sampling grid). Scaling keeps both.
    fn new(dc: &Datacenter, n_servers: usize) -> Option<Self> {
        let first = &dc.tenants.first()?.trace;
        let uniform = dc
            .tenants
            .iter()
            .all(|t| t.trace.len() == first.len() && t.trace.interval() == first.interval());
        (uniform && n_servers > 0).then(|| FleetSum {
            interval: first.interval(),
            sums: vec![-0.0; first.len()],
        })
    }

    /// Adds the next tenant's trace, weighted by its server count.
    fn add(&mut self, trace: &TimeSeries, weight: f64) {
        for (sum, &v) in self.sums.iter_mut().zip(trace.values()) {
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
        for (view, has_series) in [
            (UtilizationView::unscaled(&dc), true),
            (UtilizationView::scaled(&dc, ScalingKind::Linear, 1.7), true),
            (
                UtilizationView::scaled(&sparse, ScalingKind::Linear, 1.7),
                true,
            ),
            (UtilizationView::unscaled(&off_grid), false),
        ] {
            assert_eq!(view.fleet.is_some(), has_series);
            let slots = view.tenant_trace(TenantId(1)).len() as u64;
            let instants = (0..slots)
                .map(|slot| SimTime::from_millis(slot * ms))
                .chain([59u64, 3_601, 86_400, 40 * 86_400].map(SimTime::from_secs));
            for t in instants {
                assert_eq!(
                    view.fleet_util(t).to_bits(),
                    view.fleet_util_scan(t).to_bits(),
                    "fleet lookup diverged from the scan at {t:?}"
                );
            }
        }
    }

    #[test]
    fn slots_and_change_queries_track_the_grid() {
        let dc = dc();
        let view = UtilizationView::build(&dc, None, 0.0, 0);
        let tick = harvest_trace::SAMPLE_INTERVAL;
        // Every instant inside one tick maps to the tick's slot.
        assert_eq!(view.slot_of(SimTime::ZERO), 0);
        assert_eq!(view.slot_of(SimTime::from_millis(tick.as_millis() - 1)), 0);
        assert_eq!(view.slot_of(SimTime::from_millis(tick.as_millis())), 1);
        // Slot 0 always reads as changed; later slots change exactly
        // when the underlying sample moves bitwise.
        let tid = TenantId(0);
        assert!(view.tenant_sample_changed(tid, 0));
        let tr = view.tenant_trace(tid);
        for slot in 1..200u64 {
            let expect = tr.at_slot(slot).to_bits() != tr.at_slot(slot - 1).to_bits();
            assert_eq!(view.tenant_sample_changed(tid, slot), expect, "slot {slot}");
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
