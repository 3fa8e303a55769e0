//! Instantiating a concrete datacenter from a profile.

use harvest_sim::dist;
use harvest_sim::rng::indexed_rng;
use harvest_trace::datacenter::{DatacenterProfile, TenantSpec};
use harvest_trace::SAMPLES_PER_MONTH;

use crate::server::{RackId, Server, ServerId, Tenant, TenantId};

/// Servers per rack.
pub const RACK_SIZE: u32 = 20;

/// Default harvestable blocks per server (256 MB blocks; 2 400 ≈ 600 GB).
pub(crate) const DEFAULT_HARVEST_BLOCKS: u32 = 2_400;

/// A concrete datacenter: tenants with month-long utilization traces, and
/// the servers they own.
///
/// Server ids are contiguous per tenant and racks are filled in id order,
/// so a tenant's servers cluster into racks — the physical correlation
/// that makes rack-aware-but-tenant-oblivious placement (stock HDFS)
/// vulnerable to correlated reimages.
#[derive(Debug, Clone)]
pub struct Datacenter {
    /// Display name (e.g. `"DC-9"`).
    pub name: String,
    /// All primary tenants.
    pub tenants: Vec<Tenant>,
    /// All servers, indexed by [`ServerId`].
    pub servers: Vec<Server>,
}

impl Datacenter {
    /// Generates the datacenter described by `profile`, deterministically
    /// from `seed`.
    ///
    /// Each tenant gets one month of "average server" utilization trace;
    /// reimage *events* are not materialized here (the durability
    /// simulation generates however many months it needs from each
    /// tenant's [`harvest_trace::reimage::TenantReimageModel`]).
    pub fn generate(profile: &DatacenterProfile, seed: u64) -> Self {
        let specs = profile.sample_tenants(seed);
        Self::from_specs(profile.name(), &specs, seed)
    }

    /// Builds a datacenter from explicit tenant specs (used for the
    /// 102-server testbed of §6.1 and for tests).
    pub fn from_specs(name: String, specs: &[TenantSpec], seed: u64) -> Self {
        let mut tenants = Vec::with_capacity(specs.len());
        let mut servers = Vec::new();
        let mut next_server = 0u32;

        for (i, spec) in specs.iter().enumerate() {
            let tenant_id = TenantId(i as u32);
            let mut rng = indexed_rng(seed, "tenant-trace", i as u64);
            let trace = spec.util.generate(&mut rng, SAMPLES_PER_MONTH);

            let start = next_server;
            let mut storage_rng = indexed_rng(seed, "tenant-storage", i as u64);
            // The tenant declares how much spare space harvesting may use;
            // tenants differ (±50% around the default).
            let per_server_blocks = dist::uniform(
                &mut storage_rng,
                DEFAULT_HARVEST_BLOCKS as f64 * 0.5,
                DEFAULT_HARVEST_BLOCKS as f64 * 1.5,
            )
            .round() as u32;
            for _ in 0..spec.n_servers {
                let id = ServerId(next_server);
                servers.push(Server {
                    id,
                    tenant: tenant_id,
                    rack: RackId(next_server / RACK_SIZE),
                    harvest_blocks: per_server_blocks,
                });
                next_server += 1;
            }

            tenants.push(Tenant {
                id: tenant_id,
                name: spec.name.clone(),
                environment: spec.environment,
                pattern: spec.pattern(),
                trace,
                reimage: spec.reimage.clone(),
                server_range: start..next_server,
            });
        }

        Datacenter {
            name,
            tenants,
            servers,
        }
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of tenants.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        match self.servers.last() {
            Some(s) => s.rack.0 as usize + 1,
            None => 0,
        }
    }

    /// The server with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// The server-id range of one rack. Racks fill contiguously in id
    /// order ([`RACK_SIZE`] servers each, the last possibly partial),
    /// so the range is computable without scanning — fault injection
    /// expands rack-level events (power loss, uplink death) with this.
    pub fn servers_in_rack(&self, rack: u32) -> std::ops::Range<u32> {
        let lo = (rack * RACK_SIZE).min(self.servers.len() as u32);
        let hi = (lo + RACK_SIZE).min(self.servers.len() as u32);
        lo..hi
    }

    /// The tenant with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn tenant(&self, id: TenantId) -> &Tenant {
        &self.tenants[id.0 as usize]
    }

    /// The tenant that owns the given server.
    pub fn tenant_of(&self, server: ServerId) -> &Tenant {
        self.tenant(self.server(server).tenant)
    }

    /// Total harvestable blocks across all servers.
    pub fn total_harvest_blocks(&self) -> u64 {
        self.servers.iter().map(|s| s.harvest_blocks as u64).sum()
    }

    /// Fleet-average of the tenants' mean utilizations, weighted by
    /// tenant size.
    pub fn mean_utilization(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0usize;
        for t in &self.tenants {
            weighted += t.trace.mean() * t.n_servers() as f64;
            total += t.n_servers();
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;

    fn small_dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.03), 42)
    }

    #[test]
    fn generation_wires_ids_consistently() {
        let dc = small_dc();
        assert!(dc.n_tenants() >= 3);
        assert!(dc.n_servers() > 0);
        for (i, s) in dc.servers.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i);
            assert!(dc.tenant(s.tenant).server_ids().any(|id| id == s.id));
        }
        for (i, t) in dc.tenants.iter().enumerate() {
            assert_eq!(t.id.0 as usize, i);
            for sid in t.server_ids() {
                assert_eq!(dc.server(sid).tenant, t.id);
            }
        }
    }

    #[test]
    fn server_ranges_partition_the_fleet() {
        let dc = small_dc();
        let mut covered = 0u32;
        for t in &dc.tenants {
            assert_eq!(t.server_range.start, covered);
            covered = t.server_range.end;
        }
        assert_eq!(covered as usize, dc.n_servers());
    }

    #[test]
    fn traces_span_a_month() {
        let dc = small_dc();
        for t in &dc.tenants {
            assert_eq!(t.trace.len(), SAMPLES_PER_MONTH);
        }
    }

    #[test]
    fn servers_in_rack_matches_the_assignment() {
        let dc = small_dc();
        for rack in 0..dc.n_racks() as u32 {
            for sid in dc.servers_in_rack(rack) {
                assert_eq!(dc.server(ServerId(sid)).rack.0, rack);
            }
        }
        let total: usize = (0..dc.n_racks() as u32)
            .map(|r| dc.servers_in_rack(r).len())
            .sum();
        assert_eq!(total, dc.n_servers());
        // Out-of-range racks yield an empty range, not a panic.
        assert!(dc.servers_in_rack(10_000).is_empty());
    }

    #[test]
    fn racks_hold_up_to_rack_size() {
        let dc = small_dc();
        let mut per_rack = std::collections::HashMap::new();
        for s in &dc.servers {
            *per_rack.entry(s.rack).or_insert(0u32) += 1;
        }
        assert!(per_rack.values().all(|&c| c <= RACK_SIZE));
        assert_eq!(dc.n_racks(), per_rack.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_dc();
        let b = small_dc();
        assert_eq!(a.n_servers(), b.n_servers());
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.trace, tb.trace);
        }
    }

    #[test]
    fn testbed_build() {
        let specs = DatacenterProfile::testbed_dc9(42);
        let dc = Datacenter::from_specs("testbed".into(), &specs, 42);
        assert_eq!(dc.n_servers(), 102);
        assert_eq!(dc.n_tenants(), 21);
    }

    #[test]
    fn mean_utilization_is_sane() {
        let dc = small_dc();
        let m = dc.mean_utilization();
        assert!((0.05..0.8).contains(&m), "mean utilization {m}");
    }

    #[test]
    fn storage_is_positive_everywhere() {
        let dc = small_dc();
        assert!(dc.servers.iter().all(|s| s.harvest_blocks > 0));
        assert!(dc.total_harvest_blocks() > 0);
    }
}
