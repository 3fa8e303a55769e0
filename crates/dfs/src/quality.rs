//! Placement-quality monitoring (§7, lesson 3: "Data durability is
//! king").
//!
//! The production deployment learned to "monitor the quality of
//! placements and stop consuming more space when diversity becomes low".
//! This module measures how well a store's placements satisfy Algorithm
//! 2's constraints and implements that stop rule.

use harvest_cluster::{Datacenter, ServerId};

use crate::grid::Grid2D;
use crate::store::BlockStore;

/// Measured placement quality of a block population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementQuality {
    /// Blocks inspected.
    pub blocks: u64,
    /// Blocks with two replicas in one environment.
    pub env_violations: u64,
    /// Blocks with two replicas in the same grid row or column (within
    /// the block's first round of three replicas).
    pub grid_violations: u64,
    /// Fraction of inspected blocks with no violation of either kind.
    pub diversity: f64,
}

/// Measures the quality of every block's placement in the store.
pub fn measure_quality(dc: &Datacenter, grid: &Grid2D, store: &BlockStore) -> PlacementQuality {
    let mut env_violations = 0u64;
    let mut grid_violations = 0u64;
    let mut dirty = 0u64;
    let n = store.n_blocks() as u64;
    for b in 0..store.n_blocks() {
        let replicas = store.replicas(crate::store::BlockId(b as u64));
        if replicas.len() < 2 {
            continue;
        }
        let mut envs: Vec<usize> = Vec::with_capacity(replicas.len());
        let mut cells = Vec::with_capacity(replicas.len());
        for &s in replicas {
            let tenant = dc.tenant_of(ServerId(s));
            envs.push(tenant.environment);
            cells.push(grid.cell_of(tenant.id));
        }
        let mut env_bad = false;
        for i in 0..envs.len() {
            for j in i + 1..envs.len() {
                if envs[i] == envs[j] {
                    env_bad = true;
                }
            }
        }
        if env_bad {
            env_violations += 1;
        }
        // Check rows/columns within the first round of three replicas.
        let round = &cells[..cells.len().min(3)];
        let mut grid_bad = false;
        for i in 0..round.len() {
            for j in i + 1..round.len() {
                if round[i].row == round[j].row || round[i].col == round[j].col {
                    grid_bad = true;
                }
            }
        }
        if grid_bad {
            grid_violations += 1;
        }
        // A block can break one rule or both; it is dirty either way.
        if env_bad || grid_bad {
            dirty += 1;
        }
    }
    let clean = n - dirty;
    PlacementQuality {
        blocks: n,
        env_violations,
        grid_violations,
        diversity: if n == 0 { 1.0 } else { clean as f64 / n as f64 },
    }
}

/// The production stop rule: refuse new blocks once measured diversity
/// drops below a floor ("by default, we now monitor the quality of
/// placements and stop consuming more space when diversity becomes
/// low").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMonitor {
    /// Minimum acceptable diversity fraction.
    pub min_diversity: f64,
}

impl Default for QualityMonitor {
    fn default() -> Self {
        QualityMonitor {
            min_diversity: 0.95,
        }
    }
}

impl QualityMonitor {
    /// Whether block creation should stop at the measured quality.
    pub fn should_stop(&self, quality: &PlacementQuality) -> bool {
        quality.diversity < self.min_diversity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementPolicy, Placer};
    use harvest_cluster::{Datacenter, Tenant};
    use harvest_sim::rng::stream_rng;
    use harvest_trace::datacenter::DatacenterProfile;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.05), 3)
    }

    #[test]
    fn history_placements_are_diverse() {
        // Enough tenants that every grid cell has several members; with
        // too few tenants Algorithm 2 legitimately relaxes constraints.
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.2), 3);
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut store = BlockStore::new(&dc);
        let mut rng = stream_rng(1, "q");
        for i in 0..2_000u32 {
            let writer = ServerId(i % dc.n_servers() as u32);
            if let Some(p) = placer.place_new(&mut rng, &store, writer, 3, None) {
                store.create_block(&p.servers);
            }
        }
        let q = measure_quality(&dc, placer.grid().unwrap(), &store);
        assert!(q.blocks >= 1_900);
        assert!(q.diversity > 0.98, "diversity {}", q.diversity);
        assert!(!QualityMonitor::default().should_stop(&q));
    }

    #[test]
    fn stock_placements_violate_constraints() {
        let dc = dc();
        let placer = Placer::new(&dc, PlacementPolicy::Stock);
        let grid = Grid2D::build(&dc);
        let mut store = BlockStore::new(&dc);
        let mut rng = stream_rng(2, "q2");
        for i in 0..2_000u32 {
            let writer = ServerId(i % dc.n_servers() as u32);
            if let Some(p) = placer.place_new(&mut rng, &store, writer, 3, None) {
                store.create_block(&p.servers);
            }
        }
        let q = measure_quality(&dc, &grid, &store);
        // Rack-local second replicas usually share the writer's tenant
        // (hence environment and cell), so stock diversity is poor.
        assert!(q.diversity < 0.6, "stock diversity {}", q.diversity);
        assert!(QualityMonitor::default().should_stop(&q));
    }

    #[test]
    fn env_only_and_grid_only_blocks_are_both_dirty() {
        let dc = dc();
        let grid = Grid2D::build(&dc);
        let cell = |t: &Tenant| grid.cell_of(t.id);
        let pairs = || {
            dc.tenants
                .iter()
                .flat_map(|a| dc.tenants.iter().map(move |b| (a, b)))
                .filter(|(a, b)| a.id < b.id)
        };
        let env_only = pairs()
            .find(|(a, b)| {
                a.environment == b.environment
                    && cell(a).row != cell(b).row
                    && cell(a).col != cell(b).col
            })
            .expect("two tenants of one environment in disjoint rows and columns");
        let grid_only = pairs()
            .find(|(a, b)| a.environment != b.environment && cell(a).row == cell(b).row)
            .expect("two tenants of different environments in one row");
        let host = |t: &Tenant| {
            t.server_ids()
                .find(|&s| dc.server(s).harvest_blocks > 0)
                .expect("tenant with harvestable space")
        };
        let mut store = BlockStore::new(&dc);
        store.create_block(&[host(env_only.0), host(env_only.1)]);
        store.create_block(&[host(grid_only.0), host(grid_only.1)]);
        let q = measure_quality(&dc, &grid, &store);
        assert_eq!((q.env_violations, q.grid_violations), (1, 1));
        assert_eq!(q.diversity, 0.0);
        assert!(QualityMonitor::default().should_stop(&q));
    }

    #[test]
    fn empty_store_is_perfectly_diverse() {
        let dc = dc();
        let grid = Grid2D::build(&dc);
        let store = BlockStore::new(&dc);
        let q = measure_quality(&dc, &grid, &store);
        assert_eq!(q.blocks, 0);
        assert_eq!(q.diversity, 1.0);
    }
}
