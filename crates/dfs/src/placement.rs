//! Replica placement policies.
//!
//! * **Stock** — HDFS's default: first replica on the writer, second in
//!   the writer's rack, third in a remote rack, extras anywhere (§5.1).
//!   Oblivious to tenants, utilization, and reimaging.
//! * **PrimaryAware** — stock placement that additionally skips servers
//!   whose primary is currently busy (NN-H "stops using it as a
//!   destination for new replicas", §5.4) but without smart placement.
//! * **History** — Algorithm 2: replicas go to distinct rows and columns
//!   of the 3×3 (reimage × peak-utilization) grid, never two in one
//!   environment, with the row/column memory forgotten every three
//!   replicas.
//!
//! The production deployment initially treated the constraints as "soft"
//! (§7, lesson 3), preferring space over diversity; both modes are
//! implemented and the soft mode reports when it relaxed a constraint.
//!
//! # Cost
//!
//! No heap allocation per block beyond the returned server list: the
//! row/column memory is a bit mask, the environment memory is the chosen
//! replicas (read through a per-server environment table), and candidate
//! cells shuffle in a stack array. A selection step is O(probes × R).

use harvest_cluster::{Datacenter, ServerId};
use harvest_sim::dist;
use rand::{Rng, RngExt};

use crate::grid::{Cell, Grid2D};
use crate::store::BlockStore;

/// Which placement policy the name node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Stock HDFS: local + rack-local + remote-rack.
    Stock,
    /// Stock rule, but busy servers are not used as destinations.
    PrimaryAware,
    /// Algorithm 2 (HDFS-H).
    History,
}

impl PlacementPolicy {
    /// All policies in the paper's comparison order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::Stock,
        PlacementPolicy::PrimaryAware,
        PlacementPolicy::History,
    ];

    /// The paper's name for the system.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Stock => "HDFS-Stock",
            PlacementPolicy::PrimaryAware => "HDFS-PT",
            PlacementPolicy::History => "HDFS-H",
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The locations chosen for a block, plus whether any Algorithm 2
/// constraint had to be relaxed (soft mode only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// One server per replica, in placement order.
    pub servers: Vec<ServerId>,
    /// Whether a row/column/environment constraint was relaxed.
    pub relaxed: bool,
}

/// How many random probes each selection step attempts before concluding
/// a candidate set is exhausted.
const PROBES: usize = 24;

/// A replica placer bound to one datacenter and policy.
#[derive(Debug, Clone)]
pub struct Placer<'a> {
    dc: &'a Datacenter,
    policy: PlacementPolicy,
    grid: Option<Grid2D>,
    rack_servers: Vec<Vec<ServerId>>,
    /// Environment of each server's tenant.
    env_of: Vec<usize>,
    soft: bool,
}

impl<'a> Placer<'a> {
    /// Creates a placer; builds the 3×3 grid when the policy needs it.
    pub fn new(dc: &'a Datacenter, policy: PlacementPolicy) -> Self {
        let grid = if policy == PlacementPolicy::History {
            Some(Grid2D::build(dc))
        } else {
            None
        };
        let mut rack_servers = vec![Vec::new(); dc.n_racks()];
        let mut env_of = Vec::with_capacity(dc.n_servers());
        for s in &dc.servers {
            rack_servers[s.rack.0 as usize].push(s.id);
            env_of.push(dc.tenant(s.tenant).environment);
        }
        Placer {
            dc,
            policy,
            grid,
            rack_servers,
            env_of,
            soft: true,
        }
    }

    /// Sets whether Algorithm 2's constraints are soft (relaxable when
    /// space runs out — the initial production configuration) or hard
    /// (placement fails instead). Default: soft.
    pub fn with_soft_constraints(mut self, soft: bool) -> Self {
        self.soft = soft;
        self
    }

    /// Chooses `r` replica locations for a new block created by `writer`.
    ///
    /// `busy[s]` marks servers currently denying accesses (pass `None`
    /// when modelling placement without live utilization, e.g. the
    /// durability simulation). Returns `None` when no valid placement
    /// exists under the policy (hard-constraint mode or a full cluster).
    pub fn place_new<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        writer: ServerId,
        r: usize,
        busy: Option<&[bool]>,
    ) -> Option<Placement> {
        assert!(r >= 1, "replication factor must be at least 1");
        match self.policy {
            PlacementPolicy::Stock | PlacementPolicy::PrimaryAware => {
                self.place_stock(rng, store, writer, r, busy)
            }
            PlacementPolicy::History => self.place_history(rng, store, writer, r, busy),
        }
    }

    /// Chooses a destination for one re-replicated replica of a block
    /// whose surviving copies sit on `existing`.
    pub fn place_repair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        existing: &[u32],
        busy: Option<&[bool]>,
    ) -> Option<ServerId> {
        match self.policy {
            PlacementPolicy::Stock | PlacementPolicy::PrimaryAware => {
                // Stock re-replication: any non-busy server with space not
                // already holding the block.
                self.random_server(rng, store, busy, |sid| !existing.contains(&sid.0))
            }
            PlacementPolicy::History => {
                let grid = self.grid.as_ref().expect("history placer has a grid");
                // Constrain against the replicas of the current round: the
                // last `existing.len() % 3` placements (a full round has no
                // active row/column constraints), plus every environment.
                let in_round = existing.len() % 3;
                let mut taken = 0;
                for &s in existing.iter().rev().take(in_round) {
                    taken |= row_col_bits(grid.cell_of(store.tenant_of(ServerId(s))));
                }
                self.pick_history(rng, store, busy, &mut taken, existing)
                    .map(|(sid, _)| sid)
            }
        }
    }

    // ----- stock / primary-aware -----

    fn place_stock<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        writer: ServerId,
        r: usize,
        busy: Option<&[bool]>,
    ) -> Option<Placement> {
        let mut chosen: Vec<ServerId> = Vec::with_capacity(r);
        let ok = |placer: &Self, sid: ServerId, chosen: &[ServerId]| {
            store.has_space(sid) && !chosen.contains(&sid) && !placer.is_busy(sid, busy)
        };

        // Replica 1: the writer, or any server if the writer is unusable.
        if ok(self, writer, &chosen) {
            chosen.push(writer);
        } else {
            chosen.push(self.random_server(rng, store, busy, |_| true)?);
        }

        // Replica 2: same rack as the first replica.
        if r >= 2 {
            let rack = self.dc.server(chosen[0]).rack.0 as usize;
            let local = &self.rack_servers[rack];
            let pick = (0..PROBES).find_map(|_| {
                let sid = local[rng.random_range(0..local.len())];
                ok(self, sid, &chosen).then_some(sid)
            });
            match pick {
                Some(sid) => chosen.push(sid),
                // Rack full: fall back to any server (stock behaviour).
                None => {
                    chosen.push(self.random_server(rng, store, busy, |sid| !chosen.contains(&sid))?)
                }
            }
        }

        // Replicas 3+: remote racks.
        while chosen.len() < r {
            let home_rack = self.dc.server(chosen[0]).rack;
            let pick = self.random_server(rng, store, busy, |sid| {
                !chosen.contains(&sid) && self.dc.server(sid).rack != home_rack
            });
            match pick {
                Some(sid) => chosen.push(sid),
                None => {
                    // No remote-rack option: relax to any distinct server.
                    let sid = self.random_server(rng, store, busy, |sid| !chosen.contains(&sid))?;
                    chosen.push(sid);
                }
            }
        }

        Some(Placement {
            servers: chosen,
            relaxed: false,
        })
    }

    // ----- history (Algorithm 2) -----

    fn place_history<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        writer: ServerId,
        r: usize,
        busy: Option<&[bool]>,
    ) -> Option<Placement> {
        let grid = self.grid.as_ref().expect("history placer has a grid");
        let mut chosen: Vec<u32> = Vec::with_capacity(r);
        let mut relaxed = false;

        // Lines 6-7: replica 1 goes to the writer (locality), consuming
        // the writer's cell.
        let first = if store.has_space(writer) && !self.is_busy(writer, busy) {
            writer
        } else {
            // Writer unusable: pick any server of the writer's cell, or
            // anywhere as a last resort.
            let cell = grid.cell_of(self.dc.server(writer).tenant);
            self.pick_in_cell(rng, store, busy, cell, &chosen)
                .or_else(|| {
                    relaxed = true;
                    self.random_server(rng, store, busy, |_| true)
                })?
        };
        let mut taken = row_col_bits(grid.cell_of(store.tenant_of(first)));
        chosen.push(first.0);

        // Lines 8-18: remaining replicas.
        for placed in 1..r {
            // Line 15-17: forget rows/columns every three replicas.
            if placed % 3 == 0 {
                taken = 0;
            }
            let (sid, was_relaxed) = self.pick_history(rng, store, busy, &mut taken, &chosen)?;
            relaxed |= was_relaxed;
            chosen.push(sid.0);
        }

        Some(Placement {
            // Collected in place: the same buffer, retyped.
            servers: chosen.into_iter().map(ServerId).collect(),
            relaxed,
        })
    }

    /// Picks one server per Algorithm 2 lines 9-14, updating the
    /// row/column memory. Returns the server and whether constraints were
    /// relaxed to find it.
    fn pick_history<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        busy: Option<&[bool]>,
        taken: &mut u8,
        already: &[u32],
    ) -> Option<(ServerId, bool)> {
        // Strict pass: row, column, and environment constraints.
        let mut cells = [Cell { col: 0, row: 0 }; 9];
        let mut n = 0;
        for cell in Grid2D::cells().filter(|&c| row_col_bits(c) & *taken == 0) {
            cells[n] = cell;
            n += 1;
        }
        dist::shuffle(rng, &mut cells[..n]);
        for &cell in &cells[..n] {
            if let Some(sid) = self.pick_in_cell(rng, store, busy, cell, already) {
                *taken |= row_col_bits(cell);
                return Some((sid, false));
            }
        }

        if !self.soft {
            return None;
        }

        // Soft relaxation 1: ignore rows/columns, keep the environment
        // constraint (the paper's production system prioritized this
        // order: environments are the strongest correlation).
        for (slot, cell) in cells.iter_mut().zip(Grid2D::cells()) {
            *slot = cell;
        }
        dist::shuffle(rng, &mut cells);
        for &cell in &cells {
            if let Some(sid) = self.pick_in_cell(rng, store, busy, cell, already) {
                return Some((sid, true));
            }
        }

        // Soft relaxation 2: any server with space ("promote space
        // utilization over diversity").
        let sid = self.random_server(rng, store, busy, |sid| !already.contains(&sid.0))?;
        Some((sid, true))
    }

    /// Random tenant of `cell` in none of `already`'s environments, then
    /// a random server of that tenant with space.
    fn pick_in_cell<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        busy: Option<&[bool]>,
        cell: Cell,
        already: &[u32],
    ) -> Option<ServerId> {
        let grid = self.grid.as_ref().expect("history placer has a grid");
        let members = grid.members(cell);
        if members.is_empty() {
            return None;
        }
        for _ in 0..PROBES {
            let tid = members[rng.random_range(0..members.len())];
            let tenant = self.dc.tenant(tid);
            let env = tenant.environment;
            if store.tenant_free(tid) == 0
                || already.iter().any(|&s| self.env_of[s as usize] == env)
            {
                continue;
            }
            let n = tenant.n_servers();
            for _ in 0..PROBES {
                let sid = ServerId(tenant.server_range.start + rng.random_range(0..n) as u32);
                if store.has_space(sid) && !already.contains(&sid.0) && !self.is_busy(sid, busy) {
                    return Some(sid);
                }
            }
        }
        None
    }

    // ----- helpers -----

    fn is_busy(&self, sid: ServerId, busy: Option<&[bool]>) -> bool {
        match (self.policy, busy) {
            (PlacementPolicy::Stock, _) => false, // stock is oblivious
            (_, Some(mask)) => mask[sid.0 as usize],
            (_, None) => false,
        }
    }

    fn random_server<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &BlockStore,
        busy: Option<&[bool]>,
        extra: impl Fn(ServerId) -> bool,
    ) -> Option<ServerId> {
        let n = self.dc.n_servers();
        for _ in 0..PROBES * 4 {
            let sid = ServerId(rng.random_range(0..n) as u32);
            if store.has_space(sid) && !self.is_busy(sid, busy) && extra(sid) {
                return Some(sid);
            }
        }
        None
    }
}

/// A cell's bits in Algorithm 2's row/column memory (`taken`): bits 0-2
/// are rows, bits 3-5 columns. The environment memory is the chosen
/// replicas themselves.
fn row_col_bits(cell: Cell) -> u8 {
    1 << cell.row | 8 << cell.col
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::rng::stream_rng;
    use harvest_trace::datacenter::DatacenterProfile;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.05), 13)
    }

    fn cells_of(placer: &Placer<'_>, store: &BlockStore, servers: &[ServerId]) -> Vec<Cell> {
        servers
            .iter()
            .map(|&s| placer.grid.as_ref().unwrap().cell_of(store.tenant_of(s)))
            .collect()
    }

    #[test]
    fn stock_follows_rack_rule() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::Stock);
        let mut rng = stream_rng(1, "stock");
        let writer = ServerId(0);
        for _ in 0..100 {
            let p = placer
                .place_new(&mut rng, &store, writer, 3, None)
                .expect("placement");
            assert_eq!(p.servers.len(), 3);
            assert_eq!(p.servers[0], writer);
            assert_eq!(dc.server(p.servers[1]).rack, dc.server(writer).rack);
            assert_ne!(dc.server(p.servers[2]).rack, dc.server(writer).rack);
            // No duplicates.
            let mut s = p.servers.clone();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn primary_aware_skips_busy_servers() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::PrimaryAware);
        let mut rng = stream_rng(2, "pt");
        // Mark the writer's whole rack busy.
        let mut busy = vec![false; dc.n_servers()];
        let writer = ServerId(0);
        for s in &dc.servers {
            if s.rack == dc.server(writer).rack {
                busy[s.id.0 as usize] = true;
            }
        }
        let p = placer
            .place_new(&mut rng, &store, writer, 3, Some(&busy))
            .expect("placement");
        for &sid in &p.servers {
            assert!(!busy[sid.0 as usize], "placed on busy server {sid}");
        }
    }

    #[test]
    fn stock_ignores_busy_mask() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::Stock);
        let mut rng = stream_rng(3, "stock2");
        let busy = vec![true; dc.n_servers()];
        // Stock doesn't know about business; placement still succeeds.
        let p = placer.place_new(&mut rng, &store, ServerId(0), 3, Some(&busy));
        assert!(p.is_some());
    }

    #[test]
    fn history_respects_rows_columns_environments() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::History).with_soft_constraints(false);
        let mut rng = stream_rng(4, "hist");
        for w in 0..50u32 {
            let writer = ServerId(w % dc.n_servers() as u32);
            let Some(p) = placer.place_new(&mut rng, &store, writer, 3, None) else {
                continue; // hard mode may legitimately fail for some writers
            };
            assert!(!p.relaxed);
            let cells = cells_of(&placer, &store, &p.servers);
            for i in 0..cells.len() {
                for j in i + 1..cells.len() {
                    assert_ne!(cells[i].row, cells[j].row, "row reused");
                    assert_ne!(cells[i].col, cells[j].col, "column reused");
                }
            }
            let envs: Vec<usize> = p
                .servers
                .iter()
                .map(|&s| dc.tenant_of(s).environment)
                .collect();
            let mut dedup = envs.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), envs.len(), "environment reused");
        }
    }

    #[test]
    fn history_first_replica_is_local() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut rng = stream_rng(5, "hist2");
        let writer = ServerId(7);
        let p = placer
            .place_new(&mut rng, &store, writer, 3, None)
            .expect("placement");
        assert_eq!(p.servers[0], writer);
    }

    #[test]
    fn history_four_replicas_resets_round() {
        let dc = dc();
        let store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut rng = stream_rng(6, "hist3");
        let p = placer
            .place_new(&mut rng, &store, ServerId(3), 4, None)
            .expect("4-way placement");
        assert_eq!(p.servers.len(), 4);
        // First three replicas form a full round (distinct rows/cols);
        // the fourth starts a new round and may reuse a row or column,
        // but never an environment.
        let envs: Vec<usize> = p
            .servers
            .iter()
            .map(|&s| dc.tenant_of(s).environment)
            .collect();
        let mut dedup = envs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), envs.len(), "environment reused across rounds");
    }

    #[test]
    fn history_repair_avoids_existing_environments() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let placer = Placer::new(&dc, PlacementPolicy::History);
        let mut rng = stream_rng(7, "repair");
        let p = placer
            .place_new(&mut rng, &store, ServerId(0), 3, None)
            .expect("placement");
        let b = store.create_block(&p.servers);
        // Lose one replica, repair it.
        store.reimage_server(p.servers[1]);
        let existing: Vec<u32> = store.replicas(b).to_vec();
        for _ in 0..20 {
            let dest = placer
                .place_repair(&mut rng, &store, &existing, None)
                .expect("repair destination");
            let dest_env = dc.tenant_of(dest).environment;
            for &s in &existing {
                assert_ne!(
                    dc.tenant_of(ServerId(s)).environment,
                    dest_env,
                    "repair reused an environment"
                );
            }
        }
    }

    #[test]
    fn soft_mode_relaxes_when_cluster_nearly_full() {
        // A tiny datacenter where strict constraints quickly become
        // unsatisfiable.
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.003), 17);
        let mut store = BlockStore::new(&dc);
        let soft = Placer::new(&dc, PlacementPolicy::History);
        let hard = Placer::new(&dc, PlacementPolicy::History).with_soft_constraints(false);
        let mut rng = stream_rng(8, "soft");
        let mut soft_any = false;
        let mut hard_failed = false;
        for i in 0..2_000 {
            let writer = ServerId((i % dc.n_servers()) as u32);
            if let Some(p) = soft.place_new(&mut rng, &store, writer, 3, None) {
                soft_any |= p.relaxed;
                store.create_block(&p.servers);
            }
            if hard.place_new(&mut rng, &store, writer, 3, None).is_none() {
                hard_failed = true;
            }
        }
        assert!(
            soft_any || hard_failed,
            "expected constraint pressure in a tiny cluster"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(PlacementPolicy::Stock.to_string(), "HDFS-Stock");
        assert_eq!(PlacementPolicy::PrimaryAware.to_string(), "HDFS-PT");
        assert_eq!(PlacementPolicy::History.to_string(), "HDFS-H");
    }
}
