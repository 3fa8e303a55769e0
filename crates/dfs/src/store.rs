//! Block-store state: blocks, replicas, and space accounting.
//!
//! # Layout and cost
//!
//! The forward map (block → replica servers) is packed: every block owns
//! `stride` consecutive `u32` slots in one flat vector, plus a `u8` count
//! of the slots in use. The stride is the widest block the store has
//! held; the first block that needs more slots re-lays the whole vector
//! out once at the wider stride (in practice once per store, when the
//! first block arrives). At R = 3 a block costs 13 bytes of forward map
//! plus 4 bytes per replica in the inverse map (server → blocks, `u32`
//! block indices, so a store holds at most 2^32 blocks): 25 bytes in
//! all. There is no heap allocation per block: `create_block`,
//! `add_replica` and `replicas` are O(R) over that packed row, with
//! amortized growth of the flat vectors only.

use harvest_cluster::{Datacenter, ServerId, TenantId};

/// Identifies a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Size of one block in bytes (the paper's 256 MB HDFS default). Network
/// consumers use this to turn replica movement into flow bytes.
pub const BLOCK_BYTES: u64 = 256 * 1024 * 1024;

/// Replica locations and space accounting for every block in the cluster.
///
/// Blocks are 256 MB (the paper's HDFS default); capacities are counted
/// in blocks. The store keeps the forward map (block → servers, packed as
/// the module docs describe), the inverse map (server → blocks) needed to
/// process disk reimages, and per-server/per-tenant free-space counters
/// the placement policies use.
#[derive(Debug, Clone)]
pub struct BlockStore {
    /// Block `b`'s replicas are `slots[b * stride..][..n_replicas[b]]`,
    /// in placement order.
    slots: Vec<u32>,
    n_replicas: Vec<u8>,
    stride: usize,
    /// The blocks each server holds, as `u32` block indices.
    server_blocks: Vec<Vec<u32>>,
    server_used: Vec<u32>,
    server_capacity: Vec<u32>,
    server_tenant: Vec<u32>,
    tenant_free: Vec<u64>,
    lost: u64,
}

impl BlockStore {
    /// An empty store over the datacenter's servers.
    pub fn new(dc: &Datacenter) -> Self {
        let server_capacity: Vec<u32> = dc.servers.iter().map(|s| s.harvest_blocks).collect();
        let server_tenant: Vec<u32> = dc.servers.iter().map(|s| s.tenant.0).collect();
        let mut tenant_free = vec![0u64; dc.n_tenants()];
        for s in &dc.servers {
            tenant_free[s.tenant.0 as usize] += s.harvest_blocks as u64;
        }
        BlockStore {
            slots: Vec::new(),
            n_replicas: Vec::new(),
            stride: 0,
            server_blocks: vec![Vec::new(); dc.n_servers()],
            server_used: vec![0; dc.n_servers()],
            server_capacity,
            server_tenant,
            tenant_free,
            lost: 0,
        }
    }

    /// Number of blocks ever created (including lost ones).
    pub fn n_blocks(&self) -> usize {
        self.n_replicas.len()
    }

    /// Number of blocks whose every replica has been destroyed.
    pub fn lost_blocks(&self) -> u64 {
        self.lost
    }

    /// The replica servers of a block (empty if the block is lost).
    pub fn replicas(&self, block: BlockId) -> &[u32] {
        let b = block.0 as usize;
        &self.slots[b * self.stride..][..self.n_replicas[b] as usize]
    }

    /// Free blocks on a server.
    pub fn free_on(&self, server: ServerId) -> u32 {
        self.server_capacity[server.0 as usize] - self.server_used[server.0 as usize]
    }

    /// Whether the server has room for one more replica.
    pub fn has_space(&self, server: ServerId) -> bool {
        self.free_on(server) > 0
    }

    /// Free blocks across a whole tenant.
    pub fn tenant_free(&self, tenant: TenantId) -> u64 {
        self.tenant_free[tenant.0 as usize]
    }

    /// Total free blocks cluster-wide.
    pub fn total_free(&self) -> u64 {
        self.tenant_free.iter().sum()
    }

    /// Creates a block with the given replica locations.
    ///
    /// # Panics
    ///
    /// Panics if a location is full or duplicated, if there are more
    /// than 255 locations, or if the new block's id would not fit in a
    /// `u32`.
    pub fn create_block(&mut self, locations: &[ServerId]) -> BlockId {
        let id = u32::try_from(self.n_replicas.len()).expect("block ids must fit in a u32");
        let id = BlockId(id.into());
        for (i, sid) in locations.iter().enumerate() {
            assert!(
                !locations[..i].contains(sid),
                "duplicate replica location {sid} for block {id:?}"
            );
        }
        if locations.len() > self.stride {
            self.restride(locations.len());
        }
        self.n_replicas.push(0);
        self.slots.resize(self.slots.len() + self.stride, 0);
        for &sid in locations {
            self.add_replica(id, sid);
        }
        id
    }

    /// Adds one replica of `block` on `server`.
    ///
    /// # Panics
    ///
    /// Panics if the server is full or already holds the block, or if the
    /// block already has 255 replicas.
    pub fn add_replica(&mut self, block: BlockId, server: ServerId) {
        let s = server.0 as usize;
        assert!(self.has_space(server), "server {server} is full");
        assert!(
            !self.replicas(block).contains(&server.0),
            "server {server} already holds block {block:?}"
        );
        let b = block.0 as usize;
        let n = self.n_replicas[b] as usize;
        assert!(
            n < u8::MAX as usize,
            "block {block:?} has too many replicas"
        );
        if n == self.stride {
            self.restride(n + 1);
        }
        self.slots[b * self.stride + n] = server.0;
        self.n_replicas[b] += 1;
        self.server_blocks[s].push(b as u32);
        self.server_used[s] += 1;
        self.tenant_free[self.server_tenant[s] as usize] -= 1;
    }

    /// Re-lays the forward map out at a wider `stride`, keeping every
    /// block's replica order.
    fn restride(&mut self, stride: usize) {
        debug_assert!(stride > self.stride);
        let mut slots = vec![0; self.n_replicas.len() * stride];
        for (b, &n) in self.n_replicas.iter().enumerate() {
            let n = n as usize;
            slots[b * stride..][..n].copy_from_slice(&self.slots[b * self.stride..][..n]);
        }
        self.slots = slots;
        self.stride = stride;
    }

    /// Destroys every replica on `server` (a disk reimage), returning the
    /// affected blocks and marking any block that lost its final replica
    /// as lost.
    pub fn reimage_server(&mut self, server: ServerId) -> Vec<BlockId> {
        let s = server.0 as usize;
        let blocks = std::mem::take(&mut self.server_blocks[s]);
        let freed = blocks.len() as u32;
        self.server_used[s] -= freed;
        self.tenant_free[self.server_tenant[s] as usize] += freed as u64;
        for &b in &blocks {
            let b = b as usize;
            let n = self.n_replicas[b] as usize;
            let row = &mut self.slots[b * self.stride..][..n];
            // Swap-remove: the last replica fills the hole. Replica
            // order feeds repair placement and source choice, so this
            // order is part of the store's contract.
            if let Some(pos) = row.iter().position(|&x| x == server.0) {
                row[pos] = row[n - 1];
                self.n_replicas[b] -= 1;
            }
            if self.n_replicas[b] == 0 {
                self.lost += 1;
            }
        }
        blocks.into_iter().map(|b| BlockId(b.into())).collect()
    }

    /// Number of surviving replicas of a block.
    pub fn replica_count(&self, block: BlockId) -> usize {
        self.n_replicas[block.0 as usize] as usize
    }

    /// The tenant owning a server (placement helpers need this without a
    /// full datacenter reference).
    pub fn tenant_of(&self, server: ServerId) -> TenantId {
        TenantId(self.server_tenant[server.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 11)
    }

    #[test]
    fn create_and_account() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let total = store.total_free();
        let locs = [ServerId(0), ServerId(1), ServerId(2)];
        let b = store.create_block(&locs);
        assert_eq!(store.replica_count(b), 3);
        assert_eq!(store.total_free(), total - 3);
        assert_eq!(store.free_on(ServerId(0)), dc.servers[0].harvest_blocks - 1);
    }

    #[test]
    fn reimage_destroys_and_frees() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let b1 = store.create_block(&[ServerId(0), ServerId(5)]);
        let b2 = store.create_block(&[ServerId(0)]);
        let affected = store.reimage_server(ServerId(0));
        assert_eq!(affected.len(), 2);
        assert_eq!(store.replica_count(b1), 1);
        assert_eq!(store.replica_count(b2), 0);
        assert_eq!(store.lost_blocks(), 1);
        assert_eq!(store.free_on(ServerId(0)), dc.servers[0].harvest_blocks);
    }

    #[test]
    fn repair_after_partial_loss() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let b = store.create_block(&[ServerId(0), ServerId(5)]);
        store.reimage_server(ServerId(0));
        store.add_replica(b, ServerId(9));
        assert_eq!(store.replica_count(b), 2);
        assert!(store.replicas(b).contains(&9));
    }

    #[test]
    fn reimaged_server_can_host_again() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let b = store.create_block(&[ServerId(0), ServerId(3)]);
        store.reimage_server(ServerId(0));
        store.add_replica(b, ServerId(0));
        assert_eq!(store.replica_count(b), 2);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn duplicate_replica_panics() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let b = store.create_block(&[ServerId(0)]);
        store.add_replica(b, ServerId(0));
    }

    #[test]
    fn tenant_free_tracks_usage() {
        let dc = dc();
        let mut store = BlockStore::new(&dc);
        let t = store.tenant_of(ServerId(0));
        let before = store.tenant_free(t);
        store.create_block(&[ServerId(0)]);
        assert_eq!(store.tenant_free(t), before - 1);
    }
}
