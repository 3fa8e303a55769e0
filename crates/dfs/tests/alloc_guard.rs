//! Heap-allocation guards for the reimage-storm data path.
//!
//! A counting global allocator tallies the allocations made on each
//! test's own thread, so tests running side by side do not see each
//! other's. Filling a store through Algorithm 2 must cost about one
//! allocation per block (the returned `Placement`'s server list) plus
//! amortized growth of the store's vectors, a re-share of a warmed
//! fabric must allocate nothing, and moving a repair through the fabric
//! and the disks must cost a few allocations, not one per table touch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harvest_cluster::{Datacenter, ServerId};
use harvest_dfs::placement::{PlacementPolicy, Placer};
use harvest_dfs::repair::{simulate_reimage_storm, StormConfig};
use harvest_dfs::store::BlockStore;
use harvest_disk::DiskConfig;
use harvest_net::{Fabric, NetworkConfig};
use harvest_sim::rng::stream_rng;
use harvest_sim::SimTime;
use harvest_trace::datacenter::DatacenterProfile;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn storm_data_path_does_not_allocate_per_block_or_per_reshare() {
    // --- placement + store: N fills cost N + O(servers) allocations ---
    let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.05), 13);
    let n_servers = dc.n_servers();
    let placer = Placer::new(&dc, PlacementPolicy::History);
    let mut store = BlockStore::new(&dc);
    let mut rng = stream_rng(7, "alloc-guard");
    let n = 20_000usize;
    let before = allocs();
    let mut placed = 0usize;
    for i in 0..n {
        let writer = ServerId((i * 7_919 % n_servers) as u32);
        if let Some(p) = placer.place_new(&mut rng, &store, writer, 3, None) {
            store.create_block(&p.servers);
            placed += 1;
        }
    }
    let fill = allocs() - before;
    assert!(placed > n * 9 / 10, "only {placed} of {n} blocks placed");
    // One `Placement` list per call, plus logarithmic growth of each
    // server's block list and of the store's flat vectors.
    let bound = (n + 8 * n_servers + 64) as u64;
    assert!(
        fill <= bound,
        "{n} fills made {fill} allocations (bound {bound}, {n_servers} servers)"
    );

    // --- fabric: a warmed re-share allocates nothing ---
    // A multi-bottleneck component (A, B share s0's NIC; B, C share
    // s2's; D shares s1's with A), so every pass is a filling pass, not
    // an analytic promotion. D starts over a downed link and parks at
    // rate 0; bringing the link up re-shares the whole component.
    let mut fabric = Fabric::from_datacenter(&dc, &NetworkConfig::non_blocking());
    let s = |i: u32| ServerId(i);
    let t0 = SimTime::ZERO;
    let big = 1u64 << 50;
    fabric.schedule_flow(t0, s(0), s(1), big, 0);
    fabric.schedule_flow(t0, s(0), s(2), big, 1);
    fabric.schedule_flow(t0, s(3), s(2), big, 2);
    fabric.pump(t0);
    // (A and B alone were one single-bottleneck group until C joined.)
    let promoted = fabric.stats().analytic_components;
    let gate = fabric.topology().server_tx(s(4));
    let mut reshare_allocs = Vec::new();
    for cycle in 1..=60u64 {
        let t = SimTime::from_secs(cycle);
        fabric.set_link_down(t, gate);
        fabric.schedule_flow(t, s(4), s(1), big, 100 + cycle);
        assert!(fabric.pump(t).is_empty());
        let before = allocs();
        fabric.set_link_up(t, gate);
        reshare_allocs.push(allocs() - before);
        assert_eq!(fabric.n_active(), 4);
    }
    assert_eq!(
        fabric.stats().analytic_components,
        promoted,
        "component was promoted"
    );
    // The first cycles size the scratch buffers, and the event heap:
    // each cycle leaves two cancelled entries in it until tombstone
    // compaction (past 64) caps its length, around cycle 32.
    assert!(
        reshare_allocs[40..].iter().all(|&a| a == 0),
        "warmed re-shares allocated: {reshare_allocs:?}"
    );
}

/// One storm on DC-9 ×0.1 (1.4k servers), shaped like the end-to-end
/// benchmark's: the largest tenant reimaged at once, the throttle
/// lifted, 256 repair streams. Returns (allocations, repairs).
fn storm_allocations(transfers: bool) -> (u64, u64) {
    let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.1), 42);
    let tenant = dc
        .tenants
        .iter()
        .max_by_key(|t| t.n_servers())
        .expect("a generated datacenter has tenants")
        .id;
    let mut cfg = StormConfig::new(tenant, 42);
    cfg.policy = PlacementPolicy::History;
    cfg.fill_fraction = 0.1;
    cfg.repair.blocks_per_server_per_hour = 1_000_000.0;
    cfg.max_repair_streams = Some(256);
    if transfers {
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
    }
    let before = allocs();
    let r = simulate_reimage_storm(&dc, &cfg);
    (allocs() - before, r.repairs)
}

#[test]
fn storm_repair_transfers_allocate_a_few_times_per_repair() {
    // The two storms fill and place identically; the difference is what
    // moving each repair as one flow plus a source read and a
    // destination write costs.
    let (with, repairs) = storm_allocations(true);
    let (without, repairs_without) = storm_allocations(false);
    assert_eq!(repairs, repairs_without, "storms diverged");
    assert!(repairs > 10_000, "only {repairs} repairs");
    let per_repair = (with as f64 - without as f64) / repairs as f64;
    // 3.30 per repair here, against 6.75 while flows and streams sat in
    // B-trees and every disk channel built a fresh engine per
    // occupancy period. What is left is mostly the per-`pump` result
    // vectors (one flow and two stream completions per repair) and the
    // fabric's group engines.
    assert!(
        per_repair < 4.0,
        "{per_repair:.2} allocations per repair ({with} with transfers, {without} without, {repairs} repairs)"
    );
}
