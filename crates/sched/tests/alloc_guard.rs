//! Heap-allocation guard for the scheduler's placement path.
//!
//! A counting global allocator tallies the allocations made on the test
//! thread during a YARN-H run, with and without shuffles over the
//! fabric and the disks, each after an identical warm-up run. What is
//! allocated per job (execution state, class selection, shuffle
//! bookkeeping) or per server is fixed for the run; what must not grow
//! is the cost of a task placement. A placement attempt reuses the
//! runner's probe buffers and walks the ready stages in place, so the
//! whole run stays within a small number of allocations per task
//! started. One test only, so nothing else runs in the process while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harvest_cluster::{Datacenter, UtilizationView};
use harvest_disk::DiskConfig;
use harvest_jobs::tpcds::tpcds_suite;
use harvest_jobs::workload::Workload;
use harvest_net::NetworkConfig;
use harvest_sched::{SchedPolicy, SchedSim, SchedSimConfig};
use harvest_sim::rng::stream_rng;
use harvest_sim::SimDuration;
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

/// Allocations per task started over one warmed YARN-H run on DC-9
/// ×0.05 (645 servers, 227 jobs, ~35k task starts), with or without
/// shuffles over the fabric and the disks.
fn allocations_per_task(with_io: bool) -> f64 {
    let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.05), 17);
    let view = UtilizationView::unscaled(&dc);
    let mut rng = stream_rng(17, "alloc-guard-jobs");
    let hours = 4;
    let jobs = Workload::poisson(
        &mut rng,
        tpcds_suite(),
        SimDuration::from_secs(60),
        SimDuration::from_hours(hours),
    );
    let mut cfg = SchedSimConfig::testbed(SchedPolicy::History, 17);
    cfg.horizon = SimDuration::from_hours(hours);
    cfg.drain = SimDuration::from_hours(hours);
    if with_io {
        cfg.network = Some(NetworkConfig::datacenter());
        cfg.disk = Some(DiskConfig::datacenter());
    }
    let sim = SchedSim::new(&dc, &view, &jobs, cfg);
    let warm = sim.run();

    let before = allocs();
    let stats = sim.run();
    let spent = allocs() - before;
    assert_eq!(stats.tasks_started, warm.tasks_started, "runs diverged");
    assert!(stats.tasks_started > 10_000, "too few tasks to measure");
    spent as f64 / stats.tasks_started as f64
}

#[test]
fn placement_does_not_allocate_per_attempt() {
    // Scheduler alone: what is left is per job (execution state, class
    // selection) and per server — 0.30 per task started here, against
    // 4.35 when every placement attempt built its own probe and
    // ready-stage vectors.
    let sched = allocations_per_task(false);
    assert!(sched < 0.5, "{sched:.2} allocations per task started");
    // With shuffles the fabric and the disk pool add their per-transfer
    // costs (2.71 per task started, against 8.30 before).
    let io = allocations_per_task(true);
    assert!(io < 4.0, "{io:.2} allocations per task started with I/O");
}
