//! Heap-byte guard for the tenant traces.
//!
//! A counting global allocator tallies the bytes allocated on the test
//! thread. Every tenant's month-long trace lives in one shared buffer:
//! the generators fill it in place, cloning a `Datacenter` shares it,
//! and a scaled `UtilizationView` reads it through the scaling instead
//! of keeping a scaled copy. So building a view allocates a few
//! sample-length buffers (the fleet series and its accumulator, one
//! reused scaling buffer), never one per tenant. One test only, so
//! nothing else runs in the process while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harvest_cluster::{Datacenter, UtilizationView};
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::scaling::ScalingKind;
use harvest_trace::SAMPLES_PER_MONTH;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Bytes allocated on this thread while `f` runs.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn traces_are_shared_not_copied() {
    let profile = DatacenterProfile::dc(9).scaled(0.1);
    let (dc, generated) = bytes_during(|| Datacenter::generate(&profile, 42));
    let tenants = dc.n_tenants() as u64;
    let servers = dc.n_servers() as u64;
    let trace_bytes = (SAMPLES_PER_MONTH * size_of::<f64>()) as u64;
    let all_traces = tenants * trace_bytes;
    assert!(tenants >= 40, "DC-9 x0.1 has {tenants} tenants");

    // Generation writes each trace once, straight into its buffer (a
    // `Vec` copied into the buffer afterwards would allocate it twice).
    assert!(
        generated < all_traces + all_traces / 2,
        "generating allocated {generated} B for {all_traces} B of traces"
    );

    // A clone shares every trace buffer and copies no sample.
    let (copy, cloned) = bytes_during(|| dc.clone());
    for (a, b) in dc.tenants.iter().zip(&copy.tenants) {
        assert!(std::ptr::eq(a.trace.values(), b.trace.values()));
    }
    assert!(
        cloned < trace_bytes,
        "cloning allocated {cloned} B, more than one {trace_bytes} B trace"
    );

    // A scaled view: a few sample-length buffers plus per-tenant and
    // per-server tables, with no term in tenants x samples.
    let (view, built) = bytes_during(|| UtilizationView::scaled(&dc, ScalingKind::Linear, 0.1));
    let bound = 4 * (trace_bytes + 64) + 64 * (tenants + servers);
    assert!(
        built <= bound,
        "a scaled view allocated {built} B (bound {bound} B, traces {all_traces} B)"
    );
    assert_eq!(view.n_tenants() as u64, tenants);
}
