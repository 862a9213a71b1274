//! SMG preallocates its level hierarchy and solver vectors once per
//! incarnation, like hypre, and its V-cycle and PCG iterations work in those
//! arrays in place. So the number of large heap allocations a raw SMG job
//! makes must not depend on how many iterations it runs: an iteration that
//! allocates a level-sized temporary (a copied smoothing input, a fresh
//! residual, a returned correction) makes the longer job allocate more.
//!
//! This binary counts allocations through its own global allocator, so it
//! holds exactly one test: a second test running on another thread would
//! add its allocations to the count.

use npb::smg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at least this large are counted: half a level-0 share below,
/// so level 1's arrays count too.
const LARGE: usize = 64 << 10;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Large allocations of one raw SMG job on 2 ranks: a 2^15-point grid, so
/// each rank's level-0 arrays are 128 KiB and its level-1 arrays 64 KiB.
fn large_allocs(iters: u64) -> u64 {
    let cfg = smg::SmgConfig { log2_n: 15, iters, smooth: 2 };
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    mpisim::launch(&mpisim::JobSpec::new(2), |ctx| smg::run(ctx, &cfg)).unwrap();
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn large_allocations_do_not_grow_with_the_iteration_count() {
    let short = large_allocs(2);
    let long = large_allocs(6);
    assert_eq!(
        short, long,
        "SMG made {short} allocations of >= {LARGE} B at 2 iterations and {long} at 6"
    );
}
