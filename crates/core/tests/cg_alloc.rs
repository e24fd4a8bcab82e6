//! No CG strategy allocates a vector per iteration.
//!
//! A counting global allocator tallies, per thread, the allocations at
//! least one local vector long (`8·n_local` bytes). Two simulator ranks run
//! each CG preset twice, for 10 and for 110 iterations with a tolerance
//! nothing reaches; whatever a solve allocates at that size — the state
//! vectors of `init`, the product buffer, the outcome — it allocates once,
//! so the two tallies must be *equal*: zero per iteration. (Halo payloads,
//! reduction partials and the residual history are all far below one
//! vector.)
//!
//! One test function only: the allocator is process-global.

// The crate denies `unsafe`; implementing `GlobalAlloc` is the one exception.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{Comm, Result, Runtime, RuntimeConfig};

thread_local! {
    /// Vector-sized allocations made by this thread. Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// allocates nothing itself.
    static VECTOR_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Size in bytes from which an allocation counts; `usize::MAX` (nothing
/// counts) until the test knows `n_local`. A statistic's threshold, read
/// and written `Relaxed`: it publishes no other data.
static VECTOR_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

struct CountingAllocator;

fn count(size: usize) {
    if size >= VECTOR_BYTES.load(Ordering::Relaxed) {
        let _ = VECTOR_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic load
// and a thread-local counter increment that neither allocate nor unwind
// (`try_with` turns access during thread teardown into a no-op).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`, to which the call forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.alloc_zeroed`, to which the call
    // forwards (`vec![0.0; n]` lands here, not in `alloc`).
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which the call forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout` (all
        // allocation goes through the methods above and below).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which the call forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const RANKS: usize = 2;
const GRID: usize = 48;

/// Per rank: the vector-sized allocations of one `max_iters`-iteration solve
/// (set-up excluded), having checked that it really ran that long.
fn vector_allocations(preset: &'static str, max_iters: usize) -> Vec<u64> {
    let job =
        Runtime::new(RuntimeConfig::fast()).run(RANKS, move |comm: &mut Comm| -> Result<u64> {
            let a = poisson2d(GRID, GRID);
            let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
            let da = DistCsr::from_global(comm, &a)?;
            let bv = DistVector::from_global(comm, &b);
            let mut bj = BlockJacobi::new(&da);
            let opts = DistSolveOptions::default()
                .with_tol(0.0)
                .with_max_iters(max_iters);
            let before = VECTOR_ALLOCATIONS.with(Cell::get);
            let out = match preset {
                "pipelined_cg" => pipelined_cg(comm, &da, &bv, &opts)?,
                "pipelined_pcg" => pipelined_pcg(comm, &da, &bv, &mut bj, &opts)?,
                "dist_cg" => dist_cg(comm, &da, &bv, &opts)?,
                other => unreachable!("{other}"),
            };
            let counted = VECTOR_ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(out.iterations, max_iters, "{preset} must run to the cap");
            Ok(counted)
        });
    assert!(job.all_ok(), "{preset}: {:?}", job.errors);
    job.unwrap_all()
}

#[test]
fn cg_iterations_allocate_no_vectors() {
    let n_local = GRID * GRID / RANKS;
    VECTOR_BYTES.store(n_local * std::mem::size_of::<f64>(), Ordering::Relaxed);
    for preset in ["pipelined_cg", "pipelined_pcg", "dist_cg"] {
        let short = vector_allocations(preset, 10);
        let long = vector_allocations(preset, 110);
        assert!(
            short.iter().all(|&n| n > 0),
            "{preset}: the counter must see the solve's own vectors: {short:?}"
        );
        assert_eq!(
            short, long,
            "{preset}: 100 more iterations allocated vectors (per rank, 10 vs 110 iterations)"
        );
    }
}
