//! No CG solve — single-RHS or block, guarded or not — allocates a vector
//! per iteration.
//!
//! A counting global allocator tallies, per thread, the allocations at
//! least one local vector long (`8·n_local` bytes). Two simulator ranks run
//! each CG preset twice, for 10 and for 110 iterations with a tolerance
//! nothing reaches; whatever a solve allocates at that size — the state
//! vectors of `init`, the product buffer, the outcome — it allocates once,
//! so the two tallies must be *equal*: zero per iteration. (Halo payloads,
//! reduction partials and the residual history are all far below one
//! vector.) `pipelined_skeptical_cg` runs a policy on every hook: its views
//! of the one column must be the kernel's own buffers, not copies. The
//! block presets run at k = 4 under the identity and under
//! block-Jacobi; the identity stores no `M⁻¹` images, so its tally is
//! lower by the three pipelined (`u`, `mw`, `q`) or one fused (`z`)
//! multi-vectors.
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
/// Columns of the block presets.
const K: usize = 4;

/// Per rank: the vector-sized allocations of one `max_iters`-iteration solve
/// (set-up excluded), having checked that it really ran that long.
fn vector_allocations(preset: &'static str, max_iters: usize) -> Vec<u64> {
    let job =
        Runtime::new(RuntimeConfig::fast()).run(RANKS, move |comm: &mut Comm| -> Result<u64> {
            let a = poisson2d(GRID, GRID);
            let n = a.nrows();
            let rhs = |c: usize, i: usize| 1.0 + ((i + c) % 5) as f64;
            let da = DistCsr::from_global(comm, &a)?;
            let bv = DistVector::from_fn(comm, n, |i| rhs(0, i));
            let bk = DistMultiVector::from_fn(comm, n, K, rhs);
            let mut bj = BlockJacobi::new(&da);
            let id = &mut IdentityPrecond;
            let opts = SolveOptions::default()
                .with_tol(0.0)
                .with_max_iters(max_iters);
            let before = VECTOR_ALLOCATIONS.with(Cell::get);
            let iterations = match preset {
                "pipelined_cg" => pipelined_cg(comm, &da, &bv, &opts)?.iterations,
                "pipelined_pcg" => pipelined_pcg(comm, &da, &bv, &mut bj, &opts)?.iterations,
                "dist_cg" => dist_cg(comm, &da, &bv, &opts)?.iterations,
                "pipelined_skeptical_cg" => {
                    let skeptic = SkepticalConfig::default();
                    pipelined_skeptical_cg(comm, &da, &bv, &opts, &skeptic, None)?
                        .0
                        .iterations
                }
                "pipelined_block_pcg/identity" => {
                    pipelined_block_pcg(comm, &da, &bk, id, &opts)?.iterations
                }
                "pipelined_block_pcg/block-jacobi" => {
                    pipelined_block_pcg(comm, &da, &bk, &mut bj, &opts)?.iterations
                }
                "dist_block_pcg/identity" => {
                    solve_dist_block(comm, &da, &bk, Schedule::Fused, id, &opts)?.iterations
                }
                "dist_block_pcg/block-jacobi" => {
                    solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut bj, &opts)?.iterations
                }
                other => unreachable!("{other}"),
            };
            let counted = VECTOR_ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(iterations, max_iters, "{preset} must run to the cap");
            Ok(counted)
        });
    assert!(job.all_ok(), "{preset}: {:?}", job.errors);
    job.unwrap_all()
}

#[test]
fn cg_iterations_allocate_no_vectors() {
    let n_local = GRID * GRID / RANKS;
    VECTOR_BYTES.store(n_local * std::mem::size_of::<f64>(), Ordering::Relaxed);
    let mut tallies = std::collections::HashMap::new();
    for preset in [
        "pipelined_cg",
        "pipelined_pcg",
        "dist_cg",
        "pipelined_skeptical_cg",
        "pipelined_block_pcg/identity",
        "pipelined_block_pcg/block-jacobi",
        "dist_block_pcg/identity",
        "dist_block_pcg/block-jacobi",
    ] {
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
        tallies.insert(preset, short);
    }
    // Under the identity the block kernel stores no `M⁻¹` images.
    for (schedule, fewer) in [("pipelined_block_pcg", 3), ("dist_block_pcg", 1)] {
        let identity = &tallies[format!("{schedule}/identity").as_str()];
        let jacobi = &tallies[format!("{schedule}/block-jacobi").as_str()];
        assert!(
            identity
                .iter()
                .zip(jacobi)
                .all(|(id, bj)| id + fewer <= *bj),
            "{schedule}: the identity must allocate ≥ {fewer} fewer vectors than \
             block-Jacobi (per rank: {identity:?} vs {jacobi:?})"
        );
    }
}
