//! Steady-state collectives stay off the heap, under either clock.
//!
//! A counting global allocator tallies allocations per thread; two rank
//! threads warm the engine's slots up, then count what a stream of
//! collectives allocates. Scalar reductions and barriers must allocate
//! nothing; a vector reduction allocates exactly the `Vec` its signature
//! returns; a halo message allocates exactly its payload (the sender's copy,
//! which the receiver takes over). The simulator runs the same communicator
//! code, so its scalar reductions and barriers are held to the same zero.
//!
//! One test function only: the allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use resilient_runtime::{ReduceOp, Runtime, RuntimeConfig, ThreadConfig, ThreadRuntime};

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it from inside the allocator allocates
    /// nothing itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter increment that neither allocates nor unwinds (`try_with` turns
// access during thread teardown into a no-op).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`, to which the call forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which the call forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (all allocation goes through `alloc`/`realloc` above and below).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which the call forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_collectives_do_not_allocate() {
    const N: u64 = 10_000;
    let job = ThreadRuntime::new(ThreadConfig::fast()).run(2, |comm| {
        let wide = [0.5; 24];
        let peer = 1 - comm.rank();
        // Warm-up. Eight reductions in flight at once grow the slot table
        // past anything the loops below need (a rank is never more than one
        // loop body ahead of its partner: at most four slots live); the rest
        // sizes the landing buffer and both mailboxes.
        let pending: Vec<_> = (0..8)
            .map(|_| comm.iallreduce(ReduceOp::Sum, &wide))
            .collect::<Result<_, _>>()?;
        for p in pending {
            comm.wait_vector(p)?;
        }
        for _ in 0..100 {
            comm.barrier()?;
            comm.global_dot(1.0)?;
            let pending = comm.iallreduce(ReduceOp::Sum, &wide)?;
            comm.allreduce(ReduceOp::Max, &wide)?;
            comm.wait_vector(pending)?;
            comm.send_f64(peer, 1, &wide)?;
            comm.recv_f64(peer, 1)?;
        }

        let before = allocations();
        for _ in 0..N {
            comm.barrier()?;
            comm.global_dot(1.0)?;
            comm.allreduce_scalar(ReduceOp::Min, 2.0)?;
        }
        let scalar = allocations() - before;

        let before = allocations();
        for _ in 0..N {
            // One nonblocking reduction in flight across a blocking one:
            // the pipelined solvers' shape, two slots live at once.
            let pending = comm.iallreduce(ReduceOp::Sum, &wide)?;
            comm.allreduce(ReduceOp::Sum, &wide)?;
            comm.wait_vector(pending)?;
        }
        let vector = allocations() - before;

        let before = allocations();
        for _ in 0..N {
            comm.send_f64(peer, 1, &wide)?;
            comm.recv_f64(peer, 1)?;
        }
        let halo = allocations() - before;
        Ok((scalar, vector, halo))
    });
    assert!(job.all_ok(), "errors: {:?}", job.errors);
    for (rank, (scalar, vector, halo)) in job.unwrap_all().into_iter().enumerate() {
        assert_eq!(
            scalar, 0,
            "rank {rank}: {N} barriers + 2·{N} scalar reductions touched the heap"
        );
        assert_eq!(
            vector,
            2 * N,
            "rank {rank}: a vector reduction allocates its returned Vec and nothing else"
        );
        assert_eq!(
            halo, N,
            "rank {rank}: a message allocates its payload and nothing else"
        );
    }

    let job = Runtime::new(RuntimeConfig::fast()).run(2, |comm| {
        for _ in 0..100 {
            comm.barrier()?;
            comm.global_dot(1.0)?;
        }
        let before = allocations();
        for _ in 0..N {
            comm.barrier()?;
            comm.global_dot(1.0)?;
            comm.allreduce_scalar(ReduceOp::Min, 2.0)?;
        }
        Ok(allocations() - before)
    });
    assert!(job.all_ok(), "errors: {:?}", job.errors);
    for (rank, scalar) in job.unwrap_all().into_iter().enumerate() {
        assert_eq!(
            scalar, 0,
            "simulated rank {rank}: {N} barriers + 2·{N} scalar reductions touched the heap"
        );
    }
}
