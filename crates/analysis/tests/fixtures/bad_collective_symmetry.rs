// analysis-as: crates/core/src/fixture_collective.rs
// Fixture: collectives lexically inside rank-conditional branches. Each arm
// below must fire `collective-symmetry` — rank 0 enters a barrier the other
// ranks never reach, and the else-arm is just as asymmetric.

fn desync(comm: &Comm, my_rank: usize, buf: &mut [f64]) {
    if my_rank == 0 {
        comm.barrier();
    } else {
        comm.allreduce(buf);
    }
    if comm.rank() == 2 {
        let _ = comm.global_dot(buf, buf);
    }
    while my_rank < 1 {
        comm.recovery_rendezvous();
    }
}

fn symmetric_is_fine(comm: &Comm, buf: &mut [f64]) {
    comm.barrier();
    comm.allreduce(buf);
}
