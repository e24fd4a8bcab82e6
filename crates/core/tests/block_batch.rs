//! Integration pins for the block multi-RHS CG kernel
//! ([`run_block_cg`](resilience::kernel::run_block_cg) via the
//! [`solve_dist_block`] under either [`Schedule`]).
//!
//! Four pins:
//!
//! 1. **k = 1 degeneracy** — a one-column block solve is *bitwise*
//!    identical to the corresponding single-RHS solve ([`solve_dist`] with
//!    the matching CG spec): same iterates, same iteration count, same
//!    residual history, and the same exact collective count.
//! 2. **Columns are single-RHS recurrences** — each column of a k-RHS
//!    block solve is bitwise identical to solving that RHS alone, at every
//!    rank count 1–8. Batching amortises traffic; it never reassociates
//!    across columns ("lane width is part of the spec").
//! 3. **Collective count is independent of k** — the batched payload makes
//!    the allreduce schedule a function of the iteration count only: two
//!    blocking allreduces per fused iteration, one nonblocking per
//!    pipelined iteration, for k ∈ {1, 2, 4, 8} alike.
//! 4. **Setup cache** — a [`SetupCache`]-provided block-Jacobi solves
//!    bit-identically to a freshly factored one, and the warm solve is
//!    strictly cheaper in virtual time (the LU setup flops are skipped).

use resilience::kernel::{run_cg, solve, IterCtx, PipelinedCgStep, PolicyAction, SolutionProbe};
use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{CommBackend, Result, Runtime, RuntimeConfig, ThreadConfig, ThreadRuntime};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Distinct right-hand sides per column; column 3 (when present) is all
/// zeros so it converges before the first iteration and exercises the
/// pre-loop freeze path.
fn rhs(c: usize, i: usize) -> f64 {
    if c == 3 {
        0.0
    } else {
        ((i * (c + 1)) as f64 * 0.13).sin() + 1.0 + c as f64
    }
}

// ---------------------------------------------------------------------------
// 1. k = 1 is bitwise identical to the single-RHS presets
// ---------------------------------------------------------------------------

/// (single x, block x, single iters, block col-0 iters, single history,
/// block col-0 history, single collectives, block collectives)
type K1Parity = (
    Vec<f64>,
    Vec<f64>,
    usize,
    usize,
    Vec<f64>,
    Vec<f64>,
    u64,
    u64,
);

fn k1_parity(ranks: usize, pipelined: bool) -> Vec<K1Parity> {
    let rt = Runtime::new(RuntimeConfig::fast());
    rt.run(ranks, move |comm| {
        let a = poisson2d(10, 10);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b1 = DistVector::from_fn(comm, n, |i| rhs(0, i));
        let bk = DistMultiVector::from_columns(std::slice::from_ref(&b1));
        let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(300);

        let mut m = BlockJacobi::new(&da);
        let before = comm.snapshot_stats().collectives;
        let single = if pipelined {
            pipelined_pcg(comm, &da, &b1, &mut m, &opts)?
        } else {
            solve_dist(comm, &da, &b1, SolveSpec::FUSED_CG, Some(&mut m), &opts)?
        };
        let single_coll = comm.snapshot_stats().collectives - before;

        let mut m = BlockJacobi::new(&da);
        let before = comm.snapshot_stats().collectives;
        let block = if pipelined {
            pipelined_block_pcg(comm, &da, &bk, &mut m, &opts)?
        } else {
            solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?
        };
        let block_coll = comm.snapshot_stats().collectives - before;

        assert!(single.converged, "single-RHS solve must converge");
        assert!(block.all_converged(), "block solve must converge");
        assert_eq!(
            single.relative_residual.to_bits(),
            block.relative_residuals[0].to_bits(),
            "final relres must match bitwise"
        );
        Ok((
            single.x.gather_global(comm)?,
            block.x.column(0).gather_global(comm)?,
            single.iterations,
            block.column_iterations[0],
            single.history,
            block.histories[0].clone(),
            single_coll,
            block_coll,
        ))
    })
    .unwrap_all()
}

#[test]
fn fused_block_at_k1_is_bitwise_identical_to_dist_pcg() {
    for ranks in [1, 3, 4] {
        for (sx, bx, si, bi, sh, bh, sc, bc) in k1_parity(ranks, false) {
            assert_eq!(bits(&sx), bits(&bx), "x bits diverged at {ranks} ranks");
            assert_eq!(si, bi, "iteration counts diverged at {ranks} ranks");
            assert_eq!(bits(&sh), bits(&bh), "histories diverged at {ranks} ranks");
            assert_eq!(sc, bc, "collective counts diverged at {ranks} ranks");
        }
    }
}

#[test]
fn pipelined_block_at_k1_is_bitwise_identical_to_pipelined_pcg() {
    for ranks in [1, 3, 4] {
        for (sx, bx, si, bi, sh, bh, sc, bc) in k1_parity(ranks, true) {
            assert_eq!(bits(&sx), bits(&bx), "x bits diverged at {ranks} ranks");
            assert_eq!(si, bi, "iteration counts diverged at {ranks} ranks");
            assert_eq!(bits(&sh), bits(&bh), "histories diverged at {ranks} ranks");
            assert_eq!(sc, bc, "collective counts diverged at {ranks} ranks");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Every column matches its own sequential single-RHS solve, 1–8 ranks
// ---------------------------------------------------------------------------

fn columns_match_sequential(ranks: usize, pipelined: bool) {
    const K: usize = 4;
    let rt = Runtime::new(RuntimeConfig::fast());
    let results = rt.run(ranks, move |comm| {
        let a = poisson2d(9, 9);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let bk = DistMultiVector::from_fn(comm, n, K, rhs);
        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);

        let mut m = BlockJacobi::new(&da);
        let block = if pipelined {
            pipelined_block_pcg(comm, &da, &bk, &mut m, &opts)?
        } else {
            solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?
        };
        assert!(block.all_converged(), "block solve must converge");
        assert_eq!(
            block.iterations,
            *block.column_iterations.iter().max().unwrap(),
            "batch runs until the slowest column freezes"
        );

        let mut cols = Vec::new();
        for (c, out) in block.into_columns().into_iter().enumerate() {
            let bc = DistVector::from_fn(comm, n, |i| rhs(c, i));
            let mut m = BlockJacobi::new(&da);
            let solo = if pipelined {
                pipelined_pcg(comm, &da, &bc, &mut m, &opts)?
            } else {
                solve_dist(comm, &da, &bc, SolveSpec::FUSED_CG, Some(&mut m), &opts)?
            };
            assert!(solo.converged, "sequential solve {c} must converge");
            cols.push((
                c,
                out.x.gather_global(comm)?,
                solo.x.gather_global(comm)?,
                out.iterations,
                solo.iterations,
                out.history,
                solo.history,
            ));
        }
        Ok(cols)
    });
    for cols in results.unwrap_all() {
        for (c, bx, sx, bi, si, bh, sh) in cols {
            assert_eq!(
                bits(&bx),
                bits(&sx),
                "column {c} x bits diverged at {ranks} ranks"
            );
            assert_eq!(
                bi, si,
                "column {c} iteration count diverged at {ranks} ranks"
            );
            assert_eq!(
                bits(&bh),
                bits(&sh),
                "column {c} history diverged at {ranks} ranks"
            );
        }
    }
}

#[test]
fn fused_block_columns_match_sequential_solves_across_ranks() {
    for ranks in 1..=8 {
        columns_match_sequential(ranks, false);
    }
}

#[test]
fn pipelined_block_columns_match_sequential_solves_across_ranks() {
    for ranks in 1..=8 {
        columns_match_sequential(ranks, true);
    }
}

// ---------------------------------------------------------------------------
// 3. Collective count per iteration is independent of k
// ---------------------------------------------------------------------------

/// Run a pinned (non-converging) block solve and return the exact number of
/// collectives it issued together with its iteration count.
fn block_collectives(pipelined: bool, k: usize, max_iters: usize) -> (u64, usize) {
    let rt = Runtime::new(RuntimeConfig::fast());
    let results = rt.run(4, move |comm| {
        let a = poisson2d(8, 8);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        // No zero column here: pinned runs must keep every lane active.
        let bk = DistMultiVector::from_fn(comm, n, k, |c, i| rhs(c.min(2), i));
        let opts = SolveOptions::default()
            .with_tol(1e-30)
            .with_max_iters(max_iters);
        let mut m = BlockJacobi::new(&da);
        let before = comm.snapshot_stats().collectives;
        let out = if pipelined {
            pipelined_block_pcg(comm, &da, &bk, &mut m, &opts)?
        } else {
            solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?
        };
        let after = comm.snapshot_stats().collectives;
        Ok((after - before, out.iterations))
    });
    let mut out = results.unwrap_all();
    let first = out.remove(0);
    for other in out {
        assert_eq!(first, other, "ranks disagree on collective counts");
    }
    first
}

#[test]
fn fused_allreduce_count_is_independent_of_k() {
    let mut totals = Vec::new();
    for k in [1, 2, 4, 8] {
        let (c_short, i_short) = block_collectives(false, k, 5);
        let (c_long, i_long) = block_collectives(false, k, 12);
        assert_eq!((i_short, i_long), (5, 12), "pinned runs must not converge");
        // Two blocking allreduces per iteration, whatever the batch width.
        assert_eq!(
            c_long - c_short,
            2 * 7,
            "fused per-iteration count at k={k}"
        );
        totals.push((c_short, c_long));
    }
    // The whole schedule — init norm and first fused reduction included —
    // is identical across batch widths, not just the per-iteration slope.
    assert!(
        totals.iter().all(|&t| t == totals[0]),
        "total collective schedule must be independent of k: {totals:?}"
    );
}

#[test]
fn pipelined_allreduce_count_is_independent_of_k() {
    let mut totals = Vec::new();
    for k in [1, 2, 4, 8] {
        let (c_short, i_short) = block_collectives(true, k, 5);
        let (c_long, i_long) = block_collectives(true, k, 12);
        assert_eq!((i_short, i_long), (5, 12), "pinned runs must not converge");
        // One nonblocking allreduce per iteration, whatever the batch width.
        assert_eq!(
            c_long - c_short,
            7,
            "pipelined per-iteration count at k={k}"
        );
        totals.push((c_short, c_long));
    }
    assert!(
        totals.iter().all(|&t| t == totals[0]),
        "total collective schedule must be independent of k: {totals:?}"
    );
}

// ---------------------------------------------------------------------------
// 4. Setup cache: warm solves are bit-identical and strictly cheaper
// ---------------------------------------------------------------------------

#[test]
fn cached_setup_solves_bit_identically_and_skips_the_factorization_cost() {
    let mut cfg = RuntimeConfig::fast();
    cfg.seconds_per_flop = 1.0e-9;
    let rt = Runtime::new(cfg);
    let results = rt.run(2, move |comm| {
        let a = poisson2d(12, 12);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let bk = DistMultiVector::from_fn(comm, n, 2, rhs);
        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);

        let mut cache = SetupCache::new();
        let t0 = comm.now();
        let mut m = cache.block_jacobi(&da);
        let cold = solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?;
        let t1 = comm.now();
        let mut m = cache.block_jacobi(&da);
        let warm = solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?;
        let t2 = comm.now();

        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1, "one operator, one cache entry");
        assert!(cold.all_converged() && warm.all_converged());
        Ok((
            cold.x.column(0).gather_global(comm)?,
            warm.x.column(0).gather_global(comm)?,
            cold.x.column(1).gather_global(comm)?,
            warm.x.column(1).gather_global(comm)?,
            t1 - t0,
            t2 - t1,
        ))
    });
    for (c0, w0, c1, w1, cold_time, warm_time) in results.unwrap_all() {
        assert_eq!(bits(&c0), bits(&w0), "warm solve must be bit-identical");
        assert_eq!(bits(&c1), bits(&w1), "warm solve must be bit-identical");
        // The solves are identical except that the warm one never charges
        // the LU factorization flops, so it is strictly faster.
        assert!(
            warm_time < cold_time,
            "cache hit must skip setup cost: cold={cold_time}, warm={warm_time}"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Carried dot partials: dropped on rebuild, kept per frozen column
// ---------------------------------------------------------------------------

/// A policy that answers `Restart` from `on_iteration` exactly once, at
/// iteration `at` — mid-solve, with nothing wrong: the kernel has to
/// rebuild its recurrence from the current iterate and carry on.
struct RestartOnce {
    at: usize,
    fired: bool,
}

impl<S: KrylovSpace> ResiliencePolicy<S> for RestartOnce {
    fn name(&self) -> &'static str {
        "restart-once"
    }

    fn on_iteration(
        &mut self,
        _space: &mut S,
        ctx: &IterCtx,
        _probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        if !self.fired && ctx.iteration == self.at {
            self.fired = true;
            return Ok(PolicyAction::Detected);
        }
        Ok(PolicyAction::Continue)
    }

    fn overhead(&self) -> PolicyOverhead {
        PolicyOverhead::default()
    }
}

/// The pipelined block kernel posts dot partials its previous sweep left
/// behind. A policy restart rebuilds `r`, `u`, `w` from the iterate, so the
/// carried partials describe vectors that no longer exist: the first step
/// after the rebuild must recompute them. Pinned against the single-RHS
/// kernel, which recomputes every step, under the same policy.
#[test]
fn policy_restart_mid_solve_keeps_k1_bitwise_identical_to_pipelined_pcg() {
    for ranks in [2, 4] {
        let rt = Runtime::new(RuntimeConfig::fast());
        let results = rt.run(ranks, move |comm| {
            let a = poisson2d(10, 10);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let b1 = DistVector::from_fn(comm, n, |i| rhs(0, i));
            let bk = DistMultiVector::from_columns(std::slice::from_ref(&b1));
            let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(300);

            let mut m = BlockJacobi::new(&da);
            let mut policy = RestartOnce {
                at: 7,
                fired: false,
            };
            let before = comm.snapshot_stats().collectives;
            let (single, single_report) = {
                let mut space = DistSpace::new(comm, &da);
                let mut stack = PolicyStack::empty();
                stack.push(&mut policy);
                run_cg(
                    &mut space,
                    &b1,
                    None,
                    &opts,
                    &mut PipelinedCgStep::preconditioned(&mut m),
                    &mut stack,
                )?
            };
            let single_coll = comm.snapshot_stats().collectives - before;

            let mut m = BlockJacobi::new(&da);
            let mut policy = RestartOnce {
                at: 7,
                fired: false,
            };
            let before = comm.snapshot_stats().collectives;
            let (block, block_report) = {
                let mut space = DistSpace::new(comm, &da);
                let mut stack = PolicyStack::empty();
                stack.push(&mut policy);
                run_block_cg(
                    &mut space,
                    &bk,
                    None,
                    &opts,
                    Schedule::Pipelined,
                    &mut m,
                    &mut stack,
                )?
            };
            let block_coll = comm.snapshot_stats().collectives - before;

            assert_eq!(single_report.policy_restarts, 1, "the policy must fire");
            assert_eq!(block_report.policy_restarts, 1, "the policy must fire");
            assert_eq!(single.reason, StopReason::Converged);
            assert_eq!(block.reason, StopReason::Converged);
            assert!(single.iterations > 7, "the restart must land mid-solve");
            Ok((
                single.x.gather_global(comm)?,
                block.x.column(0).gather_global(comm)?,
                single.history,
                block.histories[0].clone(),
                (single.iterations, single_coll),
                (block.iterations, block_coll),
            ))
        });
        for (sx, bx, sh, bh, s_counts, b_counts) in results.unwrap_all() {
            assert_eq!(bits(&sx), bits(&bx), "x bits diverged at {ranks} ranks");
            assert_eq!(bits(&sh), bits(&bh), "histories diverged at {ranks} ranks");
            assert_eq!(
                s_counts, b_counts,
                "iteration / collective counts diverged at {ranks} ranks"
            );
        }
    }
}

/// Right-hand sides of very different difficulty, so the columns of one
/// batch freeze many iterations apart.
fn staggered_rhs(c: usize, i: usize) -> f64 {
    match c {
        0 => 1.0,
        1 => ((i * 7) as f64 * 0.61).sin(),
        2 => {
            if i == 40 {
                1.0
            } else {
                0.0
            }
        }
        _ => {
            if i < 27 {
                1.0e3
            } else {
                0.0
            }
        }
    }
}

/// A block-Jacobi k = 4 solve whose columns freeze at different iterations
/// — so every later step sweeps some columns and posts the *kept* partials
/// of the others — still runs every column as its own sequential solve,
/// bit for bit, and at exactly the virtual time the kernel took before it
/// carried partials and fused its updates (constants read off the parent
/// commit: the model charges what the algorithm does, not how the backend
/// streams it).
#[test]
fn staggered_freezes_keep_columns_sequential_and_virtual_time_unchanged() {
    const K: usize = 4;
    // Virtual seconds of the block solve on ranks 0, 1, 2, as f64 bits.
    const PARENT_ELAPSED: [(bool, [u64; 3]); 2] = [
        (
            false,
            [
                0x3f19_6339_9c6a_14ae,
                0x3f19_6339_9c6a_14ae,
                0x3f19_6339_9c6a_14ae,
            ],
        ),
        (
            true,
            [
                0x3f1e_cb24_df90_fd41,
                0x3f1e_cc5a_1c67_4ffc,
                0x3f1e_cb24_df90_fd41,
            ],
        ),
    ];
    for (pipelined, want_elapsed) in PARENT_ELAPSED {
        let mut cfg = RuntimeConfig::fast();
        cfg.seconds_per_flop = 1.0e-9;
        let rt = Runtime::new(cfg);
        let results = rt.run(3, move |comm| {
            let a = poisson2d(9, 9);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let bk = DistMultiVector::from_fn(comm, n, K, staggered_rhs);
            let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);

            let mut m = BlockJacobi::new(&da);
            let t0 = comm.now();
            let block = if pipelined {
                pipelined_block_pcg(comm, &da, &bk, &mut m, &opts)?
            } else {
                solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut m, &opts)?
            };
            let elapsed = comm.now() - t0;
            assert!(block.all_converged(), "block solve must converge");
            let mut freezes = block.column_iterations.clone();
            freezes.sort_unstable();
            freezes.dedup();
            assert_eq!(freezes.len(), K, "columns must freeze at distinct steps");

            let mut cols = Vec::new();
            for (c, out) in block.into_columns().into_iter().enumerate() {
                let bc = DistVector::from_fn(comm, n, |i| staggered_rhs(c, i));
                let mut m = BlockJacobi::new(&da);
                let solo = if pipelined {
                    pipelined_pcg(comm, &da, &bc, &mut m, &opts)?
                } else {
                    solve_dist(comm, &da, &bc, SolveSpec::FUSED_CG, Some(&mut m), &opts)?
                };
                cols.push((
                    out.x.gather_global(comm)?,
                    solo.x.gather_global(comm)?,
                    out.history,
                    solo.history,
                ));
            }
            Ok((elapsed, cols))
        });
        for (rank, (elapsed, cols)) in results.unwrap_all().into_iter().enumerate() {
            for (c, (bx, sx, bh, sh)) in cols.into_iter().enumerate() {
                assert_eq!(bits(&bx), bits(&sx), "column {c} x bits diverged");
                assert_eq!(bits(&bh), bits(&sh), "column {c} history diverged");
            }
            assert_eq!(
                elapsed.to_bits(),
                want_elapsed[rank],
                "virtual time moved on rank {rank} (pipelined = {pipelined}): {elapsed:e} = {:#x}",
                elapsed.to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Caller mistakes are typed errors, raised before any collective
// ---------------------------------------------------------------------------

#[test]
fn malformed_block_solve_input_is_an_invalid_argument_not_a_panic() {
    let rt = Runtime::new(RuntimeConfig::fast());
    let results = rt.run(2, move |comm| {
        let a = poisson2d(6, 6);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistMultiVector::from_fn(comm, n, 2, rhs);
        // Right global length, wrong local part (a one-rank layout).
        let mut misplaced = b.clone();
        misplaced.local = vec![1.0; 2 * n];
        let cases = [
            (
                "`b` has no columns",
                DistMultiVector::zeros(comm, n, 0),
                None,
            ),
            (
                "`b` has global length",
                DistMultiVector::from_fn(comm, n + 4, 2, rhs),
                None,
            ),
            (
                "`x0` has 3 columns",
                b.clone(),
                Some(DistMultiVector::zeros(comm, n, 3)),
            ),
            (
                "`x0` (global length",
                b.clone(),
                Some(DistMultiVector::zeros(comm, n + 4, 2)),
            ),
            ("`b` has global length", misplaced.clone(), None),
            ("`x0` (global length", b.clone(), Some(misplaced)),
        ];
        let before = comm.snapshot_stats().collectives;
        let mut errors = Vec::new();
        for (needle, b, x0) in cases {
            let mut space = DistSpace::new(comm, &da);
            let out = run_block_cg(
                &mut space,
                &b,
                x0,
                &SolveOptions::default(),
                Schedule::Pipelined,
                &mut IdentityPrecond,
                &mut PolicyStack::empty(),
            );
            errors.push((needle, out.map(|_| ())));
        }
        Ok((errors, comm.snapshot_stats().collectives - before))
    });
    for (errors, collectives) in results.unwrap_all() {
        for (needle, res) in errors {
            match res {
                Err(resilient_runtime::RuntimeError::InvalidArgument(msg)) => {
                    assert!(msg.contains(needle), "{needle}: {msg}")
                }
                other => panic!("{needle}: expected InvalidArgument, got {other:?}"),
            }
        }
        assert_eq!(collectives, 0, "rejected before any collective is posted");
    }
}

/// Call outcomes, each with the text its error must contain.
type Rejections = Vec<(&'static str, Result<()>)>;

/// One rank's malformed single-RHS calls on either backend, and the
/// collectives counted across the ones that promise to post none
/// (`lflr_solve`, whose operator assembly communicates, runs after the count).
fn malformed_single_rhs_calls<C: CommBackend>(
    comm: &mut C,
    collectives: fn(&C) -> u64,
) -> Result<(Rejections, u64)> {
    let a = poisson2d(6, 6);
    let n = a.nrows();
    let da = DistCsr::from_global(comm, &a)?;
    let b = DistVector::from_fn(comm, n, |i| rhs(0, i));
    let long = DistVector::from_fn(comm, n + 4, |i| rhs(0, i));
    // Right global length, wrong local part (a one-rank layout).
    let mut misplaced = b.clone();
    misplaced.local = vec![1.0; n];
    let cases = [
        ("`b` has global length", long.clone(), None),
        ("`b` has global length", misplaced.clone(), None),
        ("`x0` has global length", b.clone(), Some(long.clone())),
        ("`x0` has global length", b.clone(), Some(misplaced)),
    ];
    let opts = SolveOptions::default();
    let skeptic = SkepticalConfig::default();
    let before = collectives(comm);
    let mut errors: Rejections = Vec::new();
    for spec in SolveSpec::ALL {
        for (needle, b, x0) in cases.clone() {
            let mut space = DistSpace::new(comm, &da);
            let sopts = SolveOptions::default();
            let policies = &mut PolicyStack::empty();
            let out = solve(&mut space, &b, x0, &sopts, spec, None, policies);
            errors.push((needle, out.map(|_| ())));
        }
        let out = solve_dist(comm, &da, &long, spec, Some(&mut IdentityPrecond), &opts);
        errors.push(("`b` has global length", out.map(|_| ())));
        let m = spec.method;
        let out = pipelined_skeptical(comm, &da, &long, m, None, &opts, &skeptic, None);
        errors.push(("`b` has global length", out.map(|_| ())));
    }
    let out = dist_cg(comm, &da, &long, &opts);
    errors.push(("`b` has global length", out.map(|_| ())));
    let posted = collectives(comm) - before;
    let long_global = vec![1.0; n + 4];
    let lflr = KrylovLflrConfig::default();
    let out = lflr_solve(
        comm,
        &a,
        &long_global,
        SolveSpec::PIPELINED_CG,
        &opts,
        &lflr,
    );
    errors.push(("`b` has global length", out.map(|_| ())));
    Ok((errors, posted))
}

/// The single-RHS twin: one entry point (`kernel::solve`), one validation.
/// A wrong-length or wrongly-distributed `b` / `x0` is a typed error on
/// every rank of both backends — for all four specs, through `solve`,
/// `solve_dist`, `pipelined_skeptical`, a named preset and `lflr_solve` —
/// and, `lflr_solve` aside, before a single collective is posted.
#[test]
fn malformed_single_rhs_input_is_an_invalid_argument_not_a_panic() {
    let simulated = Runtime::new(RuntimeConfig::fast()).run(2, |comm| {
        malformed_single_rhs_calls(comm, |c| c.snapshot_stats().collectives)
    });
    let threaded = ThreadRuntime::new(ThreadConfig::fast()).run(2, |comm| {
        malformed_single_rhs_calls(comm, |c| c.snapshot_stats().collectives)
    });
    let per_rank = simulated
        .unwrap_all()
        .into_iter()
        .chain(threaded.unwrap_all());
    for (errors, collectives) in per_rank {
        assert_eq!(errors.len(), 4 * 6 + 2);
        for (needle, res) in errors {
            match res {
                Err(resilient_runtime::RuntimeError::InvalidArgument(msg)) => {
                    assert!(msg.contains(needle), "{needle}: {msg}")
                }
                other => panic!("{needle}: expected InvalidArgument, got {other:?}"),
            }
        }
        assert_eq!(collectives, 0, "rejected before any collective is posted");
    }
}

/// The public outcome types carry the kernel's stop reason instead of
/// dropping it: a breakdown and an exhausted iteration cap are both
/// `converged == false`, and now tell each other apart.
#[test]
fn outcomes_report_why_the_solve_stopped() {
    let rt = Runtime::new(RuntimeConfig::fast());
    let results = rt.run(2, move |comm| {
        let a = poisson2d(6, 6);
        let n = a.nrows();
        let mut neg = a.clone();
        neg.values_mut().iter_mut().for_each(|v| *v = -*v);
        let da = DistCsr::from_global(comm, &a)?;
        let dneg = DistCsr::from_global(comm, &neg)?;
        let b = DistVector::from_fn(comm, n, |i| rhs(0, i));
        let bk = DistMultiVector::from_fn(comm, n, 2, rhs);
        let opts = SolveOptions::default().with_tol(1e-12);
        let capped = opts.with_max_iters(3);
        let indefinite = dist_cg(comm, &dneg, &b, &opts)?;
        let short = dist_cg(comm, &da, &b, &capped)?;
        let done = dist_cg(comm, &da, &b, &opts)?;
        let block_short = solve_dist_block(
            comm,
            &da,
            &bk,
            Schedule::Fused,
            &mut IdentityPrecond,
            &capped,
        )?;
        let block_done =
            solve_dist_block(comm, &da, &bk, Schedule::Fused, &mut IdentityPrecond, &opts)?;
        let columns: Vec<_> = block_short
            .clone()
            .into_columns()
            .iter()
            .map(|c| c.reason)
            .collect();
        Ok((
            (indefinite.converged, indefinite.reason),
            (short.converged, short.reason, short.iterations),
            (done.converged, done.reason),
            (block_short.all_converged(), block_short.reason, columns),
            (block_done.all_converged(), block_done.reason),
        ))
    });
    for (indefinite, short, done, block_short, block_done) in results.unwrap_all() {
        assert_eq!(indefinite, (false, StopReason::Breakdown));
        assert_eq!(short, (false, StopReason::MaxIterations, 3));
        assert_eq!(done, (true, StopReason::Converged));
        assert_eq!(
            block_short,
            (
                false,
                StopReason::MaxIterations,
                vec![StopReason::MaxIterations; 2]
            )
        );
        assert_eq!(block_done, (true, StopReason::Converged));
    }
}

// ---------------------------------------------------------------------------
// 7. Preconditioners without a slice-level apply are staged, same bits
// ---------------------------------------------------------------------------

/// Block-Jacobi behind a wrapper that only offers the whole-vector
/// `apply_into` (what a tracing or third-party preconditioner looks like).
struct VectorOnly(BlockJacobi);

impl<'a, 'b> SpacePreconditioner<DistSpace<'a, 'b>> for VectorOnly {
    fn apply_into(
        &mut self,
        space: &mut DistSpace<'a, 'b>,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<()> {
        self.0.apply_into(space, r, z)
    }
}

#[test]
fn vector_only_preconditioner_is_staged_bit_identically() {
    // One job per variant, so both virtual clocks start at zero.
    let solve = |staged: bool| {
        let mut cfg = RuntimeConfig::fast();
        cfg.seconds_per_flop = 1.0e-9;
        Runtime::new(cfg)
            .run(3, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let bk = DistMultiVector::from_fn(comm, n, 3, rhs);
                let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);
                let bj = BlockJacobi::new(&da);
                let out = if staged {
                    pipelined_block_pcg(comm, &da, &bk, &mut VectorOnly(bj), &opts)?
                } else {
                    pipelined_block_pcg(comm, &da, &bk, &mut { bj }, &opts)?
                };
                assert!(out.all_converged());
                Ok((bits(&out.x.local), out.histories, comm.now().to_bits()))
            })
            .unwrap_all()
    };
    for ((dx, dh, d_time), (sx, sh, s_time)) in solve(false).into_iter().zip(solve(true)) {
        assert_eq!(dx, sx, "iterates diverged");
        for (d, s) in dh.iter().zip(&sh) {
            assert_eq!(bits(d), bits(s), "histories diverged");
        }
        assert_eq!(d_time, s_time, "staging must charge exactly the same");
    }
}

// ---------------------------------------------------------------------------
// 8. Under the identity: no M⁻¹ images, the six-vector sweep, the same solve
// ---------------------------------------------------------------------------

/// Copies exactly like [`IdentityPrecond`] but does not say
/// `is_identity` — what the benchmark's `TracedPrecond` wrapper is — so
/// the block kernel takes the general route under it: `u`, `mw`, `q`
/// stored, copied into and swept eight vectors at a time.
struct SilentIdentity;

impl<'a, 'b> SpacePreconditioner<DistSpace<'a, 'b>> for SilentIdentity {
    fn apply_into(
        &mut self,
        _space: &mut DistSpace<'a, 'b>,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<()> {
        z.clone_from(r);
        Ok(())
    }
}

/// One column's solve as bits: (x, history, iterations).
type ColumnBits = (Vec<u64>, Vec<u64>, usize);

/// Under `IdentityPrecond` every column of a k = 4 staggered block solve —
/// columns freezing at different steps, frozen ones posting kept partials —
/// is bit for bit its own sequential unpreconditioned solve *and* its own
/// identity-preconditioned one, on 1–4 ranks, and the block solve takes
/// the virtual time pinned at 3 ranks. The identity is charged as the
/// unpreconditioned route (no duplicate `r·z` / `‖r‖²` slots, twelve sweep
/// flops per row): 4.3704e-5 s fused and 5.8926e-5 s / 5.8944e-5 s
/// pipelined, where charging it as a preconditioner read 4.824e-5 s and
/// 7.2102e-5 s / 7.212e-5 s.
#[test]
fn identity_block_columns_equal_their_unpreconditioned_and_identity_solves() {
    const K: usize = 4;
    // Virtual seconds of the block solve at 3 ranks, ranks 0, 1, 2.
    const ELAPSED_3_RANKS: [(bool, [u64; 3]); 2] = [
        (
            false,
            [
                0x3f06_e9da_0171_4cd1,
                0x3f06_e9da_0171_4cd1,
                0x3f06_e9da_0171_4cd1,
            ],
        ),
        (
            true,
            [
                0x3f0e_e4e9_f16d_3782,
                0x3f0e_e754_6b19_dcf9,
                0x3f0e_e4e9_f16d_3782,
            ],
        ),
    ];
    for (pipelined, want_elapsed) in ELAPSED_3_RANKS {
        for ranks in 1..=4 {
            let mut cfg = RuntimeConfig::fast();
            cfg.seconds_per_flop = 1.0e-9;
            let results = Runtime::new(cfg).run(ranks, move |comm| {
                let a = poisson2d(9, 9);
                let n = a.nrows();
                let da = DistCsr::from_global(comm, &a)?;
                let bk = DistMultiVector::from_fn(comm, n, K, staggered_rhs);
                let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);
                let id = &mut IdentityPrecond;
                let t0 = comm.now();
                let block = if pipelined {
                    pipelined_block_pcg(comm, &da, &bk, id, &opts)?
                } else {
                    solve_dist_block(comm, &da, &bk, Schedule::Fused, id, &opts)?
                };
                let elapsed = comm.now() - t0;
                assert!(block.all_converged(), "block solve must converge");
                let mut freezes = block.column_iterations.clone();
                freezes.sort_unstable();
                freezes.dedup();
                assert!(freezes.len() > 1, "columns must freeze at different steps");

                let mut cols: Vec<[ColumnBits; 3]> = Vec::new();
                for (c, out) in block.into_columns().into_iter().enumerate() {
                    let bc = DistVector::from_fn(comm, n, |i| staggered_rhs(c, i));
                    let (plain, ident) = if pipelined {
                        let plain = pipelined_cg(comm, &da, &bc, &opts)?;
                        (plain, pipelined_pcg(comm, &da, &bc, id, &opts)?)
                    } else {
                        let plain = dist_cg(comm, &da, &bc, &opts)?;
                        (
                            plain,
                            solve_dist(comm, &da, &bc, SolveSpec::FUSED_CG, Some(id), &opts)?,
                        )
                    };
                    cols.push([
                        (
                            bits(&out.x.gather_global(comm)?),
                            bits(&out.history),
                            out.iterations,
                        ),
                        (
                            bits(&plain.x.gather_global(comm)?),
                            bits(&plain.history),
                            plain.iterations,
                        ),
                        (
                            bits(&ident.x.gather_global(comm)?),
                            bits(&ident.history),
                            ident.iterations,
                        ),
                    ]);
                }
                Ok((elapsed, cols))
            });
            for (rank, (elapsed, cols)) in results.unwrap_all().into_iter().enumerate() {
                for (c, [block, plain, ident]) in cols.iter().enumerate() {
                    let at = format!("column {c}, {ranks} ranks, pipelined = {pipelined}");
                    assert!(block == plain, "{at}: block vs unpreconditioned solve");
                    assert!(
                        block == ident,
                        "{at}: block vs identity-preconditioned solve"
                    );
                }
                if ranks == 3 {
                    assert_eq!(
                        elapsed.to_bits(),
                        want_elapsed[rank],
                        "virtual time moved on rank {rank} (pipelined = {pipelined}): \
                         {elapsed:e} = {:#x}",
                        elapsed.to_bits()
                    );
                }
            }
        }
    }
}

/// The six-vector route (`IdentityPrecond`) and the eight-vector route (a
/// preconditioner that copies without saying so) are one program: the same
/// iterates, histories and collective counts, at k = 1 and k = 4, on both
/// schedules. Only the identity is charged as unpreconditioned, so only its
/// virtual time is lower.
#[test]
fn identity_and_a_silently_copying_preconditioner_are_one_program() {
    for k in [1, 4] {
        for pipelined in [false, true] {
            // One job per route, so both virtual clocks start at zero.
            let solve = |silent: bool| {
                let mut cfg = RuntimeConfig::fast();
                cfg.seconds_per_flop = 1.0e-9;
                Runtime::new(cfg)
                    .run(3, move |comm| {
                        let a = poisson2d(9, 9);
                        let n = a.nrows();
                        let da = DistCsr::from_global(comm, &a)?;
                        let bk = DistMultiVector::from_fn(comm, n, k, staggered_rhs);
                        let opts = SolveOptions::default().with_tol(1e-8).with_max_iters(300);
                        let m: &mut dyn SpacePreconditioner<DistSpace<'_, '_>> = if silent {
                            &mut SilentIdentity
                        } else {
                            &mut IdentityPrecond
                        };
                        let out = if pipelined {
                            pipelined_block_pcg(comm, &da, &bk, m, &opts)?
                        } else {
                            solve_dist_block(comm, &da, &bk, Schedule::Fused, m, &opts)?
                        };
                        assert!(out.all_converged());
                        let histories: Vec<_> = out.histories.iter().map(|h| bits(h)).collect();
                        Ok((
                            (
                                bits(&out.x.local),
                                histories,
                                out.column_iterations,
                                comm.snapshot_stats().collectives,
                            ),
                            comm.now(),
                        ))
                    })
                    .unwrap_all()
            };
            for ((identity, id_time), (silent, silent_time)) in
                solve(false).into_iter().zip(solve(true))
            {
                assert_eq!(
                    identity, silent,
                    "k = {k}, pipelined = {pipelined}: the identity's six-vector route \
                     must be the eight-vector route, bit for bit"
                );
                assert!(
                    id_time < silent_time,
                    "k = {k}, pipelined = {pipelined}: the identity is charged as \
                     unpreconditioned ({id_time:e} s vs {silent_time:e} s)"
                );
            }
        }
    }
}

/// The identity twin of
/// `policy_restart_mid_solve_keeps_k1_bitwise_identical_to_pipelined_pcg`:
/// with a policy in the stack the guards read `r`/`w` (no `u`/`mw` exist),
/// and after the mid-solve rebuild the carried partials must be recomputed
/// from the new `r`, `w` — pinned against the single-RHS
/// `PipelinedCgStep::preconditioned(IdentityPrecond)` under the same policy.
#[test]
fn policy_restart_mid_solve_keeps_identity_k1_bitwise_identical_to_pipelined_pcg() {
    for ranks in [2, 4] {
        let results = Runtime::new(RuntimeConfig::fast()).run(ranks, move |comm| {
            let a = poisson2d(10, 10);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let b1 = DistVector::from_fn(comm, n, |i| rhs(0, i));
            let bk = DistMultiVector::from_columns(std::slice::from_ref(&b1));
            let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(300);

            let mut policy = RestartOnce {
                at: 7,
                fired: false,
            };
            let before = comm.snapshot_stats().collectives;
            let (single, single_report) = {
                let mut space = DistSpace::new(comm, &da);
                let mut stack = PolicyStack::empty();
                stack.push(&mut policy);
                let mut m = IdentityPrecond;
                let mut step = PipelinedCgStep::preconditioned(&mut m);
                run_cg(&mut space, &b1, None, &opts, &mut step, &mut stack)?
            };
            let single_coll = comm.snapshot_stats().collectives - before;

            let mut policy = RestartOnce {
                at: 7,
                fired: false,
            };
            let before = comm.snapshot_stats().collectives;
            let (block, block_report) = {
                let mut space = DistSpace::new(comm, &da);
                let mut stack = PolicyStack::empty();
                stack.push(&mut policy);
                let m = &mut IdentityPrecond;
                run_block_cg(
                    &mut space,
                    &bk,
                    None,
                    &opts,
                    Schedule::Pipelined,
                    m,
                    &mut stack,
                )?
            };
            let block_coll = comm.snapshot_stats().collectives - before;

            assert_eq!(single_report.policy_restarts, 1, "the policy must fire");
            assert_eq!(block_report.policy_restarts, 1, "the policy must fire");
            assert_eq!(single.reason, StopReason::Converged);
            assert_eq!(block.reason, StopReason::Converged);
            assert!(single.iterations > 7, "the restart must land mid-solve");
            Ok((
                (bits(&single.x.gather_global(comm)?), bits(&single.history)),
                (
                    bits(&block.x.column(0).gather_global(comm)?),
                    bits(&block.histories[0]),
                ),
                (single.iterations, single_coll),
                (block.iterations, block_coll),
            ))
        });
        for (single, block, s_counts, b_counts) in results.unwrap_all() {
            assert!(single == block, "x or history diverged at {ranks} ranks");
            assert_eq!(
                s_counts, b_counts,
                "iteration / collective counts diverged at {ranks} ranks"
            );
        }
    }
}
