//! The one-pass pipelined-CG step equals its spec.
//!
//! `PipelinedCgStep` runs its recurrence through
//! `LocalOps::pipelined_cg_sweep` / `pipelined_pcg_sweep` and posts the dot
//! partials the sweep left behind. A backend that overrides neither sweep —
//! the benchmark's tracing wrapper is one — falls through to the trait's
//! default bodies, the literal multi-pass spec. Whichever body runs, every
//! observable of a solve must be the same to the bit: iterate, iteration
//! count, residual history **and virtual elapsed time** (the sweep and the
//! carried-partials post charge exactly what the calls they replaced
//! charged), through a policy restart (which must recompute, not reuse, the
//! carried partials) and an LFLR resume.

use std::cell::RefCell;
use std::rc::Rc;

use resilience::kernel::{
    run_cg, DistSpace, IdentityPrecond, IterCtx, PipelinedCgStep, PolicyOverhead, ResiliencePolicy,
    SkepticalPolicy, SpmvFault,
};
use resilience::prelude::*;
use resilient_linalg::{auto_ops, poisson2d, scalar_ops, CsrMatrix, LocalOps, SellMatrix};
use resilient_runtime::{
    Comm, FailureConfig, FailurePolicy, ReduceOp, Result, Runtime, RuntimeConfig,
};

/// A backend that forwards every *required* method to `auto_ops()` and
/// overrides no defaulted one: its sweeps are the trait's default bodies.
struct DefaultBodies;

static DEFAULT_BODIES: DefaultBodies = DefaultBodies;

impl LocalOps for DefaultBodies {
    fn name(&self) -> &'static str {
        "default-bodies"
    }
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        auto_ops().dot(x, y)
    }
    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        auto_ops().dot_pairs(pairs, out)
    }
    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        auto_ops().axpy(a, x, y)
    }
    fn scale(&self, a: f64, x: &mut [f64]) {
        auto_ops().scale(a, x)
    }
    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        auto_ops().xpby(x, b, y)
    }
    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        auto_ops().waxpby_into(a, x, b, y, w)
    }
    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        auto_ops().spmv_csr(a, x, y)
    }
    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        auto_ops().spmv_sell(a, x, y)
    }
}

/// 13 × 13: the block rows of 1–4 ranks are 169, 85/84, 57/56/56 and
/// 43/42/42/42 entries long — every sweep has a sequential tail on some
/// rank. The right-hand side is small enough that every SpMV product entry
/// stays below 1 in magnitude, so a bit-62 flip (the exponent's top bit)
/// always blows the entry up by 2¹⁰²⁴ rather than shrinking it.
fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(13, 13);
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 0.01 * (1.0 + (i % 5) as f64))
        .collect();
    (a, b)
}

#[derive(Debug, Clone, Copy)]
enum Precond {
    None,
    Identity,
    BlockJacobi,
}

/// Records the iteration of every recurrence (re)build: `[0]` for a clean
/// solve, `[0, k]` when a detection at iteration `k` restarted it.
struct CycleLog(Rc<RefCell<Vec<usize>>>);

impl<S: KrylovSpace> ResiliencePolicy<S> for CycleLog {
    fn name(&self) -> &'static str {
        "cycle-log"
    }
    fn on_cycle_start(&mut self, _space: &mut S, ctx: &IterCtx, _x: &S::Vector) -> Result<()> {
        self.0.borrow_mut().push(ctx.iteration);
        Ok(())
    }
    fn overhead(&self) -> PolicyOverhead {
        PolicyOverhead::default()
    }
}

/// Everything a caller can observe from one rank of a solve.
#[derive(Debug, PartialEq)]
struct Observation {
    iterations: usize,
    history: Vec<u64>,
    x: Vec<u64>,
    /// Virtual seconds on this rank's clock when the solve returned.
    elapsed: u64,
    rebuilds: Vec<usize>,
    detections: usize,
    policy_restarts: usize,
    injections: usize,
}

/// One pipelined-CG solve over a hand-built `DistSpace::with_ops(ops)`
/// through `run_cg`, optionally under the skeptical stack (`guard`, with an
/// optional planned SpMV bit flip).
fn observe(
    ranks: usize,
    sell: bool,
    ops: &'static dyn LocalOps,
    precond: Precond,
    guard: Option<Option<SpmvFault>>,
) -> Vec<Observation> {
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(11));
    let r = rt.run(ranks, move |comm: &mut Comm| -> Result<Observation> {
        let (a, b) = problem();
        let da = DistCsr::from_global(comm, &a)?;
        let da = if sell { da.with_sell_layout(4) } else { da };
        let bv = DistVector::from_global(comm, &b);
        let norm_a = comm.allreduce_scalar(ReduceOp::Max, da.local_norm_inf())?;
        let mut bj = BlockJacobi::new(&da);
        let mut identity = IdentityPrecond;
        let mut space = DistSpace::new(comm, &da)
            .with_ops(ops)
            .with_operator_norm(norm_a);
        if let Some(Some(fault)) = guard {
            space = space.with_fault(fault);
        }
        let m: Option<&mut dyn SpacePreconditioner<_>> = match precond {
            Precond::None => None,
            Precond::Identity => Some(&mut identity),
            Precond::BlockJacobi => Some(&mut bj),
        };
        let rebuilds = Rc::new(RefCell::new(Vec::new()));
        let mut log = CycleLog(Rc::clone(&rebuilds));
        let mut skeptical = SkepticalPolicy::new(SkepticalConfig::default());
        let mut stack: Vec<&mut dyn ResiliencePolicy<_>> = vec![&mut log];
        if guard.is_some() {
            stack.push(&mut skeptical);
        }
        let mut policies = PolicyStack::new(stack);
        let solve_opts = SolveOptions::default().with_tol(1e-9).with_max_iters(400);
        let (out, report) = run_cg(
            &mut space,
            &bv,
            None,
            &solve_opts,
            &mut PipelinedCgStep::with(m),
            &mut policies,
        )?;
        assert_eq!(out.reason, StopReason::Converged, "{precond:?}");
        let injections = space.injections();
        drop(policies);
        let elapsed = comm.now().to_bits();
        Ok(Observation {
            iterations: out.iterations,
            history: out.history.iter().map(|v| v.to_bits()).collect(),
            x: out.x.local.iter().map(|v| v.to_bits()).collect(),
            elapsed,
            rebuilds: rebuilds.take(),
            detections: skeptical.report().detections,
            policy_restarts: report.policy_restarts,
            injections,
        })
    });
    assert!(r.all_ok(), "{precond:?}@{ranks}: {:?}", r.errors);
    r.unwrap_all()
}

/// The three bodies a sweep can run — AVX one-pass, scalar one-pass, the
/// trait's default multi-pass — give one observation.
fn assert_bodies_agree(
    ranks: usize,
    sell: bool,
    precond: Precond,
    guard: Option<Option<SpmvFault>>,
) -> Vec<Observation> {
    let fused = observe(ranks, sell, auto_ops(), precond, guard);
    let what = format!("{precond:?}, guard {guard:?}, {ranks} ranks, sell {sell}");
    assert_eq!(
        fused,
        observe(ranks, sell, &DEFAULT_BODIES, precond, guard),
        "default bodies: {what}"
    );
    assert_eq!(
        fused,
        observe(ranks, sell, scalar_ops(), precond, guard),
        "scalar backend: {what}"
    );
    fused
}

#[test]
fn fused_step_equals_the_default_bodies_bit_for_bit() {
    for ranks in 1..=4usize {
        for sell in [false, true] {
            for precond in [Precond::None, Precond::Identity, Precond::BlockJacobi] {
                let obs = assert_bodies_agree(ranks, sell, precond, None);
                assert!(obs.iter().all(|o| o.rebuilds == [0]));
            }
            // Fault-free under the skeptical stack: check dots ride the
            // carried-partials post.
            let clean = assert_bodies_agree(ranks, sell, Precond::None, Some(None));
            assert!(clean.iter().all(|o| o.detections == 0 && o.rebuilds == [0]));
        }
    }
}

/// A bit-62 flip in the product of application 7 (the SpMV of the sixth
/// step: two applications belong to the set-up) lands in `w` through that
/// step's sweep; the check dots of the seventh step see it and the kernel
/// rebuilds the recurrence with six iterations done — and the rebuilt step
/// must recompute its partials from the rebuilt `r`, `w`, not post the ones
/// the corrupted sweep carried over.
#[test]
fn a_policy_restart_recomputes_the_carried_partials() {
    for ranks in 1..=4usize {
        for sell in [false, true] {
            let fault = SpmvFault {
                rank: ranks - 1,
                at_application: 7,
                local_element: 3,
                bit: 62,
            };
            let clean = assert_bodies_agree(ranks, sell, Precond::None, Some(None));
            let struck = assert_bodies_agree(ranks, sell, Precond::None, Some(Some(fault)));
            for (rank, (o, c)) in struck.iter().zip(&clean).enumerate() {
                assert_eq!(o.injections, usize::from(rank == ranks - 1));
                assert_eq!(o.detections, 1, "the flip must be detected");
                assert_eq!(o.policy_restarts, 1);
                assert_eq!(o.rebuilds, [0, 6], "detected one step after the strike");
                assert!(
                    o.iterations > c.iterations && o.iterations < c.iterations + 60,
                    "a rebuild from a good iterate costs a few iterations, not a \
                     solve: {} vs {} clean",
                    o.iterations,
                    c.iterations
                );
            }
        }
    }
}

/// `lflr_pipelined_pcg` builds its space itself, so the backends it can be
/// given are the default and `with_scalar_ops()`: with a rank killed
/// mid-solve and resumed from a snapshot, both resume at the same step, run
/// the same iterations and return the same bits — every attempt's first
/// step recomputed its partials from the restored state.
#[test]
fn lflr_resume_is_backend_invariant() {
    let opts = || {
        let mut o = SolveOptions::default().with_tol(1e-8).with_max_iters(600);
        o.extra_work_per_iter = 2e-3;
        o
    };
    let run = |o: SolveOptions, failures: Vec<(usize, f64)>| {
        let mut rc = RuntimeConfig::fast().with_seed(11);
        if !failures.is_empty() {
            rc = rc.with_failures(FailureConfig::scheduled(
                FailurePolicy::ReplaceRank,
                failures,
            ));
        }
        let r = Runtime::new(rc).run(3, move |comm| {
            let a = poisson2d(21, 21);
            let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
            let cfg = KrylovLflrConfig::default().with_persist_every(3);
            let (out, report) = lflr_pipelined_pcg(comm, &a, &b, &o, &cfg)?;
            assert!(out.converged);
            let x: Vec<u64> = out.x.local.iter().map(|v| v.to_bits()).collect();
            Ok((report.resumed_from, report.iterations, x))
        });
        assert!(r.all_ok(), "{:?}", r.errors);
        (r.makespan(), r.failures.len(), r.unwrap_all())
    };
    let (clean_time, _, _) = run(opts(), vec![]);
    let kill = vec![(1, 0.5 * clean_time)];
    let (_, failures, auto) = run(opts(), kill.clone());
    let (_, _, scalar) = run(opts().with_scalar_ops(), kill);
    assert_eq!(failures, 1, "the failure must be injected");
    assert!(
        auto.iter().all(|(resumed, _, _)| *resumed > 0),
        "the solve must resume from a snapshot, not from zero"
    );
    assert_eq!(auto, scalar);
}
