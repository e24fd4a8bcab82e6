//! The six workloads: inputs from the seed, closed-loop timing on the
//! real-threads backend with zero emulated cost, output verification, and
//! the traced repetition that feeds the per-layer table.
//!
//! Every workload times up to three *configurations*, named by the
//! end-to-end metric they feed: `solve_s` (the primary), `ref_solve_s` (the
//! reference it is compared with) and `alt_solve_s` (the workload's third
//! question — see `README.md`). One client drives them in a closed loop:
//! the next solve starts when the previous one has returned and been
//! verified.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use resilience::distributed::{DistCsr, DistMultiVector, DistVector};
use resilience::kernel::{
    lflr_pipelined_pcg, pipelined_skeptical_cg, run_block_cg, run_cg, run_gmres, BlockCgMode,
    DistSpace, FusedCgStep, GmresFlavor, IdentityPrecond, KrylovLflrConfig, PipelinedCgStep,
    PipelinedOrtho, PolicyStack, RightPrecond, SetupCache, SkepticalPolicy, SpacePreconditioner,
    SpmvFault,
};
use resilience::rbsp::cg::{dist_cg, pipelined_block_pcg, pipelined_cg, pipelined_pcg};
use resilience::rbsp::gmres::pipelined_pgmres;
use resilience::rbsp::{DistSolveOptions, DistSolveOutcome};
use resilience::skeptical::SkepticalConfig;
use resilient_faults::ThreadDeathPlan;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{
    CommBackend, RankStats, ReduceOp, Result, ThreadComm, ThreadConfig, ThreadRuntime,
};

use crate::probe;
use crate::report::{median, quantile, quartiles};
use crate::trace::{self, span, Layer, LayerTotals};
use crate::wrappers::{traced_ops, TracedComm, TracedPolicy, TracedPrecond};

/// Workload names, in the order they run and print. `BENCHMARK.json` gates
/// on four of them; `stencil_cg` and `bj_pcg` run on request and in the full
/// ledger only (`README.md`, "Steadiness", says why).
pub const WORKLOADS: [&str; 6] = [
    "stencil_cg",
    "latency_cg",
    "block_rhs8",
    "bj_pcg",
    "sdc_cg",
    "lflr_kill",
];

/// The metric each configuration slot feeds.
pub const SLOTS: [&str; 3] = ["solve_s", "ref_solve_s", "alt_solve_s"];

/// Rank threads of every job but the single-rank baselines (= `nproc` of
/// the machine the bounds were set on). The launcher thread sleeps.
const RANKS: usize = 2;
/// Every configuration is timed at least this often, whatever `--seconds`.
const MIN_REPS: usize = 2;
/// Set-up is repeated at least this often and until `SETUP_SECONDS` have
/// passed (a millisecond set-up needs hundreds of samples for a steady
/// median); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 500;
const SETUP_SECONDS: f64 = 0.75;
/// See [`condition_machine`].
const CONDITION_SECONDS: f64 = 1.5;
/// A true relative residual above this fails a solve.
const VERIFY_TOL: f64 = 1e-6;
/// Iteration cap of the discarded warm-up solve of each configuration: it
/// touches every buffer and code path of the timed solve without paying for
/// a second full solve per run. The warm-ups count as set-up; at this length
/// they also outweigh the allocator and page-fault costs of a millisecond
/// set-up, which flip between two levels from process to process on the
/// reference machine (see `README.md`).
const WARM_ITERS: usize = 50;

/// How one run was asked to run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the closed loop; `MIN_REPS` repetitions run regardless
    /// (0 under `--smoke`).
    pub seconds: f64,
    /// No machine conditioning, the minimum of set-up repetitions, a tiny
    /// probe.
    pub smoke: bool,
    /// Divisor of every grid side: 1, or 4 under `--smoke`.
    pub shrink: usize,
    /// Also run the traced repetition and the bandwidth probe.
    pub trace: bool,
    /// Where to write the Chrome trace of the traced repetition.
    pub trace_out: Option<String>,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Repro lines of solves that reported convergence but failed the
    /// independent residual check. Any entry makes the run exit non-zero.
    pub silent_wrong: Vec<String>,
    /// Every metric by name: the end-to-end ones always, the per-layer ones
    /// when tracing was on.
    pub metrics: BTreeMap<String, f64>,
}

/// Keep every rank's core busy for `CONDITION_SECONDS` before anything is
/// timed. On the 2-vCPU machines this runs on, a blocked rank is woken much
/// faster (a two-rank allreduce costs ≈4 µs instead of ≈28 µs) for the first
/// seconds after the machine has been idle; about one second with both cores
/// busy ends that, whatever ran before. Without this step a run's numbers depend
/// on how long the machine rested before it (see `README.md`).
fn condition_machine() {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..RANKS {
            scope.spawn(|| {
                let mut x = 0u64;
                while started.elapsed().as_secs_f64() < CONDITION_SECONDS {
                    for i in 0..1 << 16 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                }
            });
        }
    });
}

/// Run workload `name`.
pub fn run(name: &str, cfg: &RunCfg) -> std::result::Result<Outcome, String> {
    if !cfg.smoke {
        condition_machine();
    }
    let nx = |full: usize| full / cfg.shrink;
    let p = |full: usize, k: usize| Problem {
        nx: nx(full),
        k,
        seed: cfg.seed,
    };
    let two_then_one = [
        JobSpec::new(RANKS, &[0, 1], 0.65),
        JobSpec::new(1, &[2], 0.35),
    ];
    match name {
        "stencil_cg" => in_job::<CgPair>(name, p(512, 1), &two_then_one, 1, cfg),
        // Millisecond solves: alternating between the two jobs costs nothing
        // and spreads each configuration's samples over the whole run.
        "latency_cg" => in_job::<CgPair>(name, p(64, 1), &two_then_one, 3, cfg),
        // The k = 1 solve takes a seventh of the others' time: twice a
        // repetition gives it as many seconds of samples for little.
        "block_rhs8" => in_job::<BlockRhs>(
            name,
            p(256, 8),
            &[JobSpec::new(RANKS, &[0, 2, 1, 2], 1.0)],
            1,
            cfg,
        ),
        // The miss comes first so the two hits find its factors.
        "bj_pcg" => in_job::<BjPcg>(
            name,
            p(72, 1),
            &[JobSpec::new(RANKS, &[2, 0, 1], 1.0)],
            1,
            cfg,
        ),
        "sdc_cg" => in_job::<SdcCg>(
            name,
            p(384, 1),
            &[JobSpec::new(RANKS, &[0, 1, 2], 1.0)],
            1,
            cfg,
        ),
        "lflr_kill" => lflr_kill(p(68, 1), cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

// ---------------------------------------------------------------------------
// Inputs and verification
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Problem {
    nx: usize,
    /// Right-hand sides.
    k: usize,
    seed: u64,
}

fn solve_opts() -> DistSolveOptions {
    DistSolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(20_000)
        .with_restart(30)
}

/// Right-hand side `column` of the run: entries uniform in [0.5, 1.5], each
/// column from its own stream of the seed.
fn rhs(n: usize, seed: u64, column: usize) -> Vec<f64> {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (column as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..n).map(|_| rng.gen_range(0.5..1.5)).collect()
}

/// `‖b − A·x‖₂ / ‖b‖₂` by a serial product, independent of any solver state.
fn true_relres(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv(x);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (bi, axi) in b.iter().zip(&ax) {
        rr += (bi - axi) * (bi - axi);
        bb += bi * bi;
    }
    (rr / bb).sqrt()
}

/// What every rank of an in-job workload builds during set-up.
struct Inputs {
    a: CsrMatrix,
    da: DistCsr,
    b_global: Vec<Vec<f64>>,
    b: Vec<DistVector>,
}

impl Inputs {
    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self> {
        let a = poisson2d(p.nx, p.nx);
        let da = DistCsr::from_global(comm, &a)?;
        let b_global: Vec<Vec<f64>> = (0..p.k).map(|c| rhs(a.nrows(), p.seed, c)).collect();
        let b = b_global
            .iter()
            .map(|g| DistVector::from_global(comm, g))
            .collect();
        Ok(Self { a, da, b_global, b })
    }
}

// ---------------------------------------------------------------------------
// One solve
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Discarded: the preset with `WARM_ITERS` iterations.
    Warm,
    /// The unmodified preset.
    Timed,
    /// The preset's body re-composed around the tracing wrappers.
    Traced,
}

impl Mode {
    fn opts(self) -> DistSolveOptions {
        match self {
            Mode::Warm => solve_opts().with_max_iters(WARM_ITERS),
            _ => solve_opts(),
        }
    }
}

/// Counts a solve contributes to the per-layer table (summed over the
/// traced repetition).
type Counters = Vec<(&'static str, f64)>;

/// Internal counter: FLOPs of the factorisations a solve performed. Turned
/// into `linalg.dense.factor_gflops`, never reported itself.
const FACTOR_FLOPS: &str = "factor_flops";

struct Solved {
    /// Solution columns, in right-hand-side order.
    x: Vec<DistVector>,
    iterations: usize,
    /// Final recurrence residual (the largest over the columns).
    relres: f64,
    converged: bool,
    /// The workload-specific expectation held (e.g. the fault was injected).
    as_planned: bool,
    counters: Counters,
}

impl Solved {
    fn one(out: DistSolveOutcome) -> Self {
        Self {
            x: vec![out.x],
            iterations: out.iterations,
            relres: out.relative_residual,
            converged: out.converged,
            as_planned: true,
            counters: Vec::new(),
        }
    }
}

/// A workload whose configurations all run inside one rank job.
trait InJob: Sized + 'static {
    /// Configuration names by slot (`solve_s`, `ref_solve_s`, `alt_solve_s`).
    const CONFIGS: [&'static str; 3];
    /// Extra lines of the report, from the medians by slot.
    fn derived(medians: &[f64; 3]) -> Vec<(&'static str, f64, &'static str)>;
    /// Set-up, on every rank.
    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self>;
    fn inputs(&self) -> &Inputs;
    fn solve<C: CommBackend>(&mut self, comm: &mut C, config: usize, mode: Mode) -> Result<Solved>;
}

// -- re-composed preset bodies (Mode::Traced) --------------------------------

/// The body of `dist_cg` / `pipelined_cg` / `pipelined_pcg` /
/// `pipelined_skeptical_cg`, with the traced ops in the space and the given
/// (traced) preconditioner and policy in the strategy and the stack.
/// Returns the outcome, the kernel's restart count and the injections.
fn traced_cg<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    opts: &DistSolveOptions,
    pipelined: bool,
    m: Option<&mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>>,
    skeptic: Option<(&mut TracedPolicy<SkepticalPolicy>, Option<SpmvFault>)>,
) -> Result<(DistSolveOutcome, usize, usize)> {
    let norm_a = match skeptic {
        Some(_) => Some(comm.allreduce_scalar(ReduceOp::Max, a.local_norm_inf())?),
        None => None,
    };
    let mut space = DistSpace::new(comm, a)
        .with_ops(traced_ops())
        .with_extra_work(opts.extra_work_per_iter);
    if let Some(norm_a) = norm_a {
        space = space.with_operator_norm(norm_a);
    }
    let mut policies = PolicyStack::empty();
    if let Some((policy, fault)) = skeptic {
        policies.push(policy);
        if let Some(fault) = fault {
            space = space.with_fault(fault);
        }
    }
    let sopts = opts.solve_options();
    let (outcome, report) = match (pipelined, m) {
        (true, Some(m)) => run_cg(
            &mut space,
            b,
            None,
            &sopts,
            &mut PipelinedCgStep::preconditioned(m),
            &mut policies,
        ),
        (true, None) => run_cg(
            &mut space,
            b,
            None,
            &sopts,
            &mut PipelinedCgStep::new(),
            &mut policies,
        ),
        (false, Some(m)) => run_cg(
            &mut space,
            b,
            None,
            &sopts,
            &mut FusedCgStep::preconditioned(m),
            &mut policies,
        ),
        (false, None) => run_cg(
            &mut space,
            b,
            None,
            &sopts,
            &mut FusedCgStep::new(),
            &mut policies,
        ),
    }?;
    drop(policies);
    let injections = space.injections();
    Ok((
        outcome.into_dist_outcome(opts.tol),
        report.policy_restarts,
        injections,
    ))
}

/// The body of `pipelined_pgmres`.
fn traced_pgmres<'a, 'b, C: CommBackend>(
    comm: &'a mut C,
    a: &'b DistCsr,
    b: &DistVector,
    m: &mut dyn SpacePreconditioner<DistSpace<'a, 'b, C>>,
    opts: &DistSolveOptions,
) -> Result<DistSolveOutcome> {
    let mut space = DistSpace::new(comm, a)
        .with_ops(traced_ops())
        .with_extra_work(opts.extra_work_per_iter);
    let mut right = RightPrecond(m);
    let (outcome, _report) = run_gmres(
        &mut space,
        b,
        None,
        &opts.solve_options(),
        &mut PipelinedOrtho::new(),
        &mut PolicyStack::empty(),
        Some(&mut right),
        &GmresFlavor::distributed(),
    )?;
    Ok(outcome.into_dist_outcome(opts.tol))
}

// -- stencil_cg, latency_cg ---------------------------------------------------

/// Unpreconditioned CG on one right-hand side: pipelined against classical,
/// and classical on a single rank as the plain baseline.
struct CgPair(Inputs);

impl InJob for CgPair {
    const CONFIGS: [&'static str; 3] = ["pipelined_cg", "dist_cg", "dist_cg on 1 rank"];

    fn derived(m: &[f64; 3]) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "pipelining_gain_x = ref_solve_s / solve_s",
                m[1] / m[0],
                "x",
            ),
            (
                "scaling_eff = alt_solve_s / (2 * ref_solve_s)",
                m[2] / (RANKS as f64 * m[1]),
                "ratio",
            ),
        ]
    }

    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self> {
        Inputs::build(comm, p).map(Self)
    }
    fn inputs(&self) -> &Inputs {
        &self.0
    }

    fn solve<C: CommBackend>(&mut self, comm: &mut C, config: usize, mode: Mode) -> Result<Solved> {
        let (a, b, opts) = (&self.0.da, &self.0.b[0], mode.opts());
        let pipelined = config == 0;
        let out = match (mode, pipelined) {
            (Mode::Traced, _) => traced_cg(comm, a, b, &opts, pipelined, None, None)?.0,
            (_, true) => pipelined_cg(comm, a, b, &opts)?,
            (_, false) => dist_cg(comm, a, b, &opts)?,
        };
        Ok(Solved::one(out))
    }
}

// -- block_rhs8 ---------------------------------------------------------------

/// Eight right-hand sides: one block solve against eight sequential solves,
/// and the block kernel at k = 1 (what folding `run_cg` into `run_block_cg`
/// would make every single-RHS solve cost).
struct BlockRhs {
    inp: Inputs,
    block: DistMultiVector,
    first: DistMultiVector,
}

impl BlockRhs {
    fn block_solve<C: CommBackend>(
        comm: &mut C,
        a: &DistCsr,
        b: &DistMultiVector,
        mode: Mode,
    ) -> Result<Solved> {
        let opts = mode.opts();
        let out = if mode == Mode::Traced {
            let mut space = DistSpace::new(comm, a)
                .with_ops(traced_ops())
                .with_extra_work(opts.extra_work_per_iter);
            let mut m = TracedPrecond {
                inner: IdentityPrecond,
                // Applied column by column: one copy of a column each.
                bytes_per_apply: 16 * b.local_rows() as u64,
            };
            run_block_cg(
                &mut space,
                b,
                None,
                &opts.solve_options(),
                BlockCgMode::Pipelined,
                &mut m,
                &mut PolicyStack::empty(),
            )?
            .0
            .into_block_solve_outcome()
        } else {
            pipelined_block_pcg(comm, a, b, &mut IdentityPrecond, &opts)?
        };
        Ok(Solved {
            x: (0..b.k()).map(|c| out.x.column(c)).collect(),
            iterations: out.iterations,
            relres: out.relative_residuals.iter().copied().fold(0.0, f64::max),
            converged: out.all_converged(),
            as_planned: true,
            counters: Vec::new(),
        })
    }
}

impl InJob for BlockRhs {
    const CONFIGS: [&'static str; 3] = [
        "pipelined_block_pcg k=8",
        "8 x pipelined_cg",
        "pipelined_block_pcg k=1",
    ];

    fn derived(m: &[f64; 3]) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("batch_gain_x = ref_solve_s / solve_s", m[1] / m[0], "x"),
            (
                "k1_block_cost_x = alt_solve_s / (ref_solve_s / 8)",
                m[2] / (m[1] / 8.0),
                "x",
            ),
        ]
    }

    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self> {
        let inp = Inputs::build(comm, p)?;
        let block = DistMultiVector::from_columns(&inp.b);
        let first = DistMultiVector::from_columns(&inp.b[..1]);
        Ok(Self { inp, block, first })
    }
    fn inputs(&self) -> &Inputs {
        &self.inp
    }

    fn solve<C: CommBackend>(&mut self, comm: &mut C, config: usize, mode: Mode) -> Result<Solved> {
        let a = &self.inp.da;
        match config {
            0 => Self::block_solve(comm, a, &self.block, mode),
            2 => Self::block_solve(comm, a, &self.first, mode),
            _ => {
                let opts = mode.opts();
                let mut all = Solved {
                    x: Vec::new(),
                    iterations: 0,
                    relres: 0.0,
                    converged: true,
                    as_planned: true,
                    counters: Vec::new(),
                };
                for b in &self.inp.b {
                    let out = if mode == Mode::Traced {
                        traced_cg(comm, a, b, &opts, true, None, None)?.0
                    } else {
                        pipelined_cg(comm, a, b, &opts)?
                    };
                    all.x.push(out.x);
                    all.iterations += out.iterations;
                    all.relres = all.relres.max(out.relative_residual);
                    all.converged &= out.converged;
                }
                Ok(all)
            }
        }
    }
}

// -- bj_pcg -------------------------------------------------------------------

/// Block-Jacobi preconditioned solves through a `SetupCache`: pipelined PCG
/// and pipelined GMRES on cache hits, and the miss that pays the dense LU.
struct BjPcg {
    inp: Inputs,
    cache: SetupCache,
}

impl InJob for BjPcg {
    const CONFIGS: [&'static str; 3] = [
        "pipelined_pcg, cache hit",
        "pipelined_pgmres, cache hit",
        "cache miss + pipelined_pcg",
    ];

    fn derived(m: &[f64; 3]) -> Vec<(&'static str, f64, &'static str)> {
        vec![("cache_gain_x = alt_solve_s / solve_s", m[2] / m[0], "x")]
    }

    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self> {
        Ok(Self {
            inp: Inputs::build(comm, p)?,
            cache: SetupCache::new(),
        })
    }
    fn inputs(&self) -> &Inputs {
        &self.inp
    }

    fn solve<C: CommBackend>(&mut self, comm: &mut C, config: usize, mode: Mode) -> Result<Solved> {
        let (a, b, opts) = (&self.inp.da, &self.inp.b[0], mode.opts());
        let miss = config == 2;
        if miss {
            // Every repetition starts cold.
            self.cache = SetupCache::new();
        }
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let n = a.local_rows();
        let bj = {
            let _s = (miss && mode == Mode::Traced).then(|| span(Layer::Factor, 0));
            self.cache.block_jacobi(a)
        };
        let mut counters = vec![
            ("core.kernel.cache.hits", (self.cache.hits() - hits) as f64),
            (
                "core.kernel.cache.misses",
                (self.cache.misses() - misses) as f64,
            ),
        ];
        if miss {
            counters.push((FACTOR_FLOPS, 2.0 * (n as f64).powi(3) / 3.0));
        }
        let out = if mode == Mode::Traced {
            let mut m = TracedPrecond {
                inner: bj,
                // The factors once, the right-hand side and the result.
                bytes_per_apply: 8 * (n * n + 2 * n) as u64,
            };
            if config == 1 {
                traced_pgmres(comm, a, b, &mut m, &opts)?
            } else {
                traced_cg(comm, a, b, &opts, true, Some(&mut m), None)?.0
            }
        } else {
            let mut bj = bj;
            if config == 1 {
                pipelined_pgmres(comm, a, b, &mut bj, &opts)?
            } else {
                pipelined_pcg(comm, a, b, &mut bj, &opts)?
            }
        };
        Ok(Solved {
            counters,
            ..Solved::one(out)
        })
    }
}

// -- sdc_cg -------------------------------------------------------------------

/// Pipelined CG under the skeptical policy: fault-free (the price of
/// protection), unprotected, and with one bit-62 flip in an SpMV product.
struct SdcCg {
    inp: Inputs,
    strike: SpmvFault,
}

impl InJob for SdcCg {
    const CONFIGS: [&'static str; 3] = [
        "pipelined_skeptical_cg, fault-free",
        "pipelined_cg",
        "pipelined_skeptical_cg, one SpMV bit flip",
    ];

    fn derived(m: &[f64; 3]) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "protect_overhead_pct = (solve_s / ref_solve_s - 1) * 100",
                (m[0] / m[1] - 1.0) * 100.0,
                "%",
            ),
            ("recovery_x = alt_solve_s / solve_s", m[2] / m[0], "x"),
        ]
    }

    fn build(comm: &mut ThreadComm, p: Problem) -> Result<Self> {
        let inp = Inputs::build(comm, p)?;
        let last = comm.size() - 1;
        let n_last = inp.b[0].distribution().range(last).len();
        // Not drawn from the seed: where the flip lands moves the recovery
        // cost far more (1320 to 1646 iterations over ten seeded strikes)
        // than anything a code change would, and every run has another seed.
        let strike = SpmvFault {
            rank: last,
            at_application: 50,
            local_element: n_last / 2,
            bit: 62,
        };
        Ok(Self { inp, strike })
    }
    fn inputs(&self) -> &Inputs {
        &self.inp
    }

    fn solve<C: CommBackend>(&mut self, comm: &mut C, config: usize, mode: Mode) -> Result<Solved> {
        let (a, b, opts) = (&self.inp.da, &self.inp.b[0], mode.opts());
        if config == 1 {
            let out = if mode == Mode::Traced {
                traced_cg(comm, a, b, &opts, true, None, None)?.0
            } else {
                pipelined_cg(comm, a, b, &opts)?
            };
            return Ok(Solved::one(out));
        }
        let fault = (config == 2).then_some(self.strike);
        let skeptic = SkepticalConfig::default();
        let (out, detections, restarts, injections, check_flops) = if mode == Mode::Traced {
            let mut policy = TracedPolicy {
                inner: SkepticalPolicy::new(skeptic),
            };
            let (out, restarts, injections) =
                traced_cg(comm, a, b, &opts, true, None, Some((&mut policy, fault)))?;
            let report = policy.inner.report();
            (
                out,
                report.detections,
                restarts,
                injections,
                report.check_flops,
            )
        } else {
            let (out, report) = pipelined_skeptical_cg(comm, a, b, &opts, &skeptic, fault)?;
            (
                out,
                report.skeptical.detections,
                report.policy_restarts,
                report.injections,
                report.skeptical.check_flops,
            )
        };
        let mut counters = vec![("core.kernel.policy.check_flops", check_flops as f64)];
        if fault.is_some() {
            counters.extend([
                ("core.kernel.policy.detections", detections as f64),
                ("core.kernel.policy.policy_restarts", restarts as f64),
                ("core.kernel.policy.injections", injections as f64),
            ]);
        } else {
            // Whatever a fault-free run detects is a false positive.
            counters.push(("core.kernel.policy.false_positives", detections as f64));
        }
        Ok(Solved {
            // Only the struck rank counts the injection.
            as_planned: fault.is_none()
                || mode == Mode::Warm
                || comm.rank() != self.strike.rank
                || injections == 1,
            counters,
            ..Solved::one(out)
        })
    }
}

// ---------------------------------------------------------------------------
// The closed loop of an in-job workload
// ---------------------------------------------------------------------------

/// One rank job of a workload: which configurations it times, on how many
/// ranks, for which share of `--seconds`.
#[derive(Debug, Clone)]
struct JobSpec {
    ranks: usize,
    configs: Vec<usize>,
    share: f64,
}

impl JobSpec {
    fn new(ranks: usize, configs: &[usize], share: f64) -> Self {
        Self {
            ranks,
            configs: configs.to_vec(),
            share,
        }
    }
}

/// What one rank (and, merged, one job) observed of one configuration.
#[derive(Debug, Clone, Default)]
struct ConfigResult {
    config: usize,
    /// Seconds of each timed solve.
    secs: Vec<f64>,
    attempted: u64,
    failed: u64,
    silent_wrong: u64,
    true_relres_max: f64,
    /// Of the last solve. Fault-free solves repeat both bit for bit.
    iterations: usize,
    relres_bits: u64,
    repeats_exactly: bool,
    counters: Counters,
    /// Collectives, messages and bytes of the last solve, from the rank's
    /// own statistics.
    stats: [u64; 3],
}

impl ConfigResult {
    /// Append what a later job observed of the same configuration.
    fn absorb(&mut self, later: ConfigResult) {
        self.secs.extend(later.secs);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.silent_wrong += later.silent_wrong;
        self.true_relres_max = self.true_relres_max.max(later.true_relres_max);
        self.repeats_exactly &= later.repeats_exactly
            && (self.iterations, self.relres_bits) == (later.iterations, later.relres_bits);
        self.counters = later.counters;
        self.stats = later.stats;
    }
}

/// What one rank (and, merged, one job) observed.
#[derive(Debug, Default)]
struct JobResult {
    /// One entry per entry of the job's configuration list.
    configs: Vec<ConfigResult>,
    /// The process's resident-set high-water mark of each repetition (MiB),
    /// read by rank 0.
    rep_rss_mb: Vec<f64>,
}

fn stats_delta(before: &RankStats, after: &RankStats) -> [u64; 3] {
    [
        after.collectives - before.collectives,
        after.messages_sent - before.messages_sent,
        after.bytes_sent - before.bytes_sent,
    ]
}

/// Everything a rank does before its first timed solve, and what `setup_s`
/// times: the inputs, then one discarded warm-up solve per configuration.
fn set_up<W: InJob>(comm: &mut ThreadComm, p: Problem, configs: &[usize]) -> Result<W> {
    let mut w = W::build(comm, p)?;
    for (i, &config) in configs.iter().enumerate() {
        // Once each, however often the plan times it.
        if !configs[..i].contains(&config) {
            w.solve(comm, config, Mode::Warm)?;
        }
    }
    Ok(w)
}

/// Whether the closed loop has time for one more repetition as long as the
/// last one. Stopping *before* the budget is overrun keeps a run of 3–6 s
/// repetitions to the `--seconds` it was given.
fn fits_another(started: Instant, last_rep_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_rep_s <= seconds
}

/// The body every rank of a job runs: set-up, then the closed loop for as
/// many whole repetitions as fit into `seconds`.
fn rank_body<W: InJob>(
    comm: &mut ThreadComm,
    p: Problem,
    configs: &[usize],
    seconds: f64,
    traced: bool,
) -> Result<JobResult> {
    let _attached = traced.then(|| trace::attach(comm.rank(), 0));
    let mut w = set_up::<W>(comm, p, configs)?;
    let mut rep_rss_mb = Vec::new();
    let mut results: Vec<ConfigResult> = configs
        .iter()
        .map(|&config| ConfigResult {
            config,
            repeats_exactly: true,
            ..ConfigResult::default()
        })
        .collect();
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let rep_started = Instant::now();
        if comm.rank() == 0 {
            reset_peak_rss();
        }
        for res in &mut results {
            trace::set_solve(res.config);
            comm.barrier()?;
            let before = comm.snapshot_stats();
            let t0 = Instant::now();
            let solved = if traced {
                let _root = span(Layer::Solve, 0);
                w.solve(&mut TracedComm::new(comm), res.config, Mode::Traced)
            } else {
                w.solve(comm, res.config, Mode::Timed)
            };
            res.secs.push(t0.elapsed().as_secs_f64());
            let solved = solved?;
            res.stats = stats_delta(&before, &comm.snapshot_stats());
            comm.barrier()?;

            // Verification, outside the timed region.
            let inp = w.inputs();
            let mut worst = 0.0f64;
            for (x, b) in solved.x.iter().zip(&inp.b_global) {
                let x = x.gather_global(comm)?;
                if comm.rank() == 0 {
                    worst = worst.max(true_relres(&inp.a, b, &x));
                }
            }
            let verified = worst <= VERIFY_TOL;
            res.attempted += 1;
            if !(solved.converged && verified && solved.as_planned) {
                res.failed += 1;
            }
            if solved.converged && !verified {
                res.silent_wrong += 1;
            }
            res.true_relres_max = res.true_relres_max.max(worst);
            let bits = solved.relres.to_bits();
            if res.attempted > 1 && (res.iterations, res.relres_bits) != (solved.iterations, bits) {
                res.repeats_exactly = false;
            }
            (res.iterations, res.relres_bits) = (solved.iterations, bits);
            res.counters = solved.counters;
        }
        reps += 1;
        if comm.rank() == 0 {
            rep_rss_mb.push(peak_rss_mb());
        }
        // Every rank must leave the loop after the same repetition.
        let more = reps < MIN_REPS && !traced
            || fits_another(started, rep_started.elapsed().as_secs_f64(), seconds);
        let more = comm.allreduce_scalar(ReduceOp::Min, f64::from(u8::from(more)))?;
        if more == 0.0 {
            return Ok(JobResult {
                configs: results,
                rep_rss_mb,
            });
        }
    }
}

/// Run one job and merge its ranks: a solve's time is the slowest rank's,
/// statistics are summed, counters take the larger (ranks agree on all but
/// the injection count), everything else is rank 0's.
fn run_job<W: InJob>(
    p: Problem,
    spec: &JobSpec,
    seconds: f64,
    traced: bool,
) -> std::result::Result<JobResult, String> {
    let mut configs = spec.configs.clone();
    if traced {
        // A configuration the plan times more than once a repetition is
        // traced once.
        let all = configs.clone();
        let mut at = 0;
        configs.retain(|c| {
            at += 1;
            !all[..at - 1].contains(c)
        });
    }
    let job = ThreadRuntime::new(ThreadConfig::fast()).run(spec.ranks, move |comm| {
        rank_body::<W>(comm, p, &configs, seconds, traced)
    });
    if !job.all_ok() {
        return Err(format!("rank job failed: {:?}", job.errors));
    }
    let mut ranks = job.unwrap_all().into_iter();
    let mut merged = ranks.next().expect("a job has at least one rank");
    for other in ranks {
        for (m, o) in merged.configs.iter_mut().zip(other.configs) {
            for (ms, os) in m.secs.iter_mut().zip(o.secs) {
                *ms = ms.max(os);
            }
            for (ms, os) in m.stats.iter_mut().zip(o.stats) {
                *ms += os;
            }
            // Only the struck rank counts its injection, and only it knows
            // whether the fault was injected as planned.
            m.failed = m.failed.max(o.failed);
            for (mc, oc) in m.counters.iter_mut().zip(o.counters) {
                mc.1 = mc.1.max(oc.1);
            }
        }
    }
    Ok(merged)
}

/// Time `set_up` repeatedly (for `SETUP_SECONDS`, at least `SETUP_MIN_REPS`
/// times, and no more under `--smoke`), print and return the median.
fn time_setup(smoke: bool, mut set_up: impl FnMut()) -> f64 {
    let seconds = if smoke { 0.0 } else { SETUP_SECONDS };
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_MIN_REPS
        || secs.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < seconds
    {
        let t0 = Instant::now();
        set_up();
        secs.push(t0.elapsed().as_secs_f64());
    }
    report_timing("setup_s", "set-up alone, repeated", &secs)
}

/// Start the process's resident-set high-water mark (`VmHWM`) afresh from
/// what is resident now. Where the kernel refuses, the mark keeps rising and
/// every repetition reads the run's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `peak_rss_mb`: the median over the repetitions of each one's high-water
/// mark. The whole run's mark is the *largest* of them, and on `lflr_kill`
/// that is decided by a race — a dead rank's 43 MB of factors are
/// sometimes still mapped when its replacement allocates its own — in one
/// job out of some twenty: 152, 173 or 193 MiB from run to run.
fn report_peak_rss(out: &mut Outcome, rep_rss_mb: &[f64]) {
    let m = median(rep_rss_mb);
    let (q1, q3) = quartiles(rep_rss_mb).unwrap_or((m, m));
    println!(
        "  {:<14} {m:>12.3} MiB q1 {q1:.3}  q3 {q3:.3}  n {:<4}  high-water mark of a repetition",
        "peak_rss_mb",
        rep_rss_mb.len()
    );
    out.metrics.insert("peak_rss_mb".into(), m);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print one timing with its quartiles and sample count; return the median.
fn report_timing(slot: &str, what: &str, secs: &[f64]) -> f64 {
    let m = median(secs);
    let (q1, q3) = quartiles(secs).unwrap_or((m, m));
    println!(
        "  {slot:<14} {m:>12.6} s   q1 {q1:.6}  q3 {q3:.6}  n {:<4}  {what}",
        secs.len()
    );
    m
}

/// Run an in-job workload: `plan` lists its jobs, and the closed loop goes
/// through the plan `rounds` times, each job getting its share of
/// `--seconds` in `rounds` equal parts. The machine has slow episodes of
/// 5–10 s, so a configuration whose samples all come from one stretch of
/// the run reads a third off whenever that stretch is a slow one.
fn in_job<W: InJob>(
    name: &str,
    p: Problem,
    plan: &[JobSpec],
    rounds: usize,
    cfg: &RunCfg,
) -> std::result::Result<Outcome, String> {
    println!(
        "workload {name}: poisson2d({nx},{nx}), n = {n}, k = {k}, seed {seed}, {RANKS} rank threads, closed loop with 1 client",
        nx = p.nx,
        n = p.nx * p.nx,
        k = p.k,
        seed = p.seed
    );
    let mut out = Outcome::default();
    // A set-up-only job of the first (two-rank) job of the plan: rank spawn,
    // matrix generation, distribution, right-hand sides and the warm-up
    // solves; the join makes it the slowest rank's time.
    let setup_s = time_setup(cfg.smoke, || {
        let configs = plan[0].configs.clone();
        let job = ThreadRuntime::new(ThreadConfig::fast()).run(plan[0].ranks, move |comm| {
            set_up::<W>(comm, p, &configs).map(|_| ())
        });
        assert!(job.all_ok(), "set-up failed: {:?}", job.errors);
    });
    out.metrics.insert("setup_s".into(), setup_s);

    // End-to-end: tracing off, the unmodified presets.
    let rounds = if cfg.smoke { 1 } else { rounds };
    let mut untraced: Vec<ConfigResult> = Vec::new();
    let mut rep_rss_mb = Vec::new();
    for _ in 0..rounds {
        for spec in plan {
            let seconds = cfg.seconds * spec.share / rounds as f64;
            let job = run_job::<W>(p, spec, seconds, false)?;
            rep_rss_mb.extend(job.rep_rss_mb);
            for r in job.configs {
                match untraced.iter_mut().find(|u| u.config == r.config) {
                    Some(u) => u.absorb(r),
                    None => untraced.push(r),
                }
            }
        }
    }
    untraced.sort_by_key(|r| r.config);
    let mut medians = [0.0; 3];
    for r in &untraced {
        medians[r.config] = report_timing(SLOTS[r.config], W::CONFIGS[r.config], &r.secs);
        out.metrics
            .insert(SLOTS[r.config].into(), medians[r.config]);
        out.attempted += r.attempted;
        out.failed += r.failed;
        if r.silent_wrong > 0 {
            out.silent_wrong.push(format!(
                "SILENT WRONG ANSWER: {name} `{}` converged but ‖b−Ax‖/‖b‖ = {:.3e}; \
                 repro: perf_ledger --workload {name} --seed {}",
                W::CONFIGS[r.config],
                r.true_relres_max,
                p.seed
            ));
        }
        if !r.repeats_exactly {
            println!(
                "  note: `{}` did not repeat its iterations and residual bit for bit",
                W::CONFIGS[r.config]
            );
        }
    }
    report_peak_rss(&mut out, &rep_rss_mb);
    for (what, value, unit) in W::derived(&medians) {
        println!("  derived        {value:>12.4} {unit:<5} {what}");
    }
    let primary = &untraced[0];
    println!(
        "  iterations {} / {} / {}   true_relres_max {:.3e}   attempted {}  failed {}",
        untraced[0].iterations,
        untraced[1].iterations,
        untraced[2].iterations,
        untraced
            .iter()
            .map(|r| r.true_relres_max)
            .fold(0.0, f64::max),
        out.attempted,
        out.failed
    );
    if !cfg.trace {
        return Ok(out);
    }

    // Per-layer: one more repetition with the wrappers in place.
    let mut traced: Vec<ConfigResult> = Vec::new();
    for spec in plan {
        traced.extend(run_job::<W>(p, spec, 0.0, true)?.configs);
    }
    traced.sort_by_key(|r| r.config);
    for (u, t) in untraced.iter().zip(&traced) {
        // Proof the traced run timed the same program.
        if (u.iterations, u.relres_bits) != (t.iterations, t.relres_bits) {
            return Err(format!(
                "{name} `{}`: traced re-composition diverged from the preset \
                 ({} iterations, residual {:e} vs {} iterations, residual {:e})",
                W::CONFIGS[u.config],
                t.iterations,
                f64::from_bits(t.relres_bits),
                u.iterations,
                f64::from_bits(u.relres_bits),
            ));
        }
        out.attempted += t.attempted;
        out.failed += t.failed;
    }
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stats = [0u64; 3];
    for t in &traced {
        for &(k, v) in &t.counters {
            *counters.entry(k).or_default() += v;
        }
        for (s, d) in stats.iter_mut().zip(t.stats) {
            *s += d;
        }
    }
    report_layers(
        &mut out,
        cfg,
        LayerInputs {
            configs: &W::CONFIGS,
            counters,
            stats,
            iterations: [
                untraced[0].iterations,
                untraced[1].iterations,
                untraced[2].iterations,
            ],
            true_relres_max: untraced
                .iter()
                .chain(&traced)
                .map(|r| r.true_relres_max)
                .fold(0.0, f64::max),
            primary_secs: &primary.secs,
            traced_primary_s: traced[0].secs[0],
        },
    )?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// lflr_kill
// ---------------------------------------------------------------------------

/// What one LFLR job (one `ThreadRuntime` launch) did.
struct LflrJob {
    /// From before the launch to the slowest rank's return from the preset:
    /// spawn, distribution, factorisation, solve and, after a kill, the
    /// respawn and recovery.
    secs: f64,
    ok: bool,
    verified: bool,
    true_relres: f64,
    iterations: usize,
    counters: Counters,
    failures_seen: usize,
    resumed_from: usize,
    /// Collectives rank 1 completed (the kill point is a share of the clean
    /// run's).
    collectives_rank1: u64,
    stats: [u64; 3],
}

fn lflr_job(
    a: &Arc<CsrMatrix>,
    b: &Arc<Vec<f64>>,
    lflr: KrylovLflrConfig,
    kill_at: Option<u64>,
    traced_as: Option<usize>,
) -> std::result::Result<LflrJob, String> {
    let mut rt = ThreadRuntime::new(ThreadConfig::fast());
    if let Some(nth) = kill_at {
        rt = rt.with_injector(Arc::new(ThreadDeathPlan::new().kill_at_collective(1, nth)));
    }
    let (a_job, b_job) = (Arc::clone(a), Arc::clone(b));
    let launched = Instant::now();
    let job = rt.run(RANKS, move |comm| {
        let _attached = traced_as.map(|solve| trace::attach(comm.world_rank(), solve));
        let opts = solve_opts();
        let (out, report) = if traced_as.is_some() {
            let _root = span(Layer::Solve, 0);
            lflr_pipelined_pcg(&mut TracedComm::new(comm), &a_job, &b_job, &opts, &lflr)?
        } else {
            lflr_pipelined_pcg(comm, &a_job, &b_job, &opts, &lflr)?
        };
        let secs = launched.elapsed().as_secs_f64();
        let x = out.x.gather_global(comm)?;
        Ok((secs, out.converged, report, x))
    });
    if !job.all_ok() {
        return Err(format!("LFLR job failed: {:?}", job.errors));
    }
    let failures_seen = job.failures.len();
    let collectives_rank1 = job.stats[1].collectives;
    let zero = RankStats::default();
    let stats = job.all_stats.iter().fold([0u64; 3], |mut acc, s| {
        for (a, d) in acc.iter_mut().zip(stats_delta(&zero, s)) {
            *a += d;
        }
        acc
    });
    let ranks = job.unwrap_all();
    let secs = ranks.iter().map(|r| r.0).fold(0.0, f64::max);
    let converged = ranks.iter().all(|r| r.1);
    let max_of = |f: fn(&resilience::kernel::KrylovLflrReport) -> usize| {
        ranks.iter().map(|r| f(&r.2)).max().unwrap_or(0)
    };
    let true_relres = true_relres(a, b, &ranks[0].3);
    let expected_failures = usize::from(kill_at.is_some());
    Ok(LflrJob {
        secs,
        ok: converged && failures_seen == expected_failures,
        verified: true_relres <= VERIFY_TOL,
        true_relres,
        iterations: max_of(|r| r.iterations),
        counters: vec![
            (
                "core.kernel.lflr.recoveries",
                max_of(|r| r.recoveries) as f64,
            ),
            (
                "core.kernel.lflr.resumed_from",
                max_of(|r| r.resumed_from) as f64,
            ),
            (
                "core.kernel.lflr.snapshots_persisted",
                ranks.iter().map(|r| r.2.snapshots_persisted).sum::<usize>() as f64,
            ),
            (
                "core.kernel.lflr.fallback_restores",
                max_of(|r| r.fallback_restores) as f64,
            ),
            ("core.kernel.lflr.failures_seen", failures_seen as f64),
        ],
        failures_seen,
        resumed_from: max_of(|r| r.resumed_from),
        collectives_rank1,
        stats,
    })
}

/// Block-Jacobi pipelined PCG under the LFLR protocol, each solve its own
/// job: clean, with rank 1 killed mid-solve and resumed from its persisted
/// snapshot, and the same kill restarted from iteration zero.
fn lflr_kill(p: Problem, cfg: &RunCfg) -> std::result::Result<Outcome, String> {
    const NAME: &str = "lflr_kill";
    const CONFIGS: [&str; 3] = [
        "lflr_pipelined_pcg, no failure",
        "rank 1 killed, restart from zero",
        "rank 1 killed, resume from snapshot",
    ];
    println!(
        "workload {NAME}: poisson2d({nx},{nx}), n = {n}, seed {seed}, {RANKS} rank threads, \
         one job per solve, closed loop with 1 client",
        nx = p.nx,
        n = p.nx * p.nx,
        seed = p.seed
    );
    let mut out = Outcome::default();

    // The presets distribute the matrix themselves, so set-up is the
    // generator and the right-hand side only.
    let build = move || {
        let a = poisson2d(p.nx, p.nx);
        let b = rhs(a.nrows(), p.seed, 0);
        (Arc::new(a), Arc::new(b))
    };
    let setup_s = time_setup(cfg.smoke, || {
        std::hint::black_box(build());
    });
    out.metrics.insert("setup_s".into(), setup_s);
    let (a, b) = build();

    let resume = KrylovLflrConfig::default().with_persist_every(5);
    let restart = resume.restart_from_zero();
    // The warm-up is the clean run that sizes the kill point.
    let warm = lflr_job(&a, &b, resume, None, None)?;
    let share: f64 =
        ChaCha8Rng::seed_from_u64(p.seed ^ 0xfa17_fa17_fa17_fa17).gen_range(0.55..0.65);
    let kill_at = ((warm.collectives_rank1 as f64 * share) as u64).max(1);
    println!(
        "  kill point: rank 1 at collective {kill_at} of {} ({:.1} %)",
        warm.collectives_rank1,
        share * 100.0
    );
    let plan = [
        (resume, None),
        (restart, Some(kill_at)),
        (resume, Some(kill_at)),
    ];

    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut last: Vec<LflrJob> = Vec::new();
    let mut true_relres_max = 0.0f64;
    let record = |out: &mut Outcome, config: usize, job: &LflrJob| {
        out.attempted += 1;
        // The resumed run must really resume mid-stream.
        let as_planned = config != 2 || job.resumed_from > 0;
        if !(job.ok && job.verified && as_planned) {
            out.failed += 1;
        }
        if job.ok && !job.verified {
            out.silent_wrong.push(format!(
                "SILENT WRONG ANSWER: {NAME} `{}` converged but ‖b−Ax‖/‖b‖ = {:.3e}; \
                 repro: perf_ledger --workload {NAME} --seed {}",
                CONFIGS[config], job.true_relres, p.seed
            ));
        }
    };
    let started = Instant::now();
    let mut reps = 0;
    let mut last_rep_s = 0.0;
    let mut rep_rss_mb = Vec::new();
    while reps < MIN_REPS || fits_another(started, last_rep_s, cfg.seconds) {
        let rep_started = Instant::now();
        reset_peak_rss();
        last.clear();
        for (config, &(lflr, kill)) in plan.iter().enumerate() {
            let job = lflr_job(&a, &b, lflr, kill, None)?;
            secs[config].push(job.secs);
            record(&mut out, config, &job);
            true_relres_max = true_relres_max.max(job.true_relres);
            last.push(job);
        }
        reps += 1;
        rep_rss_mb.push(peak_rss_mb());
        last_rep_s = rep_started.elapsed().as_secs_f64();
    }
    let mut medians = [0.0; 3];
    for (config, samples) in secs.iter().enumerate() {
        medians[config] = report_timing(SLOTS[config], CONFIGS[config], samples);
        out.metrics.insert(SLOTS[config].into(), medians[config]);
    }
    report_peak_rss(&mut out, &rep_rss_mb);
    println!(
        "  derived        {:>12.4} x     resume_gain_x = ref_solve_s / alt_solve_s",
        medians[1] / medians[2]
    );
    println!(
        "  iterations {} / {} / {}   resumed_from {}   failures_seen {} / {} / {}   \
         true_relres_max {true_relres_max:.3e}   attempted {}  failed {}",
        last[0].iterations,
        last[1].iterations,
        last[2].iterations,
        last[2].resumed_from,
        last[0].failures_seen,
        last[1].failures_seen,
        last[2].failures_seen,
        out.attempted,
        out.failed
    );
    if !cfg.trace {
        return Ok(out);
    }

    // The LFLR presets build their spaces internally, so only the
    // communicator can be wrapped; the dense-LU layer is read off `bj_pcg`.
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stats = [0u64; 3];
    let mut traced_primary_s = 0.0;
    for (config, &(lflr, kill)) in plan.iter().enumerate() {
        let job = lflr_job(&a, &b, lflr, kill, Some(config))?;
        record(&mut out, config, &job);
        true_relres_max = true_relres_max.max(job.true_relres);
        if config == 0 {
            traced_primary_s = job.secs;
        }
        // The recovery counters describe the resumed run.
        if config == 2 {
            counters.extend(job.counters.iter().copied());
        }
        for (s, d) in stats.iter_mut().zip(job.stats) {
            *s += d;
        }
    }
    report_layers(
        &mut out,
        cfg,
        LayerInputs {
            configs: &CONFIGS,
            counters,
            stats,
            iterations: [last[0].iterations, last[1].iterations, last[2].iterations],
            true_relres_max,
            primary_secs: &secs[0],
            traced_primary_s,
        },
    )?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// The per-layer table
// ---------------------------------------------------------------------------

/// What a workload hands over after its traced repetition; the spans are in
/// the trace sink.
struct LayerInputs<'a> {
    configs: &'a [&'static str; 3],
    counters: BTreeMap<&'static str, f64>,
    /// Collectives, messages, bytes of the traced repetition, all ranks.
    stats: [u64; 3],
    /// Untraced, by configuration.
    iterations: [usize; 3],
    true_relres_max: f64,
    /// Untraced samples of the primary configuration.
    primary_secs: &'a [f64],
    traced_primary_s: f64,
}

/// The local-arithmetic layers that stream vectors and matrices.
const STREAMING: [Layer; 4] = [Layer::Spmv, Layer::Spmm, Layer::Dot, Layer::Update];

/// Collect the traced repetition's spans, write the Chrome trace if asked
/// to, run the bandwidth probe, then fill in every per-layer metric of the
/// workload and print the table. Times are self times summed over the traced
/// repetition's configurations (each averaged over its ranks); calls and
/// bytes are per rank.
fn report_layers(
    out: &mut Outcome,
    cfg: &RunCfg,
    inp: LayerInputs<'_>,
) -> std::result::Result<(), String> {
    let (spans, dropped) = trace::drain();
    if let Some(path) = &cfg.trace_out {
        std::fs::write(path, trace::chrome_trace_json(&spans, inp.configs))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("  chrome trace of the traced repetition: {path}");
    }
    let per_config = trace::totals_by_config(&spans, inp.configs.len());
    let probe = probe::triad(cfg.smoke);
    let mut all = LayerTotals::default();
    for t in &per_config {
        all.add(t);
    }
    let mut put = |name: &str, value: f64| {
        out.metrics.insert(name.to_string(), value);
    };
    let div = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    for (layer, stem) in [
        (Layer::Spmv, "linalg.ops.spmv"),
        (Layer::Spmm, "linalg.ops.spmm"),
        (Layer::Dot, "linalg.ops.dot"),
        (Layer::Update, "linalg.ops.update"),
        (Layer::PrecondApply, "core.kernel.precond.apply"),
    ] {
        put(&format!("{stem}_s"), all.self_s(layer));
        put(&format!("{stem}_calls"), all.calls(layer));
        put(&format!("{stem}_gbps"), all.gbps(&[layer]));
    }
    put(
        "linalg.ops.roofline_frac",
        div(all.gbps(&STREAMING), probe.triad_gbps),
    );
    let factor_s = all.self_s(Layer::Factor);
    put("linalg.dense.factor_s", factor_s);
    put(
        "linalg.dense.factor_gflops",
        div(
            inp.counters.get(FACTOR_FLOPS).copied().unwrap_or(0.0),
            factor_s * 1e9,
        ),
    );

    put("runtime.threads.allreduce_s", all.self_s(Layer::Allreduce));
    put(
        "runtime.threads.allreduce_calls",
        all.calls(Layer::Allreduce),
    );
    put(
        "runtime.threads.iallreduce_post_s",
        all.self_s(Layer::IallreducePost),
    );
    put("runtime.threads.wait_s", all.self_s(Layer::Wait));
    put(
        "runtime.threads.iallreduce_calls",
        all.calls(Layer::IallreducePost),
    );
    let sync_s =
        all.self_s(Layer::Allreduce) + all.self_s(Layer::IallreducePost) + all.self_s(Layer::Wait);
    let sync_calls = all.calls(Layer::Allreduce) + all.calls(Layer::IallreducePost);
    put(
        "runtime.threads.sync_us_per_collective",
        div(sync_s * 1e6, sync_calls),
    );
    put("runtime.threads.halo_send_s", all.self_s(Layer::HaloSend));
    put("runtime.threads.halo_recv_s", all.self_s(Layer::HaloRecv));
    put("runtime.threads.halo_msgs", all.calls(Layer::HaloSend));
    put("runtime.threads.halo_bytes", all.bytes(Layer::HaloSend));
    put("runtime.threads.persist_s", all.self_s(Layer::Persist));
    put("runtime.threads.persist_calls", all.calls(Layer::Persist));
    put("runtime.threads.persist_bytes", all.bytes(Layer::Persist));
    put("runtime.threads.restore_s", all.self_s(Layer::Restore));
    put(
        "runtime.threads.rendezvous_s",
        all.self_s(Layer::Rendezvous),
    );
    put(
        "runtime.threads.rendezvous_calls",
        all.calls(Layer::Rendezvous),
    );
    put("runtime.stats.collectives", inp.stats[0] as f64);
    put("runtime.stats.messages_sent", inp.stats[1] as f64);
    put("runtime.stats.bytes_sent", inp.stats[2] as f64);

    put("core.kernel.policy.hook_s", all.self_s(Layer::PolicyHook));
    put(
        "core.kernel.policy.hook_calls",
        all.calls(Layer::PolicyHook),
    );
    for name in [
        "core.kernel.cache.hits",
        "core.kernel.cache.misses",
        "core.kernel.policy.check_flops",
        "core.kernel.policy.detections",
        "core.kernel.policy.false_positives",
        "core.kernel.policy.policy_restarts",
        "core.kernel.policy.injections",
        "core.kernel.lflr.recoveries",
        "core.kernel.lflr.resumed_from",
        "core.kernel.lflr.snapshots_persisted",
        "core.kernel.lflr.fallback_restores",
        "core.kernel.lflr.failures_seen",
    ] {
        put(name, inp.counters.get(name).copied().unwrap_or(0.0));
    }

    let primary = &per_config[0];
    let solve_s = median(inp.primary_secs);
    put("core.kernel.solve.iterations", inp.iterations[0] as f64);
    put("core.kernel.solve.ref_iterations", inp.iterations[1] as f64);
    put("core.kernel.solve.alt_iterations", inp.iterations[2] as f64);
    put(
        "core.kernel.solve.allreduces_per_iter",
        div(
            primary.calls(Layer::Allreduce) + primary.calls(Layer::IallreducePost),
            inp.iterations[0] as f64,
        ),
    );
    put(
        "core.kernel.solve.us_per_iter",
        div(solve_s * 1e6, inp.iterations[0] as f64),
    );
    put("core.kernel.solve.true_relres_max", inp.true_relres_max);
    // A 90th percentile needs ten samples beyond it.
    let p90 = if inp.primary_secs.len() >= 100 {
        quantile(inp.primary_secs, 9, 10)
    } else {
        0.0
    };
    put("core.kernel.solve.p90_s", p90);
    let self_s = all.self_s(Layer::Solve);
    let traced_total: f64 = all.self_s.iter().sum();
    put("core.kernel.self_s", self_s);
    put("core.kernel.self_share", div(self_s, traced_total));

    put("probe.triad_gbps", probe.triad_gbps);
    put("probe.triad_bytes", probe.array_bytes as f64);
    put("probe.llc_bytes", probe.llc_bytes as f64);
    put(
        "trace.overhead_pct",
        (div(inp.traced_primary_s, solve_s) - 1.0) * 100.0,
    );
    put("trace.dropped_spans", dropped as f64);

    println!(
        "  traced repetition — self seconds by layer and configuration \
         (mean over ranks; bytes are computed, not measured):"
    );
    println!(
        "    {:<32} {:>11} {:>11} {:>11} {:>9} {:>14}",
        "layer", SLOTS[0], SLOTS[1], SLOTS[2], "calls", "bytes computed"
    );
    for layer in Layer::ALL {
        if all.calls(layer) == 0.0 {
            continue;
        }
        println!(
            "    {:<32} {:>11.6} {:>11.6} {:>11.6} {:>9.0} {:>14.0}",
            layer.name(),
            per_config[0].self_s(layer),
            per_config[1].self_s(layer),
            per_config[2].self_s(layer),
            all.calls(layer),
            all.bytes(layer),
        );
    }
    println!(
        "    configurations: {} | {} | {}",
        inp.configs[0], inp.configs[1], inp.configs[2]
    );
    println!(
        "  probe: triad {:.2} GB/s over 3 arrays of {} bytes (reported LLC {} bytes); \
         streaming layers reach {:.2} GB/s computed",
        probe.triad_gbps,
        probe.array_bytes,
        probe.llc_bytes,
        all.gbps(&STREAMING)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::kernel::BlockJacobi;
    use resilient_runtime::{Runtime, RuntimeConfig};

    fn bits(v: &DistVector) -> Vec<u64> {
        v.local.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same(plain: &DistSolveOutcome, traced: &DistSolveOutcome, what: &str) {
        assert!(plain.converged, "{what}: the preset must converge");
        assert_eq!(plain.iterations, traced.iterations, "{what}: iterations");
        assert_eq!(
            plain.relative_residual.to_bits(),
            traced.relative_residual.to_bits(),
            "{what}: final residual"
        );
        assert_eq!(bits(&plain.x), bits(&traced.x), "{what}: solution");
    }

    /// Every preset the traced run re-composes, solved through the preset
    /// and through the re-composition with all four wrappers in place, on
    /// whatever backend `comm` is: the wrappers must change no bit.
    fn wrappers_change_nothing<C: CommBackend>(comm: &mut C) -> Result<()> {
        let a = poisson2d(14, 14);
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_global(comm, &rhs(n, 7, 0));
        let opts = solve_opts();

        // TracedComm + TracedOps.
        let plain = pipelined_cg(comm, &da, &b, &opts)?;
        let traced = traced_cg(&mut TracedComm::new(comm), &da, &b, &opts, true, None, None)?.0;
        assert_same(&plain, &traced, "pipelined_cg");
        let plain = dist_cg(comm, &da, &b, &opts)?;
        let traced = traced_cg(
            &mut TracedComm::new(comm),
            &da,
            &b,
            &opts,
            false,
            None,
            None,
        )?
        .0;
        assert_same(&plain, &traced, "dist_cg");

        // + TracedPrecond, under CG and GMRES.
        let wrap = |bj| TracedPrecond {
            inner: bj,
            bytes_per_apply: 0,
        };
        let plain = pipelined_pcg(comm, &da, &b, &mut BlockJacobi::new(&da), &opts)?;
        let mut m = wrap(BlockJacobi::new(&da));
        let traced = traced_cg(
            &mut TracedComm::new(comm),
            &da,
            &b,
            &opts,
            true,
            Some(&mut m),
            None,
        )?
        .0;
        assert_same(&plain, &traced, "pipelined_pcg");
        let plain = pipelined_pgmres(comm, &da, &b, &mut BlockJacobi::new(&da), &opts)?;
        let mut m = wrap(BlockJacobi::new(&da));
        let traced = traced_pgmres(&mut TracedComm::new(comm), &da, &b, &mut m, &opts)?;
        assert_same(&plain, &traced, "pipelined_pgmres");

        // + TracedPolicy, fault-free and with a strike the policy reacts to.
        let strike = SpmvFault {
            rank: comm.size() - 1,
            at_application: 6,
            local_element: 3,
            bit: 62,
        };
        for fault in [None, Some(strike)] {
            let skeptic = SkepticalConfig::default();
            let (plain, report) = pipelined_skeptical_cg(comm, &da, &b, &opts, &skeptic, fault)?;
            let mut policy = TracedPolicy {
                inner: SkepticalPolicy::new(skeptic),
            };
            let (traced, restarts, injections) = traced_cg(
                &mut TracedComm::new(comm),
                &da,
                &b,
                &opts,
                true,
                None,
                Some((&mut policy, fault)),
            )?;
            assert_same(&plain, &traced, "pipelined_skeptical_cg");
            assert_eq!(report.policy_restarts, restarts);
            assert_eq!(report.injections, injections);
            assert_eq!(
                report.skeptical.detections,
                policy.inner.report().detections
            );
        }

        // The block kernel.
        let cols: Vec<DistVector> = (0..3)
            .map(|c| DistVector::from_global(comm, &rhs(n, 7, c)))
            .collect();
        let block = DistMultiVector::from_columns(&cols);
        let plain = BlockRhs::block_solve(comm, &da, &block, Mode::Timed)?;
        let traced = BlockRhs::block_solve(&mut TracedComm::new(comm), &da, &block, Mode::Traced)?;
        assert!(plain.converged);
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(plain.relres.to_bits(), traced.relres.to_bits());
        for (p, t) in plain.x.iter().zip(&traced.x) {
            assert_eq!(bits(p), bits(t), "pipelined_block_pcg: solution");
        }
        Ok(())
    }

    #[test]
    fn wrappers_are_pure_delegation_on_the_simulator() {
        Runtime::new(RuntimeConfig::fast())
            .run(2, wrappers_change_nothing)
            .unwrap_all();
    }

    #[test]
    fn wrappers_are_pure_delegation_on_real_threads() {
        ThreadRuntime::new(ThreadConfig::fast())
            .run(2, wrappers_change_nothing)
            .unwrap_all();
    }

    #[test]
    fn the_residual_check_sees_a_wrong_answer() {
        let a = poisson2d(6, 6);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + i as f64 * 0.25).collect();
        let b = a.spmv(&x);
        assert!(true_relres(&a, &b, &x) < 1e-14);
        let mut wrong = x.clone();
        wrong[17] *= 1.0 + 1e-4;
        assert!(true_relres(&a, &b, &wrong) > VERIFY_TOL);
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(rhs(64, 5, 0), rhs(64, 5, 0));
        assert_ne!(rhs(64, 5, 0), rhs(64, 6, 0));
        assert_ne!(rhs(64, 5, 0), rhs(64, 5, 1), "columns use distinct streams");
        assert!(rhs(64, 5, 3).iter().all(|v| (0.5..1.5).contains(v)));
    }
}
