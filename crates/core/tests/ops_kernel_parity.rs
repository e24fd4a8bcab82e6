//! Kernel-level pins for the device-op layer: swapping the node-local
//! compute backend (scalar ↔ SIMD) or the local SpMV layout (CSR ↔
//! SELL-C-σ) must not perturb a single bit of any solver observable.
//!
//! This is the property that makes the op layer safe to deploy: the SIMD
//! backend is pinned to the scalar reference's reassociation spec and the
//! SELL kernel to CSR's per-row accumulation order, so convergence
//! histories, iteration counts and solutions are `to_bits`-identical — the
//! bitwise-reproducibility contract the resilience experiments rely on
//! (rollback snapshots replay to identical states) extends across
//! backends.

use proptest::prelude::*;
use resilience::kernel::FusedCgStep;
use resilience::prelude::*;
use resilient_linalg::{anisotropic2d, poisson2d, scalar_ops, simd_ops, CsrMatrix};
use resilient_runtime::{Comm, Result, Runtime, RuntimeConfig};

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(12, 12);
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
    (a, b)
}

/// `(iterations, residual history bits, solution bits)` — everything a
/// caller can observe from a distributed solve.
type Observation = (usize, Vec<u64>, Vec<u64>);

/// `(composition, block-Jacobi preconditioned?)`.
type Preset = (SolveSpec, bool);

const PRESETS: [Preset; 5] = [
    (SolveSpec::FUSED_CG, false),
    (SolveSpec::FUSED_CG, true),
    (SolveSpec::PIPELINED_CG, true),
    (SolveSpec::FUSED_GMRES, true),
    (SolveSpec::PIPELINED_GMRES, true),
];

/// Run one preset on the virtual-time simulator and capture the full
/// observable outcome. `sell_sigma` switches the local SpMV layout;
/// `opts` carries the backend choice.
fn observe(
    ranks: usize,
    preset: Preset,
    opts: SolveOptions,
    sell_sigma: Option<usize>,
) -> Vec<Observation> {
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(11));
    let r = rt.run(ranks, move |comm: &mut Comm| -> Result<Observation> {
        let (a, b) = problem();
        let mut da = DistCsr::from_global(comm, &a)?;
        if let Some(sigma) = sell_sigma {
            da = da.with_sell_layout(sigma);
        }
        let bv = DistVector::from_global(comm, &b);
        let (spec, preconditioned) = preset;
        let mut bj = preconditioned.then(|| BlockJacobi::new(&da));
        let m = bj.as_mut().map(|m| m as &mut dyn SpacePreconditioner<_>);
        let out = solve_dist(comm, &da, &bv, spec, m, &opts)?;
        assert!(out.converged, "{preset:?} must converge");
        let xbits = out
            .x
            .gather_global(comm)?
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let hbits = out.history.iter().map(|v| v.to_bits()).collect();
        Ok((out.iterations, hbits, xbits))
    });
    assert!(r.all_ok(), "{preset:?}@{ranks}: {:?}", r.errors);
    r.unwrap_all()
}

fn opts() -> SolveOptions {
    SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(500)
        .with_restart(10)
}

/// Scalar-forced and auto-selected backends produce bit-identical solves
/// for every preset at 1, 2, 3 and 8 ranks. On AVX2 hardware this compares
/// genuinely different machine code paths; elsewhere it pins that the
/// `force_scalar_ops` knob is observation-free.
#[test]
fn backend_choice_is_bitwise_invisible() {
    for ranks in [1usize, 2, 3, 8] {
        for preset in PRESETS {
            let auto = observe(ranks, preset, opts(), None);
            let scalar = observe(ranks, preset, opts().with_scalar_ops(), None);
            assert_eq!(auto, scalar, "{preset:?} at {ranks} ranks");
        }
    }
}

/// Switching the local SpMV to the SELL-C-σ layout is bitwise invisible to
/// every preset (the SELL kernel reproduces CSR's per-row accumulation).
#[test]
fn sell_layout_is_bitwise_invisible() {
    for ranks in [1usize, 2, 3, 8] {
        for preset in PRESETS {
            let csr = observe(ranks, preset, opts(), None);
            let sell = observe(ranks, preset, opts(), Some(64));
            assert_eq!(csr, sell, "{preset:?} at {ranks} ranks");
        }
    }
}

/// The serial (1-rank) kernel, driven explicitly with each backend through
/// `DistSpace::with_ops`, agrees bitwise on iterations, history and
/// solution.
#[test]
fn serial_kernel_backends_agree_bitwise() {
    let (a, b) = problem();
    let solve_opts = SolveOptions::default().with_tol(1e-8).with_max_iters(500);
    let run = |ops: &'static dyn resilient_linalg::LocalOps| {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let da = DistCsr::from_global(&mut comm, &a).unwrap();
        let bv = DistVector::from_global(&comm, &b);
        let mut space = DistSpace::new(&mut comm, &da).with_ops(ops);
        let mut strategy = FusedCgStep::new();
        let mut policies = PolicyStack::new(vec![]);
        let (out, _report) = resilience::kernel::run_cg(
            &mut space,
            &bv,
            None,
            &solve_opts,
            &mut strategy,
            &mut policies,
        )
        .unwrap();
        assert_eq!(out.reason, StopReason::Converged);
        let xbits: Vec<u64> = out.x.local.iter().map(|v| v.to_bits()).collect();
        let hbits: Vec<u64> = out.history.iter().map(|v| v.to_bits()).collect();
        (out.iterations, hbits, xbits)
    };
    assert_eq!(run(scalar_ops()), run(simd_ops()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form on anisotropic problems: random shape, anisotropy and
    /// σ; backend and layout both bitwise invisible for preconditioned CG.
    #[test]
    fn random_problems_are_backend_and_layout_invariant(
        nx in 4usize..9,
        ny in 4usize..9,
        ranks in 1usize..5,
        sigma in prop::sample::select(vec![1usize, 4, 32, 256]),
        eps_exp in -2i32..2,
    ) {
        let eps = 10f64.powi(eps_exp);
        let run = |o: SolveOptions, sell: Option<usize>| {
            let rt = Runtime::new(RuntimeConfig::fast().with_seed(5));
            let r = rt.run(ranks, move |comm: &mut Comm| -> Result<Observation> {
                let a = anisotropic2d(nx, ny, eps, 1.0, 3);
                let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
                let mut da = DistCsr::from_global(comm, &a)?;
                if let Some(s) = sell {
                    da = da.with_sell_layout(s);
                }
                let bv = DistVector::from_global(comm, &b);
                let mut bj = BlockJacobi::new(&da);
                let out = solve_dist(comm, &da, &bv, SolveSpec::FUSED_CG, Some(&mut bj), &o)?;
                let xbits = out
                    .x
                    .gather_global(comm)?
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let hbits = out.history.iter().map(|v| v.to_bits()).collect();
                Ok((out.iterations, hbits, xbits))
            });
            assert!(r.all_ok(), "{:?}", r.errors);
            r.unwrap_all()
        };
        let base = run(opts(), None);
        prop_assert_eq!(&base, &run(opts().with_scalar_ops(), None));
        prop_assert_eq!(&base, &run(opts(), Some(sigma)));
    }
}
