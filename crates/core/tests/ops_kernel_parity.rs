//! Kernel-level pins for the device-op layer: swapping the node-local
//! compute backend (scalar ↔ SIMD), re-packing the local SELL-C-σ parts
//! with another sort scope σ, or splitting the rows into interior and
//! boundary parts must not perturb a single bit of any solver observable.
//!
//! This is the property that makes the op layer safe to deploy: the SIMD
//! backend is pinned to the scalar reference's reassociation spec and the
//! SELL kernel to CSR's per-row accumulation order, so convergence
//! histories, iteration counts and solutions are `to_bits`-identical — the
//! bitwise-reproducibility contract the resilience experiments rely on
//! (rollback snapshots replay to identical states) extends across
//! backends.

use proptest::prelude::*;
use resilience::distributed::HaloScratch;
use resilience::kernel::FusedCgStep;
use resilience::prelude::*;
use resilient_linalg::{
    anisotropic2d, poisson2d, scalar_ops, simd_ops, CooMatrix, CsrMatrix, SELL_DEFAULT_SIGMA,
};
use resilient_runtime::{BlockDistribution, Comm, Result, Runtime, RuntimeConfig};

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
/// observable outcome. `sell_sigma` re-packs the local SELL parts;
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

/// Re-packing the local SELL-C-σ parts with another σ is bitwise invisible
/// to every preset (the SELL kernel reproduces CSR's per-row accumulation).
#[test]
fn sell_layout_is_bitwise_invisible() {
    for ranks in [1usize, 2, 3, 8] {
        for preset in PRESETS {
            let default_sigma = observe(ranks, preset, opts(), None);
            let sell = observe(ranks, preset, opts(), Some(64));
            assert_eq!(default_sigma, sell, "{preset:?} at {ranks} ranks");
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

/// `a` with each row's entries in the order the rank owning it sums them on
/// `ranks` ranks: the owned columns, then the ghosts, each ascending.
fn rank_ordered(a: &CsrMatrix, ranks: usize) -> CsrMatrix {
    let dist = BlockDistribution::new(a.nrows(), ranks);
    let (mut cols, mut vals, mut row_ptr) = (Vec::new(), Vec::new(), vec![0]);
    for r in 0..ranks {
        let own = dist.range(r);
        for i in own.clone() {
            let (c, v) = a.row(i);
            let mut row: Vec<(usize, f64)> = c.iter().copied().zip(v.iter().copied()).collect();
            row.sort_by_key(|&(j, _)| (!own.contains(&j), j));
            cols.extend(row.iter().map(|e| e.0));
            vals.extend(row.iter().map(|e| e.1));
            row_ptr.push(cols.len());
        }
    }
    CsrMatrix::from_raw(a.nrows(), a.ncols(), row_ptr, cols, vals)
}

/// Per rank, whether it owns interior rows (reading only owned columns)
/// and boundary rows (reading a ghost).
fn row_kinds(a: &CsrMatrix, ranks: usize) -> Vec<(bool, bool)> {
    let dist = BlockDistribution::new(a.nrows(), ranks);
    (0..ranks)
        .map(|r| {
            let own = dist.range(r);
            let boundary = |i: usize| a.row(i).0.iter().any(|j| !own.contains(j));
            (own.clone().any(|i| !boundary(i)), own.clone().any(boundary))
        })
        .collect()
}

/// Apply the split operator to `k` columns on `ranks` ranks, through
/// `apply_into` per column and `apply_block_into` on the block, on both
/// backends and at σ = 1, 4 and the default, and require every product to
/// equal the serial `CsrMatrix::spmv_into` of each column `to_bits`. The
/// serial matrix lists each row's entries in the order its rank sums them
/// ([`rank_ordered`]), so the check pins the split, not the ghost
/// numbering. Stale contents of the caller's `y` must not survive.
fn check_split_parity(a: &CsrMatrix, ranks: usize, k: usize) {
    let n = a.nrows();
    let x = |c: usize, i: usize| ((i * 7 + c * 3) as f64 * 0.37).sin() - 0.25 * c as f64;
    let serial = rank_ordered(a, ranks);
    let want: Vec<Vec<u64>> = (0..k)
        .map(|c| {
            let mut y = vec![0.0; n];
            serial.spmv_into(&(0..n).map(|i| x(c, i)).collect::<Vec<_>>(), &mut y);
            y.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let global = a.clone();
    let rt = Runtime::new(RuntimeConfig::fast());
    let r = rt.run(
        ranks,
        move |comm: &mut Comm| -> Result<Vec<(String, Vec<Vec<f64>>)>> {
            let xb = DistMultiVector::from_fn(comm, n, k, x);
            let mut runs = Vec::new();
            for ops in [scalar_ops(), simd_ops()] {
                for sigma in [1, 4, SELL_DEFAULT_SIGMA] {
                    let da = DistCsr::from_global(comm, &global)?.with_sell_layout(sigma);
                    let mut halo = HaloScratch::default();
                    let mut yb = DistMultiVector::from_fn(comm, n, k, |_, _| f64::NAN);
                    da.apply_block_into(comm, &xb, ops, &mut halo, k, &mut yb)?;
                    let mut singles = Vec::new();
                    for c in 0..k {
                        let mut y = DistVector::from_fn(comm, n, |_| f64::NAN);
                        da.apply_into(comm, &xb.column(c), ops, &mut halo, &mut y)?;
                        singles.push(y.gather_global(comm)?);
                    }
                    let block = (0..k)
                        .map(|c| yb.column(c).gather_global(comm))
                        .collect::<Result<Vec<_>>>()?;
                    runs.push((format!("{} σ={sigma} block", ops.name()), block));
                    runs.push((format!("{} σ={sigma} single", ops.name()), singles));
                }
            }
            Ok(runs)
        },
    );
    assert!(r.all_ok(), "{:?}", r.errors);
    for runs in r.unwrap_all() {
        for (what, cols) in runs {
            for (c, got) in cols.iter().enumerate() {
                let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want[c], "{what} ranks={ranks} k={k} c={c}");
            }
        }
    }
}

/// The three edge shapes of the split: a rank that owns no rows, ranks
/// with no interior rows, and a one-rank job with no boundary rows.
#[test]
fn split_parity_edge_shapes() {
    // Three rows on four ranks: rank 3 owns nothing.
    let a = poisson2d(3, 1);
    assert_eq!(BlockDistribution::new(3, 4).range(3).len(), 0);
    // Every row reads the row half the matrix away: on two ranks each row
    // reads a ghost, so neither rank has an interior row.
    let mut coo = CooMatrix::new(12, 12);
    for i in 0..12 {
        coo.push(i, i, 4.0 + i as f64);
        coo.push(i, (i + 6) % 12, -1.5);
    }
    let crossed = coo.to_csr();
    assert_eq!(row_kinds(&crossed, 2), vec![(false, true); 2]);
    // One rank: every row is interior.
    let one = poisson2d(5, 4);
    assert_eq!(row_kinds(&one, 1), vec![(true, false)]);
    for k in [1, 2, 3, 4, 5, 8, 9] {
        check_split_parity(&a, 4, k);
        check_split_parity(&crossed, 2, k);
        check_split_parity(&one, 1, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interior/boundary split is invisible in the product: random
    /// sparse matrices (a diagonal plus entries anywhere, so the rows that
    /// read a ghost are scattered through each rank's range, not only at
    /// its ends) on 1–4 ranks, every tested width k.
    #[test]
    fn split_spmv_matches_serial_bitwise(
        n in 1usize..48,
        entries in prop::collection::vec((0usize..48, 0usize..48, -4.0f64..4.0), 0..96),
        ranks in 1usize..=4,
        k in prop::sample::select(vec![1usize, 2, 3, 4, 5, 8, 9]),
    ) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0);
        }
        for &(i, j, v) in &entries {
            coo.push(i % n, j % n, v);
        }
        check_split_parity(&coo.to_csr(), ranks, k);
    }
}
