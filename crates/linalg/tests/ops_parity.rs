//! Bit-parity pins for the device-op layer.
//!
//! The SIMD backend is *specified* to be bit-identical to the scalar
//! reference (the 4-lane reassociation of `vector::dot` is part of the
//! algorithm, not an implementation detail), and the SELL-C-σ layout is
//! specified to be a lossless permutation of CSR whose SpMV performs the
//! same per-row left-to-right accumulation. These properties are what let
//! the solver crates swap backends and layouts freely without perturbing
//! convergence histories; this suite pins them with `to_bits` equality on
//! random inputs, including non-finite specials.
//!
//! On machines without AVX2 `simd_ops()` falls back to the scalar backend
//! and the cross-backend assertions hold trivially — the suite still
//! exercises the SELL and `solve_with` pins.

use proptest::prelude::*;
use resilient_linalg::{
    scalar_ops, simd_ops, CgSweep, CooMatrix, CsrMatrix, DenseMatrix, LocalOps, LuFactors,
    PcgSweep, SellMatrix,
};

fn any_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len..=len)
}

/// Sprinkle ±∞ (and, for tag 10, NaN; for tags 11–14, ±0 and ± a
/// subnormal) into a finite vector according to per-element tags:
/// bit-parity must hold through non-finite arithmetic too (a NaN or ∞
/// produced by identical operation order has identical bits), and through
/// signed zeros and gradual underflow.
fn with_specials(finite: &[f64], tags: &[u8]) -> Vec<f64> {
    finite
        .iter()
        .zip(tags)
        .map(|(&v, &t)| match t {
            8 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            10 => f64::NAN,
            11 => 0.0,
            12 => -0.0,
            13 => f64::MIN_POSITIVE / 8.0,
            14 => -f64::MIN_POSITIVE / 8.0,
            _ => v,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `to_bits`, with every NaN mapped to one pattern: when an *input* NaN
/// meets a NaN generated on the way (`∞ − ∞` has the other sign bit), which
/// payload survives depends on operand order, and the compiler may commute
/// a scalar `a + b` — IEEE 754 leaves it open. Everything that is not a NaN
/// still has to match exactly.
fn bits_one_nan(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
        .collect()
}

/// A backend that overrides nothing optional: its `pipelined_pcg_sweep`
/// and `pipelined_cg_sweep` are the trait's default bodies — the spec — over
/// the wrapped backend's level-1 kernels.
struct SpecOps(&'static dyn LocalOps);

impl LocalOps for SpecOps {
    fn name(&self) -> &'static str {
        "spec"
    }
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        self.0.dot(x, y)
    }
    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        self.0.dot_pairs(pairs, out)
    }
    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        self.0.axpy(a, x, y)
    }
    fn scale(&self, a: f64, x: &mut [f64]) {
        self.0.scale(a, x)
    }
    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        self.0.xpby(x, b, y)
    }
    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        self.0.waxpby_into(a, x, b, y, w)
    }
    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        self.0.spmv_csr(a, x, y)
    }
    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        self.0.spmv_sell(a, x, y)
    }
}

/// Run one sweep on copies of `vecs` (`aw, mw, z, q, s, p, x, r, u, w`) and
/// return the eight updated vectors followed by the three dot partials.
fn sweep_on(ops: &dyn LocalOps, alpha: f64, beta: f64, vecs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut v: Vec<Vec<f64>> = vecs.to_vec();
    let (ro, state) = v.split_at_mut(2);
    let [z, q, s, p, x, r, u, w] = state else {
        panic!("ten vectors");
    };
    let dots = ops.pipelined_pcg_sweep(
        alpha,
        beta,
        &ro[0],
        &ro[1],
        PcgSweep {
            z,
            q,
            s,
            p,
            x,
            r,
            u,
            w,
        },
    );
    v.drain(..2);
    v.push(dots.to_vec());
    v
}

/// Run one unpreconditioned sweep on copies of `vecs` (`aw, z, s, p, x, r,
/// w`) and return the six updated vectors followed by the two dot partials.
fn cg_sweep_on(ops: &dyn LocalOps, alpha: f64, beta: f64, vecs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut v: Vec<Vec<f64>> = vecs.to_vec();
    let (aw, state) = v.split_at_mut(1);
    let [z, s, p, x, r, w] = state else {
        panic!("seven vectors");
    };
    let dots = ops.pipelined_cg_sweep(alpha, beta, &aw[0], CgSweep { z, s, p, x, r, w });
    v.remove(0);
    v.push(dots.to_vec());
    v
}

/// Random square CSR matrix with controllable shape irregularity.
fn ragged_csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        coo.push(i % n, j % n, v);
    }
    coo.to_csr()
}

/// Textbook dense LU with partial pivoting — whole rows swapped, every
/// entry below and right of the pivot updated, the right-hand side permuted
/// up front — open-coded here as the reference the band-clipped
/// [`LuFactors`] must reproduce bit for bit. Same conventions: first largest
/// pivot wins, an all-zero pivot column gets a unit pivot, zero multipliers
/// skip their row.
#[allow(clippy::needless_range_loop)] // the textbook's index form is the point
fn textbook_lu_solve(a: &DenseMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut lu: Vec<Vec<f64>> = (0..n).map(|i| a.row(i)).collect();
    let mut x = b[..n].to_vec();
    for k in 0..n {
        let mut piv = k;
        for i in k + 1..n {
            if lu[i][k].abs() > lu[piv][k].abs() {
                piv = i;
            }
        }
        lu.swap(k, piv);
        x.swap(k, piv);
        if lu[k][k] == 0.0 {
            lu[k][k] = 1.0;
        }
        for i in k + 1..n {
            let m = lu[i][k] / lu[k][k];
            lu[i][k] = m;
            if m != 0.0 {
                for j in k + 1..n {
                    lu[i][j] += -m * lu[k][j];
                }
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            x[i] -= lu[i][j] * x[j];
        }
    }
    for i in (0..n).rev() {
        for j in i + 1..n {
            x[i] -= lu[i][j] * x[j];
        }
        x[i] /= lu[i][i];
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 96 }))]

    /// Every level-1 op is `to_bits`-identical across backends, at lengths
    /// that cover empty, sub-lane, exact-lane and ragged-tail cases.
    #[test]
    fn level1_ops_bitwise_identical(
        len in 0usize..130,
        x0 in any_vec(130),
        y0 in any_vec(130),
        a in -1e3f64..1e3,
        b in -1e3f64..1e3,
    ) {
        let (s, v) = (scalar_ops(), simd_ops());
        let x = &x0[..len];
        let y = &y0[..len];

        prop_assert_eq!(s.dot(x, y).to_bits(), v.dot(x, y).to_bits());
        prop_assert_eq!(s.nrm2(x).to_bits(), v.nrm2(x).to_bits());
        prop_assert_eq!(
            s.msub_seq(a, x, y).to_bits(),
            v.msub_seq(a, x, y).to_bits()
        );

        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.axpy(a, x, &mut ys);
        v.axpy(a, x, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));

        let mut xs = x.to_vec();
        let mut xv = x.to_vec();
        s.scale(a, &mut xs);
        v.scale(a, &mut xv);
        prop_assert_eq!(bits(&xs), bits(&xv));

        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.xpby(x, b, &mut ys);
        v.xpby(x, b, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));

        let mut ws = vec![0.0; len];
        let mut wv = vec![0.0; len];
        s.waxpby_into(a, x, b, y, &mut ws);
        v.waxpby_into(a, x, b, y, &mut wv);
        prop_assert_eq!(bits(&ws), bits(&wv));
    }

    /// The fused multi-dot used by the pipelined kernels matches both the
    /// scalar backend and k separate dots, bitwise.
    #[test]
    fn dot_pairs_bitwise_identical(
        len in 0usize..90,
        k in 0usize..12,
        xs in prop::collection::vec(any_vec(90), 12),
        ys in prop::collection::vec(any_vec(90), 12),
    ) {
        let pairs: Vec<(&[f64], &[f64])> = (0..k)
            .map(|i| (&xs[i][..len], &ys[i][..len]))
            .collect();
        let mut out_s = vec![0.0; k];
        let mut out_v = vec![0.0; k];
        scalar_ops().dot_pairs(&pairs, &mut out_s);
        simd_ops().dot_pairs(&pairs, &mut out_v);
        prop_assert_eq!(bits(&out_s), bits(&out_v));
        for i in 0..k {
            prop_assert_eq!(out_s[i].to_bits(), scalar_ops().dot(pairs[i].0, pairs[i].1).to_bits());
        }
    }

    /// Non-finite inputs propagate identically through both backends: a NaN
    /// or ±∞ produced by the same operation order has the same bits.
    #[test]
    fn specials_propagate_bitwise(
        len in 0usize..70,
        xf in any_vec(70),
        yf in any_vec(70),
        xtags in prop::collection::vec(0u8..10, 70..=70),
        ytags in prop::collection::vec(0u8..10, 70..=70),
        a in prop::sample::select(vec![0.0f64, f64::INFINITY, -3.5, 2.0]),
    ) {
        let (s, v) = (scalar_ops(), simd_ops());
        let x0 = with_specials(&xf, &xtags);
        let y0 = with_specials(&yf, &ytags);
        let x = &x0[..len];
        let y = &y0[..len];
        prop_assert_eq!(s.dot(x, y).to_bits(), v.dot(x, y).to_bits());
        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.axpy(a, x, &mut ys);
        v.axpy(a, x, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));
    }

    /// The fused pipelined-PCG sweep of either backend is the spec (the
    /// default trait body: eight level-1 calls and one `dot_pairs`) bit for
    /// bit — updated vectors and carried dot partials — at every tail
    /// length, at β = 0 (the first step after a rebuild) and through ±∞
    /// and NaN.
    #[test]
    fn pipelined_pcg_sweep_matches_the_spec(
        short in 0usize..=9,
        long in 0usize..130,
        pick_short in any::<bool>(),
        finite in prop::collection::vec(any_vec(130), 10),
        tags in prop::collection::vec(prop::collection::vec(0u8..44, 130..=130), 10),
        specials in any::<bool>(),
        alpha in -1e3f64..1e3,
        beta_drawn in -1e3f64..1e3,
        beta_zero in any::<bool>(),
    ) {
        let len = if pick_short { short } else { long };
        let beta = if beta_zero { 0.0 } else { beta_drawn };
        let vecs: Vec<Vec<f64>> = finite
            .iter()
            .zip(&tags)
            .map(|(f, t)| {
                let v = if specials { with_specials(f, t) } else { f.clone() };
                v[..len].to_vec()
            })
            .collect();
        let want = sweep_on(&SpecOps(scalar_ops()), alpha, beta, &vecs);
        let fused: [&dyn LocalOps; 3] = [scalar_ops(), simd_ops(), &SpecOps(simd_ops())];
        for ops in fused {
            let got = sweep_on(ops, alpha, beta, &vecs);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(bits_one_nan(g), bits_one_nan(w), "{}", ops.name());
            }
        }
    }

    /// The fused unpreconditioned sweep of either backend is its spec (the
    /// default trait body: six level-1 calls and one `dot_pairs`) bit for
    /// bit at every length 0–67 (every tail length, in and out of the
    /// 4-wide body), at α = 0 and β = 0, and through ±0, subnormals, ±∞
    /// and NaN.
    #[test]
    fn pipelined_cg_sweep_matches_the_spec(
        len in 0usize..=67,
        finite in prop::collection::vec(any_vec(67), 7),
        tags in prop::collection::vec(prop::collection::vec(0u8..30, 67..=67), 7),
        specials in any::<bool>(),
        alpha_drawn in -1e3f64..1e3,
        beta_drawn in -1e3f64..1e3,
        alpha_zero in any::<bool>(),
        beta_zero in any::<bool>(),
    ) {
        let alpha = if alpha_zero { 0.0 } else { alpha_drawn };
        let beta = if beta_zero { 0.0 } else { beta_drawn };
        let vecs: Vec<Vec<f64>> = finite
            .iter()
            .zip(&tags)
            .map(|(f, t)| {
                let v = if specials { with_specials(f, t) } else { f.clone() };
                v[..len].to_vec()
            })
            .collect();
        let want = cg_sweep_on(&SpecOps(scalar_ops()), alpha, beta, &vecs);
        let fused: [&dyn LocalOps; 3] = [scalar_ops(), simd_ops(), &SpecOps(simd_ops())];
        for ops in fused {
            let got = cg_sweep_on(ops, alpha, beta, &vecs);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(bits_one_nan(g), bits_one_nan(w), "{}", ops.name());
            }
        }
    }

    /// SELL-C-σ is a lossless re-layout: `from_csr ∘ to_csr` is the
    /// identity, and its SpMV is bit-identical to CSR's on both backends.
    #[test]
    fn sell_round_trip_and_spmv_parity(
        n in 1usize..24,
        entries in prop::collection::vec((0usize..24, 0usize..24, -10.0f64..10.0), 0..160),
        sigma in prop::sample::select(vec![1usize, 4, 8, 256]),
        x0 in any_vec(24),
    ) {
        let a = ragged_csr(n, &entries);
        let sell = SellMatrix::from_csr(&a, sigma);
        let back = sell.to_csr();
        prop_assert_eq!(back.to_dense(), a.to_dense());
        prop_assert_eq!(back.nnz(), a.nnz());

        let x = &x0[..n];
        let reference = a.spmv(x);
        for ops in [scalar_ops(), simd_ops()] {
            let mut y_sell = vec![0.0; n];
            ops.spmv_sell(&sell, x, &mut y_sell);
            prop_assert_eq!(bits(&y_sell), bits(&reference));
            let mut y_csr = vec![0.0; n];
            ops.spmv_csr(&a, x, &mut y_csr);
            prop_assert_eq!(bits(&y_csr), bits(&reference));
        }
    }

    /// The SIMD SELL kernel takes the steps all four rows of a chunk still
    /// have unmasked and masks only the ragged tail. Chunks of four rows
    /// share a prefix of `prefix` entries and end at different steps; the
    /// longest row of each reads column 0 as its last entry, so `x[0]`
    /// (±∞ or NaN) lands in the tail, where every shorter row's padding
    /// slot also names column 0. The product equals scalar CSR `to_bits`,
    /// and no row that does not read column 0 is poisoned.
    #[test]
    fn sell_unmasked_prefix_keeps_short_rows_clean(
        chunks in 1usize..5,
        prefix in 0usize..6,
        extra in prop::collection::vec(prop::collection::vec(0usize..5, 4..=4), 4..=4),
        sigma in prop::sample::select(vec![1usize, 4]),
        special in prop::sample::select(vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN]),
        vals in any_vec(4 * 4 * 10),
        x0 in any_vec(12),
    ) {
        let ncols = 12;
        let (mut row_ptr, mut cols, mut values) = (vec![0], Vec::new(), Vec::new());
        let mut reads_zero = Vec::new();
        for extra in &extra[..chunks] {
            let longest = (0..4).max_by_key(|&l| (extra[l], l)).unwrap();
            for (lane, &e) in extra.iter().enumerate() {
                let len = prefix + e;
                let zero_last = lane == longest && len > 0;
                for step in 0..len {
                    let j = if zero_last && step + 1 == len { 0 } else { 1 + step % (ncols - 1) };
                    cols.push(j);
                    values.push(vals[values.len() % vals.len()] / 1e5);
                }
                reads_zero.push(zero_last);
                row_ptr.push(cols.len());
            }
        }
        let n = row_ptr.len() - 1;
        let a = CsrMatrix::from_raw(n, ncols, row_ptr, cols, values);
        let sell = SellMatrix::from_csr(&a, sigma);
        let mut x = x0.clone();
        x[0] = special;
        let mut want = vec![0.0; n];
        scalar_ops().spmv_csr(&a, &x, &mut want);
        let mut got = vec![0.0; n];
        simd_ops().spmv_sell(&sell, &x, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
        for (i, (&v, &zero)) in got.iter().zip(&reads_zero).enumerate() {
            prop_assert_eq!(v.is_finite(), !zero, "row {} reads x[0]: {}", i, zero);
        }
    }

    /// The blocked SpMM reads a row-interleaved input (entry `j` of column
    /// `c` at `x[j·k + c]`): every backend's `spmm_csr` and `spmm_sell`,
    /// and the trait's default bodies, give on each column exactly the bits
    /// of `spmv_csr` on that column alone — at every width k = 1..=9 (full
    /// 4-wide quads, a scalar tail, both), on ragged matrices with empty
    /// rows, at σ = 1, 4 and 256, and through NaN, ±∞ and −0.0 inputs.
    /// Only a row where an input NaN meets the NaN of `∞ − ∞` may end in
    /// either NaN (see [`bits_one_nan`]; the k = 1 SELL kernel already
    /// does), so NaNs compare as one pattern.
    #[test]
    fn spmm_interleaved_matches_per_column_spmv(
        n in 1usize..40,
        entries in prop::collection::vec((0usize..40, 0usize..40, -10.0f64..10.0), 0..200),
        sigma in prop::sample::select(vec![1usize, 4, 256]),
        k in 1usize..=9,
        finite in any_vec(40 * 9),
        tags in prop::collection::vec(0u8..24, 40 * 9..=40 * 9),
    ) {
        let a = ragged_csr(n, &entries);
        let sell = SellMatrix::from_csr(&a, sigma);
        let x = with_specials(&finite[..n * k], &tags[..n * k]);
        let want: Vec<Vec<f64>> = (0..k)
            .map(|c| {
                let col: Vec<f64> = x.iter().skip(c).step_by(k).copied().collect();
                let mut y = vec![0.0; n];
                scalar_ops().spmv_csr(&a, &col, &mut y);
                y
            })
            .collect();
        let backends: [&dyn LocalOps; 3] = [scalar_ops(), simd_ops(), &SpecOps(simd_ops())];
        for ops in backends {
            let mut y_csr = vec![0.0; k * n];
            ops.spmm_csr(&a, k, &x, &mut y_csr);
            let mut y_sell = vec![0.0; k * n];
            ops.spmm_sell(&sell, k, &x, &mut y_sell);
            for (c, w) in want.iter().enumerate() {
                let col = c * n..(c + 1) * n;
                let (csr, sell) = (&y_csr[col.clone()], &y_sell[col]);
                prop_assert_eq!(bits_one_nan(csr), bits_one_nan(w), "{} csr k={} c={}", ops.name(), k, c);
                prop_assert_eq!(bits_one_nan(sell), bits_one_nan(w), "{} sell k={} c={}", ops.name(), k, c);
            }
        }
    }

    /// `LuFactors::solve_with` (op-layer triangular solves, either backend)
    /// is bit-identical to the legacy `solve_into` reference.
    #[test]
    fn lu_solve_with_matches_solve_into(
        n in 1usize..12,
        raw in prop::collection::vec(-5.0f64..5.0, 144),
        b0 in any_vec(12),
    ) {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, raw[i * 12 + j]);
            }
            // Diagonal dominance keeps the factorisation well-conditioned.
            m.add_to(i, i, 25.0 * if raw[i * 12 + i] < 0.0 { -1.0 } else { 1.0 });
        }
        let lu = LuFactors::factor(&m);
        let b = &b0[..n];
        let mut x_ref = vec![0.0; n];
        lu.solve_into(b, &mut x_ref);
        for ops in [scalar_ops(), simd_ops()] {
            let mut x = vec![0.0; n];
            lu.solve_with(ops, b, &mut x);
            prop_assert_eq!(bits(&x), bits(&x_ref));
        }
    }

    /// The band-clipped LU reproduces the textbook dense elimination bit
    /// for bit at every bandwidth from diagonal (`kl = ku = 0`) to full
    /// (`n − 1`), from a dense input and straight from CSR, on matrices
    /// with no diagonal dominance (so rows do swap and `U` fills past
    /// `ku`), through a structurally zero pivot column, and on the empty
    /// block.
    #[test]
    fn band_lu_matches_textbook_dense_lu(
        n in 0usize..11,
        kl_pick in 0usize..11,
        ku_pick in 0usize..11,
        zero_col in 0usize..20,
        raw in prop::collection::vec(-5.0f64..5.0, 100),
        b0 in any_vec(10),
    ) {
        let kl = kl_pick.min(n.saturating_sub(1));
        let ku = ku_pick.min(n.saturating_sub(1));
        let mut dense = DenseMatrix::zeros(n, n);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                let v = if j == zero_col { 0.0 } else { raw[i * 10 + j] };
                dense.set(i, j, v);
                coo.push(i, j, v);
            }
        }
        let b = &b0[..n];
        let want = textbook_lu_solve(&dense, b);
        for lu in [LuFactors::factor(&dense), LuFactors::factor_csr(&coo.to_csr())] {
            prop_assert_eq!(lu.dim(), n);
            prop_assert!(lu.flops_per_solve() <= 2 * n * n);
            prop_assert_eq!(bits(&lu.solve(b)), bits(&want));
            for ops in [scalar_ops(), simd_ops()] {
                let mut x = vec![0.0; n];
                lu.solve_with(ops, b, &mut x);
                prop_assert_eq!(bits(&x), bits(&want));
            }
        }
    }

    /// Holes punched inside the band give every row its own reach (one
    /// past its last stored entry), fill grows it, and row swaps carry it
    /// from row to row: the reach-trimmed LU still reproduces the textbook
    /// elimination bit for bit, from a dense input and straight from CSR
    /// (where a hole is no entry at all), on either solve backend — with
    /// diagonal dominance (no row swaps) and without (holes on the
    /// diagonal included, so pivots come from below or are unit). The
    /// factor's row update runs on `auto_ops`, so the forced-scalar CI job
    /// covers the other factor backend.
    #[test]
    fn band_lu_with_holes_matches_textbook_dense_lu(
        n in 1usize..13,
        kl_pick in 0usize..13,
        ku_pick in 0usize..13,
        holes in prop::collection::vec(0u8..3, 144),
        raw in prop::collection::vec(-5.0f64..5.0, 144),
        dominant in any::<bool>(),
        b0 in any_vec(12),
    ) {
        let kl = kl_pick.min(n - 1);
        let ku = ku_pick.min(n - 1);
        let mut dense = DenseMatrix::zeros(n, n);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                let mut v = raw[i * 12 + j];
                if i == j && dominant {
                    v += 25.0 * v.signum();
                } else if holes[i * 12 + j] == 0 {
                    continue;
                }
                dense.set(i, j, v);
                coo.push(i, j, v);
            }
        }
        let b = &b0[..n];
        let want = textbook_lu_solve(&dense, b);
        for lu in [LuFactors::factor(&dense), LuFactors::factor_csr(&coo.to_csr())] {
            prop_assert!(lu.flops_per_solve() <= 2 * n * n);
            prop_assert_eq!(bits(&lu.solve(b)), bits(&want));
            for ops in [scalar_ops(), simd_ops()] {
                let mut x = vec![0.0; n];
                lu.solve_with(ops, b, &mut x);
                prop_assert_eq!(bits(&x), bits(&want));
            }
        }
    }

    /// The band LU's working rows are a window of `kl + 1` slots, reused as
    /// the elimination moves down: with `n` up to 64 and `kl ≤ 4` every
    /// slot is reloaded many times, and without diagonal dominance the
    /// pivot row often sits in a slot *before* row `k`'s once the window
    /// has wrapped. The factors still reproduce the textbook elimination
    /// bit for bit — from a dense input, straight from CSR, and from owned
    /// rows whose columns past the block (another rank's couplings) are
    /// dropped — on either solve backend.
    #[test]
    fn band_lu_window_wraps_and_matches_textbook_dense_lu(
        n in 1usize..65,
        kl_pick in 0usize..5,
        ku_pick in 0usize..7,
        raw in prop::collection::vec(-5.0f64..5.0, 64 * 11),
        ghosts in prop::collection::vec(-5.0f64..5.0, 64),
        b0 in any_vec(64),
    ) {
        let kl = kl_pick.min(n - 1);
        let ku = ku_pick.min(n - 1);
        let mut dense = DenseMatrix::zeros(n, n);
        let mut coo = CooMatrix::new(n, n);
        let mut owned = CooMatrix::new(n, n + 2);
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                let v = raw[i * 11 + j + kl - i];
                dense.set(i, j, v);
                coo.push(i, j, v);
                owned.push(i, j, v);
            }
            owned.push(i, n + i % 2, ghosts[i]);
        }
        let b = &b0[..n];
        let want = textbook_lu_solve(&dense, b);
        for lu in [
            LuFactors::factor(&dense),
            LuFactors::factor_csr(&coo.to_csr()),
            LuFactors::factor_csr_leading(&owned.to_csr(), n),
        ] {
            prop_assert_eq!(lu.dim(), n);
            prop_assert_eq!(bits(&lu.solve(b)), bits(&want));
            for ops in [scalar_ops(), simd_ops()] {
                let mut x = vec![0.0; n];
                lu.solve_with(ops, b, &mut x);
                prop_assert_eq!(bits(&x), bits(&want));
            }
        }
    }
}
