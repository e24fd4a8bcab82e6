//! The device-op layer: node-local kernels behind a pluggable backend.
//!
//! Every piece of node-local arithmetic a Krylov iteration performs — dots
//! (single and fused), axpy-family updates, scaling, local SpMV, the
//! triangular-solve primitives of a block-Jacobi apply — is expressed
//! against the [`LocalOps`] trait. The execution spaces of the core crate
//! hold a `&'static dyn LocalOps` and route all hot-loop arithmetic
//! through it, which gives the codebase one seam where a faster (or
//! offloaded) implementation can be swapped in without touching solver
//! logic — the same boundary cubecl draws between linalg kernels and its
//! CUDA/HIP/wgpu runtimes.
//!
//! Two backends ship today:
//!
//! * [`scalar_ops`] — the original portable kernels of [`crate::vector`],
//!   [`crate::sparse`] and [`crate::sell`]; the bit-compat reference.
//! * [`simd_ops`] — explicit AVX/AVX2 kernels (x86-64 with runtime feature
//!   detection; any other machine silently gets the scalar backend).
//!
//! # The lane width is part of the algorithm, not the backend
//!
//! [`crate::vector::dot`] reduces through **four independent accumulator
//! chains** (`acc[j] += x[4k+j]·y[4k+j]`, combined as
//! `(acc0+acc1)+(acc2+acc3)` plus a sequential tail). That reassociation
//! is the published spec of every global reduction in the suite: rank
//! symmetry, the parity tests, and the rollback/SDC experiments all pin
//! their results to it. A backend is therefore **required** to reproduce
//! it bit-for-bit — which is why the SIMD backend uses exactly one 4-lane
//! `f64` register as its accumulator (lane *j* is chain *j*), performs no
//! FMA contraction (fused rounding differs from mul-then-add), and why an
//! 8-lane AVX-512 variant would be a *different algorithm*, not a faster
//! backend. Order-sensitive primitives ([`LocalOps::msub_seq`], the CSR
//! row accumulation) are specified sequential and must stay sequential in
//! every backend.
//!
//! Backend selection: [`auto_ops`] picks the SIMD backend when the CPU
//! supports it, unless the `RESILIENT_FORCE_SCALAR` environment variable
//! is set to `1`/`true` (the scalar-fallback CI job sets it).

use std::ops::Range;
use std::sync::OnceLock;

use crate::sell::{SellMatrix, SELL_C};
use crate::sparse::CsrMatrix;
use crate::vector;

/// The eight vectors one [`LocalOps::pipelined_pcg_sweep`] updates in
/// place, named as in the preconditioned pipelined-CG recurrence.
pub struct PcgSweep<'a> {
    /// Tracks `A·q` (`z ← aw + βz`).
    pub z: &'a mut [f64],
    /// `q = M⁻¹s` (`q ← mw + βq`).
    pub q: &'a mut [f64],
    /// Tracks `A·p` (`s ← w + βs`).
    pub s: &'a mut [f64],
    /// Search direction (`p ← u + βp`).
    pub p: &'a mut [f64],
    /// Iterate (`x += αp`).
    pub x: &'a mut [f64],
    /// Residual (`r −= αs`).
    pub r: &'a mut [f64],
    /// `u = M⁻¹r` (`u −= αq`).
    pub u: &'a mut [f64],
    /// `w = A·u` (`w −= αz`).
    pub w: &'a mut [f64],
}

impl PcgSweep<'_> {
    /// The common length of the ten vectors of a sweep.
    ///
    /// # Panics
    /// Panics if any of them differs in length.
    fn checked_len(&self, aw: &[f64], mw: &[f64]) -> usize {
        let n = aw.len();
        let lens = [
            mw.len(),
            self.z.len(),
            self.q.len(),
            self.s.len(),
            self.p.len(),
            self.x.len(),
            self.r.len(),
            self.u.len(),
            self.w.len(),
        ];
        assert!(
            lens.iter().all(|&l| l == n),
            "pipelined_pcg_sweep: length mismatch"
        );
        n
    }
}

/// The six vectors one [`LocalOps::pipelined_cg_sweep`] updates in place,
/// named as in the unpreconditioned pipelined-CG recurrence.
pub struct CgSweep<'a> {
    /// Tracks `A·s` (`z ← aw + βz`).
    pub z: &'a mut [f64],
    /// Tracks `A·p` (`s ← w + βs`).
    pub s: &'a mut [f64],
    /// Search direction (`p ← r + βp`).
    pub p: &'a mut [f64],
    /// Iterate (`x += αp`).
    pub x: &'a mut [f64],
    /// Residual (`r −= αs`).
    pub r: &'a mut [f64],
    /// `w = A·r` (`w −= αz`).
    pub w: &'a mut [f64],
}

impl CgSweep<'_> {
    /// The common length of the seven vectors of a sweep.
    ///
    /// # Panics
    /// Panics if any of them differs in length.
    fn checked_len(&self, aw: &[f64]) -> usize {
        let n = aw.len();
        let lens = [
            self.z.len(),
            self.s.len(),
            self.p.len(),
            self.x.len(),
            self.r.len(),
            self.w.len(),
        ];
        assert!(
            lens.iter().all(|&l| l == n),
            "pipelined_cg_sweep: length mismatch"
        );
        n
    }
}

/// Node-local compute backend: the device-op surface the execution spaces
/// call through. All methods are **bit-exact across backends** (see the
/// module docs for the reassociation spec that makes this possible).
///
/// Implementations must be stateless (`Sync`, shared as `&'static`): any
/// device handles or scratch live behind interior mechanisms of the
/// backend, not in the solver.
pub trait LocalOps: Sync {
    /// Backend identifier for reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Dot product `x·y` through the 4-chain reassociation spec.
    fn dot(&self, x: &[f64], y: &[f64]) -> f64;

    /// Fused multi-dot: `out[i] = pairs[i].0 · pairs[i].1`, each pair
    /// reduced through its own 4-chain spec (bit-identical to calling
    /// [`LocalOps::dot`] per pair). Backends may — and the SIMD backend
    /// does — walk all pairs in one pass so shared vectors are read from
    /// memory once: the fused reductions of the pipelined strategies
    /// (`(r,u),(w,u),(r,r)`) and the CGS orthogonalization (`(v_i, w)` for
    /// the whole basis) share operands heavily, which is where large-`n`
    /// bandwidth is actually saved.
    ///
    /// # Panics
    /// Panics if `out.len() != pairs.len()` or any pair's slices differ in
    /// length.
    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]);

    /// Euclidean norm `‖x‖₂ = √(x·x)`.
    fn nrm2(&self, x: &[f64]) -> f64 {
        self.dot(x, x).sqrt()
    }

    /// `y ← y + a·x`.
    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]);

    /// `x ← a·x`.
    fn scale(&self, a: f64, x: &mut [f64]);

    /// `y ← x + b·y` (the CG direction update).
    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]);

    /// `w ← a·x + b·y`, writing into a caller-owned buffer.
    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]);

    /// One whole iteration of preconditioned pipelined-CG level-1 work on
    /// one right-hand side: the eight recurrence updates
    /// `z←aw+βz, q←mw+βq, s←w+βs, p←u+βp, x+=αp, r−=αs, u−=αq, w−=αz`
    /// (in that order, `s` and `p` reading `w` and `u` *before* their own
    /// update), then the three dot partials `[r·u, w·u, r·r]` of the updated
    /// vectors — the local halves of the *next* iteration's reduction.
    ///
    /// The default body is the spec, literally: eight
    /// [`LocalOps::xpby`]/[`LocalOps::axpy`] calls and one
    /// [`LocalOps::dot_pairs`]. Backends may fuse them into a single pass
    /// — each state vector is then read and written once per iteration
    /// instead of being streamed by up to five separate kernels — but must
    /// keep every element's mul-then-add sequence (no FMA), the 4-chain dot
    /// accumulators and the sequential tail, so the fused form is
    /// bit-identical to this one.
    ///
    /// # Panics
    /// Panics if the ten vectors differ in length.
    fn pipelined_pcg_sweep(
        &self,
        alpha: f64,
        beta: f64,
        aw: &[f64],
        mw: &[f64],
        v: PcgSweep<'_>,
    ) -> [f64; 3] {
        v.checked_len(aw, mw);
        let PcgSweep {
            z,
            q,
            s,
            p,
            x,
            r,
            u,
            w,
        } = v;
        self.xpby(aw, beta, z);
        self.xpby(mw, beta, q);
        self.xpby(w, beta, s);
        self.xpby(u, beta, p);
        self.axpy(alpha, p, x);
        self.axpy(-alpha, s, r);
        self.axpy(-alpha, q, u);
        self.axpy(-alpha, z, w);
        let mut dots = [0.0; 3];
        self.dot_pairs(&[(&*r, &*u), (&*w, &*u), (&*r, &*r)], &mut dots);
        dots
    }

    /// One whole iteration of *unpreconditioned* pipelined-CG level-1 work:
    /// the six recurrence updates
    /// `z←aw+βz, s←w+βs, p←r+βp, x+=αp, r−=αs, w−=αz` (in that order, `s`
    /// and `p` reading `w` and `r` *before* their own update), then the two
    /// dot partials `[r·r, w·r]` of the updated vectors — the local halves
    /// of the *next* iteration's reduction.
    ///
    /// [`LocalOps::pipelined_pcg_sweep`] without the `u`/`q` chain, under
    /// the same contract: the default body is the spec, literally — six
    /// [`LocalOps::xpby`]/[`LocalOps::axpy`] calls and one
    /// [`LocalOps::dot_pairs`] — and a backend's single pass (seven reads
    /// and six writes per row instead of twenty) must stay bit-identical
    /// to it.
    ///
    /// # Panics
    /// Panics if the seven vectors differ in length.
    fn pipelined_cg_sweep(&self, alpha: f64, beta: f64, aw: &[f64], v: CgSweep<'_>) -> [f64; 2] {
        v.checked_len(aw);
        let CgSweep { z, s, p, x, r, w } = v;
        self.xpby(aw, beta, z);
        self.xpby(w, beta, s);
        self.xpby(r, beta, p);
        self.axpy(alpha, p, x);
        self.axpy(-alpha, s, r);
        self.axpy(-alpha, z, w);
        let mut dots = [0.0; 2];
        self.dot_pairs(&[(&*r, &*r), (&*w, &*r)], &mut dots);
        dots
    }

    /// Strictly sequential multiply-subtract fold:
    /// `s − u[0]·x[0] − u[1]·x[1] − …`, returning the final value.
    ///
    /// This is the inner recurrence of triangular back-substitution, whose
    /// per-element update order is observable in the last bit — so unlike
    /// the reductions above it is **specified sequential** and no backend
    /// may reassociate it.
    fn msub_seq(&self, s: f64, u: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(u.len(), x.len());
        let mut s = s;
        for (uk, xk) in u.iter().zip(x) {
            s -= uk * xk;
        }
        s
    }

    /// Local CSR SpMV `y = A·x`. Per-row accumulation is sequential in
    /// entry order (part of the spec); CSR's serial data dependences leave
    /// SIMD backends nothing to vectorize without reassociating, which is
    /// exactly what the SELL-C-σ layout exists to fix.
    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]);

    /// Local SELL-C-σ SpMV `y = A·x`, bit-identical to
    /// [`LocalOps::spmv_csr`] on the equivalent matrix: rows keep their
    /// CSR-order sequential accumulation, and padding slots are masked
    /// out of the accumulator rather than added as zeros.
    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]);

    // -- blocked (multi-RHS) kernels ---------------------------------------
    //
    // Multi-vectors are packed column-major: `k` columns of equal length,
    // column `c` occupying `v[c*n..(c+1)*n]`. The one exception is the SpMM
    // *input*, which is row-interleaved: entry `j` of column `c` sits at
    // `x[j*k + c]`, so the `k` inputs one stored entry `a_ij` multiplies are
    // one contiguous row `x[j*k..(j+1)*k]` (at k = 1 the two layouts are the
    // same vector). Every blocked kernel is **specified** as k independent
    // single-RHS runs — column `c` of the output must be bit-identical to
    // calling the single-RHS kernel on column `c` alone — so backends may
    // only amortize *memory traffic* (one matrix sweep, one pass over shared
    // operands), never reassociate across columns. The default
    // implementations below are that spec, literally: they loop the
    // single-RHS methods, so parity holds by construction for any backend
    // that does not override them.

    /// Blocked CSR SpMM: `y[c] = A·x[c]` for each of the `k` columns, the
    /// input row-interleaved (`x[j·k + c]`, `x.len() == k·ncols`) and the
    /// output column-major (`y[c·nrows + i]`, `y.len() == k·nrows`). Per
    /// column the accumulation is the sequential entry-order sum of
    /// [`LocalOps::spmv_csr`]. The default body de-interleaves each column
    /// into a buffer and runs `spmv_csr` on it; backends instead sweep the
    /// matrix once, reading each stored entry's `k` inputs as one row.
    fn spmm_csr(&self, a: &CsrMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        check_spmm(k, a.nrows(), a.ncols(), x, y);
        spmm_per_column(k, x, y, |xc, yc| self.spmv_csr(a, xc, yc));
    }

    /// Blocked SELL-C-σ SpMM over the same layouts, bit-identical to
    /// [`LocalOps::spmm_csr`] on the equivalent matrix (column `c` is
    /// exactly one [`LocalOps::spmv_sell`] run, which the default body
    /// performs on each de-interleaved column).
    fn spmm_sell(&self, a: &SellMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        check_spmm(k, a.nrows(), a.ncols(), x, y);
        spmm_per_column(k, x, y, |xc, yc| self.spmv_sell(a, xc, yc));
    }

    /// Blocked fused multi-dot: for each of the `m = pairs.len()`
    /// multi-vector pairs and each of the `k` columns,
    /// `out[i*k + c] = pairs[i].0[col c] · pairs[i].1[col c]` — k×m dot
    /// partials in one call, each reduced through its own 4-chain spec
    /// (bit-identical to [`LocalOps::dot`] per column). This is the local
    /// half of the block-Krylov batched reduction: one call produces every
    /// recurrence scalar of a k-RHS iteration. Backends may walk the pairs
    /// of one column together so operands shared between pairs (`r` in
    /// `(r,u),(w,u),(r,r)`) are read from memory once.
    ///
    /// # Panics
    /// Panics if `out.len() != k * pairs.len()`, if the multi-vectors do not
    /// all share one length, or if that length is not a multiple of `k`.
    fn dot_blocks(&self, k: usize, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let n = dot_blocks_rows(k, pairs, out);
        if k == 0 {
            return;
        }
        for ((x, y), o) in pairs.iter().zip(out.chunks_exact_mut(k)) {
            for (c, oc) in o.iter_mut().enumerate() {
                *oc = self.dot(&x[c * n..(c + 1) * n], &y[c * n..(c + 1) * n]);
            }
        }
    }

    /// Blocked axpy with per-column coefficients:
    /// `y[c] ← y[c] + alphas[c]·x[c]` for each of the `k = alphas.len()`
    /// columns.
    fn axpy_blocks(&self, alphas: &[f64], x: &[f64], y: &mut [f64]) {
        let k = alphas.len();
        assert_eq!(x.len(), y.len(), "axpy_blocks: length mismatch");
        if k == 0 {
            return;
        }
        assert_eq!(x.len() % k, 0, "axpy_blocks: ragged multi-vector");
        let n = x.len() / k;
        for (c, &a) in alphas.iter().enumerate() {
            self.axpy(a, &x[c * n..(c + 1) * n], &mut y[c * n..(c + 1) * n]);
        }
    }

    /// Blocked xpby with per-column coefficients:
    /// `y[c] ← x[c] + betas[c]·y[c]` (the block-CG direction update).
    fn xpby_blocks(&self, x: &[f64], betas: &[f64], y: &mut [f64]) {
        let k = betas.len();
        assert_eq!(x.len(), y.len(), "xpby_blocks: length mismatch");
        if k == 0 {
            return;
        }
        assert_eq!(x.len() % k, 0, "xpby_blocks: ragged multi-vector");
        let n = x.len() / k;
        for (c, &b) in betas.iter().enumerate() {
            self.xpby(&x[c * n..(c + 1) * n], b, &mut y[c * n..(c + 1) * n]);
        }
    }

    /// Blocked waxpby with per-column coefficients:
    /// `w[c] ← a[c]·x[c] + b[c]·y[c]`, into a caller-owned multi-vector.
    fn waxpby_blocks(&self, a: &[f64], x: &[f64], b: &[f64], y: &[f64], w: &mut [f64]) {
        let k = a.len();
        assert_eq!(b.len(), k, "waxpby_blocks: coefficient length mismatch");
        assert_eq!(x.len(), y.len(), "waxpby_blocks: length mismatch");
        assert_eq!(x.len(), w.len(), "waxpby_blocks: output length mismatch");
        if k == 0 {
            return;
        }
        assert_eq!(x.len() % k, 0, "waxpby_blocks: ragged multi-vector");
        let n = x.len() / k;
        for c in 0..k {
            self.waxpby_into(
                a[c],
                &x[c * n..(c + 1) * n],
                b[c],
                &y[c * n..(c + 1) * n],
                &mut w[c * n..(c + 1) * n],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked one-sweep kernels (sequential spec, shared by both backends)
// ---------------------------------------------------------------------------

/// Validate an SpMM call: a `k`-column input of `ncols` rows and a
/// `k`-column output of `nrows` rows.
fn check_spmm(k: usize, nrows: usize, ncols: usize, x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), k * ncols, "spmm: input dimension mismatch");
    assert_eq!(y.len(), k * nrows, "spmm: output dimension mismatch");
}

/// The blocked-SpMM spec over a single-RHS kernel: column `c` of the
/// row-interleaved `x` is gathered into a buffer and `spmv` writes it into
/// column `c` of the column-major `y`. At `k = 1` `x` is the column.
fn spmm_per_column(k: usize, x: &[f64], y: &mut [f64], mut spmv: impl FnMut(&[f64], &mut [f64])) {
    if k == 1 {
        return spmv(x, y);
    }
    if k == 0 {
        return;
    }
    let nr = y.len() / k;
    let mut col = vec![0.0; x.len() / k];
    for c in 0..k {
        for (v, row) in col.iter_mut().zip(x.chunks_exact(k)) {
            *v = row[c];
        }
        spmv(&col, &mut y[c * nr..(c + 1) * nr]);
    }
}

/// One-sweep blocked CSR SpMM over the output columns `cols` of a
/// row-interleaved input (the [`LocalOps::spmm_csr`] layouts): each matrix
/// row is read once and feeds all of them. Per column the accumulation is
/// the sequential entry-order sum of the single-RHS spec — column `c` is
/// bit-identical to `spmv_into` on column `c` alone.
fn spmm_csr_sweep(a: &CsrMatrix, k: usize, cols: Range<usize>, x: &[f64], y: &mut [f64]) {
    let nr = a.nrows();
    for i in 0..nr {
        let (idx, vals) = a.row(i);
        for c in cols.clone() {
            let mut sum = 0.0;
            for (&j, &v) in idx.iter().zip(vals) {
                sum += v * x[j * k + c];
            }
            y[c * nr + i] = sum;
        }
    }
}

/// One-sweep blocked SELL-C-σ SpMM over the output columns `cols`, in the
/// layouts of [`spmm_csr_sweep`]: each chunk's packed values and column
/// indices are read once per chunk and feed all of them; per column and
/// lane the accumulation is exactly the scalar single-RHS SELL kernel.
fn spmm_sell_sweep(a: &SellMatrix, k: usize, cols: Range<usize>, x: &[f64], y: &mut [f64]) {
    let chunk_ptr = a.chunk_ptr();
    let idx = a.cols();
    let vals = a.vals();
    let perm = a.perm();
    let lens = a.lens();
    let nr = a.nrows();
    for (ch, &base) in chunk_ptr[..chunk_ptr.len() - 1].iter().enumerate() {
        for lane in 0..SELL_C {
            let p = ch * SELL_C + lane;
            if p >= nr {
                break;
            }
            for c in cols.clone() {
                let mut sum = 0.0;
                for step in 0..lens[p] as usize {
                    let slot = base + step * SELL_C + lane;
                    sum += vals[slot] * x[idx[slot] as usize * k + c];
                }
                y[c * nr + perm[p] as usize] = sum;
            }
        }
    }
}

/// Validate a [`LocalOps::dot_blocks`] call and return the per-column
/// length `n` (0 when `k == 0`).
fn dot_blocks_rows(k: usize, pairs: &[(&[f64], &[f64])], out: &[f64]) -> usize {
    assert_eq!(
        out.len(),
        k * pairs.len(),
        "dot_blocks: output length mismatch"
    );
    let len = pairs.first().map_or(0, |(x, _)| x.len());
    assert!(
        pairs.iter().all(|(x, y)| x.len() == len && y.len() == len),
        "dot_blocks: length mismatch"
    );
    if k == 0 {
        return 0;
    }
    assert_eq!(len % k, 0, "dot_blocks: ragged multi-vector");
    len / k
}

/// `(acc0+acc1)+(acc2+acc3)+tail` of the 4-chain dot spec, with the tail
/// summed exactly as [`vector::dot`] sums it.
fn combine_dot(acc: [f64; 4], xt: &[f64], yt: &[f64]) -> f64 {
    let tail: f64 = xt.iter().zip(yt).map(|(a, b)| a * b).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The end of a single-pass [`LocalOps::pipelined_pcg_sweep`], shared by
/// both backends: the sequential tail `split..` of the eight updates, then
/// the three dots from the 4-chain accumulators `acc` (`[r·u, w·u, r·r]`
/// over `..split`) and that tail.
fn pcg_sweep_finish(
    alpha: f64,
    beta: f64,
    aw: &[f64],
    mw: &[f64],
    v: PcgSweep<'_>,
    split: usize,
    acc: [[f64; 4]; 3],
) -> [f64; 3] {
    let PcgSweep {
        z,
        q,
        s,
        p,
        x,
        r,
        u,
        w,
    } = v;
    let neg_alpha = -alpha;
    for i in split..aw.len() {
        z[i] = aw[i] + beta * z[i];
        q[i] = mw[i] + beta * q[i];
        s[i] = w[i] + beta * s[i];
        p[i] = u[i] + beta * p[i];
        x[i] += alpha * p[i];
        r[i] += neg_alpha * s[i];
        u[i] += neg_alpha * q[i];
        w[i] += neg_alpha * z[i];
    }
    [
        combine_dot(acc[0], &r[split..], &u[split..]),
        combine_dot(acc[1], &w[split..], &u[split..]),
        combine_dot(acc[2], &r[split..], &r[split..]),
    ]
}

/// A fixed-width block of a sweep operand (one per step of the dot chains),
/// so the lane loops of the scalar sweeps compile without bounds checks.
fn lanes(v: &mut [f64], i: usize) -> &mut [f64; 4] {
    (&mut v[i..i + 4]).try_into().expect("4-wide block")
}

/// Single-pass scalar form of [`LocalOps::pipelined_pcg_sweep`]: element
/// `i` of all ten vectors is visited once, the eight updates applied in the
/// spec's order, and the updated `r`, `u`, `w` feed the three 4-chain dot
/// accumulators on the spot.
fn pcg_sweep_scalar(alpha: f64, beta: f64, aw: &[f64], mw: &[f64], v: PcgSweep<'_>) -> [f64; 3] {
    let n = v.checked_len(aw, mw);
    let neg_alpha = -alpha;
    let split = n - n % 4;
    let mut acc = [[0.0f64; 4]; 3];
    for i in (0..split).step_by(4) {
        let (zc, qc, sc, pc) = (lanes(v.z, i), lanes(v.q, i), lanes(v.s, i), lanes(v.p, i));
        let (xc, rc, uc, wc) = (lanes(v.x, i), lanes(v.r, i), lanes(v.u, i), lanes(v.w, i));
        for l in 0..4 {
            zc[l] = aw[i + l] + beta * zc[l];
            qc[l] = mw[i + l] + beta * qc[l];
            sc[l] = wc[l] + beta * sc[l];
            pc[l] = uc[l] + beta * pc[l];
            xc[l] += alpha * pc[l];
            rc[l] += neg_alpha * sc[l];
            uc[l] += neg_alpha * qc[l];
            wc[l] += neg_alpha * zc[l];
            acc[0][l] += rc[l] * uc[l];
            acc[1][l] += wc[l] * uc[l];
            acc[2][l] += rc[l] * rc[l];
        }
    }
    pcg_sweep_finish(alpha, beta, aw, mw, v, split, acc)
}

/// The end of a single-pass [`LocalOps::pipelined_cg_sweep`], shared by
/// both backends: the sequential tail `split..` of the six updates, then
/// the two dots from the 4-chain accumulators `acc` (`[r·r, w·r]` over
/// `..split`) and that tail.
fn cg_sweep_finish(
    alpha: f64,
    beta: f64,
    aw: &[f64],
    v: CgSweep<'_>,
    split: usize,
    acc: [[f64; 4]; 2],
) -> [f64; 2] {
    let CgSweep { z, s, p, x, r, w } = v;
    let neg_alpha = -alpha;
    for i in split..aw.len() {
        z[i] = aw[i] + beta * z[i];
        s[i] = w[i] + beta * s[i];
        p[i] = r[i] + beta * p[i];
        x[i] += alpha * p[i];
        r[i] += neg_alpha * s[i];
        w[i] += neg_alpha * z[i];
    }
    [
        combine_dot(acc[0], &r[split..], &r[split..]),
        combine_dot(acc[1], &w[split..], &r[split..]),
    ]
}

/// Single-pass scalar form of [`LocalOps::pipelined_cg_sweep`], built like
/// [`pcg_sweep_scalar`]: element `i` of all seven vectors is visited once
/// and the updated `r`, `w` feed the two 4-chain dot accumulators on the
/// spot.
fn cg_sweep_scalar(alpha: f64, beta: f64, aw: &[f64], v: CgSweep<'_>) -> [f64; 2] {
    let n = v.checked_len(aw);
    let neg_alpha = -alpha;
    let split = n - n % 4;
    let mut acc = [[0.0f64; 4]; 2];
    for i in (0..split).step_by(4) {
        let (zc, sc, pc) = (lanes(v.z, i), lanes(v.s, i), lanes(v.p, i));
        let (xc, rc, wc) = (lanes(v.x, i), lanes(v.r, i), lanes(v.w, i));
        for l in 0..4 {
            zc[l] = aw[i + l] + beta * zc[l];
            sc[l] = wc[l] + beta * sc[l];
            pc[l] = rc[l] + beta * pc[l];
            xc[l] += alpha * pc[l];
            rc[l] += neg_alpha * sc[l];
            wc[l] += neg_alpha * zc[l];
            acc[0][l] += rc[l] * rc[l];
            acc[1][l] += wc[l] * rc[l];
        }
    }
    cg_sweep_finish(alpha, beta, aw, v, split, acc)
}

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

/// The portable reference backend: delegates to the original kernels in
/// [`crate::vector`] / [`crate::sparse`] / [`crate::sell`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScalarOps;

impl LocalOps for ScalarOps {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        vector::dot(x, y)
    }

    fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        assert_eq!(pairs.len(), out.len(), "dot_pairs: output length mismatch");
        for (o, (x, y)) in out.iter_mut().zip(pairs) {
            *o = vector::dot(x, y);
        }
    }

    fn nrm2(&self, x: &[f64]) -> f64 {
        vector::nrm2(x)
    }

    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        vector::axpy(a, x, y);
    }

    fn scale(&self, a: f64, x: &mut [f64]) {
        vector::scale(a, x);
    }

    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        vector::xpby(x, b, y);
    }

    fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        vector::waxpby_into(a, x, b, y, w);
    }

    fn pipelined_pcg_sweep(
        &self,
        alpha: f64,
        beta: f64,
        aw: &[f64],
        mw: &[f64],
        v: PcgSweep<'_>,
    ) -> [f64; 3] {
        pcg_sweep_scalar(alpha, beta, aw, mw, v)
    }

    fn pipelined_cg_sweep(&self, alpha: f64, beta: f64, aw: &[f64], v: CgSweep<'_>) -> [f64; 2] {
        cg_sweep_scalar(alpha, beta, aw, v)
    }

    fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        a.spmv_into(x, y);
    }

    fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        a.spmv_into(x, y);
    }

    fn spmm_csr(&self, a: &CsrMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        check_spmm(k, a.nrows(), a.ncols(), x, y);
        if k == 1 {
            // A one-column SpMM is an SpMV by the blocked-kernel spec; the
            // single-RHS kernel has no column loop to pay for.
            return self.spmv_csr(a, x, y);
        }
        spmm_csr_sweep(a, k, 0..k, x, y);
    }

    fn spmm_sell(&self, a: &SellMatrix, k: usize, x: &[f64], y: &mut [f64]) {
        check_spmm(k, a.nrows(), a.ncols(), x, y);
        if k == 1 {
            return self.spmv_sell(a, x, y);
        }
        spmm_sell_sweep(a, k, 0..k, x, y);
    }
}

// ---------------------------------------------------------------------------
// SIMD backend (x86-64 AVX/AVX2)
// ---------------------------------------------------------------------------

// Miri has no AVX support; under it the suite runs the scalar backend only.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    //! Explicit AVX/AVX2 kernels. Every kernel mirrors the scalar spec
    //! lane for lane: one 4-lane accumulator register *is* the 4 chains of
    //! `vector::dot`, element-wise ops are trivially lane-exact, and no
    //! kernel uses FMA (contracted rounding would break bit parity).

    use std::arch::x86_64::*;

    use super::{
        cg_sweep_finish, check_spmm, dot_blocks_rows, pcg_sweep_finish, spmm_csr_sweep,
        spmm_sell_sweep, CgSweep, LocalOps, PcgSweep, ScalarOps,
    };
    use crate::sell::{SellMatrix, SELL_C};
    use crate::sparse::CsrMatrix;

    /// How far ahead (in elements) the streaming kernels prefetch. 64
    /// elements = 512 B = 8 cache lines: far enough to cover DRAM latency
    /// at one 32-B step per cycle, near enough not to thrash L1.
    const PF: usize = 64;

    /// The AVX/AVX2 backend. Constructed only behind a runtime
    /// `is_x86_feature_detected!` check (see [`super::simd_ops`]), which is
    /// what makes the `unsafe` target-feature calls inside sound.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct SimdOps;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx") && is_x86_feature_detected!("avx2")
    }

    // SAFETY: contract — AVX must be available (the `LocalOps` impl below
    // is only reachable through `simd_ops`' runtime detection) and `x`/`y`
    // must have equal length.
    #[target_feature(enable = "avx")]
    unsafe fn dot_avx(x: &[f64], y: &[f64]) -> f64 {
        // SAFETY: `split <= n`, so every 4-wide load at `i < split` is in
        // bounds of both slices; the prefetch pointers are formed with
        // `wrapping_add` and never dereferenced.
        unsafe {
            let n = x.len();
            let split = n - n % 4;
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let mut acc = _mm256_setzero_pd();
            let mut i = 0;
            while i < split {
                // Prefetch may point past the end: that is fine for the
                // hardware (prefetch never faults) and the pointers are formed
                // with `wrapping_add`, which has no in-bounds requirement.
                _mm_prefetch::<_MM_HINT_T0>(xp.wrapping_add(i + PF) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(yp.wrapping_add(i + PF) as *const i8);
                let prod = _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
                acc = _mm256_add_pd(acc, prod);
                i += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
            let tail: f64 = x[split..].iter().zip(&y[split..]).map(|(a, b)| a * b).sum();
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
        }
    }

    /// Fused multi-dot over up to `GROUP` pairs per memory pass: one
    /// accumulator register per pair, all pairs advanced together so a
    /// vector shared between pairs is loaded once per 4 elements instead
    /// of once per pair.
    const GROUP: usize = 8;

    /// One group of at most [`GROUP`] pairs, all sharing one slice length:
    /// the fixed-width inner kernel both [`dot_pairs_avx`] and the blocked
    /// `dot_blocks` drive. Arithmetic per pair is exactly [`dot_avx`]'s
    /// 4-chain accumulator, so grouping changes memory traffic only.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`), `group` is non-empty with at most `GROUP` entries, and
    // every slice in it shares one common length.
    #[target_feature(enable = "avx")]
    unsafe fn dot_group_avx(group: &[(&[f64], &[f64])], outs: &mut [f64]) {
        // SAFETY: all slices have length `n` (caller-checked), so the
        // 4-wide loads at `i < split <= n` are in bounds for every pair.
        unsafe {
            let n = group[0].0.len();
            let split = n - n % 4;
            let mut acc = [_mm256_setzero_pd(); GROUP];
            let mut i = 0;
            while i < split {
                for (t, (x, y)) in group.iter().enumerate() {
                    let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                    let yv = _mm256_loadu_pd(y.as_ptr().add(i));
                    acc[t] = _mm256_add_pd(acc[t], _mm256_mul_pd(xv, yv));
                }
                i += 4;
            }
            for (t, o) in outs.iter_mut().enumerate().take(group.len()) {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc[t]);
                let (x, y) = group[t];
                let tail: f64 = x[split..].iter().zip(&y[split..]).map(|(a, b)| a * b).sum();
                *o = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
            }
        }
    }

    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and every pair's slices must share one common length.
    #[target_feature(enable = "avx")]
    unsafe fn dot_pairs_avx(pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        // Grouping math hoisted out of the walk: the count of full
        // GROUP-wide groups is computed once per call, full groups run the
        // inner kernel at its fixed width, and the remainder is handled
        // once at the end — no per-group chunk-length re-derivation.
        // SAFETY: sub-slices are bounded by `pairs.len() == out.len()`
        // (caller-checked); the inner kernel's preconditions are inherited.
        unsafe {
            let full = pairs.len() / GROUP;
            for g in 0..full {
                let lo = g * GROUP;
                dot_group_avx(&pairs[lo..lo + GROUP], &mut out[lo..lo + GROUP]);
            }
            let rem = full * GROUP;
            if rem < pairs.len() {
                dot_group_avx(&pairs[rem..], &mut out[rem..]);
            }
        }
    }

    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and `x`/`y` must have equal length.
    #[target_feature(enable = "avx")]
    unsafe fn axpy_avx(a: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: loads/stores at `i < split <= n` are in bounds of both
        // equal-length slices; the scalar tail uses checked indexing.
        unsafe {
            let n = x.len();
            let split = n - n % 4;
            let av = _mm256_set1_pd(a);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i < split {
                let sum = _mm256_add_pd(
                    _mm256_loadu_pd(yp.add(i)),
                    _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
                );
                _mm256_storeu_pd(yp.add(i), sum);
                i += 4;
            }
            for k in split..n {
                y[k] += a * x[k];
            }
        }
    }

    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`); works on a single slice, so no length precondition.
    #[target_feature(enable = "avx")]
    unsafe fn scale_avx(a: f64, x: &mut [f64]) {
        // SAFETY: loads/stores at `i < split <= n` are in bounds of `x`.
        unsafe {
            let n = x.len();
            let split = n - n % 4;
            let av = _mm256_set1_pd(a);
            let xp = x.as_mut_ptr();
            let mut i = 0;
            while i < split {
                _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), av));
                i += 4;
            }
            for xk in &mut x[split..n] {
                *xk *= a;
            }
        }
    }

    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and `x`/`y` must have equal length.
    #[target_feature(enable = "avx")]
    unsafe fn xpby_avx(x: &[f64], b: f64, y: &mut [f64]) {
        // SAFETY: loads/stores at `i < split <= n` are in bounds of both
        // equal-length slices.
        unsafe {
            let n = x.len();
            let split = n - n % 4;
            let bv = _mm256_set1_pd(b);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i < split {
                let sum = _mm256_add_pd(
                    _mm256_loadu_pd(xp.add(i)),
                    _mm256_mul_pd(bv, _mm256_loadu_pd(yp.add(i))),
                );
                _mm256_storeu_pd(yp.add(i), sum);
                i += 4;
            }
            for k in split..n {
                y[k] = x[k] + b * y[k];
            }
        }
    }

    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and `x`/`y`/`w` must all have equal length.
    #[target_feature(enable = "avx")]
    unsafe fn waxpby_avx(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
        // SAFETY: loads/stores at `i < split <= n` are in bounds of all
        // three equal-length slices.
        unsafe {
            let n = x.len();
            let split = n - n % 4;
            let av = _mm256_set1_pd(a);
            let bv = _mm256_set1_pd(b);
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let wp = w.as_mut_ptr();
            let mut i = 0;
            while i < split {
                let sum = _mm256_add_pd(
                    _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
                    _mm256_mul_pd(bv, _mm256_loadu_pd(yp.add(i))),
                );
                _mm256_storeu_pd(wp.add(i), sum);
                i += 4;
            }
            for k in split..n {
                w[k] = a * x[k] + b * y[k];
            }
        }
    }

    /// Single-pass [`LocalOps::pipelined_pcg_sweep`]: per 4 elements, ten
    /// loads, the eight updates as separate `mul` then `add` (the spec's
    /// rounding), eight stores, and the updated `r`, `u`, `w` registers fed
    /// straight into the three 4-lane dot accumulators. All loads of a step
    /// precede its stores: the ten streams usually share one page offset
    /// (same column of ten equally shaped multivectors), and a load issued
    /// behind a store to the same offset stalls on the false 4 KiB alias.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and all ten vectors must have length `n`.
    #[target_feature(enable = "avx")]
    unsafe fn pcg_sweep_avx(
        n: usize,
        alpha: f64,
        beta: f64,
        aw: &[f64],
        mw: &[f64],
        v: PcgSweep<'_>,
    ) -> [f64; 3] {
        let split = n - n % 4;
        let mut acc = [[0.0f64; 4]; 3];
        // SAFETY: every slice has length `n` (caller-checked), so the 4-wide
        // loads and stores at `i < split <= n` are in bounds; the eight
        // mutable slices are distinct borrows, so no store aliases a load
        // of another vector.
        unsafe {
            let (bv, av, nav) = (
                _mm256_set1_pd(beta),
                _mm256_set1_pd(alpha),
                _mm256_set1_pd(-alpha),
            );
            let (awp, mwp) = (aw.as_ptr(), mw.as_ptr());
            let (zp, qp, sp, pp) = (
                v.z.as_mut_ptr(),
                v.q.as_mut_ptr(),
                v.s.as_mut_ptr(),
                v.p.as_mut_ptr(),
            );
            let (xp, rp, up, wp) = (
                v.x.as_mut_ptr(),
                v.r.as_mut_ptr(),
                v.u.as_mut_ptr(),
                v.w.as_mut_ptr(),
            );
            let mut acc_ru = _mm256_setzero_pd();
            let mut acc_wu = _mm256_setzero_pd();
            let mut acc_rr = _mm256_setzero_pd();
            let mut i = 0;
            while i < split {
                let awv = _mm256_loadu_pd(awp.add(i));
                let mwv = _mm256_loadu_pd(mwp.add(i));
                let zv = _mm256_loadu_pd(zp.add(i));
                let qv = _mm256_loadu_pd(qp.add(i));
                let sv = _mm256_loadu_pd(sp.add(i));
                let pv = _mm256_loadu_pd(pp.add(i));
                let xv = _mm256_loadu_pd(xp.add(i));
                let rv = _mm256_loadu_pd(rp.add(i));
                let uv = _mm256_loadu_pd(up.add(i));
                let wv = _mm256_loadu_pd(wp.add(i));
                let zv = _mm256_add_pd(awv, _mm256_mul_pd(bv, zv));
                let qv = _mm256_add_pd(mwv, _mm256_mul_pd(bv, qv));
                let sv = _mm256_add_pd(wv, _mm256_mul_pd(bv, sv));
                let pv = _mm256_add_pd(uv, _mm256_mul_pd(bv, pv));
                let xv = _mm256_add_pd(xv, _mm256_mul_pd(av, pv));
                let rv = _mm256_add_pd(rv, _mm256_mul_pd(nav, sv));
                let uv = _mm256_add_pd(uv, _mm256_mul_pd(nav, qv));
                let wv = _mm256_add_pd(wv, _mm256_mul_pd(nav, zv));
                _mm256_storeu_pd(zp.add(i), zv);
                _mm256_storeu_pd(qp.add(i), qv);
                _mm256_storeu_pd(sp.add(i), sv);
                _mm256_storeu_pd(pp.add(i), pv);
                _mm256_storeu_pd(xp.add(i), xv);
                _mm256_storeu_pd(rp.add(i), rv);
                _mm256_storeu_pd(up.add(i), uv);
                _mm256_storeu_pd(wp.add(i), wv);
                acc_ru = _mm256_add_pd(acc_ru, _mm256_mul_pd(rv, uv));
                acc_wu = _mm256_add_pd(acc_wu, _mm256_mul_pd(wv, uv));
                acc_rr = _mm256_add_pd(acc_rr, _mm256_mul_pd(rv, rv));
                i += 4;
            }
            _mm256_storeu_pd(acc[0].as_mut_ptr(), acc_ru);
            _mm256_storeu_pd(acc[1].as_mut_ptr(), acc_wu);
            _mm256_storeu_pd(acc[2].as_mut_ptr(), acc_rr);
        }
        pcg_sweep_finish(alpha, beta, aw, mw, v, split, acc)
    }

    /// Single-pass [`LocalOps::pipelined_cg_sweep`], built like
    /// [`pcg_sweep_avx`]: per 4 elements seven loads, the six updates as
    /// separate `mul` then `add`, six stores — all loads of a step before
    /// its stores — and the updated `r`, `w` registers fed straight into the
    /// two 4-lane dot accumulators.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`) and all seven vectors must have length `n`.
    #[target_feature(enable = "avx")]
    unsafe fn cg_sweep_avx(
        n: usize,
        alpha: f64,
        beta: f64,
        aw: &[f64],
        v: CgSweep<'_>,
    ) -> [f64; 2] {
        let split = n - n % 4;
        let mut acc = [[0.0f64; 4]; 2];
        // SAFETY: every slice has length `n` (caller-checked), so the 4-wide
        // loads and stores at `i < split <= n` are in bounds; the six
        // mutable slices are distinct borrows, so no store aliases a load
        // of another vector.
        unsafe {
            let (bv, av, nav) = (
                _mm256_set1_pd(beta),
                _mm256_set1_pd(alpha),
                _mm256_set1_pd(-alpha),
            );
            let awp = aw.as_ptr();
            let (zp, sp, pp) = (v.z.as_mut_ptr(), v.s.as_mut_ptr(), v.p.as_mut_ptr());
            let (xp, rp, wp) = (v.x.as_mut_ptr(), v.r.as_mut_ptr(), v.w.as_mut_ptr());
            let mut acc_rr = _mm256_setzero_pd();
            let mut acc_wr = _mm256_setzero_pd();
            let mut i = 0;
            while i < split {
                let awv = _mm256_loadu_pd(awp.add(i));
                let zv = _mm256_loadu_pd(zp.add(i));
                let sv = _mm256_loadu_pd(sp.add(i));
                let pv = _mm256_loadu_pd(pp.add(i));
                let xv = _mm256_loadu_pd(xp.add(i));
                let rv = _mm256_loadu_pd(rp.add(i));
                let wv = _mm256_loadu_pd(wp.add(i));
                let zv = _mm256_add_pd(awv, _mm256_mul_pd(bv, zv));
                let sv = _mm256_add_pd(wv, _mm256_mul_pd(bv, sv));
                let pv = _mm256_add_pd(rv, _mm256_mul_pd(bv, pv));
                let xv = _mm256_add_pd(xv, _mm256_mul_pd(av, pv));
                let rv = _mm256_add_pd(rv, _mm256_mul_pd(nav, sv));
                let wv = _mm256_add_pd(wv, _mm256_mul_pd(nav, zv));
                _mm256_storeu_pd(zp.add(i), zv);
                _mm256_storeu_pd(sp.add(i), sv);
                _mm256_storeu_pd(pp.add(i), pv);
                _mm256_storeu_pd(xp.add(i), xv);
                _mm256_storeu_pd(rp.add(i), rv);
                _mm256_storeu_pd(wp.add(i), wv);
                acc_rr = _mm256_add_pd(acc_rr, _mm256_mul_pd(rv, rv));
                acc_wr = _mm256_add_pd(acc_wr, _mm256_mul_pd(wv, rv));
                i += 4;
            }
            _mm256_storeu_pd(acc[0].as_mut_ptr(), acc_rr);
            _mm256_storeu_pd(acc[1].as_mut_ptr(), acc_wr);
        }
        cg_sweep_finish(alpha, beta, aw, v, split, acc)
    }

    /// SELL-C-4 SpMV: per chunk, one gather + one contiguous value load
    /// per step feeds a 4-lane accumulator; lanes whose row has ended are
    /// kept out of the accumulator with a blend — computing the padding
    /// (0.0 · gathered `x[0]`) would already NaN-poison short rows
    /// whenever `x[0]` is non-finite — so each lane performs exactly the
    /// scalar kernel's sequential sum.
    // SAFETY: contract — AVX2 must be available (runtime-detected by
    // `simd_ops`); `x.len() == a.ncols()` and `y.len() == a.nrows()`.
    #[target_feature(enable = "avx2")]
    unsafe fn spmv_sell_avx2(a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        // SAFETY: `chunk_ptr` brackets the padded `cols`/`vals` arrays, so
        // every `slot` access is in bounds; the masked gather only reads
        // `x[idx]` for active lanes whose column indices were validated
        // `< ncols` at construction.
        unsafe {
            let chunk_ptr = a.chunk_ptr();
            let cols = a.cols();
            let vals = a.vals();
            let perm = a.perm();
            let lens = a.lens();
            let nrows = a.nrows();
            for k in 0..chunk_ptr.len() - 1 {
                let base = chunk_ptr[k];
                let width = (chunk_ptr[k + 1] - base) / SELL_C;
                let p0 = k * SELL_C;
                let len4 = _mm256_set_epi64x(
                    lens[p0 + 3] as i64,
                    lens[p0 + 2] as i64,
                    lens[p0 + 1] as i64,
                    lens[p0] as i64,
                );
                let mut acc = _mm256_setzero_pd();
                for step in 0..width {
                    let slot = base + step * SELL_C;
                    let active = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
                        len4,
                        _mm256_set1_epi64x(step as i64),
                    ));
                    let idx = _mm_loadu_si128(cols.as_ptr().add(slot) as *const __m128i);
                    // Masked gather: inactive lanes never touch memory, so the
                    // padding column 0 is never even read.
                    let xg =
                        _mm256_mask_i32gather_pd::<8>(_mm256_setzero_pd(), x.as_ptr(), idx, active);
                    let prod = _mm256_mul_pd(_mm256_loadu_pd(vals.as_ptr().add(slot)), xg);
                    acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, prod), active);
                }
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                for (lane, &sum) in lanes.iter().enumerate() {
                    let p = p0 + lane;
                    if p < nrows {
                        y[perm[p] as usize] = sum;
                    }
                }
            }
        }
    }

    /// A column index as the k-wide SpMM row routine reads it: `usize` in
    /// CSR, the gather-ready `i32` in SELL (validated `0 ≤ j < ncols` at
    /// construction, so the cast is exact).
    trait ColIndex: Copy {
        fn index(self) -> usize;
    }

    impl ColIndex for usize {
        fn index(self) -> usize {
            self
        }
    }

    impl ColIndex for i32 {
        fn index(self) -> usize {
            self as usize
        }
    }

    /// The operands of one interleaved SpMM (the [`LocalOps::spmm_csr`]
    /// layouts): input rows of `k` entries, output columns of `nrows`.
    struct SpmmBlock<'a> {
        k: usize,
        nrows: usize,
        x: &'a [f64],
        y: &'a mut [f64],
    }

    /// The most 4-wide column quads one pass of the k-wide SpMM carries in
    /// registers; wider blocks take several passes over the matrix.
    const QUADS: usize = 2;

    /// The k-wide row routine both SpMM layouts share: output row `out` of
    /// the columns `c0..c0 + 4·Q`, from a stored row of `len` entries at
    /// `vals[e·stride]` / `cols[e·stride]`. Per entry it broadcasts `a_ij`,
    /// does `Q` contiguous 4-wide loads of the interleaved input row `x_j`
    /// and a mul-then-add (no FMA) into `Q` accumulators, so lane by lane
    /// each column is the sequential entry-order sum of the single-RHS
    /// spec.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`); `b.x.len() == b.k · ncols` and `b.y.len() == b.k ·
    // b.nrows`; every `cols[e·stride]` (`e < len`) is `< ncols`, and
    // `vals`/`cols` hold at least `(len − 1)·stride + 1` entries;
    // `c0 + 4·Q ≤ b.k` and `out < b.nrows`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn spmm_row_avx<const Q: usize, I: ColIndex>(
        b: &mut SpmmBlock<'_>,
        c0: usize,
        (vals, cols, stride, len): (&[f64], &[I], usize, usize),
        out: usize,
    ) {
        // Unchecked on purpose: bounds checks on these per-entry accesses
        // cost about a quarter of a k = 8 block application
        // (`exp_kernel_speed`'s `spmm8_vs_8spmv` row).
        // SAFETY: slot `e·stride` is in bounds of `vals`/`cols` for
        // `e < len` (the row's extent in its CSR row or SELL chunk); input
        // row `j < ncols` (checked when the matrix was built) spans
        // `x[j·k..(j + 1)·k]` of the `k·ncols` entries `check_spmm`
        // verified, so the loads at `j·k + c0 + 4q` (`q < Q`,
        // `c0 + 4Q ≤ k`) stay inside it; output slot
        // `(c0 + 4q + l)·nrows + out` is below `k·nrows`, `y`'s checked
        // length.
        unsafe {
            let mut acc = [_mm256_setzero_pd(); Q];
            let xp = b.x.as_ptr().add(c0);
            for e in 0..len {
                let s = e * stride;
                let av = _mm256_set1_pd(*vals.get_unchecked(s));
                let xr = xp.add(cols.get_unchecked(s).index() * b.k);
                for (q, acc_q) in acc.iter_mut().enumerate() {
                    let prod = _mm256_mul_pd(av, _mm256_loadu_pd(xr.add(4 * q)));
                    *acc_q = _mm256_add_pd(*acc_q, prod);
                }
            }
            for (q, acc_q) in acc.iter().enumerate() {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), *acc_q);
                for (l, v) in lanes.into_iter().enumerate() {
                    *b.y.get_unchecked_mut((c0 + 4 * q + l) * b.nrows + out) = v;
                }
            }
        }
    }

    /// One pass of the k-wide CSR SpMM over the columns `c0..c0 + 4·Q`:
    /// rows in order, each row's entries contiguous.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`); `b` holds `a`'s operands and `c0 + 4·Q ≤ b.k`.
    #[target_feature(enable = "avx")]
    unsafe fn spmm_csr_avx<const Q: usize>(a: &CsrMatrix, b: &mut SpmmBlock<'_>, c0: usize) {
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            // SAFETY: a CSR row's column indices are `< ncols` (checked at
            // construction) and its two slices both hold `len` entries.
            unsafe { spmm_row_avx::<Q, usize>(b, c0, (vals, cols, 1, cols.len()), i) }
        }
    }

    /// One pass of the k-wide SELL-C-σ SpMM over the columns
    /// `c0..c0 + 4·Q`: chunk by chunk, lane by lane, each row's entries
    /// `SELL_C` slots apart, its output at the row's original position.
    // SAFETY: contract — AVX must be available (runtime-detected by
    // `simd_ops`); `b` holds `a`'s operands and `c0 + 4·Q ≤ b.k`.
    #[target_feature(enable = "avx")]
    unsafe fn spmm_sell_avx<const Q: usize>(a: &SellMatrix, b: &mut SpmmBlock<'_>, c0: usize) {
        let chunk_ptr = a.chunk_ptr();
        let (cols, vals, perm, lens) = (a.cols(), a.vals(), a.perm(), a.lens());
        for (ch, &base) in chunk_ptr[..chunk_ptr.len() - 1].iter().enumerate() {
            for lane in 0..SELL_C {
                let p = ch * SELL_C + lane;
                if p >= a.nrows() {
                    break;
                }
                // A chunk of empty rows stores no slots at all.
                let from = (base + lane).min(vals.len());
                let row = (&vals[from..], &cols[from..], SELL_C, lens[p] as usize);
                // SAFETY: the chunk holds `lens[p]` real slots of this lane,
                // `SELL_C` apart, inside `chunk_ptr[ch]..chunk_ptr[ch + 1]`;
                // their column indices were validated `< ncols`; `perm[p]`
                // is a row index `< nrows`.
                unsafe { spmm_row_avx::<Q, i32>(b, c0, row, perm[p] as usize) }
            }
        }
    }

    /// Run `pass(c0, q)` over the full 4-wide column quads of a `k`-column
    /// SpMM, at most [`QUADS`] per pass, and return where the `k mod 4`
    /// columns of the scalar tail start.
    fn quad_passes(k: usize, mut pass: impl FnMut(usize, usize)) -> usize {
        let end = k - k % 4;
        let mut c0 = 0;
        while c0 < end {
            let q = QUADS.min((end - c0) / 4);
            pass(c0, q);
            c0 += 4 * q;
        }
        end
    }

    impl LocalOps for SimdOps {
        fn name(&self) -> &'static str {
            "simd"
        }

        fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
            assert_eq!(x.len(), y.len(), "dot: length mismatch");
            // SAFETY: `simd_ops` hands this type out only when AVX+AVX2
            // were detected at runtime; pointer accesses stay in bounds of
            // the equal-length slices.
            unsafe { dot_avx(x, y) }
        }

        fn dot_pairs(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            assert_eq!(pairs.len(), out.len(), "dot_pairs: output length mismatch");
            if pairs.is_empty() {
                return;
            }
            let n = pairs[0].0.len();
            assert!(
                pairs.iter().all(|(x, y)| x.len() == n && y.len() == n),
                "dot_pairs: length mismatch"
            );
            // SAFETY: feature-gated as above; all slices verified equal
            // length just above.
            unsafe { dot_pairs_avx(pairs, out) }
        }

        fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
            assert_eq!(x.len(), y.len(), "axpy: length mismatch");
            // SAFETY: feature-gated; equal lengths checked.
            unsafe { axpy_avx(a, x, y) }
        }

        fn scale(&self, a: f64, x: &mut [f64]) {
            // SAFETY: feature-gated; single-slice bounds.
            unsafe { scale_avx(a, x) }
        }

        fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
            assert_eq!(x.len(), y.len(), "xpby: length mismatch");
            // SAFETY: feature-gated; equal lengths checked.
            unsafe { xpby_avx(x, b, y) }
        }

        fn waxpby_into(&self, a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
            assert_eq!(x.len(), y.len(), "waxpby: length mismatch");
            assert_eq!(x.len(), w.len(), "waxpby: output length mismatch");
            // SAFETY: feature-gated; equal lengths checked.
            unsafe { waxpby_avx(a, x, b, y, w) }
        }

        fn pipelined_pcg_sweep(
            &self,
            alpha: f64,
            beta: f64,
            aw: &[f64],
            mw: &[f64],
            v: PcgSweep<'_>,
        ) -> [f64; 3] {
            let n = v.checked_len(aw, mw);
            // SAFETY: feature-gated; all ten lengths checked equal to `n`.
            unsafe { pcg_sweep_avx(n, alpha, beta, aw, mw, v) }
        }

        fn pipelined_cg_sweep(
            &self,
            alpha: f64,
            beta: f64,
            aw: &[f64],
            v: CgSweep<'_>,
        ) -> [f64; 2] {
            let n = v.checked_len(aw);
            // SAFETY: feature-gated; all seven lengths checked equal to `n`.
            unsafe { cg_sweep_avx(n, alpha, beta, aw, v) }
        }

        fn spmv_csr(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
            // Sequential by spec — same code as the scalar backend.
            ScalarOps.spmv_csr(a, x, y);
        }

        fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
            assert_eq!(x.len(), a.ncols(), "spmv: dimension mismatch");
            assert_eq!(y.len(), a.nrows(), "spmv: output dimension mismatch");
            // SAFETY: feature-gated; slot accesses are bounded by the
            // layout invariants (`chunk_ptr` brackets the padded arrays,
            // column indices were validated < ncols at construction).
            unsafe { spmv_sell_avx2(a, x, y) }
        }

        fn spmm_csr(&self, a: &CsrMatrix, k: usize, x: &[f64], y: &mut [f64]) {
            check_spmm(k, a.nrows(), a.ncols(), x, y);
            if k == 1 {
                // A one-column SpMM is an SpMV by the blocked-kernel spec.
                return self.spmv_csr(a, x, y);
            }
            let nrows = a.nrows();
            let mut b = SpmmBlock { k, nrows, x, y };
            let tail = quad_passes(k, |c0, q| {
                // SAFETY: feature-gated; dimensions checked above and
                // `c0 + 4q ≤ k` by `quad_passes`.
                unsafe {
                    match q {
                        1 => spmm_csr_avx::<1>(a, &mut b, c0),
                        _ => spmm_csr_avx::<QUADS>(a, &mut b, c0),
                    }
                }
            });
            spmm_csr_sweep(a, k, tail..k, x, y);
        }

        fn spmm_sell(&self, a: &SellMatrix, k: usize, x: &[f64], y: &mut [f64]) {
            check_spmm(k, a.nrows(), a.ncols(), x, y);
            if k == 1 {
                // A one-column SpMM is an SpMV by the blocked-kernel spec;
                // the single-RHS kernel gathers its one input column.
                return self.spmv_sell(a, x, y);
            }
            let nrows = a.nrows();
            let mut b = SpmmBlock { k, nrows, x, y };
            let tail = quad_passes(k, |c0, q| {
                // SAFETY: feature-gated; dimensions checked above and
                // `c0 + 4q ≤ k` by `quad_passes`.
                unsafe {
                    match q {
                        1 => spmm_sell_avx::<1>(a, &mut b, c0),
                        _ => spmm_sell_avx::<QUADS>(a, &mut b, c0),
                    }
                }
            });
            spmm_sell_sweep(a, k, tail..k, x, y);
        }

        fn dot_blocks(&self, k: usize, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            let n = dot_blocks_rows(k, pairs, out);
            // Column by column, the pairs of one column through the same
            // fixed-width group kernel `dot_pairs` uses: an operand shared
            // between pairs is loaded once, and the streams of one pass
            // come from different multi-vectors — k columns of *one*
            // multi-vector sit a whole column apart, which for power-of-two
            // column lengths lands every stream in the same cache sets.
            let mut buf: [(&[f64], &[f64]); GROUP] = [(&[][..], &[][..]); GROUP];
            let mut dots = [0.0; GROUP];
            for c in 0..k {
                let cols = c * n..(c + 1) * n;
                for (g, group) in pairs.chunks(GROUP).enumerate() {
                    for (slot, (x, y)) in buf.iter_mut().zip(group) {
                        *slot = (&x[cols.clone()], &y[cols.clone()]);
                    }
                    // SAFETY: feature-gated; every slice in
                    // `buf[..group.len()]` has length `n` by construction
                    // and `group.len() <= GROUP`.
                    unsafe { dot_group_avx(&buf[..group.len()], &mut dots) }
                    for (t, d) in dots.iter().enumerate().take(group.len()) {
                        out[(g * GROUP + t) * k + c] = *d;
                    }
                }
            }
        }

        fn axpy_blocks(&self, alphas: &[f64], x: &[f64], y: &mut [f64]) {
            let k = alphas.len();
            assert_eq!(x.len(), y.len(), "axpy_blocks: length mismatch");
            if k == 0 {
                return;
            }
            assert_eq!(x.len() % k, 0, "axpy_blocks: ragged multi-vector");
            let n = x.len() / k;
            for (c, &a) in alphas.iter().enumerate() {
                // SAFETY: feature-gated; the column sub-slices have equal
                // length `n` by construction.
                unsafe { axpy_avx(a, &x[c * n..(c + 1) * n], &mut y[c * n..(c + 1) * n]) }
            }
        }

        fn xpby_blocks(&self, x: &[f64], betas: &[f64], y: &mut [f64]) {
            let k = betas.len();
            assert_eq!(x.len(), y.len(), "xpby_blocks: length mismatch");
            if k == 0 {
                return;
            }
            assert_eq!(x.len() % k, 0, "xpby_blocks: ragged multi-vector");
            let n = x.len() / k;
            for (c, &b) in betas.iter().enumerate() {
                // SAFETY: feature-gated; equal-length column sub-slices.
                unsafe { xpby_avx(&x[c * n..(c + 1) * n], b, &mut y[c * n..(c + 1) * n]) }
            }
        }

        fn waxpby_blocks(&self, a: &[f64], x: &[f64], b: &[f64], y: &[f64], w: &mut [f64]) {
            let k = a.len();
            assert_eq!(b.len(), k, "waxpby_blocks: coefficient length mismatch");
            assert_eq!(x.len(), y.len(), "waxpby_blocks: length mismatch");
            assert_eq!(x.len(), w.len(), "waxpby_blocks: output length mismatch");
            if k == 0 {
                return;
            }
            assert_eq!(x.len() % k, 0, "waxpby_blocks: ragged multi-vector");
            let n = x.len() / k;
            for c in 0..k {
                let lo = c * n;
                // SAFETY: feature-gated; equal-length column sub-slices.
                unsafe {
                    waxpby_avx(
                        a[c],
                        &x[lo..lo + n],
                        b[c],
                        &y[lo..lo + n],
                        &mut w[lo..lo + n],
                    )
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// The portable scalar backend (always available; the bit-compat
/// reference).
pub fn scalar_ops() -> &'static dyn LocalOps {
    &ScalarOps
}

/// The SIMD backend if this machine supports it (x86-64 with AVX and
/// AVX2), otherwise the scalar backend — callers never need to care.
pub fn simd_ops() -> &'static dyn LocalOps {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if x86::available() {
            return &x86::SimdOps;
        }
    }
    scalar_ops()
}

/// The default backend: [`simd_ops`] unless the `RESILIENT_FORCE_SCALAR`
/// environment variable is set to `1`/`true` (checked once per process).
pub fn auto_ops() -> &'static dyn LocalOps {
    static CHOICE: OnceLock<&'static dyn LocalOps> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        let forced = std::env::var("RESILIENT_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if forced {
            scalar_ops()
        } else {
            simd_ops()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let f = |i: usize, s: u64| ((i as f64 + s as f64 * 0.13) * 0.71).sin() * 3.0;
        (
            (0..n).map(|i| f(i, seed)).collect(),
            (0..n).map(|i| f(i, seed + 7)).collect(),
        )
    }

    #[test]
    fn backends_agree_bitwise_on_level1() {
        let simd = simd_ops();
        let scalar = scalar_ops();
        for n in [0usize, 1, 3, 4, 5, 16, 37, 1023] {
            let (x, y) = vecs(n, n as u64);
            assert_eq!(
                scalar.dot(&x, &y).to_bits(),
                simd.dot(&x, &y).to_bits(),
                "dot n={n}"
            );
            assert_eq!(scalar.nrm2(&x).to_bits(), simd.nrm2(&x).to_bits());

            let (mut ys, mut yv) = (y.clone(), y.clone());
            scalar.axpy(1.7, &x, &mut ys);
            simd.axpy(1.7, &x, &mut yv);
            assert_eq!(ys, yv, "axpy n={n}");

            let (mut ys, mut yv) = (y.clone(), y.clone());
            scalar.xpby(&x, -0.3, &mut ys);
            simd.xpby(&x, -0.3, &mut yv);
            assert_eq!(ys, yv, "xpby n={n}");

            let (mut ws, mut wv) = (vec![0.0; n], vec![0.0; n]);
            scalar.waxpby_into(2.5, &x, -1.0, &y, &mut ws);
            simd.waxpby_into(2.5, &x, -1.0, &y, &mut wv);
            assert_eq!(ws, wv, "waxpby n={n}");

            let (mut xs, mut xv) = (x.clone(), x.clone());
            scalar.scale(-0.125, &mut xs);
            simd.scale(-0.125, &mut xv);
            assert_eq!(xs, xv, "scale n={n}");
        }
    }

    #[test]
    fn dot_pairs_matches_separate_dots_across_backends() {
        for backend in [scalar_ops(), simd_ops()] {
            for k in [0usize, 1, 2, 3, 7, 8, 9, 19] {
                let n = 101;
                let data: Vec<(Vec<f64>, Vec<f64>)> = (0..k).map(|t| vecs(n, t as u64)).collect();
                let pairs: Vec<(&[f64], &[f64])> = data
                    .iter()
                    .map(|(x, y)| (x.as_slice(), y.as_slice()))
                    .collect();
                let mut out = vec![0.0; k];
                backend.dot_pairs(&pairs, &mut out);
                for (t, (x, y)) in data.iter().enumerate() {
                    assert_eq!(
                        out[t].to_bits(),
                        vector::dot(x, y).to_bits(),
                        "{} k={k} t={t}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sell_spmv_matches_csr_on_both_backends() {
        let a = crate::generators::poisson2d(13, 11);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
        let want = a.spmv(&x);
        let s = SellMatrix::from_csr(&a, 32);
        for backend in [scalar_ops(), simd_ops()] {
            let mut y = vec![0.0; n];
            backend.spmv_sell(&s, &x, &mut y);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}",
                backend.name()
            );
            let mut yc = vec![0.0; n];
            backend.spmv_csr(&a, &x, &mut yc);
            assert_eq!(yc, want);
        }
    }

    /// Build a packed column-major multi-vector: k columns of length n,
    /// column c at `v[c*n..(c+1)*n]`, seeded per column.
    fn multivec(n: usize, k: usize, seed: u64) -> Vec<f64> {
        (0..k).flat_map(|c| vecs(n, seed + c as u64).0).collect()
    }

    /// The row-interleaved SpMM input holding the columns of the
    /// column-major `x`: entry `j` of column `c` at `j*k + c`.
    fn interleaved(x: &[f64], n: usize, k: usize) -> Vec<f64> {
        (0..n * k).map(|t| x[(t % k) * n + t / k]).collect()
    }

    #[test]
    fn spmm_columns_match_independent_spmv_runs() {
        let a = crate::generators::poisson2d(9, 7);
        let n = a.nrows();
        let s = SellMatrix::from_csr(&a, 32);
        for backend in [scalar_ops(), simd_ops()] {
            for k in [0usize, 1, 2, 3, 4, 5, 8, 9] {
                let x = multivec(n, k, 11);
                let xi = interleaved(&x, n, k);
                let mut yc = vec![0.0; k * n];
                let mut ys = vec![0.0; k * n];
                backend.spmm_csr(&a, k, &xi, &mut yc);
                backend.spmm_sell(&s, k, &xi, &mut ys);
                for c in 0..k {
                    let mut want = vec![0.0; n];
                    backend.spmv_csr(&a, &x[c * n..(c + 1) * n], &mut want);
                    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&yc[c * n..(c + 1) * n]),
                        bits(&want),
                        "{} spmm_csr k={k} c={c}",
                        backend.name()
                    );
                    let mut want_sell = vec![0.0; n];
                    backend.spmv_sell(&s, &x[c * n..(c + 1) * n], &mut want_sell);
                    assert_eq!(
                        bits(&ys[c * n..(c + 1) * n]),
                        bits(&want_sell),
                        "{} spmm_sell k={k} c={c}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn spmm_agrees_bitwise_across_backends() {
        let a = crate::generators::poisson2d(11, 5);
        let n = a.nrows();
        let s = SellMatrix::from_csr(&a, 16);
        for k in [1usize, 2, 4, 7, 8] {
            let x = multivec(n, k, 5);
            let (mut ys, mut yv) = (vec![0.0; k * n], vec![0.0; k * n]);
            scalar_ops().spmm_csr(&a, k, &x, &mut ys);
            simd_ops().spmm_csr(&a, k, &x, &mut yv);
            assert_eq!(ys, yv, "spmm_csr k={k}");
            let (mut ys, mut yv) = (vec![0.0; k * n], vec![0.0; k * n]);
            scalar_ops().spmm_sell(&s, k, &x, &mut ys);
            simd_ops().spmm_sell(&s, k, &x, &mut yv);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ys), bits(&yv), "spmm_sell k={k}");
        }
    }

    #[test]
    fn dot_blocks_matches_per_column_dots() {
        for backend in [scalar_ops(), simd_ops()] {
            for k in [0usize, 1, 2, 3, 4, 5, 8, 9] {
                for m in [0usize, 1, 2, 3] {
                    let n = 37;
                    let data: Vec<(Vec<f64>, Vec<f64>)> = (0..m)
                        .map(|t| (multivec(n, k, t as u64), multivec(n, k, 40 + t as u64)))
                        .collect();
                    let pairs: Vec<(&[f64], &[f64])> = data
                        .iter()
                        .map(|(x, y)| (x.as_slice(), y.as_slice()))
                        .collect();
                    let mut out = vec![0.0; k * m];
                    backend.dot_blocks(k, &pairs, &mut out);
                    for (t, (x, y)) in data.iter().enumerate() {
                        for c in 0..k {
                            let want = vector::dot(&x[c * n..(c + 1) * n], &y[c * n..(c + 1) * n]);
                            assert_eq!(
                                out[t * k + c].to_bits(),
                                want.to_bits(),
                                "{} k={k} m={m} t={t} c={c}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_updates_match_per_column_single_rhs() {
        for backend in [scalar_ops(), simd_ops()] {
            for k in [0usize, 1, 2, 3, 5, 8] {
                let n = 29;
                let x = multivec(n, k, 7);
                let y = multivec(n, k, 19);
                let alphas: Vec<f64> = (0..k).map(|c| 0.3 * c as f64 - 1.1).collect();
                let betas: Vec<f64> = (0..k).map(|c| -0.7 + 0.2 * c as f64).collect();

                let mut got = y.clone();
                backend.axpy_blocks(&alphas, &x, &mut got);
                let mut want = y.clone();
                for c in 0..k {
                    backend.axpy(
                        alphas[c],
                        &x[c * n..(c + 1) * n],
                        &mut want[c * n..(c + 1) * n],
                    );
                }
                assert_eq!(got, want, "{} axpy_blocks k={k}", backend.name());

                let mut got = y.clone();
                backend.xpby_blocks(&x, &betas, &mut got);
                let mut want = y.clone();
                for c in 0..k {
                    backend.xpby(
                        &x[c * n..(c + 1) * n],
                        betas[c],
                        &mut want[c * n..(c + 1) * n],
                    );
                }
                assert_eq!(got, want, "{} xpby_blocks k={k}", backend.name());

                let mut got = vec![0.0; k * n];
                backend.waxpby_blocks(&alphas, &x, &betas, &y, &mut got);
                let mut want = vec![0.0; k * n];
                for c in 0..k {
                    backend.waxpby_into(
                        alphas[c],
                        &x[c * n..(c + 1) * n],
                        betas[c],
                        &y[c * n..(c + 1) * n],
                        &mut want[c * n..(c + 1) * n],
                    );
                }
                assert_eq!(got, want, "{} waxpby_blocks k={k}", backend.name());
            }
        }
    }

    #[test]
    fn msub_seq_matches_open_coded_fold() {
        let (u, x) = vecs(17, 3);
        let mut want = 2.5f64;
        for (uk, xk) in u.iter().zip(&x) {
            want -= uk * xk;
        }
        for backend in [scalar_ops(), simd_ops()] {
            assert_eq!(backend.msub_seq(2.5, &u, &x).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn auto_ops_is_stable_and_named() {
        let a = auto_ops();
        let b = auto_ops();
        assert!(std::ptr::eq(a, b));
        assert!(a.name() == "simd" || a.name() == "scalar");
    }

    #[test]
    fn special_values_propagate_identically() {
        // ±0, infinities and NaN flow through both backends the same way
        // (same ops in the same order ⇒ same IEEE results).
        let x = vec![1.0, -0.0, f64::INFINITY, 2.0, -3.0, 0.0, 5.0];
        let y = vec![0.0, -0.0, 2.0, f64::NEG_INFINITY, 1.0, -0.0, 0.5];
        let scalar = scalar_ops();
        let simd = simd_ops();
        assert_eq!(scalar.dot(&x, &y).to_bits(), simd.dot(&x, &y).to_bits());
        let xn = vec![f64::NAN, 1.0, 2.0, 3.0, 4.0];
        let yn = vec![1.0; 5];
        let (a, b) = (scalar.dot(&xn, &yn), simd.dot(&xn, &yn));
        assert!(a.is_nan() && b.is_nan());
    }
}
