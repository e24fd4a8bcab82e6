//! The preconditioner axis of the unified kernel.
//!
//! Heroux's resilience argument is framed around *preconditioned* Krylov
//! methods — the bulk-unreliable work in FT-GMRES is the preconditioner
//! apply, and the preconditioner is the primary knob trading local work
//! against global synchronization. This module promotes preconditioning
//! from a serial-only special case to a fourth kernel axis alongside
//! space × strategy × policy:
//!
//! * [`SpacePreconditioner`] — a preconditioner applied *through* a
//!   [`KrylovSpace`], so its arithmetic is charged to the same cost
//!   accounting (the clock and the rank's FLOP count) as every other kernel
//!   operation.
//! * [`IdentityPrecond`] — the no-op instance; presets built with it are
//!   bit-identical to their unpreconditioned counterparts (pinned by
//!   `crates/core/tests/preconditioning.rs`). It is the one preconditioner
//!   whose [`SpacePreconditioner::is_identity`] is `true`: its apply is a
//!   bitwise copy that charges nothing, so the CG kernel
//!   ([`run_block_cg`](super::run_block_cg)) stores no `M⁻¹` images under
//!   it, reads `r`/`w`/`s` where it would read `u`/`mw`/`q`, reduces no
//!   duplicate slot and runs the six-vector sweep per column — it is the
//!   unpreconditioned solve, bits and charges alike. A preconditioner that
//!   copies but does not say so (a tracing wrapper) takes the general
//!   eight-vector route to the same bits at the general route's charges.
//! * [`BlockJacobi`] — the distributed workhorse: each rank factors its
//!   own diagonal block of the [`DistCsr`] once, straight from its owned
//!   rows (partial-pivot LU clipped to the block's band and trimmed to each
//!   row's reach — charged `≈ 2·n·kl·(kl+ku)` FLOPs, dense being the
//!   degenerate `kl = ku = n−1`; working in a window of `kl + 1` rows of
//!   `2kl+ku+1` values, not the whole band) and back-substitutes per apply
//!   (charged `≈ 2·n·(2kl+ku)`). Both setup and apply are purely local —
//!   block-Jacobi adds **zero** collectives per iteration, which is exactly
//!   why it is the preconditioner of choice for the latency-sensitive RBSP
//!   solvers.
//! * [`RightPrecond`] — exposes any `SpacePreconditioner` through the
//!   GMRES kernel's flexible right-preconditioning slot
//!   ([`FlexibleRight`]), which is how `CgsOrtho`/`PipelinedOrtho` presets
//!   are right-preconditioned.
//!
//! # Example
//!
//! Any `SpacePreconditioner` drops into any CG schedule — here block-Jacobi
//! drives the unified kernel directly on a 1-rank space, where the one
//! diagonal block is the whole matrix and PCG converges in one step:
//!
//! ```
//! use resilience::distributed::{DistCsr, DistVector};
//! use resilience::kernel::{
//!     solve, BlockJacobi, DistSpace, PolicyStack, SolveOptions, SolveSpec, StopReason,
//! };
//! use resilient_linalg::poisson2d;
//! use resilient_runtime::{Comm, RuntimeConfig};
//!
//! let mut comm = Comm::solo(&RuntimeConfig::fast());
//! let a = DistCsr::from_global(&mut comm, &poisson2d(8, 8)).unwrap();
//! let b = DistVector::from_fn(&comm, 64, |_| 1.0);
//! let mut m = BlockJacobi::new(&a);
//! let mut space = DistSpace::new(&mut comm, &a);
//! let (out, _report) = solve(
//!     &mut space,
//!     &b,
//!     None,
//!     &SolveOptions::default().with_tol(1e-8).with_max_iters(200),
//!     SolveSpec::FUSED_CG,
//!     Some(&mut m),
//!     &mut PolicyStack::empty(),
//! )
//! .unwrap();
//! assert_eq!(out.reason, StopReason::Converged);
//! assert_eq!(out.iterations, 1);
//! ```
//!
//! On more ranks the blocks decouple and the same code takes more steps —
//! see `rbsp::solve_dist` with this spec and `crates/core/tests/preconditioning.rs`.

use std::sync::Arc;

use resilient_linalg::LuFactors;
use resilient_runtime::{Result, RuntimeError};

use super::gmres::FlexibleRight;
use super::space::{DistSpace, KrylovSpace};
use crate::distributed::{DistCsr, DistVector};

/// A preconditioner `z ≈ M⁻¹·r` applied through an execution space.
///
/// The contract mirrors the space's own operations: `apply_into` performs
/// the arithmetic **and charges its FLOPs through the space** (so cost
/// accounting and check-flop attribution keep working no matter which
/// strategy calls it), writes into a caller-owned vector that lives across
/// iterations (no per-apply allocation on the hot path), and must be
/// deterministic and rank-symmetric in distributed spaces — every rank
/// applies its local part of the same global linear operator. Nonlinear or
/// unreliable "preconditioners" (FT-GMRES inner solves) stay on the
/// [`FlexibleRight`] interface with its skeptical validity checks; this
/// trait is for fixed linear operators, which is what lets the pipelined
/// strategies recover preconditioned bases by linearity.
pub trait SpacePreconditioner<S: KrylovSpace> {
    /// Short identifier for reports and experiment tables.
    fn name(&self) -> &'static str {
        "preconditioner"
    }

    /// `z ← M⁻¹·r`, charging the apply's FLOPs through the space. `z` is
    /// shaped like `r` (the strategies pass a buffer created with
    /// `space.zeros_like` and reuse it every iteration).
    fn apply_into(&mut self, space: &mut S, r: &S::Vector, z: &mut S::Vector) -> Result<()>;

    /// [`apply_into`](SpacePreconditioner::apply_into) on bare locally
    /// owned entries — what lets a block kernel apply `M⁻¹` column slice to
    /// column slice of its multi-vectors, with the same charge and the same
    /// result bits. Returns `Ok(false)`, having touched and charged nothing,
    /// when the preconditioner only works on whole space vectors (the
    /// default); the caller then stages the slices through
    /// `apply_into`.
    fn apply_local_into(&mut self, _space: &mut S, _r: &[f64], _z: &mut [f64]) -> Result<bool> {
        Ok(false)
    }

    /// FLOPs of one apply (0 for the identity; what `apply_into` charges).
    fn flops_per_apply(&self) -> usize {
        0
    }

    /// Is this the identity? `true` promises that `apply_into` (and
    /// `apply_local_into`) is a bitwise copy that charges nothing, so a
    /// caller may read `r` wherever it would read `M⁻¹r` and skip storing
    /// the images — see the module docs of `kernel/precond.rs`. A property of the
    /// preconditioner, not an option: only [`IdentityPrecond`] says yes,
    /// and a wrapper that does not forward it simply takes the general
    /// path, with the same bits.
    fn is_identity(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// The identity preconditioner over any space: `z ← r`, zero FLOPs. The
/// preconditioned presets degrade to their unpreconditioned counterparts
/// bit-for-bit under it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl<S: KrylovSpace> SpacePreconditioner<S> for IdentityPrecond {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn apply_into(&mut self, _space: &mut S, r: &S::Vector, z: &mut S::Vector) -> Result<()> {
        z.clone_from(r);
        Ok(())
    }

    fn apply_local_into(&mut self, _space: &mut S, r: &[f64], z: &mut [f64]) -> Result<bool> {
        z.copy_from_slice(r);
        Ok(true)
    }

    fn is_identity(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Distributed block-Jacobi
// ---------------------------------------------------------------------------

/// Block-Jacobi over a [`DistCsr`]: `M = diag(A₀₀, A₁₁, …)` where `Aᵢᵢ` is
/// rank *i*'s diagonal block. Each rank LU-factors its own block once at
/// construction, straight from its owned rows with the ghost columns
/// dropped (purely local, no copy of the block), and back-substitutes per
/// apply — **no collectives and no neighbor exchange**,
/// so preconditioning adds zero synchronization per iteration while the
/// strong couplings inside each block (and, on one rank, the whole matrix)
/// are solved exactly.
///
/// The factorization is clipped to the block's band `(kl, ku)`
/// ([`LuFactors`]; a block without band structure is the degenerate
/// `kl = ku = n_local − 1`). Each apply charges the band model's
/// multiply–adds (`≈ 2·n_local·(2kl+ku)` FLOPs,
/// [`LuFactors::flops_per_solve`]) through the space, and the one-time
/// factorization cost (`≈ 2·n_local·kl·(kl+ku)` FLOPs,
/// [`LuFactors::factor_flops`]) is charged through the space at the
/// *first* apply — so a solve's virtual time honestly includes setup, while
/// re-solves with the same instance (multiple right-hand sides, time
/// stepping) amortize it: the trade the paper's §II-B describes, local work
/// bought for global synchronization.
///
/// The executed work follows each row's reach instead: when no row swaps
/// (a diagonally dominant block) the factor runs `≈ 2·n_local·kl·ku`
/// FLOPs and each apply a `ku`-long back-substitution chain per row, not
/// the `kl + ku` the pivot fill might need. The charges stay the band
/// model, so virtual time does not depend on whether a pivot happened to
/// swap; re-deriving them from the executed work is a calibration
/// question, not this type's.
///
/// Memory: the factorization works in a window of `kl + 1` rows of
/// `2kl+ku+1` values (113 KB for `lflr_kill`'s 2312-row blocks, where the
/// whole band was 3.8 MB), freed when it returns; the instance keeps only
/// `L` and `U` to each row's reach.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    /// Shared with the [`SetupCache`](crate::kernel::SetupCache) entry it
    /// came from or went into.
    lu: Arc<LuFactors>,
    /// Factorization FLOPs still to be charged (consumed at first apply).
    setup_flops: usize,
}

impl BlockJacobi {
    /// Factor this rank's diagonal block of `a`. Local call — but every
    /// rank of a solve must construct its own instance from the same
    /// distributed matrix, or the preconditioner is not a well-defined
    /// global operator.
    pub fn new(a: &DistCsr) -> Self {
        let lu = a.factor_diagonal_block();
        Self {
            setup_flops: lu.factor_flops(),
            lu: Arc::new(lu),
        }
    }

    /// Rebuild from already-computed factors (a [`SetupCache`] hit): no
    /// factorization runs and **no setup FLOPs are charged** — the cached
    /// factors were paid for by the solve that produced them.
    ///
    /// [`SetupCache`]: crate::kernel::SetupCache
    pub fn from_factors(lu: Arc<LuFactors>) -> Self {
        Self { lu, setup_flops: 0 }
    }

    /// The local LU factors (what a [`SetupCache`](crate::kernel::SetupCache)
    /// memoizes).
    pub fn factors(&self) -> &Arc<LuFactors> {
        &self.lu
    }

    /// Rows of the factored local block.
    pub fn local_rows(&self) -> usize {
        self.lu.dim()
    }

    /// One-time factorization FLOPs (charged at the first apply, 0 after).
    pub fn pending_setup_flops(&self) -> usize {
        self.setup_flops
    }
}

impl<'a, 'b, C: resilient_runtime::CommBackend> SpacePreconditioner<DistSpace<'a, 'b, C>>
    for BlockJacobi
{
    fn name(&self) -> &'static str {
        "block-jacobi"
    }

    fn apply_into(
        &mut self,
        space: &mut DistSpace<'a, 'b, C>,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<()> {
        self.apply_local_into(space, &r.local, &mut z.local)
            .map(|_| ())
    }

    fn apply_local_into(
        &mut self,
        space: &mut DistSpace<'a, 'b, C>,
        r: &[f64],
        z: &mut [f64],
    ) -> Result<bool> {
        // `solve_with` accepts longer vectors, so a preconditioner factored
        // for a different distribution (wrong matrix, rebuilt communicator)
        // would otherwise silently solve a prefix and leave the tail.
        for (what, len) in [("input", r.len()), ("output", z.len())] {
            if len != self.lu.dim() {
                return Err(RuntimeError::InvalidArgument(format!(
                    "block-Jacobi factored for {} local rows applied to an {what} vector of {len}",
                    self.lu.dim()
                )));
            }
        }
        // Through the space's device-op backend (bit-identical to
        // `solve_into`; pinned by the linalg parity proptests), so the
        // whole preconditioned hot path runs on one backend choice.
        self.lu.solve_with(space.ops(), r, z);
        space.charge_flops(self.lu.flops_per_solve() + std::mem::take(&mut self.setup_flops));
        // Campaign strike point: the freshly computed output is the
        // upset surface for precond-apply fault families (a no-op counter
        // when no plan is installed).
        space.strike_precond_output(z);
        Ok(true)
    }

    fn flops_per_apply(&self) -> usize {
        self.lu.flops_per_solve()
    }
}

// ---------------------------------------------------------------------------
// Flexible-right adapter (GMRES)
// ---------------------------------------------------------------------------

/// Exposes a [`SpacePreconditioner`] through the GMRES kernel's flexible
/// right-preconditioning slot: `run_gmres` then computes the Krylov space
/// of `A·M⁻¹` and corrects the solution through the preconditioned basis.
/// Unlike a true flexible inner solve the operator is fixed and linear,
/// which is what entitles `PipelinedOrtho` to extend the preconditioned
/// basis by linearity instead of re-applying `M⁻¹`.
pub struct RightPrecond<'m, S: KrylovSpace>(pub &'m mut dyn SpacePreconditioner<S>);

impl<'m, S: KrylovSpace> FlexibleRight<S> for RightPrecond<'m, S> {
    fn apply(&mut self, space: &mut S, v: &S::Vector) -> Result<S::Vector> {
        let mut z = space.zeros_like(v);
        self.0.apply_into(space, v, &mut z)?;
        Ok(z)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::{anisotropic2d, poisson2d};
    use resilient_runtime::{Comm, Runtime, RuntimeConfig};

    #[test]
    fn identity_precond_copies_bitwise() {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let a = DistCsr::from_global(&mut comm, &poisson2d(4, 4)).unwrap();
        let r = DistVector::from_fn(&comm, 16, |i| (i as f64 * 0.3).sin());
        let mut z = DistVector::zeros(&comm, 16);
        let mut space = DistSpace::new(&mut comm, &a);
        IdentityPrecond.apply_into(&mut space, &r, &mut z).unwrap();
        assert_eq!(
            r.local.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            z.local.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let stats = space.comm().snapshot_stats();
        assert_eq!(
            (stats.flops, stats.virtual_time),
            (0, 0.0),
            "identity charges nothing"
        );
        let m: &dyn SpacePreconditioner<DistSpace<'_, '_>> = &IdentityPrecond;
        assert!(m.is_identity(), "and says so");
        let m: &dyn SpacePreconditioner<DistSpace<'_, '_>> = &BlockJacobi::new(&a);
        assert!(!m.is_identity(), "nothing else does");
    }

    #[test]
    fn block_jacobi_solves_the_local_block_exactly() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(3, move |comm| {
            let a = anisotropic2d(6, 5, 0.1, 100.0, 2);
            let da = DistCsr::from_global(comm, &a)?;
            let mut bj = BlockJacobi::new(&da);
            assert_eq!(bj.local_rows(), da.local_rows());
            let block = da.local_diagonal_block();
            // z = M⁻¹ r must satisfy A_local · z = r exactly (up to roundoff).
            let r = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 4) as f64);
            let mut z = DistVector::zeros(comm, a.nrows());
            let t0 = comm.now();
            let mut space = DistSpace::new(comm, &da);
            bj.apply_into(&mut space, &r, &mut z)?;
            let elapsed = space.comm().now() - t0;
            let az = block.spmv(&z.local);
            let err = az
                .iter()
                .zip(&r.local)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let flops = SpacePreconditioner::<DistSpace<'_, '_>>::flops_per_apply(&bj);
            Ok((err, elapsed, flops))
        });
        for (err, elapsed, flops) in result.unwrap_all() {
            assert!(err < 1e-9, "local block solve error {err}");
            assert!(elapsed > 0.0, "the apply must charge virtual time");
            assert!(flops > 0);
        }
    }

    #[test]
    fn block_jacobi_factors_the_owned_rows_like_the_copied_block() {
        // The factors come straight from the owned rows, ghost columns
        // dropped: the same charges and solve bits as factoring the
        // copied-out diagonal block — on 1–3 ranks, and on a rank that owns
        // no rows at all (3 ranks, n = 2).
        let cases = [
            (poisson2d(6, 5), 1),
            (poisson2d(6, 5), 3),
            (anisotropic2d(6, 5, 0.1, 100.0, 2), 2),
            (poisson2d(2, 1), 3),
        ];
        for (a, ranks) in cases {
            let n_global = a.nrows();
            let rt = Runtime::new(RuntimeConfig::fast());
            let result = rt.run(ranks, move |comm| {
                let da = DistCsr::from_global(comm, &a)?;
                let mut bj = BlockJacobi::new(&da);
                let copied = LuFactors::factor_csr(&da.local_diagonal_block());
                let n = bj.local_rows();
                assert_eq!(n, da.local_rows());
                assert_eq!(bj.factors().factor_flops(), copied.factor_flops());
                assert_eq!(bj.factors().flops_per_solve(), copied.flops_per_solve());
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos() + 1.5).collect();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(bits(bj.factors().solve(&b)), bits(copied.solve(&b)));
                // The preconditioner applies on every rank, an empty one
                // included.
                let r = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + i as f64);
                let mut z = DistVector::zeros(comm, a.nrows());
                let mut space = DistSpace::new(comm, &da);
                bj.apply_into(&mut space, &r, &mut z)?;
                Ok(n)
            });
            let owned = result.unwrap_all();
            assert_eq!(owned.iter().sum::<usize>(), n_global);
            assert_eq!(owned.contains(&0), n_global < ranks, "{owned:?}");
        }
    }

    #[test]
    fn block_jacobi_rejects_vectors_of_another_distribution() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(2, move |comm| {
            let a = poisson2d(4, 4);
            let da = DistCsr::from_global(comm, &a)?;
            let mut bj = BlockJacobi::new(&da);
            let right = DistVector::from_fn(comm, a.nrows(), |i| i as f64);
            let wrong = DistVector::zeros(comm, a.nrows() + 6);
            let t0 = comm.now();
            let mut space = DistSpace::new(comm, &da);
            let as_input = bj.apply_into(&mut space, &wrong, &mut right.clone());
            let as_output = bj.apply_into(&mut space, &right, &mut wrong.clone());
            let charged = space.comm().now() - t0;
            Ok((as_input, as_output, charged, bj.pending_setup_flops()))
        });
        for (as_input, as_output, charged, pending) in result.unwrap_all() {
            for (what, res) in [("input", as_input), ("output", as_output)] {
                match res {
                    Err(RuntimeError::InvalidArgument(msg)) => assert!(msg.contains(what), "{msg}"),
                    other => panic!("{what}: expected InvalidArgument, got {other:?}"),
                }
            }
            assert_eq!(charged, 0.0, "a rejected apply charges nothing");
            assert!(pending > 0, "and leaves the setup charge owed");
        }
    }
}
