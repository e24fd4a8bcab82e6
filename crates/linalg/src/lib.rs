//! # resilient-linalg
//!
//! The dense and sparse linear-algebra substrate for the resilience suite:
//! level-1 vector kernels, dense matrices (GEMV/GEMM), CSR sparse matrices
//! (SpMV), model-problem generators (1-D/2-D/3-D Poisson, random SPD and
//! diagonally dominant matrices), Givens rotations with the progressive
//! Hessenberg least-squares solve used by GMRES, and the Huang–Abraham ABFT
//! checksum encodings used by the skeptical-programming kernels.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checksum;
pub mod dense;
pub mod generators;
pub mod givens;
pub mod ops;
pub mod sell;
pub mod sparse;
pub mod vector;

pub use checksum::{checksummed_gemm, ChecksumVerdict, ChecksummedCsr, ChecksummedMatrix};
pub use dense::{DenseMatrix, LuFactors};
pub use generators::{
    anisotropic2d, diag_dominant_random, ones, poisson1d, poisson2d, random_vector, spd_random,
};
pub use givens::{Givens, HessenbergLsq};
pub use ops::{auto_ops, scalar_ops, simd_ops, CgSweep, LocalOps, PcgSweep, ScalarOps};
pub use sell::{SellMatrix, SELL_C, SELL_DEFAULT_SIGMA};
pub use sparse::{CooMatrix, CsrMatrix};
