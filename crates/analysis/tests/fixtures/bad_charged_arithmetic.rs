// analysis-as: crates/core/src/solvers/fixture_uncharged.rs
// Fixture: node-local arithmetic bypassing the charging surface. The
// import, the qualified call, the device-op method call, and the ad-hoc
// backend constructor must each fire `charged-arithmetic`.

use resilient_linalg::vector::{dot, nrm2};

fn uncharged(x: &[f64], y: &[f64]) -> f64 {
    let d = resilient_linalg::vector::dot(x, y);
    let ops = scalar_ops();
    d + ops.nrm2(x) + dot(x, y)
}
