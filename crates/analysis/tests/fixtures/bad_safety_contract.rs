// analysis-as: crates/linalg/src/fixture_ops.rs
// Fixture: undocumented unsafe sites and an unguarded #[target_feature]
// call. Every unsafe below lacks `SAFETY` and the file never consults
// is_x86_feature_detected, so `safety-contract` must fire three times.

#[target_feature(enable = "avx2")]
unsafe fn kernel(x: &[f64]) -> f64 {
    x[0] + x[1]
}

fn call_without_detection(x: &[f64]) -> f64 {
    unsafe { kernel(x) }
}

// SAFETY: documented site — must NOT fire; slice is non-empty by contract.
unsafe fn documented(x: &[f64]) -> f64 {
    *x.get_unchecked(0)
}
