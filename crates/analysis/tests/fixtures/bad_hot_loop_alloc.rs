// analysis-as: crates/core/src/rbsp/fixture_apply.rs
// Fixture: per-iteration heap allocation in a designated hot-loop module.
// All four allocation forms must fire `hot-loop-alloc`; the constructor
// below is exempt by function name.

fn apply(x: &[f64], out: &mut Vec<f64>) {
    let mut scratch = Vec::new();
    scratch.extend_from_slice(x);
    let copy = x.to_vec();
    let again = copy.clone();
    let z = vec![0.0; x.len()];
    out.extend(z);
    out.extend(again);
}

fn new(n: usize) -> Vec<f64> {
    // Exempt: `new` is a sanctioned allocation site.
    vec![0.0; n]
}
