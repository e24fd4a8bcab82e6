//! Dense vector kernels (level-1 BLAS style), written over plain slices so
//! they compose with the distributed vectors of the core crate and with the
//! unreliable-memory regions of the faults crate.

/// Dot product of two equally sized slices.
///
/// Accumulates in four independent partial sums so the compiler can keep
/// the reduction in vector registers (a sequential dependent-add chain
/// cannot be auto-vectorized without breaking IEEE semantics; the explicit
/// 4-way split makes the reassociation part of the algorithm).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let split = x.len() - x.len() % 4;
    let (xh, xt) = x.split_at(split);
    let (yh, yt) = y.split_at(split);
    let mut acc = [0.0f64; 4];
    for (xc, yc) in xh.chunks_exact(4).zip(yh.chunks_exact(4)) {
        acc[0] += xc[0] * yc[0];
        acc[1] += xc[1] * yc[1];
        acc[2] += xc[2] * yc[2];
        acc[3] += xc[3] * yc[3];
    }
    let tail: f64 = xt.iter().zip(yt).map(|(a, b)| a * b).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean norm ‖x‖₂.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// y ← a·x + y.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// w ← a·x + b·y, writing into a caller-owned buffer (the hot-loop form;
/// one residual per iteration adds up).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn waxpby_into(a: f64, x: &[f64], b: f64, y: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "waxpby: length mismatch");
    assert_eq!(x.len(), w.len(), "waxpby: output length mismatch");
    for (wi, (xi, yi)) in w.iter_mut().zip(x.iter().zip(y)) {
        *wi = a * xi + b * yi;
    }
}

/// y ← x + b·y (the CG direction update `p ← z + β·p`).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// x ← a·x.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Does the vector contain any NaN or infinite entry?
#[inline]
pub fn has_non_finite(x: &[f64]) -> bool {
    x.iter().any(|v| !v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [1.0, 2.0, 2.0];
        assert_eq!(dot(&x, &x), 9.0);
        assert_eq!(nrm2(&x), 3.0);
    }

    #[test]
    fn axpy_waxpby_scale() {
        let x = [1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        let mut w = vec![9.0, 9.0];
        waxpby_into(1.0, &x, -1.0, &[1.0, 1.0], &mut w);
        assert_eq!(w, vec![0.0, 1.0]);
        let mut z = vec![3.0, -6.0];
        scale(0.5, &mut z);
        assert_eq!(z, vec![1.5, -3.0]);
        let mut p = vec![2.0, 4.0];
        xpby(&[1.0, 1.0], 0.5, &mut p);
        assert_eq!(p, vec![2.0, 3.0]);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!has_non_finite(&[1.0, -2.0]));
        assert!(has_non_finite(&[1.0, f64::NAN]));
        assert!(has_non_finite(&[f64::INFINITY]));
        assert!(!has_non_finite(&[]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
