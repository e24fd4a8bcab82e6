//! Parity pins for the serial presets.
//!
//! `cg`, `gmres`, `fgmres` and `skeptical_gmres` run on a 1-rank
//! distributed space. These constants were recorded when each preset still
//! had a serial execution space of its own; a 1-rank reduction folds one
//! value, so the iterates, histories, iteration counts, stop reasons and
//! detections must not have moved by a bit. FLOP counts are not pinned:
//! dots are now charged `2n` each, as in every distributed solve.

use resilience::distributed::DistVector;
use resilience::kernel::{DistSpace, FlexibleRight};
use resilience::prelude::*;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::Result;

/// FNV-1a over the values' bit patterns.
fn bits_hash(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `poisson2d(12, 12)` with a non-uniform right-hand side.
fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(12, 12);
    let b = (0..a.nrows())
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    (a, b)
}

/// What a pin fixes about one solve.
#[derive(Debug, PartialEq)]
struct Pin {
    x: u64,
    history: u64,
    history_len: usize,
    iterations: usize,
    reason: StopReason,
    /// Skeptical detections, or FGMRES's rejected inner results.
    detections: usize,
}

fn pin(out: &SolveOutcome, detections: usize) -> Pin {
    Pin {
        x: bits_hash(&out.x),
        history: bits_hash(&out.history),
        history_len: out.history.len(),
        iterations: out.iterations,
        reason: out.reason,
        detections,
    }
}

const CONVERGED: StopReason = StopReason::Converged;

#[test]
fn cg_pin() {
    let (a, b) = problem();
    let opts = SolveOptions::default().with_tol(1e-10).with_max_iters(500);
    let out = cg(&a, &b, None, &opts);
    let want = Pin {
        x: 0x7daa_acae_9967_b8c7,
        history: 0x5b22_fe3c_931e_f21f,
        history_len: 43,
        iterations: 42,
        reason: CONVERGED,
        detections: 0,
    };
    assert_eq!(pin(&out, 0), want);
}

#[test]
fn gmres_pin() {
    let (a, b) = problem();
    let opts = SolveOptions::default()
        .with_tol(1e-10)
        .with_max_iters(500)
        .with_restart(30);
    let out = gmres(&a, &b, None, &opts);
    let want = Pin {
        x: 0x60fb_b4aa_2d1f_d075,
        history: 0x4d3e_f8ab_1c0c_208b,
        history_len: 49,
        iterations: 48,
        reason: CONVERGED,
        detections: 0,
    };
    assert_eq!(pin(&out, 0), want);
}

/// The identity, or — every third call — NaN garbage the outer iteration
/// must reject.
struct Inner {
    flaky: bool,
    calls: usize,
}

impl<'a, 'b> FlexibleRight<DistSpace<'a, 'b>> for Inner {
    fn apply(&mut self, _space: &mut DistSpace<'a, 'b>, v: &DistVector) -> Result<DistVector> {
        self.calls += 1;
        let mut z = v.clone();
        if self.flaky && self.calls % 3 == 0 {
            z.local.fill(f64::NAN);
        }
        Ok(z)
    }
}

/// Both inner preconditioners land on the same iterate: a rejected result
/// falls back to the very vector the identity returns.
const FGMRES_X: u64 = 0xdf46_b405_3d29_e34d;
const FGMRES_HISTORY: u64 = 0x7554_c058_c376_cdd6;

#[test]
fn fgmres_pins() {
    let (a, b) = problem();
    let opts = SolveOptions::default()
        .with_tol(1e-9)
        .with_max_iters(400)
        .with_restart(30);
    for (flaky, rejected) in [(false, 0), (true, 15)] {
        let mut inner = Inner { flaky, calls: 0 };
        let (out, report) = fgmres(&a, &mut inner, &b, None, &opts);
        let want = Pin {
            x: FGMRES_X,
            history: FGMRES_HISTORY,
            history_len: 47,
            iterations: 46,
            reason: CONVERGED,
            detections: rejected,
        };
        assert_eq!(
            pin(&out, report.rejected_inner_results),
            want,
            "flaky={flaky}"
        );
    }
}

#[test]
fn skeptical_gmres_pins() {
    let (a, b) = problem();
    let n = a.nrows();
    let opts = SolveOptions::default()
        .with_tol(1e-9)
        .with_max_iters(600)
        .with_restart(30);
    let cfg = SkepticalConfig::default();

    let (out, report) = skeptical_gmres(&a, &b, None, &opts, &cfg, None);
    let clean = Pin {
        x: FGMRES_X,
        history: FGMRES_HISTORY,
        history_len: 47,
        iterations: 46,
        reason: CONVERGED,
        detections: 0,
    };
    assert_eq!(pin(&out, report.detections), clean);

    let fault = SpmvFault {
        rank: 0,
        at_application: 7,
        local_element: n / 2,
        bit: 62,
    };
    let (out, report) = skeptical_gmres(&a, &b, None, &opts, &cfg, Some(fault));
    let struck = Pin {
        x: FGMRES_X,
        history: 0x691a_b5c6_7517_ad7c,
        history_len: 53,
        iterations: 52,
        reason: CONVERGED,
        detections: 1,
    };
    assert_eq!(pin(&out, report.detections), struck);
    assert_eq!(out.injections, 1);
}
