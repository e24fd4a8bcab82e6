//! Parity pins for the distributed GMRES presets.
//!
//! `solve_dist` with `FUSED_GMRES` (plain and block-Jacobi) and
//! `PIPELINED_GMRES`, `pipelined_pgmres` (block-Jacobi),
//! `pipelined_skeptical` with `Method::Gmres` (clean and with a bit-62 SpMV
//! flip), and classical-Gram–Schmidt GMRES under a fused
//! `SkepticalPolicy` with the same flip, on 1 and 3 ranks of the
//! virtual-time simulator. These constants were recorded while `run_gmres`
//! still carried a control-flow profile per preset family; now that every
//! GMRES solve runs one control flow, the iterate, the residual history,
//! the iteration count, the stop reason, every rank's virtual clock and the
//! skeptical counters must not have moved by a bit.

use resilience::kernel::solve;
use resilience::prelude::*;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{Comm, NoiseConfig, ReduceOp, Result, Runtime, RuntimeConfig};

/// FNV-1a over the values' bit patterns.
fn bits_hash(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn f64_hash(values: &[f64]) -> u64 {
    bits_hash(values.iter().map(|v| v.to_bits()))
}

/// `poisson2d(13, 13)`: uneven block rows on 3 ranks. Every SpMV product
/// entry stays below 1 in magnitude, so a bit-62 flip blows it up.
fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = poisson2d(13, 13);
    let b = (0..a.nrows())
        .map(|i| 0.01 * (1.0 + (i % 5) as f64))
        .collect();
    (a, b)
}

/// What a pin fixes about one solve on all ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    /// Hash of the gathered global iterate.
    x: u64,
    /// Hash of the residual history.
    history: u64,
    iterations: usize,
    reason: StopReason,
    /// Hash of every rank's `comm.now()` at return, in rank order.
    time: u64,
    /// Skeptical detections (same on every rank).
    detections: usize,
    /// Flips injected, summed over the ranks.
    injections: usize,
    policy_restarts: usize,
}

const PRESETS: [&str; 7] = [
    "dist_gmres",
    "pipelined_gmres",
    "dist_pgmres/block-jacobi",
    "pipelined_pgmres/block-jacobi",
    "pipelined_skeptical_gmres",
    "pipelined_skeptical_gmres/bit-62",
    "cgs_skeptical_gmres/bit-62",
];

/// Per rank: (x hash, history hash, iterations, reason, now bits,
/// detections, injections, policy restarts).
type RankPin = (u64, u64, usize, StopReason, u64, usize, usize, usize);

fn run(preset: &'static str, ranks: usize) -> Pin {
    // One rank: latency and noise — noise is drawn per `charge_flops` call,
    // so it pins how the arithmetic is charged, not only how much. Three
    // ranks: arithmetic only, the setting whose virtual time repeats
    // exactly on the simulator whatever the thread timing.
    let cfg = if ranks == 1 {
        RuntimeConfig::default()
            .with_seed(2013)
            .with_noise(NoiseConfig::exponential(5_000.0, 1.0e-6))
    } else {
        RuntimeConfig::fast().with_seed(2013)
    };
    let job = Runtime::new(cfg).run(ranks, move |comm: &mut Comm| -> Result<RankPin> {
        let (a, b) = problem();
        let n = a.nrows();
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_global(comm, &b);
        // Restart 15 on 169 unknowns: every solve spans several cycles.
        let opts = DistSolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(400)
            .with_restart(15);
        let mut bj = BlockJacobi::new(&da);
        let skeptic = SkepticalConfig::default();
        let fault = SpmvFault {
            rank: ranks - 1,
            at_application: 7,
            local_element: 3.min(n / ranks - 1),
            bit: 62,
        };
        let (out, detections, injections, restarts) = match preset {
            "dist_gmres" => (
                solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, None, &opts)?,
                0,
                0,
                0,
            ),
            "pipelined_gmres" => (
                solve_dist(comm, &da, &b, SolveSpec::PIPELINED_GMRES, None, &opts)?,
                0,
                0,
                0,
            ),
            "dist_pgmres/block-jacobi" => (
                solve_dist(comm, &da, &b, SolveSpec::FUSED_GMRES, Some(&mut bj), &opts)?,
                0,
                0,
                0,
            ),
            "pipelined_pgmres/block-jacobi" => {
                (pipelined_pgmres(comm, &da, &b, &mut bj, &opts)?, 0, 0, 0)
            }
            "pipelined_skeptical_gmres" | "pipelined_skeptical_gmres/bit-62" => {
                let fault = preset.ends_with("bit-62").then_some(fault);
                let (out, report) = pipelined_skeptical(
                    comm,
                    &da,
                    &b,
                    Method::Gmres,
                    None,
                    &opts,
                    &skeptic,
                    fault,
                )?;
                let detections = report.skeptical.detections;
                (out, detections, report.injections, report.policy_restarts)
            }
            "cgs_skeptical_gmres/bit-62" => {
                // The bulk-synchronous strategy with the checks riding its
                // projection reduction (wants-dots fusion).
                let norm_a = comm.allreduce_scalar(ReduceOp::Max, da.local_norm_inf())?;
                let mut space = opts
                    .space(comm, &da)
                    .with_operator_norm(norm_a)
                    .with_fault(fault);
                let mut skeptical = SkepticalPolicy::new(skeptic);
                let mut policies = PolicyStack::new(vec![&mut skeptical]);
                let (out, report) = solve(
                    &mut space,
                    &b,
                    None,
                    &opts.solve_options(),
                    SolveSpec::FUSED_GMRES,
                    None,
                    &mut policies,
                )?;
                drop(policies);
                let injections = space.injections();
                (
                    out.into_dist_outcome(opts.tol),
                    skeptical.report().detections,
                    injections,
                    report.policy_restarts,
                )
            }
            other => unreachable!("{other}"),
        };
        let now = comm.now().to_bits();
        let x = out.x.gather_global(comm)?;
        Ok((
            f64_hash(&x),
            f64_hash(&out.history),
            out.iterations,
            out.reason,
            now,
            detections,
            injections,
            restarts,
        ))
    });
    assert!(job.all_ok(), "{preset} on {ranks} ranks: {:?}", job.errors);
    let per_rank = job.unwrap_all();
    let first = per_rank[0];
    for r in &per_rank {
        assert_eq!(
            (r.0, r.1, r.2, r.3, r.5, r.7),
            (first.0, first.1, first.2, first.3, first.5, first.7),
            "{preset} on {ranks} ranks: ranks disagree"
        );
    }
    Pin {
        x: first.0,
        history: first.1,
        iterations: first.2,
        reason: first.3,
        time: bits_hash(per_rank.iter().map(|r| r.4)),
        detections: first.5,
        injections: per_rank.iter().map(|r| r.6).sum(),
        policy_restarts: first.7,
    }
}

const fn pin(
    x: u64,
    history: u64,
    iterations: usize,
    time: u64,
    detections: usize,
    injections: usize,
    policy_restarts: usize,
) -> Pin {
    Pin {
        x,
        history,
        iterations,
        reason: StopReason::Converged,
        time,
        detections,
        injections,
        policy_restarts,
    }
}

/// `(preset, ranks, pin)`, in `PRESETS` order.
const PINS: [(&str, usize, Pin); 14] = [
    (
        "dist_gmres",
        1,
        pin(
            0xb4541462b2b98ab0,
            0x869982b9f402ab0d,
            55,
            0x758d70873ec95573,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_gmres",
        1,
        pin(
            0x917894398b6bbc40,
            0x67c6b9bff4fe1fa5,
            55,
            0xa5385bb02d1f0d5e,
            0,
            0,
            0,
        ),
    ),
    (
        "dist_pgmres/block-jacobi",
        1,
        pin(
            0x6dcb283425248477,
            0x75312263ad60b225,
            1,
            0xace52b2197296bf4,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_pgmres/block-jacobi",
        1,
        pin(
            0x6dcb283425248477,
            0x2f125cea1c5d04b8,
            1,
            0xcd59db3ee811367f,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_gmres",
        1,
        pin(
            0x917894398b6bbc40,
            0x67c6b9bff4fe1fa5,
            55,
            0x8a822bc6b0923d63,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_gmres/bit-62",
        1,
        pin(
            0x917894398b6bbc40,
            0x2f5004d7010b55f2,
            61,
            0x892cb0c2d732f190,
            1,
            1,
            1,
        ),
    ),
    (
        "cgs_skeptical_gmres/bit-62",
        1,
        pin(
            0xb4541462b2b98ab0,
            0x3f66934950e574c9,
            61,
            0x6403d2da88a76995,
            1,
            1,
            1,
        ),
    ),
    (
        "dist_gmres",
        3,
        pin(
            0x2ed798777def27f9,
            0xadb3fec3dd43b67a,
            55,
            0xb75016076ca1ad3d,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_gmres",
        3,
        pin(
            0x887a7f29e0bc13c4,
            0x9b24989e9fdeb12d,
            55,
            0xf532a99e4b9029d8,
            0,
            0,
            0,
        ),
    ),
    (
        "dist_pgmres/block-jacobi",
        3,
        pin(
            0x5de11e30f04ac30,
            0x60142aa3d992b20a,
            27,
            0x638532e51b1111b4,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_pgmres/block-jacobi",
        3,
        pin(
            0x8e72eb4f8c7d46f6,
            0xa7f4d24e99af3338,
            27,
            0x9a635b6bee274b9f,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_gmres",
        3,
        pin(
            0x887a7f29e0bc13c4,
            0x9b24989e9fdeb12d,
            55,
            0xae91159ba3ed56b8,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_gmres/bit-62",
        3,
        pin(
            0x887a7f29e0bc13c4,
            0xde34d757128a5d90,
            61,
            0xc3d012af5003b96,
            1,
            1,
            1,
        ),
    ),
    (
        "cgs_skeptical_gmres/bit-62",
        3,
        pin(
            0x2ed798777def27f9,
            0x4e8c7b8697b1f267,
            61,
            0x93899a16a319e918,
            1,
            1,
            1,
        ),
    ),
];

#[test]
fn gmres_presets_hold_their_pins() {
    let mut got = Vec::new();
    for ranks in [1, 3] {
        for preset in PRESETS {
            got.push((preset, ranks, run(preset, ranks)));
        }
    }
    let table: String = got
        .iter()
        .map(|(preset, ranks, p)| {
            format!(
                "    (\"{preset}\", {ranks}, pin({:#x}, {:#x}, {}, {:#x}, {}, {}, {})),\n",
                p.x, p.history, p.iterations, p.time, p.detections, p.injections, p.policy_restarts
            )
        })
        .collect();
    assert!(
        got.iter()
            .all(|(_, _, p)| p.reason == StopReason::Converged),
        "every pinned solve converges:\n{table}"
    );
    let want: Vec<_> = PINS.to_vec();
    assert_eq!(got, want, "actual pins:\n{table}");
}
