//! Parity pins for the single-RHS CG presets.
//!
//! `dist_cg`, `pipelined_cg`, preconditioned `solve_dist` with `FUSED_CG`,
//! `pipelined_pcg` and `pipelined_skeptical_cg` (clean and with a bit-62
//! SpMV flip) on 1 and 3
//! ranks of the virtual-time simulator, whose clock sees every charged
//! flop (and, on one rank, every collective and every `charge_flops` call).
//! These constants were recorded while each preset still ran a single-RHS
//! recurrence of its own; now that every CG solve is the one-column case of
//! the block kernel, the iterate, the residual history, the iteration count,
//! the stop reason, every rank's virtual clock and the skeptical counters
//! must not have moved by a bit.
//!
//! The two identity-preconditioned pins are the exception, by design: the
//! identity takes the unpreconditioned route and is charged as such, so its
//! clock reads what `dist_cg` / `pipelined_cg` read, on the same bits.

use resilience::kernel::{solve, IterCtx, PolicyAction, SolutionProbe};
use resilience::prelude::*;
use resilient_linalg::{poisson2d, CsrMatrix};
use resilient_runtime::{Comm, NoiseConfig, Result, Runtime, RuntimeConfig};

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

const PRESETS: [&str; 8] = [
    "dist_cg",
    "pipelined_cg",
    "dist_pcg/block-jacobi",
    "pipelined_pcg/block-jacobi",
    "dist_pcg/identity",
    "pipelined_pcg/identity",
    "pipelined_skeptical_cg",
    "pipelined_skeptical_cg/bit-62",
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
        let opts = DistSolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(400);
        let mut bj = BlockJacobi::new(&da);
        let id = &mut IdentityPrecond;
        let skeptic = SkepticalConfig::default();
        let fault = SpmvFault {
            rank: ranks - 1,
            at_application: 7,
            local_element: 3.min(n / ranks - 1),
            bit: 62,
        };
        let (out, detections, injections, restarts) = match preset {
            "dist_cg" => (dist_cg(comm, &da, &b, &opts)?, 0, 0, 0),
            "pipelined_cg" => (pipelined_cg(comm, &da, &b, &opts)?, 0, 0, 0),
            "dist_pcg/block-jacobi" => (
                solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(&mut bj), &opts)?,
                0,
                0,
                0,
            ),
            "pipelined_pcg/block-jacobi" => {
                (pipelined_pcg(comm, &da, &b, &mut bj, &opts)?, 0, 0, 0)
            }
            "dist_pcg/identity" => (
                solve_dist(comm, &da, &b, SolveSpec::FUSED_CG, Some(id), &opts)?,
                0,
                0,
                0,
            ),
            "pipelined_pcg/identity" => (pipelined_pcg(comm, &da, &b, id, &opts)?, 0, 0, 0),
            "pipelined_skeptical_cg" | "pipelined_skeptical_cg/bit-62" => {
                let fault = preset.ends_with("bit-62").then_some(fault);
                let (out, report) = pipelined_skeptical_cg(comm, &da, &b, &opts, &skeptic, fault)?;
                let detections = report.skeptical.detections;
                (out, detections, report.injections, report.policy_restarts)
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
const PINS: [(&str, usize, Pin); 16] = [
    (
        "dist_cg",
        1,
        pin(
            0xb43363929b5d1da6,
            0x677893ec05819e0e,
            39,
            0xa5af1940690779ad,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_cg",
        1,
        pin(
            0x4f467bea844d35a9,
            0x3fc5842f0eb8925c,
            39,
            0x9173c43618f98aef,
            0,
            0,
            0,
        ),
    ),
    (
        "dist_pcg/block-jacobi",
        1,
        pin(
            0xee9492a23a4d647b,
            0x4192a0d88b7e7c25,
            1,
            0xea9253abaab960bc,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_pcg/block-jacobi",
        1,
        pin(
            0xee9492a23a4d647b,
            0x2be2cbea19a827c5,
            1,
            0xf2a5375d8515c2d9,
            0,
            0,
            0,
        ),
    ),
    // The identity's clock is the unpreconditioned one; before the fold it
    // read 0x91d1577efae25385.
    (
        "dist_pcg/identity",
        1,
        pin(
            0xb43363929b5d1da6,
            0x677893ec05819e0e,
            39,
            0xa5af1940690779ad,
            0,
            0,
            0,
        ),
    ),
    // The identity's clock is the unpreconditioned one; before the fold it
    // read 0x31201bbcdcf9c728.
    (
        "pipelined_pcg/identity",
        1,
        pin(
            0x4f467bea844d35a9,
            0x3fc5842f0eb8925c,
            39,
            0x9173c43618f98aef,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_cg",
        1,
        pin(
            0x4f467bea844d35a9,
            0x3fc5842f0eb8925c,
            39,
            0x800dfaaf3b619ecc,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_cg/bit-62",
        1,
        pin(
            0xf1e74b4c8f81478f,
            0x8d77773a88fe0582,
            44,
            0x41ab33a0a34f2eae,
            1,
            1,
            1,
        ),
    ),
    (
        "dist_cg",
        3,
        pin(
            0x97bb98f906c63836,
            0xaaba9c9d2b9dcda2,
            39,
            0x7793d0b096e3c4aa,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_cg",
        3,
        pin(
            0x4c7c4741e6e77d77,
            0x5ef25f2c6645af42,
            39,
            0x58ad4e22dbe709af,
            0,
            0,
            0,
        ),
    ),
    (
        "dist_pcg/block-jacobi",
        3,
        pin(
            0xd2a23407442e6c,
            0xea004e632036f4ef,
            23,
            0x579e85ac0f0c8fba,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_pcg/block-jacobi",
        3,
        pin(
            0xa3477286997c3b22,
            0x40e731bbe0b6aa5,
            23,
            0xed542468087c20f9,
            0,
            0,
            0,
        ),
    ),
    // The identity's clock is the unpreconditioned one; before the fold it
    // read 0xfe04f114c2fb429b.
    (
        "dist_pcg/identity",
        3,
        pin(
            0x97bb98f906c63836,
            0xaaba9c9d2b9dcda2,
            39,
            0x7793d0b096e3c4aa,
            0,
            0,
            0,
        ),
    ),
    // The identity's clock is the unpreconditioned one; before the fold it
    // read 0x8191bad4104672cf.
    (
        "pipelined_pcg/identity",
        3,
        pin(
            0x4c7c4741e6e77d77,
            0x5ef25f2c6645af42,
            39,
            0x58ad4e22dbe709af,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_cg",
        3,
        pin(
            0x4c7c4741e6e77d77,
            0x5ef25f2c6645af42,
            39,
            0x8918185765111104,
            0,
            0,
            0,
        ),
    ),
    (
        "pipelined_skeptical_cg/bit-62",
        3,
        pin(
            0x8e24edba3800111a,
            0x48a01a8b7c6ecdbf,
            44,
            0xfc3a1cdfce920e39,
            1,
            1,
            1,
        ),
    ),
];

#[test]
fn cg_presets_hold_their_pins() {
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

/// Records the address of the iterate buffer every hook is shown.
struct BufferLog(Vec<usize>);

impl<S: KrylovSpace<Vector = DistVector>> ResiliencePolicy<S> for BufferLog {
    fn name(&self) -> &'static str {
        "buffer-log"
    }
    fn on_cycle_start(&mut self, _space: &mut S, _ctx: &IterCtx, x: &DistVector) -> Result<()> {
        self.0.push(x.local.as_ptr() as usize);
        Ok(())
    }
    fn on_iteration(
        &mut self,
        _space: &mut S,
        _ctx: &IterCtx,
        probe: &mut dyn SolutionProbe<S>,
    ) -> Result<PolicyAction> {
        self.0.push(probe.iterate().local.as_ptr() as usize);
        Ok(PolicyAction::Continue)
    }
    fn overhead(&self) -> PolicyOverhead {
        PolicyOverhead::default()
    }
}

/// A policy on a single-RHS solve sees the kernel's own iterate, not a
/// copy: every hook is shown the buffer the solve returns, on both
/// schedules, preconditioned or not, on 1 and 3 ranks.
#[test]
fn a_guarded_single_rhs_solve_lends_its_own_iterate() {
    for ranks in [1, 3] {
        let job = Runtime::new(RuntimeConfig::fast()).run(ranks, move |comm: &mut Comm| {
            let (a, b) = problem();
            let da = DistCsr::from_global(comm, &a)?;
            let b = DistVector::from_global(comm, &b);
            let opts = SolveOptions::default().with_tol(1e-9).with_max_iters(400);
            let mut bj = BlockJacobi::new(&da);
            for spec in [SolveSpec::FUSED_CG, SolveSpec::PIPELINED_CG] {
                for preconditioned in [false, true] {
                    let mut log = BufferLog(Vec::new());
                    let mut space = DistSpace::new(comm, &da);
                    let m = preconditioned.then_some(&mut bj as &mut dyn SpacePreconditioner<_>);
                    let mut policies = PolicyStack::new(vec![&mut log]);
                    let (out, _) = solve(&mut space, &b, None, &opts, spec, m, &mut policies)?;
                    drop(policies);
                    let what = format!("{}, {ranks} ranks", spec.name(preconditioned));
                    assert_eq!(out.reason, StopReason::Converged, "{what}");
                    assert_eq!(log.0.len(), out.iterations + 1, "{what}: one cycle start");
                    let returned = out.x.local.as_ptr() as usize;
                    assert!(
                        log.0.iter().all(|&p| p == returned),
                        "{what}: a hook saw a copy of the iterate"
                    );
                }
            }
            Ok(())
        });
        assert!(job.all_ok(), "{ranks} ranks: {:?}", job.errors);
    }
}
