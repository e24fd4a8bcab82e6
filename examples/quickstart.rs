//! Quickstart: the four programming models in one small program.
//!
//! Run with: `cargo run --example quickstart`

use resilience::prelude::*;
use resilient_linalg::poisson2d;
use resilient_runtime::{ReduceOp, Runtime, RuntimeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("resilience quickstart — the four programming models of Heroux (2013)\n");
    for model in ProgrammingModel::ALL {
        println!(
            "  {:<5} (difficulty {}): addresses {}",
            model.abbreviation(),
            model.difficulty_rank(),
            model.addresses()
        );
    }

    // --- SkP: solve a Poisson problem while a bit flip hits one SpMV -------
    let a = poisson2d(12, 12);
    let b = vec![1.0; a.nrows()];
    let fault = random_spmv_fault(a.nrows(), 4, Some(61), 7);
    let opts = SolveOptions::default()
        .with_tol(1e-8)
        .with_max_iters(400)
        .with_restart(50);
    let cfg = SkepticalConfig::default();
    let (out, report) = skeptical_gmres(&a, &b, None, &opts, &cfg, Some(fault));
    println!(
        "\n[SkP ] skeptical GMRES under a bit flip: converged={}, detections={}, true residual={:.2e}",
        out.converged(),
        report.detections,
        true_relative_residual(&a, &b, &out.x)
    );

    // --- SRP: FT-GMRES with an unreliable inner solver ----------------------
    let cfg = FtGmresConfig {
        fault_rate: 1e-4,
        ..FtGmresConfig::default()
    };
    let (ft_out, ft_report) = ft_gmres(&a, &b, &cfg);
    println!(
        "[SRP ] FT-GMRES: converged={}, corruptions absorbed={}, reliable-flop fraction={:.2}",
        ft_out.converged(),
        ft_report.corruptions,
        ft_report.ledger.reliable_fraction()
    );

    // --- RBSP + LFLR: a tiny SPMD job on the simulated runtime --------------
    let runtime = Runtime::new(RuntimeConfig::fast());
    let job = runtime.run(4, |comm| {
        // RBSP: overlap a reduction with local work.
        let pending = comm.iallreduce_scalar(ReduceOp::Sum, comm.rank() as f64)?;
        comm.advance(1e-3); // useful work while the reduction is in flight
        let sum = pending.wait_scalar(comm)?;
        // LFLR: persist something a replacement could recover.
        comm.persist("state", vec![sum])?;
        Ok(sum)
    });
    println!(
        "[RBSP] overlapped allreduce on 4 simulated ranks -> {:?}",
        job.unwrap_all()
    );
    println!("[LFLR] per-rank persistent state written; see the heat_lflr example for recovery");
    Ok(())
}
