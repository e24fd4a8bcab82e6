//! Pins for the dispatch table of [`kernel::solve`](resilience::kernel::solve):
//! a [`SolveSpec`] value must run *exactly* the strategy composition it
//! names.
//!
//! For every spec × {no preconditioner, block-Jacobi} × {1, 3} ranks the
//! solve is compared against the hand-written `run_cg` / `run_gmres` call it
//! replaces — those kernel entry points stay public, so this compares the
//! table with the thing itself rather than a preset with its own body. The
//! two runs execute in separate jobs of the same seeded runtime and must
//! agree `to_bits` in iterate, residual history, iteration count, collective
//! count and final virtual time.

use resilience::kernel::{
    run_cg, run_gmres, solve, CgsOrtho, FusedCgStep, GmresFlavor, KernelOutcome, KernelReport,
    PipelinedCgStep, PipelinedOrtho,
};
use resilience::prelude::*;
use resilient_linalg::anisotropic2d;
use resilient_runtime::{Comm, Result, Runtime, RuntimeConfig};

type Space<'a, 'b> = DistSpace<'a, 'b, Comm>;

/// The composition `spec` names, spelled out strategy by strategy.
fn by_hand<'a, 'b>(
    space: &mut Space<'a, 'b>,
    b: &DistVector,
    x0: Option<DistVector>,
    opts: &SolveOptions,
    spec: SolveSpec,
    m: Option<&mut dyn SpacePreconditioner<Space<'a, 'b>>>,
) -> Result<(KernelOutcome<DistVector>, KernelReport)> {
    let policies = &mut PolicyStack::empty();
    let flavor = GmresFlavor::distributed();
    match (spec.method, spec.schedule, m) {
        (Method::Cg, Schedule::Fused, None) => {
            run_cg(space, b, x0, opts, &mut FusedCgStep::new(), policies)
        }
        (Method::Cg, Schedule::Fused, Some(m)) => {
            let step = &mut FusedCgStep::preconditioned(m);
            run_cg(space, b, x0, opts, step, policies)
        }
        (Method::Cg, Schedule::Pipelined, None) => {
            run_cg(space, b, x0, opts, &mut PipelinedCgStep::new(), policies)
        }
        (Method::Cg, Schedule::Pipelined, Some(m)) => {
            let step = &mut PipelinedCgStep::preconditioned(m);
            run_cg(space, b, x0, opts, step, policies)
        }
        (Method::Gmres, Schedule::Fused, None) => {
            let ortho = &mut CgsOrtho::new();
            run_gmres(space, b, x0, opts, ortho, policies, None, &flavor)
        }
        (Method::Gmres, Schedule::Fused, Some(m)) => {
            let (ortho, right) = (&mut CgsOrtho::new(), &mut RightPrecond(m));
            run_gmres(space, b, x0, opts, ortho, policies, Some(right), &flavor)
        }
        (Method::Gmres, Schedule::Pipelined, None) => {
            let ortho = &mut PipelinedOrtho::new();
            run_gmres(space, b, x0, opts, ortho, policies, None, &flavor)
        }
        (Method::Gmres, Schedule::Pipelined, Some(m)) => {
            let (ortho, right) = (&mut PipelinedOrtho::new(), &mut RightPrecond(m));
            run_gmres(space, b, x0, opts, ortho, policies, Some(right), &flavor)
        }
    }
}

/// `(iterate bits, history bits, iterations, collectives, final time bits)`.
type Observation = (Vec<u64>, Vec<u64>, usize, u64, u64);

fn observe(
    ranks: usize,
    spec: SolveSpec,
    preconditioned: bool,
    dispatch: bool,
) -> Vec<Observation> {
    let rt = Runtime::new(RuntimeConfig::fast().with_seed(19));
    let r = rt.run(ranks, move |comm| {
        let a = anisotropic2d(10, 10, 0.1, 50.0, 2);
        let da = DistCsr::from_global(comm, &a)?;
        let b = DistVector::from_fn(comm, a.nrows(), |i| 1.0 + (i % 5) as f64);
        let x0 = DistVector::from_fn(comm, a.nrows(), |i| 0.01 * (i % 7) as f64);
        let opts = DistSolveOptions::default()
            .with_tol(1e-9)
            .with_max_iters(800)
            .with_restart(12);
        let mut bj = preconditioned.then(|| BlockJacobi::new(&da));
        let mut space = opts.space(comm, &da);
        let m = bj.as_mut().map(|m| m as &mut dyn SpacePreconditioner<_>);
        let sopts = opts.solve_options();
        let (out, _report) = if dispatch {
            let policies = &mut PolicyStack::empty();
            solve(&mut space, &b, Some(x0), &sopts, spec, m, policies)?
        } else {
            by_hand(&mut space, &b, Some(x0), &sopts, spec, m)?
        };
        assert!(out.relative_residual <= opts.tol, "{spec:?} must converge");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        Ok((
            bits(&out.x.local),
            bits(&out.history),
            out.iterations,
            comm.snapshot_stats().collectives,
            comm.now().to_bits(),
        ))
    });
    assert!(r.all_ok(), "{spec:?}@{ranks}: {:?}", r.errors);
    r.unwrap_all()
}

#[test]
fn every_spec_dispatches_to_the_composition_it_names() {
    for spec in SolveSpec::ALL {
        for preconditioned in [false, true] {
            for ranks in [1usize, 3] {
                let dispatched = observe(ranks, spec, preconditioned, true);
                let spelled_out = observe(ranks, spec, preconditioned, false);
                assert!(dispatched[0].2 > 0, "the solve must iterate");
                assert_eq!(
                    dispatched,
                    spelled_out,
                    "{} at {ranks} ranks",
                    spec.name(preconditioned)
                );
            }
        }
    }
}

#[test]
fn the_four_specs_are_distinct_compositions() {
    // A table that sent two specs to the same arm would still pass the
    // parity pin above arm by arm; the schedules differ in collectives per
    // iteration and the methods in iteration count, so no two observations
    // may coincide.
    let seen: Vec<_> = SolveSpec::ALL
        .iter()
        .map(|&spec| observe(3, spec, false, true))
        .collect();
    for i in 0..seen.len() {
        for j in 0..i {
            assert_ne!(
                seen[i],
                seen[j],
                "{:?} vs {:?}",
                SolveSpec::ALL[i],
                SolveSpec::ALL[j]
            );
        }
    }
}

#[test]
fn spec_names_are_the_campaign_repro_line_strings() {
    let names: Vec<_> = [false, true]
        .iter()
        .flat_map(|&p| SolveSpec::ALL.map(|s| s.name(p)))
        .collect();
    assert_eq!(
        names,
        [
            "fused-cg",
            "pipelined-cg",
            "cgs-gmres",
            "pipelined-gmres",
            "fused-pcg",
            "pipelined-pcg",
            "cgs-pgmres",
            "pipelined-pgmres",
        ]
    );
    // ... which the campaign's eight presets print, in its sweep order.
    let campaign = CampaignPreset::ALL.map(|p| p.name());
    assert_eq!(
        campaign,
        [
            "fused-cg",
            "pipelined-cg",
            "fused-pcg",
            "pipelined-pcg",
            "cgs-gmres",
            "pipelined-gmres",
            "cgs-pgmres",
            "pipelined-pgmres",
        ]
    );
}
