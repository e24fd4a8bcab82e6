//! The space's one SpMV strike path: a [`SpmvFault`] is one [`Strike`] in
//! the same [`StrikePlan`] that campaign plans feed, so the two builders
//! compose in either order.

use resilience::prelude::*;
use resilient_faults::campaign::{Strike, StrikePlan};
use resilient_faults::flip_bit_f64;
use resilient_linalg::poisson2d;
use resilient_runtime::{Comm, RuntimeConfig};

fn strike(incarnation: u64, at: u64, element: usize, bit: u32) -> Strike {
    Strike {
        rank: 0,
        incarnation,
        at,
        element,
        bit,
    }
}

/// `with_fault` then `with_spmv_plan`, and the reverse: the fault's element
/// is flipped at its application, the plan's strikes land at theirs (one of
/// them in the same product), `injections()` counts both, a strike pinned
/// to incarnation 1 never fires on the original process, and
/// `disarm_plans()` stops every strike still pending.
#[test]
fn fault_and_plan_share_one_strike_path() {
    let a = poisson2d(6, 6);
    let n = a.nrows();
    let fault = SpmvFault {
        rank: 0,
        at_application: 1,
        local_element: 3,
        bit: 62,
    };
    let plan = || {
        StrikePlan::new(vec![
            strike(0, 1, 7, 51),
            strike(0, 2, 0, 63),
            strike(1, 2, 5, 62),
            strike(0, 5, 9, 62),
        ])
    };
    // (application, element, bit) of every flip that must land.
    let landed = [(1, 3, 62), (1, 7, 51), (2, 0, 63)];

    for fault_first in [true, false] {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let da = DistCsr::from_global(&mut comm, &a).unwrap();
        let x = DistVector::from_fn(&comm, n, |i| (1.0 + i as f64).sqrt());
        let clean = DistSpace::new(&mut comm, &da).apply(&x).unwrap().local;

        let space = DistSpace::new(&mut comm, &da);
        let mut space = if fault_first {
            space.with_fault(fault).with_spmv_plan(plan())
        } else {
            space.with_spmv_plan(plan()).with_fault(fault)
        };
        for app in 0..7 {
            if app == 4 {
                assert_eq!(space.injections(), landed.len());
                space.disarm_plans();
            }
            let mut expect = clean.clone();
            for &(at, element, bit) in &landed {
                if at == app {
                    expect[element] = flip_bit_f64(expect[element], bit);
                }
            }
            let y = space.apply(&x).unwrap().local;
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&y),
                bits(&expect),
                "application {app}, fault first: {fault_first}"
            );
        }
        assert_eq!(space.applications(), 7);
        assert_eq!(space.injections(), landed.len());
    }
}
