//! Seeded single-event upsets: the "unreliable machine" the skeptical
//! algorithms are tested against. The upset itself is an [`SpmvFault`] on
//! the space that runs the solve; this module only draws where it strikes.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::kernel::SpmvFault;

/// One bit flip in product `at_application` of a 1-rank solve over `n`
/// rows: a uniformly random element and, when `bit` is `None`, a uniformly
/// random bit — drawn in that order as the first draws of
/// `ChaCha8Rng::seed_from_u64(seed)`, the single-event-upset model of the
/// E1 experiment and of Elliott/Hoemmen's bit-flip-resilient GMRES.
pub fn random_spmv_fault(
    n: usize,
    at_application: usize,
    bit: Option<u32>,
    seed: u64,
) -> SpmvFault {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let local_element = rng.gen_range(0..n.max(1));
    SpmvFault {
        rank: 0,
        at_application,
        local_element,
        bit: bit.unwrap_or_else(|| rng.gen_range(0..64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{DistCsr, DistVector};
    use crate::kernel::{DistSpace, KrylovSpace};
    use resilient_linalg::{poisson1d, CsrMatrix};
    use resilient_runtime::{Comm, RuntimeConfig};

    /// `count` products of `a` with a vector of ones on a 1-rank space, and
    /// the flips that landed.
    fn products(a: &CsrMatrix, fault: Option<SpmvFault>, count: usize) -> (Vec<Vec<f64>>, usize) {
        let mut comm = Comm::solo(&RuntimeConfig::fast());
        let da = DistCsr::from_global(&mut comm, a).unwrap();
        let x = DistVector::from_fn(&comm, a.nrows(), |_| 1.0);
        let mut space = DistSpace::new(&mut comm, &da);
        if let Some(f) = fault {
            space = space.with_fault(f);
        }
        let ys = (0..count).map(|_| space.apply(&x).unwrap().local).collect();
        (ys, space.injections())
    }

    #[test]
    fn no_plan_is_transparent() {
        let a = poisson1d(6);
        let (ys, injections) = products(&a, None, 1);
        assert_eq!(ys[0], a.spmv(&[1.0; 6]));
        assert_eq!(injections, 0);
    }

    #[test]
    fn injects_exactly_once_at_planned_application() {
        let a = poisson1d(8);
        let fault = SpmvFault {
            rank: 0,
            at_application: 2,
            local_element: 3,
            bit: 52,
        };
        let (ys, injections) = products(&a, Some(fault), 4);
        let clean = a.spmv(&[1.0; 8]);
        assert_eq!(ys[0], clean, "application 0 is clean");
        assert_eq!(ys[1], clean, "application 1 is clean");
        assert_ne!(
            ys[2][3].to_bits(),
            clean[3].to_bits(),
            "application 2 is corrupted"
        );
        assert_eq!(ys[2][3].to_bits(), clean[3].to_bits() ^ (1 << 52));
        // Subsequent applications are clean again (single-event upset).
        assert_eq!(ys[3], clean);
        assert_eq!(injections, 1);
    }

    #[test]
    fn random_target_stays_in_bounds() {
        for seed in 0..20 {
            let fault = random_spmv_fault(5, 0, None, seed);
            assert!(fault.local_element < 5);
            assert!(fault.bit < 64);
            assert_eq!(
                random_spmv_fault(5, 0, None, seed),
                fault,
                "a function of the seed"
            );
            assert_eq!(random_spmv_fault(5, 0, Some(7), seed).bit, 7);
        }
    }

    #[test]
    fn element_target_is_clamped() {
        let a = poisson1d(4);
        let fault = SpmvFault {
            rank: 0,
            at_application: 0,
            local_element: 100,
            bit: 1,
        };
        let (ys, injections) = products(&a, Some(fault), 1);
        let clean = a.spmv(&[1.0; 4]);
        assert_eq!(injections, 1);
        assert_eq!(ys[0][..3], clean[..3]);
        assert_ne!(
            ys[0][3].to_bits(),
            clean[3].to_bits(),
            "clamped to the last element"
        );
    }
}
