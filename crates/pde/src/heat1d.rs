//! Serial 1-D heat equation reference: explicit stepping and the analytic
//! solution used to verify every distributed / resilient variant.
//!
//! The model problem is `u_t = κ·u_xx` on `(0, 1)` with homogeneous Dirichlet
//! boundaries and initial condition `u(x, 0) = sin(πx)`, whose exact solution
//! is `u(x, t) = e^{-κπ²t}·sin(πx)`.

/// Problem description for the 1-D heat equation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatProblem {
    /// Number of interior grid points.
    pub n: usize,
    /// Diffusivity κ.
    pub kappa: f64,
    /// Time-step size (must satisfy the explicit stability limit
    /// `dt ≤ dx²/(2κ)` for explicit stepping).
    pub dt: f64,
}

impl HeatProblem {
    /// A stable explicit configuration with `n` interior points: `dt` is set
    /// to 40 % of the stability limit.
    pub fn stable(n: usize, kappa: f64) -> Self {
        let dx = 1.0 / (n as f64 + 1.0);
        Self {
            n,
            kappa,
            dt: 0.4 * dx * dx / kappa,
        }
    }

    /// Grid spacing.
    pub fn dx(&self) -> f64 {
        1.0 / (self.n as f64 + 1.0)
    }

    /// Coordinate of interior point `i` (0-based).
    pub fn x(&self, i: usize) -> f64 {
        (i as f64 + 1.0) * self.dx()
    }

    /// Initial condition sampled on the interior grid.
    pub fn initial(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| (std::f64::consts::PI * self.x(i)).sin())
            .collect()
    }

    /// Exact solution at time `t` on the interior grid.
    fn exact(&self, t: f64) -> Vec<f64> {
        let pi = std::f64::consts::PI;
        let decay = (-self.kappa * pi * pi * t).exp();
        (0..self.n)
            .map(|i| decay * (pi * self.x(i)).sin())
            .collect()
    }

    /// Courant number `κ·dt/dx²` (explicit stepping is stable for ≤ 0.5).
    pub fn courant(&self) -> f64 {
        self.kappa * self.dt / (self.dx() * self.dx())
    }

    /// One explicit (forward-Euler) step applied in place, with Dirichlet
    /// zero boundaries.
    fn explicit_step(&self, u: &mut Vec<f64>) {
        let r = self.courant();
        let n = u.len();
        let mut next = vec![0.0; n];
        for i in 0..n {
            let left = if i > 0 { u[i - 1] } else { 0.0 };
            let right = if i + 1 < n { u[i + 1] } else { 0.0 };
            next[i] = u[i] + r * (left - 2.0 * u[i] + right);
        }
        *u = next;
    }

    /// Run `steps` explicit steps from the initial condition and return the
    /// final field.
    pub fn run_explicit(&self, steps: usize) -> Vec<f64> {
        let mut u = self.initial();
        for _ in 0..steps {
            self.explicit_step(&mut u);
        }
        u
    }

    /// Discrete L2 error of `u` against the exact solution at time `t`.
    pub fn l2_error(&self, u: &[f64], t: f64) -> f64 {
        let exact = self.exact(t);
        let dx = self.dx();
        u.iter()
            .zip(&exact)
            .map(|(a, b)| (a - b) * (a - b) * dx)
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_configuration_respects_cfl() {
        let p = HeatProblem::stable(64, 1.0);
        assert!(p.courant() <= 0.5);
        assert!(p.courant() > 0.1);
        assert!((p.dx() - 1.0 / 65.0).abs() < 1e-15);
    }

    #[test]
    fn initial_condition_is_sine() {
        let p = HeatProblem::stable(9, 1.0);
        let u0 = p.initial();
        assert_eq!(u0.len(), 9);
        // Symmetric about the midpoint, maximum in the middle.
        assert!((u0[4] - 1.0).abs() < 1e-2);
        assert!((u0[0] - u0[8]).abs() < 1e-12);
    }

    #[test]
    fn explicit_solution_tracks_exact_solution() {
        let p = HeatProblem::stable(64, 1.0);
        let steps = 200;
        let u = p.run_explicit(steps);
        let t = steps as f64 * p.dt;
        let err = p.l2_error(&u, t);
        assert!(err < 5e-4, "L2 error {err} too large");
        // And the error shrinks with resolution (first-order in dt, second in dx).
        let p2 = HeatProblem::stable(128, 1.0);
        let steps2 = (t / p2.dt).round() as usize;
        let u2 = p2.run_explicit(steps2);
        let err2 = p2.l2_error(&u2, steps2 as f64 * p2.dt);
        assert!(
            err2 < err,
            "refinement must reduce the error: {err2} vs {err}"
        );
    }

    #[test]
    fn heat_decays_monotonically() {
        let p = HeatProblem::stable(32, 1.0);
        let mut u = p.initial();
        let mut prev: f64 = u.iter().sum();
        for _ in 0..50 {
            p.explicit_step(&mut u);
            let now: f64 = u.iter().sum();
            assert!(now <= prev + 1e-12, "total heat must not grow");
            prev = now;
        }
        assert!(prev > 0.0);
    }
}
