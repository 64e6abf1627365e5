//! The Fokker–Planck solver for Eq. 14 of the paper:
//!
//! ```text
//! f_t + ν f_q + (g f)_ν = (σ²/2) f_qq
//! ```
//!
//! evolved on a 2-D grid by Strang splitting:
//!
//! 1. advect in q with velocity ν (constant along each ν-row),
//! 2. advect in ν with velocity `g(q, ν + μ)` (the control law),
//! 3. diffuse in q with coefficient σ²/2,
//!
//! each sub-step using the conservative kernels of [`crate::fv`]. The
//! q = 0 face is blocked (the paper's empty-queue convention), the outer
//! faces are blocked too (domain must be large enough; audited by
//! [`crate::density::Density::boundary_mass_fraction`]).

use crate::density::Density;
use crate::fv::{advect_sweep, diffuse_crank_nicolson, diffuse_explicit, Limiter};
use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};

/// How the diffusion term is integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffusionScheme {
    /// Forward Euler — cheap, needs `σ²/2·dt/dq² ≤ 0.5` (folded into the
    /// CFL computation).
    Explicit,
    /// Crank–Nicolson — unconditionally stable tridiagonal solve per
    /// ν-row.
    CrankNicolson,
}

/// Problem specification for the Fokker–Planck evolution.
#[derive(Debug, Clone)]
pub struct FpProblem<L> {
    /// The rate-control law supplying the ν-drift `g`.
    pub law: L,
    /// Bottleneck service rate μ (ν = λ − μ).
    pub mu: f64,
    /// Diffusion strength σ² (variance rate of the queue noise).
    pub sigma2: f64,
    /// Flux limiter for the advection sweeps.
    pub limiter: Limiter,
    /// Diffusion integration scheme.
    pub diffusion: DiffusionScheme,
    /// CFL safety factor in (0, 1].
    pub cfl: f64,
}

impl<L: RateControl> FpProblem<L> {
    /// Standard configuration: van Leer limiter, Crank–Nicolson
    /// diffusion, CFL 0.8.
    pub fn new(law: L, mu: f64, sigma2: f64) -> Self {
        Self {
            law,
            mu,
            sigma2,
            limiter: Limiter::VanLeer,
            diffusion: DiffusionScheme::CrankNicolson,
            cfl: 0.8,
        }
    }
}

/// The time stepper: owns the density, pre-computed face velocities and
/// scratch buffers.
pub struct FpSolver<L> {
    problem: FpProblem<L>,
    density: Density,
    t: f64,
    /// ν-advection face velocities per q-column: `w[i * (ny+1) + k]`.
    vel_nu: Vec<f64>,
    /// q-advection face velocities per ν-row (length nx+1 each, but the
    /// interior value is the constant ν_j; stored per row for the sweep
    /// API).
    vel_q_row: Vec<f64>,
    // Scratch buffers.
    line_q: Vec<f64>,
    flux_q: Vec<f64>,
    flux_nu: Vec<f64>,
    cn_bufs: [Vec<f64>; 5],
}

impl<L: RateControl> FpSolver<L> {
    /// Create a solver from a problem and an initial density.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for non-positive μ, negative
    /// σ², or a CFL factor outside (0, 1].
    pub fn new(problem: FpProblem<L>, initial: Density) -> Result<Self> {
        if !(problem.mu > 0.0) || problem.sigma2 < 0.0 {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: need mu > 0 and sigma2 >= 0",
            });
        }
        if !(problem.cfl > 0.0 && problem.cfl <= 1.0) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: cfl must lie in (0, 1]",
            });
        }
        let nx = initial.grid.x.n();
        let ny = initial.grid.y.n();
        // Pre-compute ν-face velocities g(q_i, ν_face + μ) per column.
        let mut vel_nu = vec![0.0; nx * (ny + 1)];
        for i in 0..nx {
            let q = initial.grid.x.center(i);
            for k in 0..=ny {
                let nu_face = initial.grid.y.face(k);
                vel_nu[i * (ny + 1) + k] = problem.law.g(q, nu_face + problem.mu);
            }
        }
        let cn = [
            vec![0.0; nx],
            vec![0.0; nx],
            vec![0.0; nx],
            vec![0.0; nx],
            vec![0.0; nx],
        ];
        Ok(Self {
            problem,
            density: initial,
            t: 0.0,
            vel_nu,
            vel_q_row: vec![0.0; nx + 1],
            line_q: vec![0.0; nx],
            flux_q: vec![0.0; nx + 1],
            flux_nu: vec![0.0; ny + 1],
            cn_bufs: cn,
        })
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Borrow the current density.
    #[must_use]
    pub fn density(&self) -> &Density {
        &self.density
    }

    /// Consume the solver, returning the final density.
    #[must_use]
    pub fn into_density(self) -> Density {
        self.density
    }

    /// The largest stable time step under the CFL condition (advection in
    /// both directions, plus diffusion when explicit).
    #[must_use]
    pub fn max_dt(&self) -> f64 {
        let g = &self.density.grid;
        let max_nu = g.y.lo().abs().max(g.y.hi().abs());
        let mut dt = self.problem.cfl * g.x.dx() / max_nu.max(1e-12);
        let max_g = self
            .vel_nu
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-12);
        dt = dt.min(self.problem.cfl * g.y.dx() / max_g);
        if self.problem.diffusion == DiffusionScheme::Explicit && self.problem.sigma2 > 0.0 {
            dt = dt.min(self.problem.cfl * g.x.dx() * g.x.dx() / self.problem.sigma2);
        }
        dt
    }

    /// Advance exactly one Strang-split step of size `dt` (caller must
    /// respect [`FpSolver::max_dt`]).
    ///
    /// # Errors
    /// Propagates tridiagonal-solve failures from Crank–Nicolson (cannot
    /// occur for valid parameters).
    pub fn step(&mut self, dt: f64) -> Result<()> {
        // Strang: Aq(dt/2) Aν(dt/2) D(dt) Aν(dt/2) Aq(dt/2).
        self.advect_q(0.5 * dt);
        self.advect_nu(0.5 * dt);
        self.diffuse(dt)?;
        self.advect_nu(0.5 * dt);
        self.advect_q(0.5 * dt);
        self.t += dt;
        Ok(())
    }

    /// Integrate until `t_end`, choosing steps from the CFL bound.
    ///
    /// # Errors
    /// Propagates [`FpSolver::step`]; rejects `t_end < self.time()`.
    pub fn run_until(&mut self, t_end: f64) -> Result<()> {
        if t_end < self.t {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver::run_until: t_end must be >= current time",
            });
        }
        let dt_max = self.max_dt();
        while self.t < t_end - 1e-12 {
            let dt = dt_max.min(t_end - self.t);
            self.step(dt)?;
        }
        Ok(())
    }

    fn advect_q(&mut self, dt: f64) {
        let nx = self.density.grid.x.n();
        let ny = self.density.grid.y.n();
        let dq = self.density.grid.x.dx();
        for j in 0..ny {
            let nu = self.density.grid.y.center(j);
            if nu == 0.0 {
                continue;
            }
            for v in self.vel_q_row.iter_mut() {
                *v = nu;
            }
            // Gather the strided q-line, sweep, scatter back.
            for i in 0..nx {
                self.line_q[i] = self.density.data[i * ny + j];
            }
            advect_sweep(
                &mut self.line_q,
                &self.vel_q_row,
                dq,
                dt,
                self.problem.limiter,
                &mut self.flux_q,
            );
            for i in 0..nx {
                self.density.data[i * ny + j] = self.line_q[i];
            }
        }
    }

    fn advect_nu(&mut self, dt: f64) {
        let nx = self.density.grid.x.n();
        let ny = self.density.grid.y.n();
        let dnu = self.density.grid.y.dx();
        for i in 0..nx {
            let vel = &self.vel_nu[i * (ny + 1)..(i + 1) * (ny + 1)];
            let col = &mut self.density.data[i * ny..(i + 1) * ny];
            advect_sweep(col, vel, dnu, dt, self.problem.limiter, &mut self.flux_nu);
        }
    }

    fn diffuse(&mut self, dt: f64) -> Result<()> {
        if self.problem.sigma2 == 0.0 {
            return Ok(());
        }
        let nx = self.density.grid.x.n();
        let ny = self.density.grid.y.n();
        let dq = self.density.grid.x.dx();
        let d = 0.5 * self.problem.sigma2;
        for j in 0..ny {
            for i in 0..nx {
                self.line_q[i] = self.density.data[i * ny + j];
            }
            match self.problem.diffusion {
                DiffusionScheme::Explicit => {
                    diffuse_explicit(&mut self.line_q, d, dq, dt, &mut self.cn_bufs[0]);
                }
                DiffusionScheme::CrankNicolson => {
                    let [b0, b1, b2, b3, b4] = &mut self.cn_bufs;
                    diffuse_crank_nicolson(&mut self.line_q, d, dq, dt, b0, b1, b2, b3, b4)?;
                }
            }
            for i in 0..nx {
                self.density.data[i * ny + j] = self.line_q[i];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn small_problem(sigma2: f64) -> (FpProblem<LinearExp>, Density) {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let problem = FpProblem::new(law, 5.0, sigma2);
        let grid = Density::standard_grid(30.0, -5.0, 6.0, 60, 44).unwrap();
        let init = Density::gaussian(grid, 8.0, -1.0, 1.5, 0.8).unwrap();
        (problem, init)
    }

    #[test]
    fn mass_is_conserved_without_diffusion() {
        let (p, init) = small_problem(0.0);
        let m0 = init.mass();
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(5.0).unwrap();
        let m1 = s.density().mass();
        assert!((m1 - m0).abs() < 1e-10 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn mass_is_conserved_with_diffusion() {
        let (p, init) = small_problem(0.5);
        let m0 = init.mass();
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(5.0).unwrap();
        let m1 = s.density().mass();
        assert!((m1 - m0).abs() < 1e-9 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn density_stays_non_negative() {
        let (p, init) = small_problem(0.2);
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(8.0).unwrap();
        assert!(
            s.density().min_value() >= -1e-12,
            "min value {}",
            s.density().min_value()
        );
    }

    #[test]
    fn mean_path_follows_fluid_for_small_sigma() {
        // With σ² ≈ 0 the density mean should track the deterministic
        // fluid trajectory (the PDE's characteristics).
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let problem = FpProblem::new(law, 5.0, 1e-3);
        let grid = Density::standard_grid(30.0, -5.0, 6.0, 120, 88).unwrap();
        let init = Density::gaussian(grid, 8.0, -1.0, 0.8, 0.4).unwrap();
        let mut s = FpSolver::new(problem, init).unwrap();
        // Keep the horizon short enough that essentially no density mass
        // crosses the switching line q̂ = 10 (the fluid particle and the
        // density mean agree only while the law acts linearly on the
        // bulk; once mass straddles q̂ the joint density genuinely
        // departs from the single characteristic — that is the paper's
        // point, not an error).
        let t_end = 2.0;
        s.run_until(t_end).unwrap();
        let mean_q = s.density().mean_q();
        let mean_nu = s.density().mean_nu();

        let fluid = fpk_fluid_reference(8.0, -1.0 + 5.0, 5.0, law, t_end);
        assert!(
            (mean_q - fluid.0).abs() < 0.5,
            "FP mean_q {mean_q} vs fluid {}",
            fluid.0
        );
        assert!(
            (mean_nu - (fluid.1 - 5.0)).abs() < 0.4,
            "FP mean_nu {mean_nu} vs fluid ν {}",
            fluid.1 - 5.0
        );
    }

    /// Tiny local RK4 fluid reference to avoid a circular dev-dependency
    /// on fpk-fluid. Only the queue is clamped after each step.
    fn fpk_fluid_reference(
        q0: f64,
        lambda0: f64,
        mu: f64,
        law: LinearExp,
        t_end: f64,
    ) -> (f64, f64) {
        use fpk_congestion::RateControl;
        use fpk_numerics::ode::Rk4;
        let mut field = |_t: f64, y: &[f64], dydt: &mut [f64]| {
            let (qe, l) = (y[0].max(0.0), y[1]);
            dydt[0] = if qe <= 0.0 && l < mu { 0.0 } else { l - mu };
            dydt[1] = law.g(qe, l);
        };
        let dt = 1e-4;
        let steps = (t_end / dt) as usize;
        let mut rk4 = Rk4::new(2);
        let mut y = [q0, lambda0];
        for s in 0..steps {
            rk4.step(&mut field, s as f64 * dt, &mut y, dt);
            y[0] = y[0].max(0.0);
        }
        (y[0], y[1])
    }

    #[test]
    fn diffusion_spreads_q_variance() {
        // With g ≈ 0 (flat law far from threshold) and ν mass at 0, the
        // q-marginal should spread like a pure diffusion: var += σ²·t.
        let law = LinearExp::new(0.0, 0.5, 1e9); // threshold never crossed, C0 = 0
        let problem = FpProblem::new(law, 5.0, 0.8);
        let grid = Density::standard_grid(40.0, -1.0, 1.0, 160, 8).unwrap();
        let init = Density::gaussian(grid, 20.0, 0.0, 1.0, 0.1).unwrap();
        let v0 = init.var_q();
        let mut s = FpSolver::new(problem, init).unwrap();
        let t_end = 4.0;
        s.run_until(t_end).unwrap();
        let v1 = s.density().var_q();
        let expected = v0 + 0.8 * t_end;
        assert!(
            (v1 - expected).abs() < 0.15 * expected,
            "var {v0} -> {v1}, expected {expected}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let law = LinearExp::standard();
        let grid = Density::standard_grid(10.0, -2.0, 2.0, 10, 10).unwrap();
        let init = Density::gaussian(grid, 5.0, 0.0, 1.0, 0.5).unwrap();
        let mut p = FpProblem::new(law, 0.0, 0.1);
        assert!(FpSolver::new(p.clone(), init.clone()).is_err());
        p.mu = 5.0;
        p.sigma2 = -1.0;
        assert!(FpSolver::new(p.clone(), init.clone()).is_err());
        p.sigma2 = 0.1;
        p.cfl = 0.0;
        assert!(FpSolver::new(p, init).is_err());
    }

    #[test]
    fn run_until_rejects_past_times() {
        let (p, init) = small_problem(0.0);
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(1.0).unwrap();
        assert!(s.run_until(0.5).is_err());
    }

    #[test]
    fn max_dt_positive_and_respects_grid() {
        let (p, init) = small_problem(0.3);
        let s = FpSolver::new(p, init).unwrap();
        let dt = s.max_dt();
        assert!(dt > 0.0 && dt < 1.0, "dt = {dt}");
    }

    #[test]
    fn mass_drifts_toward_target_region() {
        // Start far below target with λ < μ: the controller should sweep
        // the density toward (q̂, ν = 0) over time.
        let (p, init) = small_problem(0.1);
        let q_hat = p.law.q_hat;
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(40.0).unwrap();
        let mean_q = s.density().mean_q();
        let mean_nu = s.density().mean_nu();
        assert!(
            (mean_q - q_hat).abs() < 3.0,
            "mean q {mean_q} should approach q̂ = {q_hat}"
        );
        assert!(mean_nu.abs() < 1.0, "mean ν {mean_nu} should be near 0");
    }
}
