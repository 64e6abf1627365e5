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
//! density is row-major, `data[i * nν + j]`: the ν-sweep runs on each
//! contiguous column, and the two q-direction sub-steps sweep the q-rows
//! with all nν lanes advancing together, so no q-line is gathered or
//! scattered. Crank–Nicolson diffusion factors its tridiagonal matrix
//! once per distinct dt (the CFL step, so almost never twice) and then
//! costs one forward and one back-substitution pass per step. The
//! q = 0 face is blocked (the paper's empty-queue convention), the outer
//! faces are blocked too (domain must be large enough; audited by
//! [`crate::density::Density::boundary_mass_fraction`]).

use crate::density::Density;
use crate::fv::{advect_sweep, Limiter, RowAdvection, RowDiffusion};
use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};

/// How the diffusion term is integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffusionScheme {
    /// Forward Euler — cheap, needs `σ²/2·dt/dq² ≤ 0.5` (folded into the
    /// CFL computation).
    Explicit,
    /// Crank–Nicolson — unconditionally stable; the tridiagonal matrix is
    /// factored once per dt and every ν-row is solved in the same two
    /// passes over the grid.
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
/// the O(nν) scratch of the q-direction kernels.
pub struct FpSolver<L> {
    problem: FpProblem<L>,
    density: Density,
    t: f64,
    /// ν-advection face velocities per q-column: `w[i * (ny+1) + k]`.
    vel_nu: Vec<f64>,
    flux_nu: Vec<f64>,
    /// q-advection of all ν-rows at once, lane j at velocity ν_j.
    q_advection: RowAdvection,
    /// q-diffusion of all ν-rows at once.
    q_diffusion: RowDiffusion,
}

impl<L: RateControl> FpSolver<L> {
    /// Create a solver from a problem and an initial density.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for a μ that is not finite and
    /// positive, a σ² that is not finite and non-negative, a CFL factor
    /// outside (0, 1], or a grid with fewer than 2 cells on an axis.
    pub fn new(problem: FpProblem<L>, initial: Density) -> Result<Self> {
        if !(problem.mu > 0.0 && problem.mu.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: mu must be finite and > 0",
            });
        }
        if !(problem.sigma2 >= 0.0 && problem.sigma2.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: sigma2 must be finite and >= 0",
            });
        }
        if !(problem.cfl > 0.0 && problem.cfl <= 1.0) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: cfl must lie in (0, 1]",
            });
        }
        let nx = initial.grid.x.n();
        let ny = initial.grid.y.n();
        if nx < 2 || ny < 2 {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: the grid needs at least 2 cells per axis",
            });
        }
        // Pre-compute ν-face velocities g(q_i, ν_face + μ) per column.
        let mut vel_nu = vec![0.0; nx * (ny + 1)];
        for i in 0..nx {
            let q = initial.grid.x.center(i);
            for k in 0..=ny {
                let nu_face = initial.grid.y.face(k);
                vel_nu[i * (ny + 1) + k] = problem.law.g(q, nu_face + problem.mu);
            }
        }
        let q_advection = RowAdvection::new(initial.grid.y.centers());
        Ok(Self {
            problem,
            density: initial,
            t: 0.0,
            vel_nu,
            flux_nu: vec![0.0; ny + 1],
            q_advection,
            q_diffusion: RowDiffusion::new(nx, ny),
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
    /// [`NumericsError::InvalidParameter`] unless `dt` is finite and
    /// positive.
    pub fn step(&mut self, dt: f64) -> Result<()> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver::step: dt must be finite and > 0",
            });
        }
        // Strang: Aq(dt/2) Aν(dt/2) D(dt) Aν(dt/2) Aq(dt/2).
        self.advect_q(0.5 * dt);
        self.advect_nu(0.5 * dt);
        self.diffuse(dt);
        self.advect_nu(0.5 * dt);
        self.advect_q(0.5 * dt);
        self.t += dt;
        Ok(())
    }

    /// Integrate until `t_end`, choosing steps from the CFL bound.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] unless `t_end` is finite and
    /// `>= self.time()`.
    pub fn run_until(&mut self, t_end: f64) -> Result<()> {
        if !t_end.is_finite() {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver::run_until: t_end must be finite",
            });
        }
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
        let dq = self.density.grid.x.dx();
        self.q_advection
            .sweep(&mut self.density.data, dq, dt, self.problem.limiter);
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

    fn diffuse(&mut self, dt: f64) {
        if self.problem.sigma2 == 0.0 {
            return;
        }
        let dq = self.density.grid.x.dx();
        let d = 0.5 * self.problem.sigma2;
        let data = &mut self.density.data;
        match self.problem.diffusion {
            DiffusionScheme::Explicit => self.q_diffusion.explicit(data, d, dq, dt),
            DiffusionScheme::CrankNicolson => self.q_diffusion.crank_nicolson(data, d, dq, dt),
        }
    }
}

#[cfg(test)]
mod reference {
    //! The q-direction step as it was before the row-batched kernels:
    //! gather each strided q-line, run a 1-D kernel, scatter it back.
    //! Kept as the reference [`super::FpSolver::step`] and the
    //! [`crate::classic::Classic1dSolver`] must match bit for bit.

    use super::{DiffusionScheme, FpProblem};
    use crate::density::Density;
    use crate::fv::advect_sweep;
    use fpk_congestion::RateControl;

    /// Explicit zero-flux diffusion of one line.
    fn diffuse_explicit(f: &mut [f64], d: f64, dx: f64, dt: f64) {
        let n = f.len();
        let r = d * dt / (dx * dx);
        let old = f.to_vec();
        for i in 0..n {
            let left = if i == 0 { 0.0 } else { old[i] - old[i - 1] };
            let right = if i == n - 1 { 0.0 } else { old[i + 1] - old[i] };
            f[i] += r * (right - left);
        }
    }

    /// Crank–Nicolson zero-flux diffusion of one line: build the matrix,
    /// then the full Thomas solve.
    pub fn diffuse_crank_nicolson(f: &mut [f64], d: f64, dx: f64, dt: f64) {
        let n = f.len();
        let r = 0.5 * d * dt / (dx * dx);
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let left = if i == 0 { 0.0 } else { f[i] - f[i - 1] };
            let right = if i == n - 1 { 0.0 } else { f[i + 1] - f[i] };
            rhs[i] = f[i] + r * (right - left);
        }
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 || i == n - 1 {
                    1.0 + r
                } else {
                    1.0 + 2.0 * r
                }
            })
            .collect();
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -r }).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -r }).collect();
        let mut c = vec![0.0; n];
        let mut beta = diag[0];
        c[0] = sup[0] / beta;
        rhs[0] /= beta;
        for i in 1..n {
            beta = diag[i] - sub[i] * c[i - 1];
            c[i] = sup[i] / beta;
            rhs[i] = (rhs[i] - sub[i] * rhs[i - 1]) / beta;
        }
        for i in (0..n - 1).rev() {
            rhs[i] -= c[i] * rhs[i + 1];
        }
        f.copy_from_slice(&rhs);
    }

    /// One Strang step of Eq. 14 on `den`, gathering every q-line.
    pub fn step<L: RateControl>(p: &FpProblem<L>, den: &mut Density, dt: f64) {
        let (nx, ny) = (den.grid.x.n(), den.grid.y.n());
        let (dq, dnu) = (den.grid.x.dx(), den.grid.y.dx());
        let advect_q = |den: &mut Density, h: f64| {
            for j in 0..ny {
                let nu = den.grid.y.center(j);
                if nu == 0.0 {
                    continue;
                }
                let mut line: Vec<f64> = (0..nx).map(|i| den.data[i * ny + j]).collect();
                let mut flux = vec![0.0; nx + 1];
                advect_sweep(&mut line, &vec![nu; nx + 1], dq, h, p.limiter, &mut flux);
                for (i, v) in line.into_iter().enumerate() {
                    den.data[i * ny + j] = v;
                }
            }
        };
        let advect_nu = |den: &mut Density, h: f64| {
            for i in 0..nx {
                let q = den.grid.x.center(i);
                let vel: Vec<f64> = (0..=ny)
                    .map(|k| p.law.g(q, den.grid.y.face(k) + p.mu))
                    .collect();
                let mut flux = vec![0.0; ny + 1];
                let col = &mut den.data[i * ny..(i + 1) * ny];
                advect_sweep(col, &vel, dnu, h, p.limiter, &mut flux);
            }
        };
        advect_q(den, 0.5 * dt);
        advect_nu(den, 0.5 * dt);
        if p.sigma2 != 0.0 {
            let d = 0.5 * p.sigma2;
            for j in 0..ny {
                let mut line: Vec<f64> = (0..nx).map(|i| den.data[i * ny + j]).collect();
                match p.diffusion {
                    DiffusionScheme::Explicit => diffuse_explicit(&mut line, d, dq, dt),
                    DiffusionScheme::CrankNicolson => {
                        diffuse_crank_nicolson(&mut line, d, dq, dt);
                    }
                }
                for (i, v) in line.into_iter().enumerate() {
                    den.data[i * ny + j] = v;
                }
            }
        }
        advect_nu(den, 0.5 * dt);
        advect_q(den, 0.5 * dt);
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
        type Edit = fn(&mut FpProblem<LinearExp>);
        let law = LinearExp::standard();
        let grid = Density::standard_grid(10.0, -2.0, 2.0, 10, 10).unwrap();
        let init = Density::gaussian(grid, 5.0, 0.0, 1.0, 0.5).unwrap();
        let base = FpProblem::new(law, 5.0, 0.1);
        let cases: [(&str, Edit); 11] = [
            ("mu = 0", |p| p.mu = 0.0),
            ("mu < 0", |p| p.mu = -1.0),
            ("mu = inf", |p| p.mu = f64::INFINITY),
            ("mu = NaN", |p| p.mu = f64::NAN),
            ("sigma2 < 0", |p| p.sigma2 = -1.0),
            ("sigma2 = inf", |p| p.sigma2 = f64::INFINITY),
            ("sigma2 = NaN", |p| p.sigma2 = f64::NAN),
            ("cfl = 0", |p| p.cfl = 0.0),
            ("cfl > 1", |p| p.cfl = 1.5),
            ("cfl = NaN", |p| p.cfl = f64::NAN),
            ("valid", |_| {}),
        ];
        for (what, edit) in cases {
            let mut p = base.clone();
            edit(&mut p);
            let r = FpSolver::new(p, init.clone());
            if what == "valid" {
                assert!(r.is_ok());
            } else {
                assert!(
                    matches!(r, Err(NumericsError::InvalidParameter { .. })),
                    "{what} accepted"
                );
            }
        }
        for (nq, nnu) in [(1, 10), (10, 1)] {
            let grid = Density::standard_grid(10.0, -2.0, 2.0, nq, nnu).unwrap();
            let thin = Density::gaussian(grid, 5.0, 0.0, 1.0, 0.5).unwrap();
            assert!(
                matches!(
                    FpSolver::new(base.clone(), thin),
                    Err(NumericsError::InvalidParameter { .. })
                ),
                "{nq}x{nnu} grid accepted"
            );
        }
    }

    #[test]
    fn run_until_rejects_past_times() {
        type Call = fn(&mut FpSolver<LinearExp>) -> Result<()>;
        let (p, init) = small_problem(0.3);
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(1.0).unwrap();
        let (t, before) = (s.time(), s.density().data.clone());
        let cases: [(&str, Call); 9] = [
            ("run_until(0.5)", |s| s.run_until(0.5)),
            ("run_until(NaN)", |s| s.run_until(f64::NAN)),
            ("run_until(inf)", |s| s.run_until(f64::INFINITY)),
            ("run_until(-inf)", |s| s.run_until(f64::NEG_INFINITY)),
            ("step(NaN)", |s| s.step(f64::NAN)),
            ("step(-1)", |s| s.step(-1.0)),
            ("step(0)", |s| s.step(0.0)),
            ("step(inf)", |s| s.step(f64::INFINITY)),
            ("step(-inf)", |s| s.step(f64::NEG_INFINITY)),
        ];
        for (what, call) in cases {
            assert!(
                matches!(call(&mut s), Err(NumericsError::InvalidParameter { .. })),
                "{what} accepted"
            );
            assert_eq!(s.time(), t, "{what} moved the clock");
            assert_eq!(s.density().data, before, "{what} moved the density");
        }
    }

    fn assert_bit_equal(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: cell {k}: {a} vs {b}");
        }
    }

    const LIMITERS: [Limiter; 4] = [
        Limiter::Upwind,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
    ];
    const SCHEMES: [DiffusionScheme; 2] =
        [DiffusionScheme::Explicit, DiffusionScheme::CrankNicolson];

    #[test]
    fn batched_step_matches_gathering_reference() {
        // 37×23 on a symmetric ν-range has a ν-centre at exactly 0.
        let grids = [
            (30, 18, -5.0, 6.0),
            (100, 60, -5.0, 6.0),
            (37, 23, -5.75, 5.75),
        ];
        for (nq, nnu, lo, hi) in grids {
            let grid = Density::standard_grid(30.0, lo, hi, nq, nnu).unwrap();
            if nnu == 23 {
                assert!((0..nnu).any(|j| grid.y.center(j) == 0.0));
            }
            // Near q = 0, so the blocked face and the short stencils act.
            let init = Density::gaussian(grid, 3.0, -1.0, 1.5, 0.8).unwrap();
            for limiter in LIMITERS {
                for diffusion in SCHEMES {
                    let mut p = FpProblem::new(LinearExp::new(1.0, 0.5, 10.0), 5.0, 0.5);
                    p.limiter = limiter;
                    p.diffusion = diffusion;
                    let mut s = FpSolver::new(p.clone(), init.clone()).unwrap();
                    let mut want = init.clone();
                    let dt = s.max_dt();
                    for _ in 0..12 {
                        s.step(dt).unwrap();
                        reference::step(&p, &mut want, dt);
                    }
                    let what = format!("{nq}x{nnu} {limiter:?}/{diffusion:?}");
                    assert_bit_equal(&s.density().data, &want.data, &what);
                }
            }
        }
    }

    #[test]
    fn run_until_refactors_when_dt_changes() {
        // Each run ends on a short step, so the diffusion factor is
        // rebuilt for it and again for the next run's full steps.
        let (mut p, init) = small_problem(0.5);
        for diffusion in SCHEMES {
            p.diffusion = diffusion;
            let mut s = FpSolver::new(p.clone(), init.clone()).unwrap();
            let dt_max = s.max_dt();
            let mut want = init.clone();
            let mut t = 0.0;
            for t_end in [3.3 * dt_max, 7.9 * dt_max] {
                s.run_until(t_end).unwrap();
                while t < t_end - 1e-12 {
                    let dt = dt_max.min(t_end - t);
                    reference::step(&p, &mut want, dt);
                    t += dt;
                }
                assert_bit_equal(&s.density().data, &want.data, &format!("{diffusion:?}"));
            }
        }
    }

    #[test]
    fn classic_solver_matches_reference() {
        use crate::classic::{Classic1d, Classic1dSolver};
        use fpk_numerics::grid::Grid1d;
        let grid = Grid1d::new(0.0, 10.0, 80).unwrap();
        let drift = |q: f64| 1.0 - 0.4 * q;
        let init: Vec<f64> = (0..grid.n())
            .map(|i| (-(grid.center(i) - 2.0).powi(2)).exp())
            .collect();
        let problem = Classic1d {
            drift,
            sigma2: 0.8,
            grid: grid.clone(),
        };
        let mut s = Classic1dSolver::new(problem, &init).unwrap();
        let dt_max = s.max_dt();
        let t_end = 40.5 * dt_max;
        s.run_until(t_end).unwrap();

        let dx = grid.dx();
        let mass: f64 = init.iter().sum::<f64>() * dx;
        let mut f: Vec<f64> = init.iter().map(|v| v / mass).collect();
        let vel: Vec<f64> = (0..=grid.n()).map(|k| drift(grid.face(k))).collect();
        let mut flux = vec![0.0; grid.n() + 1];
        let mut t = 0.0;
        while t < t_end - 1e-12 {
            let dt = dt_max.min(t_end - t);
            advect_sweep(&mut f, &vel, dx, 0.5 * dt, Limiter::VanLeer, &mut flux);
            reference::diffuse_crank_nicolson(&mut f, 0.4, dx, dt);
            advect_sweep(&mut f, &vel, dx, 0.5 * dt, Limiter::VanLeer, &mut flux);
            t += dt;
        }
        assert_bit_equal(s.density(), &f, "classic");
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
