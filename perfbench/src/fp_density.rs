//! `fp_density`: single-threaded Fokker–Planck solves as the experiment
//! binaries run them — Table 7's grid ladder extended past the L2 cache,
//! Table 6's limiters crossed with both diffusion schemes, and Figure 4's
//! stationary solves.

use crate::trace::{Layer, Trace, ROOT};
use crate::workload::{jitter, write_artifact, PassOut, Workload};
use fpk_congestion::LinearExp;
use fpk_core::solver::{DiffusionScheme, FpProblem, FpSolver};
use fpk_core::steady::{solve_stationary, SteadyOptions};
use fpk_core::{Density, Limiter};
use serde::Serialize;

const MU: f64 = 5.0;
/// Table 7's ladder, run through `run_until` as the binary runs it, to
/// t = 4 (the binary goes on to t = 12).
const LADDER: [(usize, usize); 4] = [(30, 18), (60, 36), (120, 72), (240, 144)];
const LADDER_T: f64 = 4.0;
/// Grids whose density array (8 bytes a cell) exceeds a 4 MiB L2, run
/// for a fixed number of steps.
const LARGE: [(usize, usize, u64); 2] = [(800, 720, 4), (1280, 960, 2)];
const LIMITERS: [Limiter; 3] = [Limiter::Upwind, Limiter::VanLeer, Limiter::Superbee];
const SCHEMES: [DiffusionScheme; 2] = [DiffusionScheme::Explicit, DiffusionScheme::CrankNicolson];
const LIMITER_T: f64 = 2.0;
/// Figure 4's stationary solve at Table 2's σ² (the binary solves six).
const STATIONARY: [f64; 1] = [0.4];
const STEADY: SteadyOptions = SteadyOptions {
    check_interval: 10.0,
    tol: 5e-4,
    t_max: 1500.0,
};
/// Mass drift allowed per step, and the most negative density value.
pub const MASS_TOL_PER_STEP: f64 = 1e-12;
pub const POSITIVITY_TOL: f64 = -1e-12;
/// Stationary mean queue must sit within this of the limit point q̂ = 10
/// (the bound `fpk_core::steady`'s own tests use), mean ν within
/// `NU_TOL` of 0.
pub const QHAT_TOL: f64 = 2.5;
pub const NU_TOL: f64 = 0.1;

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Run to a time through `run_until`.
    Until(f64),
    /// A fixed number of CFL-sized steps.
    Steps(u64),
    Stationary,
}

struct Job {
    label: String,
    kind: Kind,
    problem: FpProblem<LinearExp>,
    init: Density,
    init_mass: f64,
}

#[derive(Serialize)]
struct Row {
    job: String,
    nq: usize,
    nnu: usize,
    steps: u64,
    mean_q: f64,
    var_q: f64,
    mean_nu: f64,
    mass_error: f64,
    min_value: f64,
}

pub struct FpDensity {
    jobs: Vec<Job>,
    l2_bytes: usize,
}

/// Steps `FpSolver::run_until(t_end)` takes from time `t`, replaying
/// its float arithmetic; returns the count and the solver's end time.
pub fn steps_between(mut t: f64, t_end: f64, dt_max: f64) -> (u64, f64) {
    let mut n = 0;
    while t < t_end - 1e-12 {
        t += dt_max.min(t_end - t);
        n += 1;
    }
    (n, t)
}

/// Steps `solve_stationary` took to converge at `t_converged`.
fn stationary_steps(dt_max: f64, t_converged: f64) -> u64 {
    let (mut t, mut n) = (0.0, 0);
    while t < t_converged {
        let (k, end) = steps_between(t, t + STEADY.check_interval, dt_max);
        n += k;
        t = end;
    }
    n
}

impl Job {
    fn new(label: String, kind: Kind, problem: FpProblem<LinearExp>, init: Density) -> Self {
        let init_mass = init.mass();
        Self {
            label,
            kind,
            problem,
            init,
            init_mass,
        }
    }

    fn cells(&self) -> usize {
        self.init.grid.x.n() * self.init.grid.y.n()
    }

    /// Run the job; returns (steps, ok, row).
    fn run(&self, trace: &mut Trace, l2_bytes: usize) -> (u64, bool, Option<Row>) {
        let init = self.init.clone();
        let solver = trace.record(Layer::Fp, "fp.new", 1, ROOT, || {
            FpSolver::new(self.problem.clone(), init)
        });
        let Ok(mut solver) = solver else {
            return (0, false, None);
        };
        let dt = solver.max_dt();
        let step_name = if self.cells() * 8 <= l2_bytes {
            "fp.step.in_l2"
        } else {
            "fp.step.over_l2"
        };
        let (steps, density) = match self.kind {
            Kind::Stationary => {
                let r = trace.record(Layer::Fp, "fp.solve_stationary", 1, ROOT, || {
                    solve_stationary(solver, &STEADY)
                });
                match r {
                    Ok(r) => (stationary_steps(dt, r.t_converged), r.density),
                    Err(_) => return (0, false, None),
                }
            }
            Kind::Until(t_end) if !trace.enabled() => {
                let (n, _) = steps_between(0.0, t_end, dt);
                if solver.run_until(t_end).is_err() {
                    return (n, false, None);
                }
                (n, solver.into_density())
            }
            Kind::Until(t_end) => {
                // `run_until`'s loop, one span per step.
                let mut n = 0;
                while solver.time() < t_end - 1e-12 {
                    let h = dt.min(t_end - solver.time());
                    if trace
                        .record(Layer::Fp, step_name, 1, ROOT, || solver.step(h))
                        .is_err()
                    {
                        return (n, false, None);
                    }
                    n += 1;
                }
                (n, solver.into_density())
            }
            Kind::Steps(n) => {
                for _ in 0..n {
                    if trace
                        .record(Layer::Fp, step_name, 1, ROOT, || solver.step(dt))
                        .is_err()
                    {
                        return (n, false, None);
                    }
                }
                (n, solver.into_density())
            }
        };
        let row = trace.record(Layer::Analysis, "analysis.moments", 1, ROOT, || Row {
            job: self.label.clone(),
            nq: density.grid.x.n(),
            nnu: density.grid.y.n(),
            steps,
            mean_q: density.mean_q(),
            var_q: density.var_q(),
            mean_nu: density.mean_nu(),
            mass_error: (density.mass() - self.init_mass).abs(),
            min_value: density.min_value(),
        });
        let conserved = row.mass_error <= MASS_TOL_PER_STEP * steps.max(1) as f64;
        let positive = row.min_value >= POSITIVITY_TOL;
        let centred = !matches!(self.kind, Kind::Stationary)
            || ((row.mean_q - 10.0).abs() <= QHAT_TOL && row.mean_nu.abs() <= NU_TOL);
        (steps, conserved && positive && centred, Some(row))
    }
}

impl Workload for FpDensity {
    fn setup(seed: u64, _workers: usize) -> Self {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let grid = |nq, nnu| Density::standard_grid(40.0, -6.0, 6.0, nq, nnu).expect("grid");
        // The seed moves the initial bump of every fixed-work solve; the
        // stationary solves keep Figure 4's start, so their step count
        // (set by when the moments settle) does not vary with the seed.
        let (q0, nu0) = (jitter(seed, 1, 2.8, 3.2), jitter(seed, 2, -3.1, -2.9));
        let bump =
            |nq, nnu| Density::gaussian(grid(nq, nnu), q0, nu0, 1.2, 0.6).expect("initial density");
        let mut jobs = Vec::new();
        for (nq, nnu) in LADDER {
            let problem = FpProblem::new(law, MU, 0.4);
            jobs.push(Job::new(
                format!("ladder {nq}x{nnu}"),
                Kind::Until(LADDER_T),
                problem,
                bump(nq, nnu),
            ));
        }
        for (nq, nnu, steps) in LARGE {
            let problem = FpProblem::new(law, MU, 0.4);
            jobs.push(Job::new(
                format!("large {nq}x{nnu}"),
                Kind::Steps(steps),
                problem,
                bump(nq, nnu),
            ));
        }
        for limiter in LIMITERS {
            for diffusion in SCHEMES {
                let mut problem = FpProblem::new(law, MU, 0.4);
                problem.limiter = limiter;
                problem.diffusion = diffusion;
                let init = Density::gaussian(grid(120, 72), q0 + 5.0, nu0 + 2.0, 1.0, 0.5)
                    .expect("initial density");
                jobs.push(Job::new(
                    format!("{limiter:?}/{diffusion:?}"),
                    Kind::Until(LIMITER_T),
                    problem,
                    init,
                ));
            }
        }
        for sigma2 in STATIONARY {
            let problem = FpProblem::new(law, MU, sigma2);
            let init =
                Density::gaussian(grid(100, 60), 10.0, 0.0, 1.5, 0.8).expect("initial density");
            jobs.push(Job::new(
                format!("stationary sigma2={sigma2}"),
                Kind::Stationary,
                problem,
                init,
            ));
        }
        Self {
            jobs,
            l2_bytes: crate::sys::cache_bytes(2, 4 << 20),
        }
    }

    fn pass(&self, trace: &mut Trace) -> PassOut {
        let mut out = PassOut::default();
        let mut rows = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let (steps, ok, row) = job.run(trace, self.l2_bytes);
            out.op(ok);
            match job.kind {
                Kind::Stationary => out.stationary_steps += steps,
                _ if job.cells() * 8 <= self.l2_bytes => {
                    out.fp_steps += steps;
                    out.fp_cells_in_l2 += steps * job.cells() as u64;
                }
                _ => {
                    out.fp_steps += steps;
                    out.fp_cells_over_l2 += steps * job.cells() as u64;
                }
            }
            rows.extend(row);
        }
        (out.artifact_bytes, out.digest) = write_artifact(trace, "perfbench_fp_density", &rows);
        out
    }

    fn workers(&self) -> usize {
        1
    }

    fn describe(&self) -> String {
        let l3 = crate::sys::cache_bytes(3, 0);
        let kib = |b: usize| b / 1024;
        let mut s = format!(
            "{} solves on 1 thread; L2 {} KiB, L3 {} KiB; density arrays:",
            self.jobs.len(),
            kib(self.l2_bytes),
            kib(l3)
        );
        let mut seen = Vec::new();
        for j in &self.jobs {
            let (nq, nnu) = (j.init.grid.x.n(), j.init.grid.y.n());
            if !seen.contains(&(nq, nnu)) {
                seen.push((nq, nnu));
                let bytes = j.cells() * 8;
                s.push_str(&format!(
                    " {nq}x{nnu}={} KiB ({:.2} L2, {:.3} L3)",
                    kib(bytes),
                    bytes as f64 / self.l2_bytes as f64,
                    if l3 > 0 {
                        bytes as f64 / l3 as f64
                    } else {
                        f64::NAN
                    }
                ));
            }
        }
        s
    }
}
