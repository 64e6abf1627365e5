//! `langevin`: Table 2's Langevin ensemble at a reduced particle count,
//! checked snapshot by snapshot against a coarse-grid Fokker–Planck
//! marginal. The Monte Carlo is where the experiment suite spends its
//! time; the PDE reference and the KS analysis are a small share.

use crate::fp_density::steps_between;
use crate::trace::{Layer, Trace, ROOT};
use crate::workload::{sub_seed, write_artifact, Extra, PassOut, Workload};
use fpk_congestion::LinearExp;
use fpk_core::montecarlo::{simulate_ensemble, McConfig};
use fpk_core::solver::{FpProblem, FpSolver};
use fpk_core::Density;
use fpk_numerics::stats::ks_sample_vs_density;
use serde::Serialize;
use std::time::Instant;

const MU: f64 = 5.0;
const SIGMA2: f64 = 0.4;
const TIMES: [f64; 5] = [1.0, 3.0, 8.0, 20.0, 60.0];
/// Table 2 runs 120 000 particles; this slice keeps one pass near two
/// seconds on two workers.
const PARTICLES: usize = 1_600;
/// Coarse PDE reference grid (Table 2 uses 200 × 120).
const GRID: (usize, usize) = (100, 60);
/// Table 2 documents KS ≈ 0.1 at stationarity (the PDE's numerical
/// ν-diffusion); the coarse grid and the small sample add to it.
pub const KS_MAX: f64 = 0.25;

#[derive(Serialize)]
struct Row {
    t: f64,
    pde_mean_q: f64,
    mc_mean_q: f64,
    pde_var_q: f64,
    mc_var_q: f64,
    ks_distance: f64,
}

pub struct Langevin {
    law: LinearExp,
    mc: McConfig,
    init: Density,
    workers: usize,
}

/// Euler–Maruyama steps the ensemble takes to reach the last snapshot,
/// counted with the same float arithmetic `simulate_ensemble` uses.
fn mc_steps(dt: f64) -> u64 {
    let mut t = 0.0f64;
    let mut steps = 0;
    for time in TIMES {
        while t < time - 1e-12 {
            t += dt.min(time - t);
            steps += 1;
        }
    }
    steps
}

impl Langevin {
    fn ensemble(
        &self,
        threads: usize,
    ) -> fpk_numerics::Result<Vec<fpk_core::montecarlo::McSnapshot>> {
        let cfg = McConfig {
            threads,
            ..self.mc.clone()
        };
        simulate_ensemble(&self.law, &cfg, &TIMES)
    }
}

impl Workload for Langevin {
    fn setup(seed: u64, workers: usize) -> Self {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let grid = Density::standard_grid(40.0, -6.0, 6.0, GRID.0, GRID.1).expect("grid");
        let init = Density::gaussian(grid, 3.0, -3.0, 1.2, 0.6).expect("initial density");
        let mc = McConfig {
            mu: MU,
            sigma2: SIGMA2,
            n_particles: PARTICLES,
            dt: 1e-3,
            seed: sub_seed(seed, 0),
            threads: workers,
            init_mean: (3.0, -3.0),
            init_std: (1.2, 0.6),
        };
        Self {
            law,
            mc,
            init,
            workers,
        }
    }

    fn pass(&self, trace: &mut Trace) -> PassOut {
        let mut out = PassOut::default();
        let snaps = trace.record(
            Layer::Mc,
            "mc.simulate_ensemble",
            self.workers,
            ROOT,
            || self.ensemble(self.workers),
        );
        out.particle_steps = PARTICLES as u64 * mc_steps(self.mc.dt);
        let solver = trace.record(Layer::Fp, "fp.new", 1, ROOT, || {
            FpSolver::new(FpProblem::new(self.law, MU, SIGMA2), self.init.clone())
        });
        let (Ok(snaps), Ok(mut solver)) = (snaps, solver) else {
            out.attempted = TIMES.len() as u64;
            out.failed = out.attempted;
            return out;
        };
        let mut rows = Vec::with_capacity(TIMES.len());
        for (snap, &t) in snaps.iter().zip(&TIMES) {
            out.fp_steps += steps_between(solver.time(), t, solver.max_dt()).0;
            let advanced = trace
                .record(Layer::Fp, "fp.run_until", 1, ROOT, || solver.run_until(t))
                .is_ok();
            let d = solver.density();
            let row = trace.record(Layer::Analysis, "analysis.snapshot", 1, ROOT, || {
                let ks = ks_sample_vs_density(&snap.q, &d.grid.x.centers(), &d.marginal_q());
                let physical =
                    snap.q.iter().all(|&q| q >= 0.0) && snap.nu.iter().all(|&nu| nu >= -MU);
                ks.map(|ks| {
                    let row = Row {
                        t,
                        pde_mean_q: d.mean_q(),
                        mc_mean_q: snap.mean_q(),
                        pde_var_q: d.var_q(),
                        mc_var_q: snap.var_q(),
                        ks_distance: ks,
                    };
                    (row, physical)
                })
            });
            match row {
                Ok((row, physical)) => {
                    out.op(advanced && physical && row.ks_distance <= KS_MAX);
                    rows.push(row);
                }
                Err(_) => out.op(false),
            }
        }
        (out.artifact_bytes, out.digest) = write_artifact(trace, "perfbench_langevin", &rows);
        out
    }

    fn extras(&self, _digest: u64) -> (Vec<Extra>, PassOut) {
        let mut out = PassOut::default();
        let mut time = |threads| {
            let t0 = Instant::now();
            out.op(self.ensemble(threads).is_ok());
            t0.elapsed().as_secs_f64()
        };
        let one = time(1);
        let many = time(self.workers);
        let eff = ("mc.parallel_eff", one / (self.workers as f64 * many));
        (vec![eff], out)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn describe(&self) -> String {
        let steps = mc_steps(self.mc.dt);
        let (nq, nnu) = GRID;
        format!(
            "{PARTICLES} particles x {steps} steps (dt {}), {} snapshots of {} KiB each; \
             PDE reference {nq}x{nnu} ({} KiB density); MC on {} threads",
            self.mc.dt,
            TIMES.len(),
            PARTICLES * 16 / 1024,
            nq * nnu * 8 / 1024,
            self.workers
        )
    }
}
