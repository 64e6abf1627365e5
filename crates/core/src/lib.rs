//! `fpk-core` — the paper's contribution: a Fokker–Planck solver for the
//! **joint density** f(t, q, ν) of queue length and queue growth rate
//! under adaptive rate control (Mukherjee & Strikwerda, MS-CIS-91-18).
//!
//! The central object is Eq. 14:
//!
//! ```text
//! f_t + ν f_q + (g f)_ν = (σ²/2) f_qq
//! ```
//!
//! where `g(q, λ)` is the control law (`fpk_congestion::RateControl`) and
//! σ² captures traffic variability that pure fluid models cannot express
//! (Section 3's argument for why a *joint* density is unavoidable: λ(t)
//! is a functional of the random sample path of Q, so one cannot couple a
//! marginal density equation with a deterministic control ODE).
//!
//! # Modules
//!
//! * [`density`] — the discretised joint density: marginals, moments,
//!   mass/positivity audits.
//! * [`fv`] — conservative finite-volume kernels (flux-limited advection,
//!   explicit and Crank–Nicolson diffusion).
//! * [`solver`] — the Strang-split time stepper for Eq. 14 with the
//!   empty-queue boundary convention.
//! * [`steady`] — stationary densities (experiment E5).
//! * [`classic`] — the classical 1-D Fokker–Planck baseline of Section 3
//!   with its analytic exponential stationary solution.
//! * [`montecarlo`] — Euler–Maruyama Langevin ensembles cross-validating
//!   the PDE (experiment E4).
//! * [`delayed`] — stochastic sample paths with delayed feedback (the
//!   joint density is non-Markov under delay; Section 7 is reproduced on
//!   paths, as in the paper).
//!
//! # Example
//!
//! Evolve a Gaussian initial density under the JRJ law and check the
//! invariants the finite-volume scheme guarantees by construction:
//!
//! ```
//! use fpk_congestion::LinearExp;
//! use fpk_core::solver::{FpProblem, FpSolver};
//! use fpk_core::Density;
//!
//! let grid = Density::standard_grid(30.0, -5.0, 5.0, 40, 24).unwrap();
//! let init = Density::gaussian(grid, 8.0, -1.0, 1.0, 0.5).unwrap();
//! let law = LinearExp::new(1.0, 0.5, 10.0);
//! let mut solver = FpSolver::new(FpProblem::new(law, 5.0, 0.3), init).unwrap();
//! solver.run_until(0.2).unwrap();
//! assert!((solver.density().mass() - 1.0).abs() < 1e-9);  // conservative
//! assert!(solver.density().min_value() >= -1e-12);        // positive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod delayed;
pub mod density;
pub mod fv;
pub mod montecarlo;
pub mod solver;
pub mod steady;

pub use density::Density;
pub use fv::Limiter;
pub use solver::{DiffusionScheme, FpProblem, FpSolver};
