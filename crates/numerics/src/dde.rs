//! Constant-lag delay differential equations (DDEs) by the method of steps.
//!
//! Section 7 of the paper studies feedback that arrives after delay τ: the
//! control law becomes `dλ/dt = g(Q(t − τ), λ(t))`. This module integrates
//! systems
//!
//! ```text
//! dy/dt = F(t, y(t), y(t − τ₁), …, y(t − τ_m))
//! ```
//!
//! with a fixed-step RK4 whose delayed-state lookups go through a dense
//! cubic-Hermite history. For stage times falling between stored samples
//! (including the half-step stages of RK4) the history interpolant is
//! third-order accurate, matching the overall scheme order for the smooth
//! segments between breaking points.
//!
//! Breaking-point caveat: DDE solutions have derivative discontinuities at
//! t0 + k·τ. A fixed step that divides τ keeps those points on the grid;
//! [`DdeProblem::solve`] snaps the step to the smallest lag when possible.

use crate::ode::{Rk4, Trajectory};
use crate::{NumericsError, Result};

/// Right-hand side of a DDE. `delayed[k]` holds `y(t − lags[k])`.
pub trait DdeRhs {
    /// Evaluate `dydt = F(t, y, delayed…)`.
    fn eval(&mut self, t: f64, y: &[f64], delayed: &[Vec<f64>], dydt: &mut [f64]);
}

impl<F: FnMut(f64, &[f64], &[Vec<f64>], &mut [f64])> DdeRhs for F {
    fn eval(&mut self, t: f64, y: &[f64], delayed: &[Vec<f64>], dydt: &mut [f64]) {
        self(t, y, delayed, dydt)
    }
}

/// Dense solution history: time-ordered `(t, y, dy/dt)` samples with cubic
/// Hermite evaluation between them.
#[derive(Debug, Clone, Default)]
struct History {
    t: Vec<f64>,
    y: Vec<Vec<f64>>,
    dy: Vec<Vec<f64>>,
}

impl History {
    /// Append a sample; times must be pushed in increasing order.
    fn push(&mut self, t: f64, y: Vec<f64>, dy: Vec<f64>) {
        debug_assert!(self.t.last().is_none_or(|&last| t > last));
        self.t.push(t);
        self.y.push(y);
        self.dy.push(dy);
    }

    /// Evaluate the interpolant at time `tq`, writing into `out`.
    /// Clamps to the first/last sample outside the stored range.
    fn eval(&self, tq: f64, out: &mut [f64]) {
        let n = self.t.len();
        debug_assert!(n > 0, "History::eval on empty history");
        if tq <= self.t[0] {
            out.copy_from_slice(&self.y[0]);
            return;
        }
        if tq >= self.t[n - 1] {
            out.copy_from_slice(&self.y[n - 1]);
            return;
        }
        // Binary search for the bracketing interval.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.t[mid] <= tq {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (y0, d0, y1, d1) = (&self.y[lo], &self.dy[lo], &self.y[hi], &self.dy[hi]);
        for (i, o) in out.iter_mut().enumerate() {
            *o = hermite(self.t[lo], y0[i], d0[i], self.t[hi], y1[i], d1[i], tq);
        }
    }
}

/// Cubic Hermite interpolation on one interval `[x0, x1]` given endpoint
/// values `y0, y1` and slopes `d0, d1`.
fn hermite(x0: f64, y0: f64, d0: f64, x1: f64, y1: f64, d1: f64, x: f64) -> f64 {
    let h = x1 - x0;
    let t = (x - x0) / h;
    let h00 = (1.0 + 2.0 * t) * (1.0 - t) * (1.0 - t);
    let h10 = t * (1.0 - t) * (1.0 - t);
    let h01 = t * t * (3.0 - 2.0 * t);
    let h11 = t * t * (t - 1.0);
    h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
}

/// A constant-lag DDE initial-value problem.
pub struct DdeProblem<'a> {
    /// The lags τ_k, each strictly positive.
    pub lags: &'a [f64],
    /// Initial time.
    pub t0: f64,
    /// Final time.
    pub t1: f64,
    /// History function φ(t) supplying the state for `t <= t0`.
    pub phi: &'a dyn Fn(f64, &mut [f64]),
    /// State dimension.
    pub dim: usize,
}

impl DdeProblem<'_> {
    /// Integrate with approximately `steps_hint` RK4 steps, snapping the
    /// step so the smallest lag is an integer number of steps (keeps the
    /// breaking points t0 + k·τ on the grid).
    ///
    /// Returns the trajectory sampled at every accepted step.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for non-positive or infinite
    /// lags, an empty lag list, `t1 <= t0`, an infinite span, or
    /// `steps_hint == 0`.
    pub fn solve<R: DdeRhs>(&self, rhs: &mut R, steps_hint: usize) -> Result<Trajectory> {
        if self.lags.is_empty() {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: need at least one lag (use ode:: for none)",
            });
        }
        if self.lags.iter().any(|&l| !(l > 0.0 && l.is_finite())) {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: lags must be positive and finite",
            });
        }
        if !(self.t1 > self.t0 && (self.t1 - self.t0).is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: t1 - t0 must be positive and finite",
            });
        }
        if steps_hint == 0 {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: steps_hint must be positive",
            });
        }
        let span = self.t1 - self.t0;
        let mut h = span / steps_hint as f64;
        let tau_min = self.lags.iter().cloned().fold(f64::INFINITY, f64::min);
        // Snap h so tau_min / h is an integer; improves accuracy at
        // breaking points.
        let k = (tau_min / h).ceil().max(1.0);
        h = tau_min / k;
        let n_steps = (span / h).ceil() as usize;
        let dim = self.dim;

        // Seed the history with φ over [t0 − max_lag, t0], sampled densely
        // enough for the interpolant.
        let tau_max = self.lags.iter().cloned().fold(0.0, f64::max);
        let mut history = History::default();
        let seed_steps = ((tau_max / h).ceil() as usize).max(2);
        // Seed strictly before t0; the t0 sample is pushed below with the
        // true RHS derivative.
        for s in 0..seed_steps {
            let t = self.t0 - tau_max + s as f64 * tau_max / seed_steps as f64;
            let mut y = vec![0.0; dim];
            (self.phi)(t, &mut y);
            // Numerical derivative of φ by central difference.
            let eps = (tau_max / seed_steps as f64) * 1e-3;
            let mut yp = vec![0.0; dim];
            let mut ym = vec![0.0; dim];
            (self.phi)(t + eps, &mut yp);
            (self.phi)(t - eps, &mut ym);
            let dy: Vec<f64> = yp
                .iter()
                .zip(ym.iter())
                .map(|(p, m)| (p - m) / (2.0 * eps))
                .collect();
            history.push(t, y, dy);
        }

        let mut y = vec![0.0; dim];
        (self.phi)(self.t0, &mut y);

        let mut traj = Trajectory::default();
        traj.t.push(self.t0);
        traj.y.push(y.clone());

        let m = self.lags.len();
        let mut delayed: Vec<Vec<f64>> = vec![vec![0.0; dim]; m];
        let mut dy = vec![0.0; dim];
        let mut rk4 = Rk4::new(dim);

        // Record the initial derivative into history so the first interval
        // interpolates correctly.
        for (k, &lag) in self.lags.iter().enumerate() {
            history.eval(self.t0 - lag, &mut delayed[k]);
        }
        rhs.eval(self.t0, &y, &delayed, &mut dy);
        history.push(self.t0, y.clone(), dy.clone());

        let mut t = self.t0;
        for step in 0..n_steps {
            let h_eff = if t + h > self.t1 { self.t1 - t } else { h };
            if h_eff <= 0.0 {
                break;
            }
            // RK4 stages with delayed lookups at the stage times.
            let mut stage = |ts: f64, ys: &[f64], kout: &mut [f64]| {
                for (k, &lag) in self.lags.iter().enumerate() {
                    history.eval(ts - lag, &mut delayed[k]);
                }
                rhs.eval(ts, ys, &delayed, kout);
            };
            rk4.step(&mut stage, t, &mut y, h_eff);
            t = self.t0 + (step + 1) as f64 * h;
            if t > self.t1 {
                t = self.t1;
            }
            // Derivative at the new point for the dense history.
            for (k, &lag) in self.lags.iter().enumerate() {
                history.eval(t - lag, &mut delayed[k]);
            }
            rhs.eval(t, &y, &delayed, &mut dy);
            history.push(t, y.clone(), dy.clone());
            traj.t.push(t);
            traj.y.push(y.clone());
            if (t - self.t1).abs() < 1e-14 {
                break;
            }
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// The classic test DDE: y'(t) = -y(t-1), y(t)=1 for t<=0.
    /// On [0,1]: y(t) = 1 - t. On [1,2]: y(t) = 1 - t + (t-1)^2/2.
    #[test]
    fn linear_test_equation_segments() {
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1.0],
            t0: 0.0,
            t1: 2.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0];
        };
        let traj = prob.solve(&mut rhs, 200).unwrap();
        // Check a few interior points against the analytic segments.
        for (t, y) in traj.t.iter().zip(traj.y.iter()) {
            let exact = if *t <= 1.0 {
                1.0 - t
            } else {
                1.0 - t + (t - 1.0) * (t - 1.0) / 2.0
            };
            // The Hermite history smooths the derivative kink at the
            // breaking point t = τ, costing O(h²) locally; with h = 5e-3
            // that is ~2.5e-5.
            assert!(
                approx_eq(y[0], exact, 1e-4, 5e-5),
                "t={t}: got {} expected {exact}",
                y[0]
            );
        }
    }

    #[test]
    fn zero_lag_limit_matches_ode() {
        // With a tiny lag the DDE y' = -y(t-τ) approaches y' = -y.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1e-4],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0];
        };
        let traj = prob.solve(&mut rhs, 1000).unwrap();
        let yf = traj.last().unwrap().1[0];
        assert!(approx_eq(yf, (-1.0f64).exp(), 1e-3, 1e-3), "yf={yf}");
    }

    #[test]
    fn hutchinson_oscillates_for_large_delay() {
        // Hutchinson / delayed logistic: y' = r y(t)(1 - y(t-τ)).
        // For rτ > π/2 the equilibrium y=1 is unstable → oscillations.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 0.5;
        let prob = DdeProblem {
            lags: &[2.0],
            t0: 0.0,
            t1: 80.0,
            phi: &phi,
            dim: 1,
        };
        let r = 1.0;
        let mut rhs = |_t: f64, y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = r * y[0] * (1.0 - delayed[0][0]);
        };
        let traj = prob.solve(&mut rhs, 4000).unwrap();
        // Tail should oscillate around 1 with sustained amplitude.
        let tail = &traj.y[traj.y.len() * 3 / 4..];
        let max = tail.iter().map(|y| y[0]).fold(f64::NEG_INFINITY, f64::max);
        let min = tail.iter().map(|y| y[0]).fold(f64::INFINITY, f64::min);
        assert!(max > 1.5, "max={max}");
        assert!(min < 0.5, "min={min}");
    }

    #[test]
    fn hutchinson_converges_for_small_delay() {
        // rτ < π/2 → damped convergence to 1.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 0.5;
        let prob = DdeProblem {
            lags: &[0.5],
            t0: 0.0,
            t1: 80.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = y[0] * (1.0 - delayed[0][0]);
        };
        let traj = prob.solve(&mut rhs, 4000).unwrap();
        let yf = traj.last().unwrap().1[0];
        assert!(approx_eq(yf, 1.0, 1e-3, 1e-3), "yf={yf}");
    }

    #[test]
    fn multiple_lags_are_respected() {
        // y' = -y(t-1) + y(t-2); with φ=1: on [0,1] y' = -1 + 1 = 0 → y=1.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1.0, 2.0],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0] + delayed[1][0];
        };
        let traj = prob.solve(&mut rhs, 100).unwrap();
        for (t, y) in traj.t.iter().zip(traj.y.iter()) {
            assert!(approx_eq(y[0], 1.0, 1e-9, 1e-9), "t={t} y={}", y[0]);
        }
    }

    /// The context string `solve` rejects `(lags, t0, t1)` with.
    fn rejection(lags: &[f64], t0: f64, t1: f64) -> &'static str {
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let mut rhs = |_t: f64, _y: &[f64], _d: &[Vec<f64>], d: &mut [f64]| d[0] = 0.0;
        let problem = DdeProblem {
            lags,
            t0,
            t1,
            phi: &phi,
            dim: 1,
        };
        match problem.solve(&mut rhs, 10) {
            Err(NumericsError::InvalidParameter { context }) => context,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let lags = "DdeProblem: lags must be positive and finite";
        assert_eq!(rejection(&[0.0], 0.0, 1.0), lags);
        assert_eq!(rejection(&[f64::INFINITY], 0.0, 1.0), lags);
        assert_eq!(rejection(&[f64::NAN], 0.0, 1.0), lags);
        assert_eq!(
            rejection(&[], 0.0, 1.0),
            "DdeProblem: need at least one lag (use ode:: for none)"
        );
        let span = "DdeProblem: t1 - t0 must be positive and finite";
        assert_eq!(rejection(&[1.0], 1.0, 1.0), span);
        assert_eq!(rejection(&[1.0], 0.0, f64::INFINITY), span);
        assert_eq!(rejection(&[1.0], f64::NEG_INFINITY, 0.0), span);
        assert_eq!(rejection(&[1.0], 0.0, f64::NAN), span);
    }

    #[test]
    fn history_eval_clamps_and_interpolates() {
        let mut h = History::default();
        h.push(0.0, vec![0.0], vec![1.0]);
        h.push(1.0, vec![1.0], vec![1.0]);
        let mut out = [0.0];
        h.eval(-1.0, &mut out);
        assert!(approx_eq(out[0], 0.0, 0.0, 0.0));
        h.eval(2.0, &mut out);
        assert!(approx_eq(out[0], 1.0, 0.0, 0.0));
        h.eval(0.5, &mut out);
        assert!(approx_eq(out[0], 0.5, 1e-12, 1e-12)); // linear data
    }

    #[test]
    fn hermite_reproduces_cubic() {
        // p(x) = x^3 on [1, 2]: values and slopes at ends determine it.
        let f = |x: f64| x * x * x;
        let d = |x: f64| 3.0 * x * x;
        for &x in &[1.0, 1.25, 1.5, 1.75, 2.0] {
            let v = hermite(1.0, f(1.0), d(1.0), 2.0, f(2.0), d(2.0), x);
            assert!(approx_eq(v, f(x), 1e-13, 1e-13), "x={x}: {v} vs {}", f(x));
        }
    }
}
