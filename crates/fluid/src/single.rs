//! Single-source fluid model: `dQ/dt = λ − μ`, `dλ/dt = g(Q, λ)`.
//!
//! Integration uses fixed-step RK4 ([`fpk_numerics::ode::Rk4`]): the
//! right-hand side is discontinuous across the switching line `Q = q̂`
//! and the boundary `Q = 0`, so an adaptive error estimator would
//! thrash; a small fixed step with post-step clamping is both faster and
//! more predictable here. The clamping implements the paper's convention
//! `ν(t) = 0 if Q(t) = 0 and λ(t) < μ` (the queue cannot drain below
//! empty).

use fpk_congestion::RateControl;
use fpk_numerics::ode::Rk4;
use fpk_numerics::{NumericsError, Result};
use serde::{Deserialize, Serialize};

/// Parameters of a single-source fluid run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length Q(0) ≥ 0.
    pub q0: f64,
    /// Initial sending rate λ(0) ≥ 0.
    pub lambda0: f64,
    /// Final integration time.
    pub t_end: f64,
    /// Integration step (choose ≲ 1e-3 of the system time scale).
    pub dt: f64,
}

impl FluidParams {
    /// Validate the parameter set.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for non-positive or non-finite
    /// `mu`, `t_end` or `dt`, or negative initial conditions.
    pub fn validate(&self) -> Result<()> {
        if ![self.mu, self.t_end, self.dt]
            .iter()
            .all(|&v| v > 0.0 && v.is_finite())
        {
            return Err(NumericsError::InvalidParameter {
                context: "FluidParams: mu, t_end, dt must be positive and finite",
            });
        }
        if self.q0 < 0.0 || self.lambda0 < 0.0 {
            return Err(NumericsError::InvalidParameter {
                context: "FluidParams: q0 and lambda0 must be non-negative",
            });
        }
        if self.dt >= self.t_end {
            return Err(NumericsError::InvalidParameter {
                context: "FluidParams: dt must be smaller than t_end",
            });
        }
        Ok(())
    }
}

/// A recorded fluid trajectory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FluidTrajectory {
    /// Sample times.
    pub t: Vec<f64>,
    /// Queue length at each sample.
    pub q: Vec<f64>,
    /// Aggregate arrival rate at each sample (single source: the source's
    /// rate).
    pub lambda: Vec<f64>,
}

impl FluidTrajectory {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the trajectory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Queue growth rate ν = λ − μ at each sample (with the empty-queue
    /// clamp applied), for phase-plane plots.
    #[must_use]
    pub fn nu(&self, mu: f64) -> Vec<f64> {
        self.q
            .iter()
            .zip(self.lambda.iter())
            .map(|(&q, &l)| if q <= 0.0 && l < mu { 0.0 } else { l - mu })
            .collect()
    }

    /// Final `(q, λ)` state.
    ///
    /// # Panics
    /// Panics when the trajectory is empty.
    #[must_use]
    pub fn final_state(&self) -> (f64, f64) {
        (*self.q.last().unwrap(), *self.lambda.last().unwrap())
    }

    /// Time-averaged λ over the final `fraction` of the run (throughput
    /// proxy).
    #[must_use]
    pub fn mean_rate_tail(&self, fraction: f64) -> f64 {
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * self.lambda.len() as f64) as usize;
        let tail = &self.lambda[start.min(self.lambda.len().saturating_sub(1))..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// The fluid right-hand side for one (q, λ) pair, with the empty-queue
/// convention. Exposed so `multi` and `delay` share the exact semantics.
#[inline]
#[must_use]
pub fn queue_drift(q: f64, total_lambda: f64, mu: f64) -> f64 {
    if q <= 0.0 && total_lambda < mu {
        0.0
    } else {
        total_lambda - mu
    }
}

/// Integrate the single-source fluid system, recording every step.
///
/// # Errors
/// Propagates [`FluidParams::validate`].
pub fn simulate<L: RateControl>(law: &L, params: &FluidParams) -> Result<FluidTrajectory> {
    params.validate()?;
    let n_steps = (params.t_end / params.dt).ceil() as usize;
    let mut traj = FluidTrajectory {
        t: Vec::with_capacity(n_steps + 1),
        q: Vec::with_capacity(n_steps + 1),
        lambda: Vec::with_capacity(n_steps + 1),
    };
    traj.t.push(0.0);
    traj.q.push(params.q0);
    traj.lambda.push(params.lambda0);
    let h = params.dt;
    // RK4 on the clamped vector field; state = [q, λ].
    let mut field = |_t: f64, y: &[f64], dydt: &mut [f64]| {
        let q_eff = y[0].max(0.0);
        dydt[0] = queue_drift(q_eff, y[1], params.mu);
        dydt[1] = law.g(q_eff, y[1]);
    };
    let mut rk4 = Rk4::new(2);
    let mut y = [params.q0, params.lambda0];
    for step in 0..n_steps {
        rk4.step(&mut field, step as f64 * h, &mut y, h);
        // Clamps: the queue cannot be negative; rates cannot go negative.
        y = y.map(|v| v.max(0.0));
        traj.t.push((step + 1) as f64 * h);
        traj.q.push(y[0]);
        traj.lambda.push(y[1]);
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, LinearLinear};

    fn std_params() -> FluidParams {
        FluidParams {
            mu: 5.0,
            q0: 0.0,
            lambda0: 0.0,
            t_end: 400.0,
            dt: 1e-3,
        }
    }

    #[test]
    fn params_validation() {
        let mut p = std_params();
        assert!(p.validate().is_ok());
        p.mu = 0.0;
        assert!(p.validate().is_err());
        let mut p2 = std_params();
        p2.q0 = -1.0;
        assert!(p2.validate().is_err());
        let mut p3 = std_params();
        p3.dt = p3.t_end + 1.0;
        assert!(p3.validate().is_err());
        // Infinite or NaN scales get a named error: an infinite horizon
        // would overflow the step count.
        let finite = "FluidParams: mu, t_end, dt must be positive and finite";
        for bad in [f64::INFINITY, f64::NAN] {
            for field in 0..3 {
                let mut p = std_params();
                *[&mut p.mu, &mut p.t_end, &mut p.dt][field] = bad;
                assert_eq!(
                    p.validate(),
                    Err(NumericsError::InvalidParameter { context: finite }),
                    "field {field} = {bad}"
                );
            }
        }
        let mut p4 = std_params();
        p4.t_end = f64::INFINITY;
        assert!(simulate(&LinearExp::standard(), &p4).is_err());
    }

    #[test]
    fn jrj_converges_to_target_point() {
        // Theorem 1: limit point (q̂, μ). Convergence is algebraic, so
        // after t = 400 expect to be within a few percent.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let traj = simulate(&law, &std_params()).unwrap();
        let (qf, lf) = traj.final_state();
        assert!((qf - 10.0).abs() < 1.0, "q_final = {qf}");
        assert!((lf - 5.0).abs() < 0.5, "lambda_final = {lf}");
    }

    #[test]
    fn queue_never_negative_and_rate_never_negative() {
        let law = LinearExp::new(2.0, 2.0, 1.0);
        let mut p = std_params();
        p.lambda0 = 20.0; // massive overshoot to provoke the boundary
        p.q0 = 50.0;
        let traj = simulate(&law, &p).unwrap();
        assert!(traj.q.iter().all(|&q| q >= 0.0));
        assert!(traj.lambda.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn empty_queue_clamp_holds_queue_at_zero() {
        // Start with λ far below μ and a short horizon: the queue should
        // pin at zero, not go negative.
        let law = LinearExp::new(0.1, 0.5, 100.0);
        let p = FluidParams {
            mu: 10.0,
            q0: 1.0,
            lambda0: 0.0,
            t_end: 2.0,
            dt: 1e-4,
        };
        let traj = simulate(&law, &p).unwrap();
        let (qf, _) = traj.final_state();
        assert_eq!(qf, 0.0);
    }

    #[test]
    fn nu_applies_clamp() {
        let traj = FluidTrajectory {
            t: vec![0.0, 1.0],
            q: vec![0.0, 5.0],
            lambda: vec![1.0, 1.0],
        };
        let nu = traj.nu(5.0);
        assert_eq!(nu[0], 0.0); // clamped: empty queue, λ < μ
        assert_eq!(nu[1], -4.0); // normal: q > 0
    }

    #[test]
    fn oscillation_amplitude_shrinks_for_jrj() {
        // Convergent spiral: early queue excursions exceed late ones.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let traj = simulate(&law, &std_params()).unwrap();
        let n = traj.q.len();
        let early_max = traj.q[..n / 4]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let late = &traj.q[3 * n / 4..];
        let late_max = late.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let late_min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            late_max - late_min < 0.5 * (early_max - 10.0).abs().max(1.0),
            "late band [{late_min}, {late_max}] vs early max {early_max}"
        );
    }

    #[test]
    fn linear_linear_keeps_oscillating() {
        // Section 7: linear decrease gives a closed orbit even with
        // instant feedback.
        let law = LinearLinear::new(1.0, 1.0, 10.0);
        let mut p = std_params();
        p.q0 = 10.0;
        p.lambda0 = 4.0; // on the section, defect 1 -> dip 0.5 < q̂
        let traj = simulate(&law, &p).unwrap();
        let n = traj.q.len();
        let late = &traj.q[3 * n / 4..];
        let late_max = late.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let late_min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            late_max - late_min > 0.5,
            "linear/linear should keep oscillating, band = {}",
            late_max - late_min
        );
    }

    #[test]
    fn mean_rate_tail_of_constant_is_constant() {
        let traj = FluidTrajectory {
            t: (0..100).map(|i| i as f64).collect(),
            q: vec![1.0; 100],
            lambda: vec![3.0; 100],
        };
        assert!((traj.mean_rate_tail(0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_drift_clamp_semantics() {
        assert_eq!(queue_drift(0.0, 1.0, 5.0), 0.0);
        assert_eq!(queue_drift(0.0, 7.0, 5.0), 2.0);
        assert_eq!(queue_drift(3.0, 1.0, 5.0), -4.0);
    }
}
