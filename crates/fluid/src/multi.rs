//! Multi-source fluid model: N adaptive sources sharing one bottleneck.
//!
//! State is `(Q, λ_1, …, λ_N)` with `dQ/dt = Σλ_i − μ` (clamped at the
//! empty queue) and each `dλ_i/dt = g_i(Q, λ_i)`. With instant feedback
//! every source switches on the same signal; Section 6's prediction is
//! that the stationary shares are `λ_i* ∝ C0_i/C1_i` (implemented in
//! `fpk_congestion::theory::sliding_share`), verified here numerically.

use crate::single::queue_drift;
use fpk_congestion::RateControl;
use fpk_numerics::ode::Rk4;
use fpk_numerics::{NumericsError, Result};
use serde::{Deserialize, Serialize};

/// Parameters for a multi-source fluid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length.
    pub q0: f64,
    /// Initial per-source rates (length = number of sources).
    pub lambda0: Vec<f64>,
    /// Final time.
    pub t_end: f64,
    /// Fixed integration step.
    pub dt: f64,
}

/// Recorded multi-source trajectory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultiTrajectory {
    /// Sample times.
    pub t: Vec<f64>,
    /// Queue length per sample.
    pub q: Vec<f64>,
    /// Per-source rates: `lambda[k][i]` = source i at sample k.
    pub lambda: Vec<Vec<f64>>,
}

impl MultiTrajectory {
    /// Number of sources.
    #[must_use]
    pub fn n_sources(&self) -> usize {
        self.lambda.first().map_or(0, Vec::len)
    }

    /// Time-averaged per-source rate over the final `fraction` of the run
    /// — the throughput allocation compared against theory in E6a/E6b.
    #[must_use]
    pub fn mean_rates_tail(&self, fraction: f64) -> Vec<f64> {
        let n = self.lambda.len();
        if n == 0 {
            return Vec::new();
        }
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * n as f64) as usize;
        let start = start.min(n - 1);
        let m = self.n_sources();
        let mut acc = vec![0.0; m];
        for sample in &self.lambda[start..] {
            for (a, v) in acc.iter_mut().zip(sample.iter()) {
                *a += v;
            }
        }
        let count = (n - start) as f64;
        acc.iter_mut().for_each(|a| *a /= count);
        acc
    }

    /// Final `(q, λ⃗)` state.
    ///
    /// # Panics
    /// Panics when the trajectory is empty.
    #[must_use]
    pub fn final_state(&self) -> (f64, &[f64]) {
        (*self.q.last().unwrap(), self.lambda.last().unwrap())
    }
}

/// Integrate the multi-source system with one law per source.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] / [`NumericsError::DimensionMismatch`]
/// for invalid parameters or `laws.len() != lambda0.len()`.
pub fn simulate_multi<L: RateControl>(laws: &[L], params: &MultiParams) -> Result<MultiTrajectory> {
    if laws.is_empty() || laws.len() != params.lambda0.len() {
        return Err(NumericsError::DimensionMismatch {
            context: "simulate_multi: need laws.len() == lambda0.len() >= 1",
        });
    }
    if ![params.mu, params.t_end, params.dt]
        .iter()
        .all(|&v| v > 0.0 && v.is_finite())
    {
        return Err(NumericsError::InvalidParameter {
            context: "simulate_multi: mu, t_end, dt must be positive and finite",
        });
    }
    if params.dt >= params.t_end {
        return Err(NumericsError::InvalidParameter {
            context: "simulate_multi: dt must be smaller than t_end",
        });
    }
    if params.q0 < 0.0 || params.lambda0.iter().any(|&l| l < 0.0) {
        return Err(NumericsError::InvalidParameter {
            context: "simulate_multi: initial conditions must be non-negative",
        });
    }
    let m = laws.len();
    let n_steps = (params.t_end / params.dt).ceil() as usize;
    let h = params.dt;
    let mut traj = MultiTrajectory {
        t: Vec::with_capacity(n_steps + 1),
        q: Vec::with_capacity(n_steps + 1),
        lambda: Vec::with_capacity(n_steps + 1),
    };
    traj.t.push(0.0);
    traj.q.push(params.q0);
    traj.lambda.push(params.lambda0.clone());

    // RK4 on the clamped vector field; state = [q, λ_1..λ_m].
    let mut field = |_t: f64, state: &[f64], out: &mut [f64]| {
        let q_eff = state[0].max(0.0);
        let total: f64 = state[1..].iter().sum();
        out[0] = queue_drift(q_eff, total, params.mu);
        for (i, law) in laws.iter().enumerate() {
            out[i + 1] = law.g(q_eff, state[i + 1]);
        }
    };
    let mut rk4 = Rk4::new(m + 1);
    let mut y = Vec::with_capacity(m + 1);
    y.push(params.q0);
    y.extend_from_slice(&params.lambda0);
    for step in 0..n_steps {
        rk4.step(&mut field, step as f64 * h, &mut y, h);
        y.iter_mut().for_each(|v| *v = v.max(0.0));
        traj.t.push((step + 1) as f64 * h);
        traj.q.push(y[0]);
        traj.lambda.push(y[1..].to_vec());
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::fairness::jain_index;
    use fpk_congestion::theory::sliding_share;
    use fpk_congestion::LinearExp;

    fn params(n: usize) -> MultiParams {
        MultiParams {
            mu: 10.0,
            q0: 0.0,
            lambda0: (0..n).map(|i| i as f64 * 0.5).collect(),
            t_end: 600.0,
            dt: 2e-3,
        }
    }

    #[test]
    fn identical_sources_converge_to_equal_shares() {
        // Section 6 / E6a: same (C0, C1) → fair (equal) split of μ,
        // regardless of unequal starting rates.
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 4];
        let traj = simulate_multi(&laws, &params(4)).unwrap();
        let shares = traj.mean_rates_tail(0.25);
        let j = jain_index(&shares).unwrap();
        assert!(j > 0.999, "Jain index {j}, shares {shares:?}");
        let total: f64 = shares.iter().sum();
        assert!((total - 10.0).abs() < 0.3, "total {total}");
    }

    #[test]
    fn heterogeneous_sources_follow_sliding_share() {
        // E6b: shares ∝ C0_i/C1_i.
        let laws = vec![
            LinearExp::new(1.0, 0.5, 10.0), // ratio 2
            LinearExp::new(2.0, 0.5, 10.0), // ratio 4
            LinearExp::new(0.5, 0.5, 10.0), // ratio 1
        ];
        let predicted = sliding_share(&laws, 10.0).unwrap();
        let traj = simulate_multi(&laws, &params(3)).unwrap();
        let measured = traj.mean_rates_tail(0.25);
        for (m, p) in measured.iter().zip(predicted.iter()) {
            assert!(
                (m - p).abs() / p < 0.12,
                "measured {measured:?} vs predicted {predicted:?}"
            );
        }
    }

    #[test]
    fn aggregate_utilisation_near_capacity() {
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 2];
        let traj = simulate_multi(&laws, &params(2)).unwrap();
        let shares = traj.mean_rates_tail(0.3);
        let total: f64 = shares.iter().sum();
        assert!(total > 9.0 && total < 11.0, "total {total}");
    }

    #[test]
    fn queue_stays_non_negative() {
        let laws = vec![LinearExp::new(3.0, 2.0, 1.0); 3];
        let traj = simulate_multi(&laws, &params(3)).unwrap();
        assert!(traj.q.iter().all(|&q| q >= 0.0));
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let laws = vec![LinearExp::standard(); 2];
        let mut p = params(3);
        assert!(simulate_multi(&laws, &p).is_err());
        p.lambda0 = vec![1.0, 1.0];
        p.mu = -1.0;
        assert!(simulate_multi(&laws, &p).is_err());
        // Infinite or NaN scales get a named error: an infinite horizon
        // would overflow the step count.
        let finite = NumericsError::InvalidParameter {
            context: "simulate_multi: mu, t_end, dt must be positive and finite",
        };
        for bad in [f64::INFINITY, f64::NAN] {
            for field in 0..3 {
                let mut p = params(2);
                *[&mut p.mu, &mut p.t_end, &mut p.dt][field] = bad;
                let err = simulate_multi(&laws, &p).unwrap_err();
                assert_eq!(err, finite, "field {field} = {bad}");
            }
        }
        let mut p = params(2);
        p.dt = p.t_end;
        assert_eq!(
            simulate_multi(&laws, &p).unwrap_err(),
            NumericsError::InvalidParameter {
                context: "simulate_multi: dt must be smaller than t_end",
            }
        );
    }

    #[test]
    fn rejects_negative_initial_rate() {
        let laws = vec![LinearExp::standard(); 2];
        let mut p = params(2);
        p.lambda0 = vec![1.0, -0.5];
        assert!(simulate_multi(&laws, &p).is_err());
    }

    #[test]
    fn single_source_multi_matches_single_module() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let p_multi = MultiParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: vec![1.0],
            t_end: 50.0,
            dt: 1e-3,
        };
        let tm = simulate_multi(&[law], &p_multi).unwrap();
        let p_single = crate::single::FluidParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: 1.0,
            t_end: 50.0,
            dt: 1e-3,
        };
        let ts = crate::single::simulate(&law, &p_single).unwrap();
        // Both paths step through the same `Rk4`, so every sample agrees
        // to the bit.
        assert_eq!(tm.t.len(), ts.t.len());
        for k in 0..ts.t.len() {
            assert_eq!(tm.q[k].to_bits(), ts.q[k].to_bits(), "q at sample {k}");
            let (lm, ls) = (tm.lambda[k][0], ts.lambda[k]);
            assert_eq!(lm.to_bits(), ls.to_bits(), "lambda at sample {k}");
        }
    }

    #[test]
    fn mean_rates_tail_empty_safe() {
        let traj = MultiTrajectory::default();
        assert!(traj.mean_rates_tail(0.5).is_empty());
        assert_eq!(traj.n_sources(), 0);
    }
}
