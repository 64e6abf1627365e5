//! Direct linear solvers for the structured systems arising from implicit
//! diffusion discretisations.
//!
//! The Crank–Nicolson treatment of the (σ²/2)·f_qq term in the
//! Fokker–Planck solver produces one tridiagonal system per ν-row per time
//! step, so [`solve_tridiagonal`] (the Thomas algorithm) is the hot path.

use crate::{NumericsError, Result};

/// Solve a tridiagonal system `A x = d` in place by the Thomas algorithm.
///
/// `sub` is the sub-diagonal (length `n`, `sub[0]` unused), `diag` the main
/// diagonal (length `n`), `sup` the super-diagonal (length `n`,
/// `sup[n-1]` unused). On success `d` holds the solution. `scratch` must
/// have length `n` and is clobbered.
///
/// The Thomas algorithm is stable for diagonally dominant systems, which
/// all our Crank–Nicolson matrices are (diagonal `1 + α`, off-diagonals
/// `-α/2`).
///
/// # Errors
/// * [`NumericsError::DimensionMismatch`] when slice lengths disagree or
///   `n == 0`.
/// * [`NumericsError::Singular`] when a pivot underflows.
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    d: &mut [f64],
    scratch: &mut [f64],
) -> Result<()> {
    let n = diag.len();
    if n == 0 || sub.len() != n || sup.len() != n || d.len() != n || scratch.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "solve_tridiagonal: all slices must share a positive length",
        });
    }
    const TINY: f64 = 1e-300;
    // Forward sweep: scratch holds the modified super-diagonal c'.
    let mut beta = diag[0];
    if beta.abs() < TINY {
        return Err(NumericsError::Singular {
            context: "solve_tridiagonal: zero pivot at row 0",
        });
    }
    scratch[0] = sup[0] / beta;
    d[0] /= beta;
    for i in 1..n {
        beta = diag[i] - sub[i] * scratch[i - 1];
        if beta.abs() < TINY {
            return Err(NumericsError::Singular {
                context: "solve_tridiagonal: zero pivot",
            });
        }
        scratch[i] = sup[i] / beta;
        d[i] = (d[i] - sub[i] * d[i - 1]) / beta;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        d[i] -= scratch[i] * d[i + 1];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn thomas_solves_identity() {
        let n = 5;
        let sub = vec![0.0; n];
        let diag = vec![1.0; n];
        let sup = vec![0.0; n];
        let mut d: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut scratch = vec![0.0; n];
        solve_tridiagonal(&sub, &diag, &sup, &mut d, &mut scratch).unwrap();
        for (i, v) in d.iter().enumerate() {
            assert!(approx_eq(*v, i as f64, 1e-14, 1e-14));
        }
    }

    #[test]
    fn thomas_solves_laplacian() {
        // -u'' = f discretised: [-1, 2, -1]; the rhs is A·x_true.
        let n = 20;
        let sub = vec![-1.0; n];
        let diag = vec![2.0; n];
        let sup = vec![-1.0; n];
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut rhs: Vec<f64> = (0..n).map(|i| diag[i] * x_true[i]).collect();
        for i in 1..n {
            rhs[i] += sub[i] * x_true[i - 1];
            rhs[i - 1] += sup[i - 1] * x_true[i];
        }
        let mut scratch = vec![0.0; n];
        solve_tridiagonal(&sub, &diag, &sup, &mut rhs, &mut scratch).unwrap();
        for (a, b) in rhs.iter().zip(x_true.iter()) {
            assert!(approx_eq(*a, *b, 1e-10, 1e-10), "{a} vs {b}");
        }
    }

    #[test]
    fn thomas_detects_singular() {
        let sub = vec![0.0, 1.0];
        let diag = vec![0.0, 1.0];
        let sup = vec![1.0, 0.0];
        let mut d = vec![1.0, 1.0];
        let mut s = vec![0.0, 2.0];
        assert!(matches!(
            solve_tridiagonal(&sub, &diag, &sup, &mut d, &mut s),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn thomas_rejects_mismatched_lengths() {
        let mut d = vec![1.0];
        let mut s = vec![0.0];
        assert!(solve_tridiagonal(&[0.0, 0.0], &[1.0], &[0.0], &mut d, &mut s).is_err());
    }
}
