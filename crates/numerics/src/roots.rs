//! Scalar root finding by Brent's method.
//!
//! Used by the congestion-control theory module to solve equilibrium
//! equations (e.g. the heterogeneous-parameter share fixed point).

use crate::{NumericsError, Result};

/// Brent's method: inverse-quadratic interpolation with bisection
/// safeguards. Superlinear on smooth functions, never worse than
/// bisection.
///
/// # Errors
/// * [`NumericsError::NoBracket`] when `f(a)·f(b) > 0`.
/// * [`NumericsError::NoConvergence`] after `max_iter` iterations.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(NumericsError::NoBracket { context: "brent" });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = c;
    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo = (3.0 * a + b) / 4.0;
        let cond1 = !((s > lo.min(b) && s < lo.max(b)) || (s > b.min(lo) && s < b.max(lo)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < tol;
        let cond5 = !mflag && (c - d).abs() < tol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumericsError::NoConvergence {
        context: "brent",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn brent_transcendental() {
        // cos(x) = x has root ~0.7390851332151607.
        let r = brent(|x: f64| x.cos() - x, 0.0, 1.0, 1e-14, 200).unwrap();
        assert!(approx_eq(r, 0.739_085_133_215_160_7, 1e-10, 1e-12), "r={r}");
    }

    #[test]
    fn brent_faster_than_bisect_budget() {
        // Brent should converge well within 30 iterations for smooth f;
        // bisection from the same bracket needs 45.
        let r = brent(|x: f64| x.exp() - 3.0, 0.0, 2.0, 1e-13, 30).unwrap();
        assert!(approx_eq(r, 3.0f64.ln(), 1e-10, 1e-12));
    }

    #[test]
    fn brent_rejects_nonbracket() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, 1e-10, 100).is_err());
    }
}
