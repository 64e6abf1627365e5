//! Standard-normal sampler shared by the Langevin layers
//! ([`crate::montecarlo`] and [`crate::delayed`]): Marsaglia and Tsang's
//! 256-layer ziggurat ("The Ziggurat Method for Generating Random
//! Variables", J. Stat. Softw. 5(8), 2000).
//!
//! The density f(x) = e^{−x²/2} under x ≥ 0 is covered by 256 strips of
//! equal area V: a base strip (the rectangle [0, R] × [0, f(R)] plus the
//! tail beyond R) and 255 rectangles stacked on it. One 64-bit word picks
//! a strip from its low 8 bits and a signed abscissa from its top 53. In
//! about 99% of draws the abscissa lies under the curve outright and the
//! draw costs one word, one multiply and one compare; the rest fall
//! through to the wedge test or, in the base strip, to Marsaglia's
//! exponential tail sampler.
//!
//! The tables are built once per process on first use and fetched once
//! per caller loop, so sampling never allocates.

use rand::RngCore;
use std::sync::OnceLock;

/// Strip count.
const LAYERS: usize = 256;
/// Right edge of the base rectangle, where the tail begins
/// (3.654152885361008796, rounded to the nearest f64).
const R: f64 = 3.654_152_885_361_009;
/// Area of every strip. This is the 256-layer value; the 128-layer
/// ziggurat's V (9.91256303526217e-3) does not fit these tables.
const V: f64 = 4.928_673_233_99e-3;

/// Unnormalised standard-normal density e^{−x²/2}.
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Uniform on the open interval (0, 1) from the top 53 bits of `bits`.
fn open01(bits: u64) -> f64 {
    ((bits >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// The ziggurat tables: `x[i]` is the width of strip `i` (`x[0]` is the
/// base strip's equal-area width V/f(R)), `x[i + 1]` the width of the
/// rectangle wholly under the curve inside it, and `f[i] = f(x[i])`.
pub(crate) struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// The process-wide tables, built on first call.
pub(crate) fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

impl Ziggurat {
    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + pdf(x[i])).ln()).sqrt();
        }
        // The recurrence lands within rounding of 0 here, where the
        // logarithm's argument may exceed 1; the apex is exact.
        x[LAYERS] = 0.0;
        let f = x.map(pdf);
        Ziggurat { x, f }
    }

    // lint: hot-path
    /// One standard-normal draw.
    #[inline]
    pub(crate) fn sample<G: RngCore>(&self, rng: &mut G) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let x = (2.0 * open01(bits) - 1.0) * self.x[i];
            if x.abs() < self.x[i + 1] {
                return x;
            }
            if let Some(z) = self.edge(i, x, rng) {
                return z;
            }
        }
    }

    /// The rare part of a draw whose abscissa `x` in strip `i` is not
    /// wholly under the curve: the tail beyond R for the base strip,
    /// otherwise the wedge test. `None` rejects the draw.
    #[cold]
    fn edge<G: RngCore>(&self, i: usize, x: f64, rng: &mut G) -> Option<f64> {
        if i == 0 {
            // Marsaglia (1964): R + a with a ~ Exp(R), accepted with
            // probability e^{−a²/2}, is distributed as the tail.
            loop {
                let a = -open01(rng.next_u64()).ln() / R;
                let b = -open01(rng.next_u64()).ln();
                if 2.0 * b > a * a {
                    return Some((R + a).copysign(x));
                }
            }
        }
        let y = self.f[i + 1] + (self.f[i] - self.f[i + 1]) * open01(rng.next_u64());
        (y < pdf(x)).then_some(x)
    }
    // lint: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 1_000_000;

    fn draws(seed: u64) -> Vec<f64> {
        let zig = ziggurat();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..N).map(|_| zig.sample(&mut rng)).collect()
    }

    /// Standard-normal CDF Φ through the complementary error function
    /// (Numerical Recipes' `erfcc`, fractional error below 1.2e-7).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn tables_have_the_ziggurat_shape() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], R);
        assert_eq!(zig.x[LAYERS], 0.0);
        assert!(
            (zig.x[255] - 0.215_241_895_9).abs() < 1e-9,
            "{}",
            zig.x[255]
        );
        assert!(zig.x.windows(2).all(|w| w[1] < w[0]), "widths must shrink");
        // Equal areas: every stacked rectangle, and the base strip's
        // rectangle plus its tail, hold V (to the ~1e-9 that R and V are
        // given to; the apex strip is the worst).
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area - V).abs() < 1e-8 * V, "strip {i}: area {area}");
        }
        let tail = (1.0 - phi(R)) * (2.0 * std::f64::consts::PI).sqrt();
        assert!((R * zig.f[1] + tail - V).abs() < 1e-6 * V);
    }

    #[test]
    fn moments_match_the_standard_normal() {
        let xs = draws(7);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n;
        // Standard errors at n = 10⁶: 0.001, 0.0014 and 0.0098.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!((m4 - 3.0).abs() < 0.05, "E[z^4] {m4}");
    }

    #[test]
    fn ks_distance_to_phi_is_small() {
        let mut xs = draws(11);
        xs.sort_unstable_by(f64::total_cmp);
        let n = N as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let c = phi(x);
                (c - k as f64 / n).abs().max(((k + 1) as f64 / n - c).abs())
            })
            .fold(0.0, f64::max);
        // 1.63/√n is the 1% critical value of the Kolmogorov statistic.
        assert!(d < 1.63 / n.sqrt(), "KS distance {d}");
    }

    #[test]
    fn tail_mass_beyond_r_matches_phi() {
        let xs = draws(13);
        let hits = xs.iter().filter(|x| x.abs() > R).count() as f64;
        let p = 2.0 * (1.0 - phi(R)); // 2.580e-4
        let n = N as f64;
        let sd = (n * p * (1.0 - p)).sqrt();
        // Binomial count: ≈ 258 ± 16; allow four standard deviations.
        assert!(
            (hits - n * p).abs() < 4.0 * sd,
            "{hits} draws beyond R, expected {}",
            n * p
        );
    }
}
