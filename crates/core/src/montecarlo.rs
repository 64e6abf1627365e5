//! Langevin Monte-Carlo simulation of the process whose density obeys
//! Eq. 14:
//!
//! ```text
//! dQ = ν dt + σ dW        (reflected at Q = 0)
//! dν = g(Q, ν + μ) dt      (clamped so λ = ν + μ ≥ 0)
//! ```
//!
//! Euler–Maruyama with reflection at the empty-queue boundary is the
//! sample-path twin of the PDE with its zero-flux boundary; histograms of
//! a particle ensemble must agree with the solver's marginals (experiment
//! E4 — the KS distance is the reported metric). The ensemble is split
//! into [`McConfig::threads`] contiguous particle chunks, chunk `c` on
//! its own RNG stream `seed + c`; the chunks run as jobs on the shared
//! worker pool (`fpk_numerics::par`) and are concatenated in chunk
//! order. Results are therefore bit-identical for a fixed (seed, stream
//! count) pair at any `FPK_THREADS`, and statistically identical across
//! stream counts. Every normal draw (the initial ensemble and the noise
//! increments) comes from the crate's 256-layer Marsaglia–Tsang ziggurat
//! sampler, one 64-bit word per draw in all but about 1% of draws.

use crate::normal::ziggurat;
use fpk_congestion::RateControl;
use fpk_numerics::par::{run_indexed, thread_count};
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a Monte-Carlo ensemble run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Service rate μ.
    pub mu: f64,
    /// Noise strength σ² (matching the PDE's diffusion coefficient).
    pub sigma2: f64,
    /// Number of particles.
    pub n_particles: usize,
    /// Euler–Maruyama step.
    pub dt: f64,
    /// Base RNG seed; chunk `c` draws from stream `seed + c`.
    pub seed: u64,
    /// Number of RNG streams, i.e. particle chunks (capped at
    /// `n_particles`). It shapes the output; the worker count that runs
    /// the chunks (`FPK_THREADS`) does not.
    pub threads: usize,
    /// Initial mean (q, ν) of the ensemble.
    pub init_mean: (f64, f64),
    /// Initial standard deviation (q, ν) of the (Gaussian) ensemble.
    pub init_std: (f64, f64),
}

impl McConfig {
    fn validate(&self) -> Result<()> {
        let (m, s) = (self.init_mean, self.init_std);
        if ![self.mu, self.sigma2, self.dt, m.0, m.1, s.0, s.1]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(NumericsError::InvalidParameter {
                context: "McConfig: mu, sigma2, dt, init_mean and init_std must be finite",
            });
        }
        if !(self.mu > 0.0) || self.sigma2 < 0.0 || !(self.dt > 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "McConfig: need mu > 0, sigma2 >= 0, dt > 0",
            });
        }
        if self.n_particles == 0 || self.threads == 0 {
            return Err(NumericsError::InvalidParameter {
                context: "McConfig: need n_particles > 0 and threads > 0",
            });
        }
        Ok(())
    }
}

/// Ensemble state at one snapshot time.
#[derive(Debug, Clone)]
pub struct McSnapshot {
    /// Snapshot time.
    pub t: f64,
    /// Queue-length samples (one per particle).
    pub q: Vec<f64>,
    /// Growth-rate samples (one per particle).
    pub nu: Vec<f64>,
}

impl McSnapshot {
    /// Sample mean of q.
    #[must_use]
    pub fn mean_q(&self) -> f64 {
        fpk_numerics::stats::mean(&self.q)
    }

    /// Sample mean of ν.
    #[must_use]
    pub fn mean_nu(&self) -> f64 {
        fpk_numerics::stats::mean(&self.nu)
    }

    /// Sample variance of q.
    #[must_use]
    pub fn var_q(&self) -> f64 {
        fpk_numerics::stats::variance(&self.q)
    }
}

/// Simulate the ensemble, recording snapshots at the requested times
/// (which must be finite, non-negative and strictly increasing).
///
/// # Errors
/// Configuration validation errors (including non-finite parameters),
/// or empty, non-finite or unsorted `snapshot_times`.
pub fn simulate_ensemble<L>(
    law: &L,
    cfg: &McConfig,
    snapshot_times: &[f64],
) -> Result<Vec<McSnapshot>>
where
    L: RateControl + Clone + Send + Sync + 'static,
{
    simulate_ensemble_on(law, cfg, snapshot_times, thread_count())
}

/// [`simulate_ensemble`] on an explicit pool width.
fn simulate_ensemble_on<L>(
    law: &L,
    cfg: &McConfig,
    snapshot_times: &[f64],
    width: usize,
) -> Result<Vec<McSnapshot>>
where
    L: RateControl + Clone + Send + Sync + 'static,
{
    cfg.validate()?;
    if !snapshot_times.iter().all(|t| t.is_finite()) {
        return Err(NumericsError::InvalidParameter {
            context: "simulate_ensemble: snapshot times must be finite",
        });
    }
    if snapshot_times.is_empty()
        || snapshot_times.windows(2).any(|w| w[1] <= w[0])
        || snapshot_times[0] < 0.0
    {
        return Err(NumericsError::InvalidParameter {
            context: "simulate_ensemble: snapshot times must be non-negative and increasing",
        });
    }
    let n = cfg.n_particles;
    let chunk = n.div_ceil(cfg.threads.min(n));
    // Chunks that would start past the last particle are empty: they
    // are never run and contribute nothing.
    let n_chunks = n.div_ceil(chunk);
    let (law, job_cfg, times) = (law.clone(), cfg.clone(), snapshot_times.to_vec());
    let chunks = run_indexed(n_chunks, width, move |c| {
        let count = chunk.min(n - c * chunk);
        simulate_chunk(&law, &job_cfg, &times, c, count)
    });
    let mut snaps: Vec<McSnapshot> = snapshot_times
        .iter()
        .map(|&t| McSnapshot {
            t,
            q: Vec::with_capacity(n),
            nu: Vec::with_capacity(n),
        })
        .collect();
    for views in chunks {
        for (snap, (q, nu)) in snaps.iter_mut().zip(views) {
            snap.q.extend_from_slice(&q);
            snap.nu.extend_from_slice(&nu);
        }
    }
    Ok(snaps)
}

/// Chunk `c` of the ensemble: `count` particles on RNG stream
/// `seed + c`, returned as one `(q, ν)` pair per snapshot time.
fn simulate_chunk<L: RateControl>(
    law: &L,
    cfg: &McConfig,
    times: &[f64],
    c: usize,
    count: usize,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let sigma = cfg.sigma2.sqrt();
    let nu_floor = -cfg.mu;
    let zig = ziggurat();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64));
    let mut qs = vec![0.0f64; count];
    let mut nus = vec![0.0f64; count];
    for (q, nu) in qs.iter_mut().zip(nus.iter_mut()) {
        *q = (cfg.init_mean.0 + cfg.init_std.0 * zig.sample(&mut rng)).max(0.0);
        *nu = (cfg.init_mean.1 + cfg.init_std.1 * zig.sample(&mut rng)).max(nu_floor);
    }
    let mut t = 0.0f64;
    let mut views = Vec::with_capacity(times.len());
    for time in times {
        // Advance all particles to this snapshot time.
        // lint: hot-path
        while t < time - 1e-12 {
            let dt = cfg.dt.min(time - t);
            let noise = sigma * dt.sqrt();
            for (q, nu) in qs.iter_mut().zip(nus.iter_mut()) {
                let (q0, nu0) = (*q, *nu);
                // Empty-queue convention: the *drift* cannot push the
                // queue below empty (sticky wall, matching the PDE's
                // blocked advective flux); only the noise reflects
                // (zero-flux diffusion).
                let q_det = (q0 + nu0 * dt).max(0.0);
                let mut q_new = q_det + noise * zig.sample(&mut rng);
                if q_new < 0.0 {
                    q_new = -q_new;
                }
                let g = law.g(q0, nu0 + cfg.mu);
                let mut nu_new = nu0 + g * dt;
                if nu_new < nu_floor {
                    nu_new = nu_floor; // λ >= 0
                }
                *q = q_new;
                *nu = nu_new;
            }
            t += dt;
        }
        // lint: end
        views.push((qs.clone(), nus.clone()));
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn cfg() -> McConfig {
        McConfig {
            mu: 5.0,
            sigma2: 0.3,
            n_particles: 20_000,
            dt: 2e-3,
            seed: 42,
            threads: 4,
            init_mean: (8.0, -1.0),
            init_std: (1.0, 0.5),
        }
    }

    #[test]
    fn snapshots_have_all_particles() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let snaps = simulate_ensemble(&law, &cfg(), &[0.5, 1.0]).unwrap();
        assert_eq!(snaps.len(), 2);
        for s in &snaps {
            assert_eq!(s.q.len(), 20_000);
            assert!(
                s.q.iter().all(|&q| q >= 0.0),
                "queue must stay non-negative"
            );
            assert!(
                s.nu.iter().all(|&nu| nu >= -5.0),
                "λ must stay non-negative"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c = cfg();
        c.n_particles = 2000;
        let a = simulate_ensemble(&law, &c, &[1.0]).unwrap();
        let b = simulate_ensemble(&law, &c, &[1.0]).unwrap();
        assert_eq!(a[0].q, b[0].q);
        assert_eq!(a[0].nu, b[0].nu);
    }

    #[test]
    fn different_stream_counts_agree_statistically() {
        // Chunk boundaries and streams shift with the stream count, so
        // individual particles differ; ensemble statistics must not.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c1 = cfg();
        c1.n_particles = 20_000;
        c1.threads = 2;
        let mut c2 = c1.clone();
        c2.threads = 5;
        let a = simulate_ensemble(&law, &c1, &[1.0]).unwrap();
        let b = simulate_ensemble(&law, &c2, &[1.0]).unwrap();
        assert!((a[0].mean_q() - b[0].mean_q()).abs() < 0.05);
        assert!((a[0].var_q() - b[0].var_q()).abs() < 0.1);
    }

    /// FNV-1a over the bits of every snapshot's q then ν samples.
    fn fingerprint(snaps: &[McSnapshot]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in snaps {
            for x in s.q.iter().chain(&s.nu) {
                for b in x.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn output_is_bitwise_equal_across_pool_widths() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let at =
            |width| fingerprint(&simulate_ensemble_on(&law, &cfg(), &[0.5, 1.0], width).unwrap());
        let reference = at(1);
        for width in [3, 7] {
            assert_eq!(at(width), reference, "width {width} diverged from width 1");
        }
    }

    #[test]
    fn output_matches_pinned_fingerprint() {
        // Captured when the ziggurat sampler replaced Box–Muller: any
        // change to the draw order, the sampler or the step moves it.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let snaps = simulate_ensemble(&law, &cfg(), &[0.5, 1.0]).unwrap();
        assert_eq!(fingerprint(&snaps), 0xa2dd_d9ca_4194_ef24);
    }

    #[test]
    fn trailing_empty_chunks_still_return_every_particle() {
        // n = 5 on 4 streams chunks as 2+2+1+0 and n = 10 on 8 as
        // 2+2+2+2+2+0+0+0; the empty tail chunks once underflowed the
        // chunk-size arithmetic.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        for (n, streams) in [(5, 4), (10, 8)] {
            let mut c = cfg();
            c.n_particles = n;
            c.threads = streams;
            let snaps = simulate_ensemble(&law, &c, &[0.1, 0.2]).unwrap();
            for s in &snaps {
                assert_eq!(s.q.len(), n, "n = {n}, streams = {streams}");
                assert_eq!(s.nu.len(), n, "n = {n}, streams = {streams}");
            }
        }
    }

    #[test]
    fn mean_tracks_fluid_for_small_noise() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c = cfg();
        c.sigma2 = 1e-4;
        c.init_std = (0.05, 0.02);
        let snaps = simulate_ensemble(&law, &c, &[2.0]).unwrap();
        // Fluid reference from (8, λ=4): increase phase, q(t) dips:
        // q(2) = 8 + (4-5)*2 + 0.5*1*4 = 8 - 2 + 2 = 8; λ(2) = 6 → ν = 1.
        let s = &snaps[0];
        assert!((s.mean_q() - 8.0).abs() < 0.1, "mean q {}", s.mean_q());
        assert!((s.mean_nu() - 1.0).abs() < 0.1, "mean ν {}", s.mean_nu());
    }

    #[test]
    fn variance_grows_with_sigma() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut lo = cfg();
        lo.sigma2 = 0.05;
        let mut hi = cfg();
        hi.sigma2 = 1.0;
        let a = simulate_ensemble(&law, &lo, &[3.0]).unwrap();
        let b = simulate_ensemble(&law, &hi, &[3.0]).unwrap();
        assert!(
            b[0].var_q() > a[0].var_q(),
            "var {} vs {}",
            a[0].var_q(),
            b[0].var_q()
        );
    }

    #[test]
    fn rejects_bad_config() {
        let law = LinearExp::standard();
        let rejection = |c: &McConfig, times: &[f64]| match simulate_ensemble(&law, c, times) {
            Err(NumericsError::InvalidParameter { context }) => context,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        let range = "McConfig: need mu > 0, sigma2 >= 0, dt > 0";
        let counts = "McConfig: need n_particles > 0 and threads > 0";
        let finite = "McConfig: mu, sigma2, dt, init_mean and init_std must be finite";
        let bad: [(fn(&mut McConfig), &str); 8] = [
            (|c| c.n_particles = 0, counts),
            (|c| c.dt = 0.0, range),
            (|c| c.sigma2 = f64::NAN, finite),
            (|c| c.mu = f64::INFINITY, finite),
            (|c| c.dt = f64::NAN, finite),
            (|c| c.init_mean.0 = f64::NAN, finite),
            (|c| c.init_mean.1 = f64::NEG_INFINITY, finite),
            (|c| c.init_std.0 = f64::NAN, finite),
        ];
        for (k, (spoil, want)) in bad.into_iter().enumerate() {
            let mut c = cfg();
            spoil(&mut c);
            assert_eq!(rejection(&c, &[1.0]), want, "case {k}");
        }
        let order = "simulate_ensemble: snapshot times must be non-negative and increasing";
        let finite_t = "simulate_ensemble: snapshot times must be finite";
        for (times, want) in [
            (&[][..], order),
            (&[1.0, 0.5][..], order),
            (&[f64::NAN][..], finite_t),
            (&[0.5, f64::NAN][..], finite_t),
            (&[0.5, f64::INFINITY][..], finite_t),
        ] {
            assert_eq!(rejection(&cfg(), times), want, "times {times:?}");
        }
    }
}
