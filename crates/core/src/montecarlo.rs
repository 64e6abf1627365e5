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
//! stream counts.

use fpk_congestion::RateControl;
use fpk_numerics::par::{run_indexed, thread_count};
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// (which must be non-negative and strictly increasing).
///
/// # Errors
/// Configuration validation errors, or empty/unsorted `snapshot_times`.
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
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64));
    let mut qs = vec![0.0f64; count];
    let mut nus = vec![0.0f64; count];
    for p in 0..count {
        qs[p] = (cfg.init_mean.0 + cfg.init_std.0 * gauss(&mut rng)).max(0.0);
        nus[p] = (cfg.init_mean.1 + cfg.init_std.1 * gauss(&mut rng)).max(-cfg.mu);
    }
    let mut t = 0.0f64;
    let mut views = Vec::with_capacity(times.len());
    for time in times {
        // Advance all particles to this snapshot time.
        while t < time - 1e-12 {
            let dt = cfg.dt.min(time - t);
            let sq_dt = dt.sqrt();
            for p in 0..count {
                let q = qs[p];
                let nu = nus[p];
                // Empty-queue convention: the *drift* cannot push the
                // queue below empty (sticky wall, matching the PDE's
                // blocked advective flux); only the noise reflects
                // (zero-flux diffusion).
                let q_det = (q + nu * dt).max(0.0);
                let mut q_new = q_det + sigma * sq_dt * gauss(&mut rng);
                if q_new < 0.0 {
                    q_new = -q_new;
                }
                let g = law.g(q, nu + cfg.mu);
                let mut nu_new = nu + g * dt;
                if nu_new < -cfg.mu {
                    nu_new = -cfg.mu; // λ >= 0
                }
                qs[p] = q_new;
                nus[p] = nu_new;
            }
            t += dt;
        }
        views.push((qs.clone(), nus.clone()));
    }
    views
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr
/// dependency).
fn gauss<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
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
    fn output_matches_the_pinned_scoped_thread_engine() {
        // Captured from the engine this one replaced (one scoped thread
        // per chunk writing into pre-split snapshot buffers): moving the
        // chunks onto the pool must not move a single bit.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let snaps = simulate_ensemble(&law, &cfg(), &[0.5, 1.0]).unwrap();
        assert_eq!(fingerprint(&snaps), 0x5afb_186c_1047_4acf);
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
        let mut c = cfg();
        c.n_particles = 0;
        assert!(simulate_ensemble(&law, &c, &[1.0]).is_err());
        let mut c2 = cfg();
        c2.dt = 0.0;
        assert!(simulate_ensemble(&law, &c2, &[1.0]).is_err());
        assert!(simulate_ensemble(&law, &cfg(), &[]).is_err());
        assert!(simulate_ensemble(&law, &cfg(), &[1.0, 0.5]).is_err());
    }

    #[test]
    fn gauss_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..50_000).map(|_| gauss(&mut rng)).collect();
        let m = fpk_numerics::stats::mean(&xs);
        let v = fpk_numerics::stats::variance(&xs);
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.03, "var {v}");
    }
}
