//! Criterion benchmarks of the numerical kernels: the adaptive ODE
//! integrator and the advection sweep. (The Crank–Nicolson solve is
//! timed as part of `fp_step_by_diffusion` in `fp_solver.rs`.)

use criterion::{criterion_group, criterion_main, Criterion};
use fpk_core::fv::{advect_sweep, Limiter};
use fpk_numerics::ode::{Dopri5, Dopri5Options};
use std::hint::black_box;

fn bench_dopri5(c: &mut Criterion) {
    c.bench_function("dopri5_oscillator_100s", |b| {
        let solver = Dopri5::new(Dopri5Options {
            rtol: 1e-8,
            atol: 1e-10,
            ..Default::default()
        });
        let mut f = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        b.iter(|| {
            solver
                .integrate(&mut f, 0.0, 100.0, black_box(&[1.0, 0.0]))
                .expect("ode")
        });
    });
}

fn bench_advect(c: &mut Criterion) {
    c.bench_function("advect_sweep_1024", |b| {
        let n = 1024;
        let mut f: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 512.0) / 40.0).powi(2)).exp())
            .collect();
        let vel = vec![1.0; n + 1];
        let mut flux = vec![0.0; n + 1];
        b.iter(|| {
            advect_sweep(
                black_box(&mut f),
                &vel,
                1.0,
                0.5,
                Limiter::VanLeer,
                &mut flux,
            );
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dopri5, bench_advect
}
criterion_main!(benches);
