//! Criterion benchmarks of the Fokker–Planck stepper: cost per step by
//! limiter (ablation A1's wall-clock column), by grid size (A2), and by
//! diffusion scheme.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_congestion::LinearExp;
use fpk_core::solver::{DiffusionScheme, FpProblem, FpSolver};
use fpk_core::{Density, Limiter};
use std::hint::black_box;

fn solver_with(
    limiter: Limiter,
    scheme: DiffusionScheme,
    nq: usize,
    nnu: usize,
) -> FpSolver<LinearExp> {
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let mut problem = FpProblem::new(law, 5.0, 0.4);
    problem.limiter = limiter;
    problem.diffusion = scheme;
    let grid = Density::standard_grid(40.0, -6.0, 6.0, nq, nnu).expect("grid");
    let init = Density::gaussian(grid, 8.0, -1.0, 1.5, 0.8).expect("init");
    FpSolver::new(problem, init).expect("solver")
}

fn bench_limiters(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_limiter");
    for limiter in [
        Limiter::Upwind,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{limiter:?}")),
            &limiter,
            |b, &lim| {
                let mut s = solver_with(lim, DiffusionScheme::CrankNicolson, 120, 72);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

fn bench_grid_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_grid");
    for &(nq, nnu) in &[(60usize, 36usize), (120, 72), (240, 144)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nq}x{nnu}")),
            &(nq, nnu),
            |b, &(nq, nnu)| {
                let mut s = solver_with(Limiter::VanLeer, DiffusionScheme::CrankNicolson, nq, nnu);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

fn bench_diffusion_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_diffusion");
    for scheme in [DiffusionScheme::Explicit, DiffusionScheme::CrankNicolson] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme:?}")),
            &scheme,
            |b, &sch| {
                let mut s = solver_with(Limiter::VanLeer, sch, 120, 72);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_limiters, bench_grid_sizes, bench_diffusion_schemes
}
criterion_main!(benches);
