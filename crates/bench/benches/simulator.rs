//! Criterion benchmarks of the discrete-event simulator: events per
//! second for rate- and window-based sources, scaling in flow count,
//! and the topology-first engine's scaling in hop count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_congestion::{LinearExp, WindowAimd};
use fpk_sim::{
    run, run_network, run_network_workload, ArrivalProcess, FaultConfig, FlowSizeDist, FlowSpec,
    Link, NetConfig, QdiscKind, Route, Service, SimConfig, SourceSpec, Topology, Workload,
};
use std::hint::black_box;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        mu: 100.0,
        service: Service::Exponential,
        buffer: None,
        t_end: 20.0,
        warmup: 2.0,
        sample_interval: 0.5,
        seed,
    }
}

fn rate_source() -> SourceSpec {
    SourceSpec::Rate {
        law: LinearExp::new(8.0, 0.5, 10.0),
        lambda0: 20.0,
        update_interval: 0.1,
        prop_delay: 0.01,
        poisson: true,
    }
}

fn bench_rate_flows(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_rate_by_flows");
    for n in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let sources = vec![rate_source(); n];
            b.iter(|| run(black_box(&config(1)), black_box(&sources)).expect("sim"));
        });
    }
    group.finish();
}

fn bench_window_flows(c: &mut Criterion) {
    c.bench_function("sim_window_2flows_20s", |b| {
        let mk = |rtt: f64| SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, rtt, 15.0),
            w0: 2.0,
        };
        let sources = vec![mk(0.03), mk(0.12)];
        b.iter(|| run(black_box(&config(2)), black_box(&sources)).expect("sim"));
    });
}

fn bench_service_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_by_service");
    for service in [Service::Deterministic, Service::Exponential] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{service:?}")),
            &service,
            |b, &svc| {
                let mut cfg = config(3);
                cfg.service = svc;
                let sources = vec![rate_source()];
                b.iter(|| run(black_box(&cfg), black_box(&sources)).expect("sim"));
            },
        );
    }
    group.finish();
}

fn bench_network_by_hops(c: &mut Criterion) {
    // The fig8 shape: one long flow over K hops + K single-hop cross
    // flows, 20 simulated seconds. Tracks the unified engine's per-hop
    // overhead (events scale roughly linearly with K).
    let mut group = c.benchmark_group("sim_network_by_hops");
    for k in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let window = |route: Route| FlowSpec {
                source: SourceSpec::Window {
                    aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                    w0: 2.0,
                },
                route,
            };
            let mut flows = vec![window(Route::full(k))];
            for hop in 0..k {
                flows.push(window(Route::single(hop)));
            }
            let net = NetConfig {
                topology: Topology::uniform(
                    k,
                    Link {
                        mu: 100.0,
                        service: Service::Exponential,
                        buffer: None,
                    },
                ),
                faults: Vec::new(),
                t_end: 20.0,
                warmup: 2.0,
                sample_interval: 0.5,
                seed: 4,
                qdisc: QdiscKind::Fifo,
                packet_bytes: None,
            };
            b.iter(|| run_network(black_box(&net), black_box(&flows)).expect("sim"));
        });
    }
    group.finish();
}

fn bench_finite_flows(c: &mut Criterion) {
    // Open-loop workload churn: ~4000 two-packet flows at ρ = 0.4
    // through one deterministic bottleneck, slot recycling on. Times
    // the per-flow path the workload layer added — arrival draws, slot
    // alloc/recycle through the free list, FCT/slowdown accounting —
    // on top of the ordinary packet machinery.
    c.bench_function("sim_finite_flows", |b| {
        let workload = Workload::new(
            ArrivalProcess::Poisson { rate: 200.0 },
            FlowSizeDist::Deterministic { packets: 2 },
            vec![Route::single(0)],
        );
        let net = NetConfig {
            topology: Topology::single(1000.0, Service::Deterministic, None),
            faults: Vec::new(),
            t_end: 20.0,
            warmup: 2.0,
            sample_interval: 0.5,
            seed: 5,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        };
        b.iter(|| run_network_workload(black_box(&net), &[], black_box(&workload)).expect("sim"));
    });
}

fn bench_network_qdisc(c: &mut Criterion) {
    // Queue-discipline overhead at the by_hops/4 shape: the Fifo row
    // must sit within noise of sim_network_by_hops/4 (the monomorphized
    // dispatch pins the historical fast path), and the RedMark row
    // prices the EWMA + uniform-draw marking the RED arm adds per
    // arrival.
    let mut group = c.benchmark_group("sim_network_qdisc");
    let k = 4usize;
    for (label, qdisc) in [
        ("Fifo", QdiscKind::Fifo),
        (
            "RedMark",
            QdiscKind::RedMark {
                min_th: 2.5,
                max_th: 10.0,
                max_p: 0.1,
                weight: 0.05,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &qdisc, |b, &qdisc| {
            let window = |route: Route| FlowSpec {
                source: SourceSpec::Window {
                    aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                    w0: 2.0,
                },
                route,
            };
            let mut flows = vec![window(Route::full(k))];
            for hop in 0..k {
                flows.push(window(Route::single(hop)));
            }
            let net = NetConfig {
                topology: Topology::uniform(
                    k,
                    Link {
                        mu: 100.0,
                        service: Service::Exponential,
                        buffer: None,
                    },
                ),
                faults: Vec::new(),
                t_end: 20.0,
                warmup: 2.0,
                sample_interval: 0.5,
                seed: 4,
                qdisc,
                packet_bytes: None,
            };
            b.iter(|| run_network(black_box(&net), black_box(&flows)).expect("sim"));
        });
    }
    group.finish();
}

fn bench_network_faults(c: &mut Criterion) {
    // Fault-model overhead at the by_hops/4 shape: the Iid row must sit
    // within noise of sim_network_by_hops/4 (static loss reads one
    // cached probability per arrival, exactly the historical fast
    // path), while the GE and LinkFlap rows price the per-transition
    // side-lane events — a handful per simulated second, so the rows
    // should stay near parity rather than scale with packet count.
    let mut group = c.benchmark_group("sim_network_faults");
    let k = 4usize;
    for (label, fault) in [
        ("Iid", FaultConfig::Iid { loss_prob: 0.02 }),
        (
            "GilbertElliott",
            FaultConfig::GilbertElliott {
                p_gb: 0.5,
                p_bg: 2.0,
                loss_good: 0.0,
                loss_bad: 0.10,
            },
        ),
        (
            "LinkFlap",
            FaultConfig::LinkFlap {
                up_rate: 2.0,
                down_rate: 0.2,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &fault, |b, &fault| {
            let window = |route: Route| FlowSpec {
                source: SourceSpec::Window {
                    aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                    w0: 2.0,
                },
                route,
            };
            let mut flows = vec![window(Route::full(k))];
            for hop in 0..k {
                flows.push(window(Route::single(hop)));
            }
            let net = NetConfig {
                topology: Topology::uniform(
                    k,
                    Link {
                        mu: 100.0,
                        service: Service::Exponential,
                        buffer: None,
                    },
                ),
                faults: vec![fault; k],
                t_end: 20.0,
                warmup: 2.0,
                sample_interval: 0.5,
                seed: 4,
                qdisc: QdiscKind::Fifo,
                packet_bytes: None,
            };
            b.iter(|| run_network(black_box(&net), black_box(&flows)).expect("sim"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rate_flows, bench_window_flows, bench_service_disciplines,
        bench_network_by_hops, bench_finite_flows, bench_network_qdisc,
        bench_network_faults
}
criterion_main!(benches);
