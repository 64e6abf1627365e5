//! Equivalence pins for the topology-first engine refactor.
//!
//! The PR that introduced `fpk_sim::network` deleted the two dedicated
//! event loops (`engine`'s single-bottleneck loop and `tandem`'s private
//! `BinaryHeap` loop) and routed everything through one hop-indexed
//! engine. These tests pin that contract two ways:
//!
//! 1. **Golden constants** captured from the *pre-refactor* engines: the
//!    unified engine must reproduce them bit-for-bit (same seed → same
//!    counters, same trace sums, same f64 bit patterns).
//!    The two tandem pins run the old tandem engine's configurations
//!    as plain `run_network` topologies: one infinite-buffer link per
//!    μ, window flows on contiguous routes, endpoints-only sampling.
//! 2. **Shim equality**: `run`/`run_with_faults` versus `run_network` on
//!    the equivalent 1-link topology must agree exactly — guarding
//!    against the shim and the network API drifting apart in the
//!    future.

use fpk_repro::congestion::decbit::DecbitPolicy;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::sim::{
    run_network, run_network_workload, run_with_faults, ArrivalProcess, Bytes, FaultConfig,
    FlowSizeDist, FlowSpec, Link, NetConfig, NetResult, PacketBytes, QdiscKind, Route, Service,
    SimConfig, SourceSpec, Topology, Workload,
};

fn mixed_sources() -> Vec<SourceSpec> {
    vec![
        SourceSpec::Rate {
            law: LinearExp::new(4.0, 0.5, 12.0),
            lambda0: 5.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        },
        SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
            w0: 2.0,
        },
        SourceSpec::OnOff {
            peak_rate: 20.0,
            mean_on: 0.3,
            mean_off: 0.7,
            prop_delay: 0.01,
        },
        SourceSpec::Decbit {
            policy: DecbitPolicy::raja88(),
            rtt: 0.05,
            w0: 2.0,
            q_hat: 1.0,
        },
    ]
}

/// Pre-refactor golden: mixed sources + finite buffer + 5% loss on one
/// exponential bottleneck, seed 2024 (captured from commit 20877db).
#[test]
fn single_link_goldens_mixed_sources_with_loss() {
    let cfg = SimConfig {
        mu: 50.0,
        service: Service::Exponential,
        buffer: Some(30),
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
    };
    let out = run_with_faults(
        &cfg,
        &mixed_sources(),
        &FaultConfig::Iid { loss_prob: 0.05 },
    )
    .unwrap();
    let books: Vec<(u64, u64, u64)> = out
        .flows
        .iter()
        .map(|f| (f.sent, f.delivered, f.dropped))
        .collect();
    assert_eq!(
        books,
        vec![
            (754, 710, 40),
            (515, 475, 39),
            (185, 175, 10),
            (163, 152, 11)
        ],
        "per-flow counters moved off the pre-refactor engine"
    );
    assert_eq!(out.trace_q.len(), 401);
    let qsum: f64 = out.trace_q.iter().sum();
    assert_eq!(qsum.to_bits(), 0x40ab_6a00_0000_0000, "trace_q sum");
    assert_eq!(
        out.mean_queue.to_bits(),
        0x4022_5f15_c7a0_39b0,
        "mean_queue"
    );
    assert_eq!(
        out.total_throughput.to_bits(),
        0x4047_a000_0000_0000,
        "total_throughput"
    );
    let ctl_last: Vec<u64> = out
        .trace_ctl
        .last()
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        ctl_last,
        vec![
            0x4034_8602_4b4b_b77b,
            0x4012_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
        ],
        "final control-state sample"
    );
}

/// Pre-refactor golden: a lone AIMD window flow on a deterministic
/// server, no faults, seed 7.
#[test]
fn single_link_goldens_deterministic_window() {
    let cfg = SimConfig {
        mu: 80.0,
        service: Service::Deterministic,
        buffer: None,
        t_end: 30.0,
        warmup: 5.0,
        sample_interval: 0.1,
        seed: 7,
    };
    let src = SourceSpec::Window {
        aimd: WindowAimd::new(1.0, 0.5, 0.05, 12.0),
        w0: 2.0,
    };
    let out = run_with_faults(&cfg, &[src], &FaultConfig::default()).unwrap();
    let f = &out.flows[0];
    assert_eq!((f.sent, f.delivered, f.dropped), (1871, 1861, 0));
    assert_eq!(out.trace_q.len(), 301);
    let qsum: f64 = out.trace_q.iter().sum();
    assert_eq!(qsum.to_bits(), 0x40a0_b400_0000_0000);
    assert_eq!(out.mean_queue.to_bits(), 0x401d_06a7_ef9d_b2c6);
}

/// The old tandem engine's setup as a `run_network` config: one
/// infinite-buffer link per μ, no faults, FIFO, endpoints-only
/// sampling, and AIMD window flows (`aimd.rtt` = 2 × per-hop delay) on
/// the `(first, last)` routes.
fn tandem_golden_run(
    mu: &[f64],
    service: Service,
    (t_end, warmup, seed): (f64, f64, u64),
    routes: &[(usize, usize)],
) -> NetResult {
    let config = NetConfig {
        topology: Topology {
            links: mu
                .iter()
                .map(|&mu| Link {
                    mu,
                    service,
                    buffer: None,
                })
                .collect(),
        },
        faults: Vec::new(),
        t_end,
        warmup,
        sample_interval: t_end,
        seed,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows: Vec<FlowSpec> = routes
        .iter()
        .map(|&(first, last)| FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            },
            route: Route { first, last },
        })
        .collect();
    run_network(&config, &flows).unwrap()
}

/// Pre-refactor golden: 3-queue heterogeneous tandem (exponential
/// service), one long flow + per-hop cross traffic, seed 99. The old
/// tandem engine's private event loop produced exactly these counters.
#[test]
fn tandem_goldens_exponential_parking_lot() {
    let out = tandem_golden_run(
        &[100.0, 80.0, 120.0],
        Service::Exponential,
        (120.0, 24.0, 99),
        &[(0, 2), (0, 0), (1, 1), (2, 2)],
    );
    let delivered: Vec<u64> = out.flows.iter().map(|f| f.delivered).collect();
    assert_eq!(delivered, vec![823, 7738, 6256, 9317]);
    let mq_bits: Vec<u64> = out.mean_queue.iter().map(|q| q.to_bits()).collect();
    assert_eq!(
        mq_bits,
        vec![
            0x4015_663f_a8ed_061f,
            0x4017_4221_7736_1815,
            0x4014_118c_c0b5_68c8,
        ]
    );
}

/// Pre-refactor golden: deterministic-service tandem, seed 5.
#[test]
fn tandem_goldens_deterministic_service() {
    let out = tandem_golden_run(
        &[60.0, 60.0],
        Service::Deterministic,
        (90.0, 18.0, 5),
        &[(0, 1), (1, 1)],
    );
    let delivered: Vec<u64> = out.flows.iter().map(|f| f.delivered).collect();
    assert_eq!(delivered, vec![1301, 2774]);
    let mq_bits: Vec<u64> = out.mean_queue.iter().map(|q| q.to_bits()).collect();
    assert_eq!(mq_bits, vec![0x3fd7_2f68_4bda_1184, 0x401a_3777_7777_75eb]);
}

/// `run_with_faults` ≡ `run_network` on the equivalent 1-link topology:
/// same traces, same counters, field by field.
#[test]
fn shim_matches_run_network_single_link() {
    let cfg = SimConfig {
        mu: 60.0,
        service: Service::Exponential,
        buffer: Some(25),
        t_end: 25.0,
        warmup: 5.0,
        sample_interval: 0.1,
        seed: 31,
    };
    let faults = FaultConfig::Iid { loss_prob: 0.03 };
    let via_shim = run_with_faults(&cfg, &mixed_sources(), &faults).unwrap();

    let net = NetConfig {
        topology: Topology::single(cfg.mu, cfg.service, cfg.buffer),
        faults: vec![faults],
        t_end: cfg.t_end,
        warmup: cfg.warmup,
        sample_interval: cfg.sample_interval,
        seed: cfg.seed,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows: Vec<FlowSpec> = mixed_sources()
        .into_iter()
        .map(FlowSpec::single_hop)
        .collect();
    let via_net = run_network(&net, &flows).unwrap();

    assert_eq!(via_shim.trace_t, via_net.trace_t);
    assert_eq!(via_shim.trace_q, via_net.trace_q[0]);
    assert_eq!(via_shim.trace_ctl, via_net.trace_ctl);
    assert_eq!(
        via_shim.mean_queue.to_bits(),
        via_net.mean_queue[0].to_bits()
    );
    assert_eq!(
        via_shim.total_throughput.to_bits(),
        via_net.total_throughput.to_bits()
    );
    for (a, b) in via_shim.flows.iter().zip(&via_net.flows) {
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(b.hops, 1);
    }
}

/// Static flows through the workload machinery: `run_network_workload`
/// with an admission cap of zero must be bit-identical to plain
/// `run_network` — the workload code path schedules nothing, draws no
/// RNG, and perturbs no trace, so pre-workload goldens keep holding
/// for every scenario that doesn't opt in. (The same mixed-source +
/// loss setup as the golden test above, so this shim pin transitively
/// covers the pre-refactor constants too.)
#[test]
fn workload_with_zero_cap_matches_run_network() {
    let net = NetConfig {
        topology: Topology::single(50.0, Service::Exponential, Some(30)),
        faults: vec![FaultConfig::Iid { loss_prob: 0.05 }],
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows: Vec<FlowSpec> = mixed_sources()
        .into_iter()
        .map(FlowSpec::single_hop)
        .collect();
    let plain = run_network(&net, &flows).unwrap();

    let off = Workload::new(
        ArrivalProcess::Poisson { rate: 100.0 },
        FlowSizeDist::Exponential { mean: 10.0 },
        vec![Route::single(0)],
    )
    .with_max_flows(0);
    let shimmed = run_network_workload(&net, &flows, &off).unwrap();

    assert_eq!(plain.trace_t, shimmed.trace_t);
    assert_eq!(plain.trace_q, shimmed.trace_q);
    assert_eq!(plain.trace_ctl, shimmed.trace_ctl);
    assert_eq!(
        plain.mean_queue[0].to_bits(),
        shimmed.mean_queue[0].to_bits()
    );
    assert_eq!(
        plain.total_throughput.to_bits(),
        shimmed.total_throughput.to_bits()
    );
    for (a, b) in plain.flows.iter().zip(&shimmed.flows) {
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    }
    assert!(plain.workload.is_none());
    let s = shimmed
        .workload
        .expect("workload stats present even when capped off");
    assert_eq!((s.arrived, s.packets_sent, s.slot_high_water), (0, 0, 0));
    assert_eq!(s.fct.count, 0);
}

/// The queue-discipline refactor's fast-path pin: byte mode with a
/// unity size factor (`Deterministic{N}` bytes over an N-byte
/// reference) and the explicit `Fifo` discipline must be bit-identical
/// to the historical unit-packet engine on the golden mixed-source
/// configuration. The factor `(N as f64 / N as f64) as f32` is exactly
/// `1.0f32`; `svc * 1.0` is a bitwise no-op; and a deterministic byte
/// distribution draws no RNG — so every time, every counter, and every
/// trace bit must match the pre-refactor goldens that the unit-packet
/// tests above keep pinning.
#[test]
fn byte_mode_with_unity_factor_matches_unit_fast_path() {
    let mk = |packet_bytes: Option<PacketBytes>| NetConfig {
        topology: Topology::single(50.0, Service::Exponential, Some(30)),
        faults: vec![FaultConfig::Iid { loss_prob: 0.05 }],
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
        qdisc: QdiscKind::Fifo,
        packet_bytes,
    };
    let flows: Vec<FlowSpec> = mixed_sources()
        .into_iter()
        .map(FlowSpec::single_hop)
        .collect();
    let unit = run_network(&mk(None), &flows).unwrap();
    let bytes = run_network(
        &mk(Some(PacketBytes {
            dist: FlowSizeDist::Deterministic { packets: 1500 },
            ref_bytes: Bytes(1500.0),
        })),
        &flows,
    )
    .unwrap();

    assert_eq!(unit.trace_t, bytes.trace_t);
    assert_eq!(unit.trace_q, bytes.trace_q);
    assert_eq!(unit.trace_ctl, bytes.trace_ctl);
    assert_eq!(unit.mean_queue[0].to_bits(), bytes.mean_queue[0].to_bits());
    assert_eq!(
        unit.total_throughput.to_bits(),
        bytes.total_throughput.to_bits()
    );
    let books: Vec<(u64, u64, u64)> = bytes
        .flows
        .iter()
        .map(|f| (f.sent, f.delivered, f.dropped))
        .collect();
    // The same constants `single_link_goldens_mixed_sources_with_loss`
    // pins — the byte path reproduces the pre-refactor engine, not just
    // today's unit path.
    assert_eq!(
        books,
        vec![
            (754, 710, 40),
            (515, 475, 39),
            (185, 175, 10),
            (163, 152, 11)
        ],
        "byte mode with unity factor moved off the golden counters"
    );
}
