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
    FlowSizeDist, FlowSpec, Link, NetConfig, NetResult, PacketBytes, QdiscKind, Route, RtoPolicy,
    Service, SimConfig, SourceSpec, Topology, Workload,
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

// ---------------------------------------------------------------------
// Whole-engine pin grid: every queue discipline × byte mode × fault
// model × RTO switch on one mixed 3-hop tandem. Each cell is pinned by
// an FNV-1a hash over the bits of every output the engine produces.
// ---------------------------------------------------------------------

const QDISCS: [(&str, QdiscKind); 4] = [
    ("fifo", QdiscKind::Fifo),
    ("threshold", QdiscKind::ThresholdMark { threshold: 2.0 }),
    ("averaged", QdiscKind::AveragedMark { threshold: 1.0 }),
    (
        "red",
        QdiscKind::RedMark {
            min_th: 1.0,
            max_th: 6.0,
            max_p: 0.3,
            weight: 0.2,
        },
    ),
];

/// The fault models, applied to hop 2 only (hops 0 and 1 stay clean).
const FAULTS: [(&str, Option<FaultConfig>); 5] = [
    ("none", None),
    ("iid", Some(FaultConfig::Iid { loss_prob: 0.05 })),
    (
        "ge",
        Some(FaultConfig::GilbertElliott {
            p_gb: 0.5,
            p_bg: 2.0,
            loss_good: 0.01,
            loss_bad: 0.3,
        }),
    ),
    (
        "flap",
        Some(FaultConfig::LinkFlap {
            up_rate: 5.0,
            down_rate: 1.0,
        }),
    ),
    (
        "degrade",
        Some(FaultConfig::Degrade {
            factor: 0.5,
            period: 1.0,
        }),
    ),
];

/// Flow index of the static window flow. It crosses hops 0..=1 only,
/// where nothing can drop, and its own `q̂` is too lax to ever mark, so
/// any window cut it shows was caused by a hop-level discipline's mark.
const GRID_WINDOW_FLOW: usize = 2;

/// One grid cell: a 3-hop tandem (exponential, deterministic and
/// exponential service; only hop 2 has a finite buffer) crossed by
/// static Rate, OnOff, Window and DECbit flows plus a finite-flow
/// workload that saturates hop 2.
fn grid_cell(qdisc: QdiscKind, bytes: bool, fault: Option<FaultConfig>, rto: bool) -> NetResult {
    let link = |mu: f64, service: Service, buffer: Option<u64>| Link {
        mu,
        service,
        buffer,
    };
    let config = NetConfig {
        topology: Topology {
            links: vec![
                link(120.0, Service::Exponential, None),
                link(100.0, Service::Deterministic, None),
                link(80.0, Service::Exponential, Some(10)),
            ],
        },
        faults: fault.map_or_else(Vec::new, |f| {
            vec![FaultConfig::default(), FaultConfig::default(), f]
        }),
        t_end: 30.0,
        warmup: 5.0,
        sample_interval: 0.5,
        seed: 4242,
        qdisc,
        packet_bytes: bytes.then_some(PacketBytes {
            dist: FlowSizeDist::Exponential { mean: 1000.0 },
            ref_bytes: Bytes(1000.0),
        }),
    };
    let flows = vec![
        FlowSpec {
            source: SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            },
            route: Route::full(3),
        },
        FlowSpec {
            source: SourceSpec::OnOff {
                peak_rate: 40.0,
                mean_on: 0.3,
                mean_off: 0.5,
                prop_delay: 0.01,
            },
            route: Route { first: 1, last: 2 },
        },
        FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 1e6),
                w0: 2.0,
            },
            route: Route { first: 0, last: 1 },
        },
        FlowSpec {
            source: SourceSpec::Decbit {
                policy: DecbitPolicy::raja88(),
                rtt: 0.05,
                w0: 2.0,
                q_hat: 1.0,
            },
            route: Route::single(0),
        },
    ];
    let mut workload = Workload::new(
        ArrivalProcess::Poisson { rate: 8.0 },
        FlowSizeDist::Exponential { mean: 6.0 },
        vec![
            Route::full(3),
            Route { first: 1, last: 2 },
            Route::single(2),
        ],
    )
    .with_prop_delay(0.005);
    if rto {
        workload = workload.with_rto(RtoPolicy {
            rto_base: 0.2,
            backoff: 2.0,
            max_retries: 3,
        });
    }
    run_network_workload(&config, &flows, &workload).unwrap()
}

/// 64-bit FNV-1a over a stream of words (each hashed as 8 LE bytes).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Hash every output bit of a run: per-flow counters, per-hop means,
/// utilisation, downtime, recovery, all three traces and the workload
/// statistics.
fn result_hash(r: &NetResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for f in &r.flows {
        for w in [
            f.sent,
            f.delivered,
            f.dropped,
            f.throughput.to_bits(),
            f.hops as u64,
        ] {
            h.word(w);
        }
    }
    h.floats(&r.mean_queue);
    h.floats(&r.utilization);
    h.floats(&r.downtime_frac);
    h.floats(&r.recovery_time);
    h.word(r.total_throughput.to_bits());
    h.word(r.capacity.to_bits());
    h.floats(&r.trace_t);
    for q in &r.trace_q {
        h.floats(q);
    }
    for c in &r.trace_ctl {
        h.floats(c);
    }
    let w = r.workload.as_ref().expect("grid cells carry a workload");
    for x in [
        w.arrived,
        w.completed,
        w.completed_clean,
        w.active_at_end,
        w.packets_sent,
        w.packets_delivered,
        w.packets_dropped,
        w.retransmits,
        w.packets_gave_up,
        w.flows_gave_up,
        w.goodput.to_bits(),
        w.retx_overhead.to_bits(),
        w.peak_active,
        w.slot_high_water,
    ] {
        h.word(x);
    }
    for d in [&w.fct, &w.slowdown] {
        h.word(d.count);
        h.floats(&[d.mean, d.p50, d.p99, d.min, d.max]);
    }
    h.0
}

/// Cell hashes captured from the engine before it was split into
/// components, in `qdisc × bytes × fault × rto` order (rto fastest).
const GRID_PINS: [u64; 80] = [
    // fifo, unit mode: none, iid, ge, flap, degrade × rto off/on
    0xb91e_4580_88fd_48f7,
    0xa74f_689a_af2b_1075,
    0x9ea2_f761_4575_0db4,
    0xf256_b2d3_2790_af36,
    0x7104_1c76_a106_c45c,
    0x4e96_69a9_bda9_cb16,
    0xbddd_8738_b342_d0ce,
    0xa2cd_c19d_f164_6f51,
    0x7fbd_d621_c070_e27c,
    0x3729_9b37_272e_d5a6,
    // fifo, byte mode: none, iid, ge, flap, degrade × rto off/on
    0x020a_b67c_3ef0_d584,
    0x9c61_26c4_4d56_2ab9,
    0x0026_3ae9_8d2d_3947,
    0x055b_0a08_42a3_8e94,
    0x1b85_adfe_9a13_3a41,
    0x37a0_0591_c407_bdf5,
    0x6b05_0f72_4f88_f6b8,
    0x793f_6d39_4247_04da,
    0xf363_ff45_f6c9_d7b9,
    0x868c_5b80_7f1f_8802,
    // threshold, unit mode: none, iid, ge, flap, degrade × rto off/on
    0xdffa_ed5a_7c33_b226,
    0x8df0_5ef3_1d07_9e15,
    0xd06d_8292_0f25_d342,
    0x721d_e74d_60aa_7679,
    0x8782_b30f_187c_c172,
    0x1ca8_8660_28c2_3d34,
    0x56d4_b4b7_69ba_37a4,
    0xad2f_7d02_174c_e791,
    0xc558_7af4_b1da_546b,
    0xfccb_8725_c6b5_d935,
    // threshold, byte mode: none, iid, ge, flap, degrade × rto off/on
    0x9e2e_e362_c128_507c,
    0x0d7e_c0e1_c4cd_5340,
    0xeb86_b7f8_44a2_b096,
    0x4b8a_bde5_c2ad_97d1,
    0x3cd3_30b6_94bf_f26a,
    0x977d_58aa_dd86_799b,
    0xc62f_db54_04ec_585b,
    0xb5ca_f0ec_9a61_9c2a,
    0xaffb_312d_6b48_d879,
    0xb2e6_6105_f330_da2d,
    // averaged, unit mode: none, iid, ge, flap, degrade × rto off/on
    0x12ee_260d_63a1_a8d1,
    0x5ea7_d7ee_26af_1fa7,
    0xdecc_cb60_8a0b_f0dd,
    0x98a8_41f9_027d_2665,
    0xa39d_f997_342e_03d3,
    0xaacb_bba1_b75c_c289,
    0x55d6_28d5_ae2d_5df3,
    0x21b9_2d20_eb45_ea08,
    0xcbcf_8590_cb24_f634,
    0xd3d9_7752_7708_10d1,
    // averaged, byte mode: none, iid, ge, flap, degrade × rto off/on
    0x3a10_aa90_204e_4ec4,
    0x65ac_b5f4_f930_3cca,
    0x8362_b9c7_ccf1_fb59,
    0x335a_e13d_5a24_e533,
    0xc576_bd6c_2cca_7cc6,
    0xa469_d386_8a7c_d449,
    0x65af_4c67_729c_d609,
    0x6b9e_6fea_4dff_ca1e,
    0xfe3f_1f6c_c52e_8564,
    0x4629_2d5e_4eda_983d,
    // red, unit mode: none, iid, ge, flap, degrade × rto off/on
    0x1de8_a5da_8a45_25f0,
    0x055a_1cc9_42d6_30b8,
    0xfe52_aa8e_aeb4_7435,
    0x5d2d_0f50_57c5_703a,
    0x391a_73e6_5aaa_af16,
    0x90d2_81ca_cae4_dc00,
    0x3082_48d2_0210_7b29,
    0xee61_feea_3a0b_8c2e,
    0xa14e_4b8d_d98e_e131,
    0x7bb5_8476_cf14_9842,
    // red, byte mode: none, iid, ge, flap, degrade × rto off/on
    0xc984_2e20_c0f3_3b0e,
    0x2457_131c_5efc_071b,
    0xb1a7_7488_7d54_5dd7,
    0x3ff8_e88f_7c2d_2af4,
    0xb67b_38a0_c842_a955,
    0x52a7_d42b_90ed_b916,
    0xe0e1_9030_89ec_7967,
    0x282c_2b97_c4f8_4bf2,
    0x4011_bfb7_2e13_09cb,
    0x6111_fe0f_663c_ff9b,
];

fn grid_index(q: usize, bytes: bool, f: usize, rto: bool) -> usize {
    ((q * 2 + usize::from(bytes)) * FAULTS.len() + f) * 2 + usize::from(rto)
}

/// Run every cell of one discipline's slice of the grid, check that
/// each cell's feature actually fired, and compare it with its pin.
fn check_grid_slice(q: usize) {
    let (qname, qdisc) = QDISCS[q];
    let mut moved = Vec::new();
    for bytes in [false, true] {
        for (f, &(fname, fault)) in FAULTS.iter().enumerate() {
            for rto in [false, true] {
                let cell = format!("{qname}/bytes={bytes}/{fname}/rto={rto}");
                let r = grid_cell(qdisc, bytes, fault, rto);
                if qdisc != QdiscKind::Fifo {
                    let window = GRID_WINDOW_FLOW;
                    assert_eq!(r.flows[window].dropped, 0, "{cell}: window flow dropped");
                    let cuts = r
                        .trace_ctl
                        .windows(2)
                        .filter(|s| s[1][window] < s[0][window])
                        .count();
                    assert!(cuts > 0, "{cell}: the discipline never marked");
                }
                let w = r.workload.as_ref().expect("grid cells carry a workload");
                if rto {
                    assert!(w.retransmits > 0, "{cell}: RTO never retransmitted");
                }
                if fname == "flap" {
                    assert!(r.downtime_frac[2] > 0.0, "{cell}: the link never went down");
                }
                let got = result_hash(&r);
                let want = GRID_PINS[grid_index(q, bytes, f, rto)];
                if got != want {
                    moved.push(format!("{cell}: {got:#018x} (pinned {want:#018x})"));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "pin grid cells moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn pin_grid_cells_are_distinct() {
    // Every axis changes the output: no two cells share a hash.
    let mut pins = GRID_PINS.to_vec();
    pins.sort_unstable();
    pins.dedup();
    assert_eq!(pins.len(), GRID_PINS.len(), "two grid cells hash alike");
}

#[test]
fn pin_grid_fifo() {
    check_grid_slice(0);
}

#[test]
fn pin_grid_threshold_mark() {
    check_grid_slice(1);
}

#[test]
fn pin_grid_averaged_mark() {
    check_grid_slice(2);
}

#[test]
fn pin_grid_red_mark() {
    check_grid_slice(3);
}
