//! Multi-hop unfairness and fault injection through the topology-first
//! API: the packet-level view of the paper's introduction (after Zhang's
//! and Jacobson's observations).
//!
//! Part 1 — a long AIMD connection crosses a 4-queue tandem against
//! single-hop cross traffic: its share collapses with hop count.
//! Part 2 — the same single-bottleneck flow under injected random loss:
//! the AIMD controller backs off gracefully rather than collapsing.
//! Part 3 — DECbit sources (regeneration-cycle averaged marking, the
//! actual Ramakrishnan–Jain mechanism) on the same bottleneck.
//! Part 4 — what the old tandem engine could *not* express: rate-based
//! JRJ sources on a 3-hop parking lot with heterogeneous per-hop service
//! and per-hop loss injection.
//!
//! Run with: `cargo run --release --example multihop_tandem`

use fpk_repro::congestion::decbit::DecbitPolicy;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::sim::engine::{run_with_faults, FaultConfig};
use fpk_repro::sim::{
    run, run_network, FlowSpec, Link, NetConfig, QdiscKind, Route, Service, SimConfig, SourceSpec,
    Topology,
};

fn main() {
    // ------------------------------------------------------------------
    // Part 1: hop-count unfairness on a tandem (topology-first API).
    // ------------------------------------------------------------------
    println!("=== 4-hop tandem: long flow vs per-hop cross traffic ===");
    let aimd = WindowAimd::new(1.0, 0.5, 0.05, 10.0);
    let k = 4;
    let window = |route: Route| FlowSpec {
        source: SourceSpec::Window { aimd, w0: 2.0 },
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
        t_end: 300.0,
        warmup: 60.0,
        sample_interval: 0.5,
        seed: 71,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let out = run_network(&net, &flows).expect("tandem");
    println!(
        "  long flow ({} hops): {:.1} pkts/s",
        out.flows[0].hops, out.flows[0].throughput
    );
    for (h, f) in out.flows[1..].iter().enumerate() {
        println!("  cross flow at hop {h}: {:.1} pkts/s", f.throughput);
    }
    println!(
        "  per-hop mean queues: {:?}",
        out.mean_queue
            .iter()
            .map(|q| (q * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("  → the long connection is starved at every hop it crosses —");
    println!("    Zhang's and Jacobson's multi-hop unfairness, reproduced.");
    println!();

    // ------------------------------------------------------------------
    // Part 2: fault injection on a single bottleneck.
    // ------------------------------------------------------------------
    println!("=== fault injection: AIMD under random loss ===");
    let cfg = SimConfig {
        mu: 100.0,
        service: Service::Exponential,
        buffer: None,
        t_end: 200.0,
        warmup: 40.0,
        sample_interval: 0.1,
        seed: 72,
    };
    let src = SourceSpec::Window {
        aimd: WindowAimd::new(1.0, 0.5, 0.05, 15.0),
        w0: 2.0,
    };
    for loss in [0.0, 0.02, 0.05, 0.10] {
        let out = run_with_faults(
            &cfg,
            std::slice::from_ref(&src),
            &FaultConfig::Iid { loss_prob: loss },
        )
        .expect("sim");
        println!(
            "  loss {:>4.0}%: throughput {:>6.1} pkts/s, drops {:>5}, mean queue {:>5.1}",
            loss * 100.0,
            out.flows[0].throughput,
            out.flows[0].dropped,
            out.mean_queue
        );
    }
    println!("  → throughput degrades smoothly with loss; no collapse.");
    println!();

    // ------------------------------------------------------------------
    // Part 3: DECbit sources (averaged marking).
    // ------------------------------------------------------------------
    println!("=== DECbit (Ramakrishnan–Jain) sources on one bottleneck ===");
    let decbit = |q_hat: f64| SourceSpec::Decbit {
        policy: DecbitPolicy::raja88(),
        rtt: 0.05,
        w0: 2.0,
        q_hat,
    };
    let out = run(&cfg, &[decbit(2.0), decbit(2.0)]).expect("sim");
    println!(
        "  two DECbit flows: throughputs ({:.1}, {:.1}) pkts/s, mean queue {:.2}",
        out.flows[0].throughput, out.flows[1].throughput, out.mean_queue
    );
    println!("  → regeneration-cycle averaging holds the queue near the knee");
    println!("    while sharing the pipe — the mechanism the paper's Eq. 1/2");
    println!("    abstracts into g(·).");
    println!();

    // ------------------------------------------------------------------
    // Part 4: rate-based JRJ sources on a 3-hop parking lot with
    // heterogeneous per-hop μ and per-hop loss — not expressible before
    // the topology-first redesign (the old tandem engine was
    // window-AIMD-only, lossless, and equal-μ per run at best).
    // ------------------------------------------------------------------
    println!("=== JRJ rate sources on a 3-hop parking lot, per-hop loss ===");
    let jrj = |lambda0: f64, route: Route| FlowSpec {
        source: SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        },
        route,
    };
    let net = NetConfig {
        topology: Topology {
            links: vec![
                Link {
                    mu: 90.0,
                    service: Service::Exponential,
                    buffer: Some(40),
                },
                Link {
                    mu: 60.0, // the tight middle hop
                    service: Service::Exponential,
                    buffer: Some(40),
                },
                Link {
                    mu: 120.0,
                    service: Service::Deterministic,
                    buffer: Some(40),
                },
            ],
        },
        faults: vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.02 }, // loss only at the middle hop
            FaultConfig::Iid { loss_prob: 0.0 },
        ],
        t_end: 200.0,
        warmup: 40.0,
        sample_interval: 0.5,
        seed: 73,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows = vec![
        jrj(20.0, Route::full(3)), // the long flow crossing everything
        jrj(20.0, Route::single(0)),
        jrj(20.0, Route::single(1)),
        jrj(20.0, Route::single(2)),
    ];
    let out = run_network(&net, &flows).expect("parking lot");
    for (i, f) in out.flows.iter().enumerate() {
        println!(
            "  flow {i} ({} hop{}): {:>6.1} pkts/s, sent {:>5}, dropped {:>3}",
            f.hops,
            if f.hops == 1 { " " } else { "s" },
            f.throughput,
            f.sent,
            f.dropped
        );
    }
    println!(
        "  per-hop utilisation: {:?}",
        out.utilization
            .iter()
            .map(|u| (u * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!("  → the rate-based long flow observes the *most congested* hop");
    println!("    on its path (stale by the path delay) and shares the tight");
    println!("    middle hop with its cross traffic; the JRJ analysis of the");
    println!("    paper now has a genuinely multi-hop packet-level twin.");
}
