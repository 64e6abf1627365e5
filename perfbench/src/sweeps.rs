//! The two DES workloads, both sweeps over `fpk_scenarios`:
//!
//! * `des_long` — a few long-horizon cells on a 3-hop tandem carrying
//!   finite-flow arrivals and a DECbit source, crossing queue discipline
//!   × byte mode × fault model × RTO policy. `run_core` does nearly all
//!   the work.
//! * `sweep_many` — thousands of short cells in the shape of the
//!   `scenario_grid/large` bench: one static rate flow, unit packets,
//!   FIFO, 5 replications per cell. Executor dispatch, arena reuse,
//!   summary, aggregation and the JSON write and parse carry a large
//!   share.
//!
//! Untraced passes call `run_sweep_on`. Traced passes drive the same
//! cells through `run_indexed_with` themselves, as `run_sweep_on` does
//! internally, timing each layer call; their report must come out byte
//! for byte the same.

use crate::trace::{Layer, Trace, ROOT};
use crate::workload::{fnv1a, sub_seed, Extra, PassOut, Workload};
use fpk_congestion::decbit::DecbitPolicy;
use fpk_congestion::LinearExp;
use fpk_numerics::Result;
use fpk_scenarios::{
    load_sweep_report, run_indexed_with, run_sweep_on, Axis, AxisReport, Cell, CellAccum,
    CellReport, Ensemble, Scenario, Sweep, SweepReport,
};
use fpk_sim::{
    run_network_summary, run_network_workload_summary, ArrivalProcess, Bytes, FlowSizeDist, Link,
    NetArena, PacketBytes, Route, RunSummary, Service, SimConfig, SourceSpec, Topology,
    Workload as Flows,
};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// What distinguishes one sweep workload from another.
pub trait SweepSpec {
    /// Workload name, used in the printed digest line.
    const NAME: &'static str;
    /// Replications per cell.
    const REPS: usize;
    /// The sweep whose report is the workload's artifact.
    fn sweep(seed: u64) -> Sweep;
    /// One line on the cells' shape.
    fn shape() -> String;
}

/// A sweep workload: the sweep, its cell count and the worker count.
pub struct SweepBench<S> {
    sweep: Arc<Sweep>,
    workers: usize,
    cells: usize,
    spec: PhantomData<S>,
}

/// What one driven cell returns: its report, its spans, and its
/// per-replication outcome.
struct CellOut {
    report: Result<CellReport>,
    trace: Trace,
    attempted: u64,
    failed: u64,
    packets: u64,
}

/// Packets a run delivered: static flows' throughput over the
/// measurement window, plus workload deliveries.
fn packets(s: &RunSummary, window: f64) -> u64 {
    let static_flows: f64 = s.throughputs.iter().map(|x| (x * window).round()).sum();
    static_flows as u64 + s.workload.as_ref().map_or(0, |w| w.packets_delivered)
}

/// One cell, as `run_sweep_on`'s job closure runs it, with a span around
/// each layer call and the per-replication output checks.
fn drive_cell(cell: &Cell, reps: usize, arena: &mut NetArena, on: bool) -> CellOut {
    let mut t = if on { Trace::on() } else { Trace::off() };
    let mut out = CellOut {
        report: Err(fpk_numerics::NumericsError::InvalidParameter {
            context: "cell not run",
        }),
        trace: Trace::off(),
        attempted: reps as u64,
        failed: reps as u64,
        packets: 0,
    };
    let span = t.open(Layer::Sweep, "sweep.cell", 1, None);
    let cell_span = Some(span);
    let window = cell.scenario.config.t_end - cell.scenario.config.warmup;
    let mut accum = CellAccum::new();
    let mut ok = 0;
    let mut failure = None;
    for r in 0..reps {
        let seed = Ensemble::replication_seed(cell.seed, r);
        let net = t.record(Layer::Sweep, "scenario.network", 1, cell_span, || {
            cell.scenario.network(seed)
        });
        let summary = net.and_then(|(net, flows)| {
            t.record(Layer::Des, "des.summary", 1, cell_span, || {
                match &cell.scenario.workload {
                    Some(w) => run_network_workload_summary(
                        arena,
                        &net,
                        &flows,
                        w,
                        cell.scenario.tail_fraction,
                    ),
                    None => run_network_summary(arena, &net, &flows, cell.scenario.tail_fraction),
                }
            })
        });
        let pushed = summary.and_then(|s| {
            let conserved = s
                .workload
                .as_ref()
                .is_none_or(|w| w.arrived == w.completed + w.active_at_end);
            out.packets += packets(&s, window);
            t.record(Layer::Aggregate, "aggregate.push", 1, cell_span, || {
                accum.push(&s)
            })
            .map(|()| conserved)
        });
        match pushed {
            Ok(conserved) => ok += u64::from(conserved),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    out.failed = reps as u64 - ok;
    out.report = match failure {
        Some(e) => Err(e),
        None => t
            .record(Layer::Aggregate, "aggregate.finish", 1, cell_span, || {
                accum.finish()
            })
            .map(|stats| CellReport {
                name: cell.scenario.name.clone(),
                index: cell.index,
                coords: cell.coords.clone(),
                seed: cell.seed,
                stats,
            }),
    };
    t.close(span);
    out.trace = t;
    out
}

impl<S: SweepSpec> SweepBench<S> {
    fn report(&self, cells: Result<Vec<CellReport>>) -> Result<SweepReport> {
        Ok(SweepReport {
            name: self.sweep.name().to_string(),
            base_seed: self.sweep.base_seed(),
            replications: S::REPS,
            axes: self
                .sweep
                .axes()
                .iter()
                .map(|a| AxisReport {
                    name: a.name.clone(),
                    values: a.values.clone(),
                })
                .collect(),
            cells: cells?,
        })
    }

    /// Write the report and parse it back; returns (bytes, digest, ok).
    fn write_and_parse(&self, trace: &mut Trace, report: &SweepReport) -> (u64, u64, bool) {
        let path = trace.record(Layer::Artifact, "artifact.write", 1, ROOT, || {
            report.write()
        });
        let parsed = trace.record(Layer::Artifact, "artifact.parse", 1, ROOT, || {
            load_sweep_report(&path)
        });
        let bytes = std::fs::read(&path).expect("artifact just written is readable");
        let same = parsed.cells.len() == report.cells.len()
            && parsed.cells.iter().zip(&report.cells).all(|(a, b)| {
                a.index == b.index
                    && a.seed == b.seed
                    && a.stats.total_throughput.mean.to_bits()
                        == b.stats.total_throughput.mean.to_bits()
            });
        (bytes.len() as u64, fnv1a(&bytes), same)
    }

    /// The traced path (and the untraced verification): drive the cells
    /// on the pool, then write and parse the report.
    fn drive(&self, trace: &mut Trace) -> PassOut {
        let mut out = PassOut::default();
        let on = trace.enabled();
        let cells =
            Arc::new(trace.record(Layer::Sweep, "sweep.cells", 1, ROOT, || self.sweep.cells()));
        let reps = S::REPS;
        let jobs = Arc::clone(&cells);
        let batch = trace.open(Layer::Idle, "sweep.batch", self.workers, ROOT);
        let results =
            run_indexed_with(cells.len(), self.workers, NetArena::new, move |arena, j| {
                drive_cell(&jobs[j], reps, arena, on)
            });
        trace.close(batch);
        let mut reports = Vec::with_capacity(results.len());
        for r in results {
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.des_packets += r.packets;
            trace.adopt(batch, r.trace);
            reports.push(r.report);
        }
        out.cell_reps = out.attempted;
        out.des_runs = out.attempted;
        match self.report(reports.into_iter().collect()) {
            Ok(report) => {
                let (bytes, digest, parsed) = self.write_and_parse(trace, &report);
                out.artifact_bytes = bytes;
                out.digest = digest;
                if !parsed {
                    out.failed = out.attempted;
                }
            }
            Err(_) => out.failed = out.attempted,
        }
        out
    }
}

impl<S: SweepSpec> Workload for SweepBench<S> {
    fn setup(seed: u64, workers: usize) -> Self {
        let sweep = S::sweep(seed);
        let cells = sweep.cells().len();
        // The first pool batch: spawns the workers (once per process) and
        // gives each its arena, so no pass pays for either.
        let warm = run_indexed_with(workers, workers, NetArena::new, |_, i| i);
        assert_eq!(warm.len(), workers);
        Self {
            sweep: Arc::new(sweep),
            workers,
            cells,
            spec: PhantomData,
        }
    }

    fn pass(&self, trace: &mut Trace) -> PassOut {
        if trace.enabled() {
            return self.drive(trace);
        }
        let mut out = PassOut {
            attempted: (self.cells * S::REPS) as u64,
            ..PassOut::default()
        };
        out.cell_reps = out.attempted;
        match run_sweep_on(&self.sweep, S::REPS, self.workers) {
            Ok(report) => {
                let (bytes, digest, parsed) = self.write_and_parse(trace, &report);
                out.artifact_bytes = bytes;
                out.digest = digest;
                out.failed = if parsed { 0 } else { out.attempted };
            }
            Err(_) => out.failed = out.attempted,
        }
        out
    }

    fn verify(&self, digest: u64) -> PassOut {
        let mut out = self.drive(&mut Trace::off());
        if out.digest != digest {
            out.failed = out.attempted;
        }
        out
    }

    /// `run_sweep_on` at 1 worker and at W: parallel efficiency, and the
    /// 1-worker report must equal the W-worker artifact byte for byte.
    fn extras(&self, digest: u64) -> (Vec<Extra>, PassOut) {
        let mut out = PassOut::default();
        let mut run = |threads| {
            let t0 = Instant::now();
            let r = run_sweep_on(&self.sweep, S::REPS, threads);
            let secs = t0.elapsed().as_secs_f64();
            let d = r.ok().map(|rep| {
                fnv1a(
                    serde_json::to_string_pretty(&rep)
                        .expect("report serialises")
                        .as_bytes(),
                )
            });
            let n = (self.cells * S::REPS) as u64;
            out.attempted += n;
            if d != Some(digest) {
                out.failed += n;
            }
            (secs, d)
        };
        let (one, d1) = run(1);
        let (many, _) = run(self.workers);
        println!(
            "digest {} workers=1: {}",
            S::NAME,
            d1.map_or_else(|| "error".to_string(), |d| format!("{d:016x}"))
        );
        let eff = ("sweep.parallel_eff", one / (self.workers as f64 * many));
        (vec![eff], out)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn describe(&self) -> String {
        format!(
            "{} cells x {} reps on {} workers, {}",
            self.cells,
            S::REPS,
            self.workers,
            S::shape()
        )
    }
}

/// `des_long`.
pub struct DesLong;
/// `sweep_many`.
pub struct SweepMany;

/// Horizon of each `des_long` cell, in simulated seconds.
const DES_T_END: f64 = 800.0;
/// Cells in `sweep_many`.
const MANY_CELLS: usize = 10_000;

impl SweepSpec for DesLong {
    const NAME: &'static str = "des_long";
    const REPS: usize = 1;

    fn sweep(seed: u64) -> Sweep {
        let link = Link {
            mu: 200.0,
            service: Service::Exponential,
            buffer: Some(60),
        };
        let flows = Flows::new(
            ArrivalProcess::Poisson { rate: 12.0 },
            FlowSizeDist::Exponential { mean: 8.0 },
            vec![
                Route::full(3),
                Route::single(0),
                Route::single(1),
                Route::single(2),
            ],
        )
        .with_prop_delay(0.005);
        let decbit = SourceSpec::Decbit {
            policy: DecbitPolicy::raja88(),
            rtt: 0.05,
            w0: 2.0,
            q_hat: 10.0,
        };
        let base = Scenario::new(
            "perfbench_des_long",
            SimConfig {
                mu: link.mu,
                service: link.service,
                buffer: link.buffer,
                t_end: DES_T_END,
                warmup: 10.0,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![decbit],
        )
        .with_topology(Topology::uniform(3, link))
        .with_workload(flows);
        let bytes_mode = Axis::new("bytes_mode", vec![0.0, 1.0], |sc, v| {
            sc.packet_bytes = (v >= 0.5).then_some(PacketBytes {
                dist: FlowSizeDist::Exponential { mean: 1000.0 },
                ref_bytes: Bytes(1000.0),
            });
        });
        Sweep::new(base, sub_seed(seed, 0))
            .axis(Axis::qdisc(vec![0.0, 3.0]))
            .axis(bytes_mode)
            .axis(Axis::fault_model(vec![2.0, 3.0]))
            .axis(Axis::rto_policy(vec![0.0, 3.0]))
            // Two seeds per parameter point as separate cells, last so the
            // pool's strided split gives each worker the same mix.
            .axis(Axis::label_only("k", vec![0.0, 1.0]))
    }

    fn shape() -> String {
        format!("horizon {DES_T_END} s, 3-hop tandem")
    }
}

impl SweepSpec for SweepMany {
    const NAME: &'static str = "sweep_many";
    const REPS: usize = 5;

    fn sweep(seed: u64) -> Sweep {
        let base = Scenario::new(
            "perfbench_sweep_many",
            SimConfig {
                mu: 100.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 2.0,
                warmup: 0.25,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        );
        Sweep::new(base, sub_seed(seed, 0)).axis(Axis::label_only(
            "k",
            (0..MANY_CELLS).map(|i| i as f64).collect(),
        ))
    }

    fn shape() -> String {
        "horizon 2 s, 1 hop".to_string()
    }
}
