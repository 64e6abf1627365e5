//! `perfbench`: the end-to-end and per-layer benchmark of the fpk-repro
//! workspace.
//!
//! ```text
//! perfbench --workload <langevin|fp_density|des_long|sweep_many> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed-loop batch: a fixed job list regenerates one
//! artifact per pass on W workers (W = available parallelism) and the
//! next pass starts when the previous one ends. Set-up is timed on its
//! own, several times. `--trace 0` times whole passes and prints the
//! end-to-end metrics; `--trace 1` alternates traced and untraced passes
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Artifacts and the span file go to `FPK_RESULTS_DIR`.

mod fp_density;
mod langevin;
mod stats;
mod sweeps;
mod sys;
mod trace;
mod workload;

use stats::{median, percentile};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Trace};
use workload::{Extra, PassOut, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest passes a measured phase makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Running totals of operations, and the run's artifact digest.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    fn add(&mut self, p: &PassOut) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }

    /// Count a pass. Every pass of one run, traced or not, must write the
    /// same artifact bytes; a pass that does not fails all its operations.
    fn pass(&mut self, p: &PassOut) {
        self.add(p);
        if *self.digest.get_or_insert(p.digest) != p.digest {
            self.failed += p.attempted - p.failed;
        }
    }
}

/// One pass, timed: (output, wall seconds, process CPU seconds).
fn timed_pass<W: Workload>(wk: &W, trace: &mut Trace, workers: usize) -> (PassOut, f64, f64) {
    let (c0, t0) = (sys::process_cpu_s(), Instant::now());
    let root = trace.open(Layer::Idle, "pass", workers, None);
    let out = wk.pass(trace);
    trace.close(root);
    (out, t0.elapsed().as_secs_f64(), sys::process_cpu_s() - c0)
}

fn run<W: Workload>(args: &Args) -> (Vec<Metric>, Tally) {
    let available = sys::workers();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let wk = W::setup(args.seed, available);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(wk);
    }
    let wk = built.expect("at least one set-up");
    println!("workload {}: {}", args.workload, wk.describe());
    let workers = wk.workers();
    println!("workers W = {workers} ({available} available)");

    let mut tally = Tally::default();

    let start = Instant::now();
    let metrics = if !args.trace {
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            let (out, wall, cpu) = timed_pass(&wk, &mut Trace::off(), workers);
            tally.pass(&out);
            walls.push(wall);
            cpus.push(cpu);
        }
        let digest = tally.digest.expect("at least one pass");
        tally.add(&wk.verify(digest));
        println!("digest {} workers={workers}: {digest:016x}", args.workload);
        println!(
            "passes {}, wall per pass: {}",
            walls.len(),
            quartiles_str(&walls)
        );
        vec![
            metric("wall_s", median(&walls), "s"),
            metric("setup_s", median(&setups), "s"),
            metric("cpu_s", median(&cpus), "s"),
            metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ]
    } else {
        let mut traces = Vec::new();
        let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
        let mut passes = Vec::new();
        // Pairs of passes; at least two pairs, so both medians have company.
        while traced_walls.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
            let mut tr = Trace::on();
            let (out, wall, _) = timed_pass(&wk, &mut tr, workers);
            tally.pass(&out);
            traced_walls.push(wall);
            traces.push(tr);
            passes.push(out);
            let (out, wall, _) = timed_pass(&wk, &mut Trace::off(), workers);
            tally.pass(&out);
            plain_walls.push(wall);
        }
        let digest = tally.digest.expect("at least one pass");
        let (extras, extra_out) = wk.extras(digest);
        tally.add(&extra_out);
        println!("digest {} workers={workers}: {digest:016x}", args.workload);
        write_spans(&args.workload, &traces);
        layer_metrics(
            workers,
            &traces,
            &passes,
            &traced_walls,
            &plain_walls,
            extras,
        )
    };
    (metrics, tally)
}

fn quartiles_str(xs: &[f64]) -> String {
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "p25 {:.4} s, median {:.4} s, p75 {:.4} s (n = {}): {}",
        percentile(xs, 0.25),
        median(xs),
        percentile(xs, 0.75),
        xs.len(),
        all.join(" ")
    )
}

/// Write every traced pass's spans to `<results dir>/perfbench_trace_<workload>.json`.
fn write_spans(workload: &str, traces: &[Trace]) {
    let body: Vec<String> = traces.iter().map(Trace::to_json).collect();
    let path = fpk_scenarios::results_dir().join(format!("perfbench_trace_{workload}.json"));
    std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Work per second, or 0 when the layer did no work.
fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, per traced pass.
fn layer_metrics(
    workers: usize,
    traces: &[Trace],
    passes: &[PassOut],
    traced_walls: &[f64],
    plain_walls: &[f64],
    extras: Vec<Extra>,
) -> Vec<Metric> {
    let n = passes.len() as f64;
    let mut selfs = [0.0; 8];
    for t in traces {
        for (acc, s) in selfs.iter_mut().zip(t.self_times()) {
            *acc += s;
        }
    }
    let busy = |l: Layer| selfs[l as usize] / n;
    let sum = |f: fn(&PassOut) -> u64| passes.iter().map(f).sum::<u64>() as f64 / n;
    let spans =
        |name: &str| -> Vec<f64> { traces.iter().flat_map(|t| t.durations(name)).collect() };
    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
    let total = |name: &str| spans(name).iter().sum::<f64>() / n + 0.0;
    let extra = |name: &str| extras.iter().find(|e| e.0 == name).map_or(0.0, |e| e.1);

    let steps: Vec<f64> = [spans("fp.step.in_l2"), spans("fp.step.over_l2")].concat();
    let runs = spans("des.summary");
    let cells = spans("sweep.cell");
    let batch = total("sweep.batch");
    let cell_busy = cells.iter().sum::<f64>() / n;
    let pct = |xs: &[f64], p: f64, scale: f64| {
        if xs.is_empty() {
            0.0
        } else {
            percentile(xs, p) * scale
        }
    };

    let mut m = vec![
        metric("mc.busy_s", busy(Layer::Mc), "s"),
        metric("mc.particle_steps", sum(|p| p.particle_steps), "count"),
        metric(
            "mc.particle_steps_per_s",
            rate(sum(|p| p.particle_steps), total("mc.simulate_ensemble")),
            "1/s",
        ),
        metric("mc.parallel_eff", extra("mc.parallel_eff"), "frac"),
        metric("fp.busy_s", busy(Layer::Fp), "s"),
        metric("fp.steps", sum(|p| p.fp_steps), "count"),
        metric(
            "fp.cell_updates_per_s.in_l2",
            rate(sum(|p| p.fp_cells_in_l2), total("fp.step.in_l2")),
            "1/s",
        ),
        metric(
            "fp.cell_updates_per_s.over_l2",
            rate(sum(|p| p.fp_cells_over_l2), total("fp.step.over_l2")),
            "1/s",
        ),
        metric("fp.step_p50_us", pct(&steps, 0.5, 1e6), "us"),
        metric("fp.step_p99_us", pct(&steps, 0.99, 1e6), "us"),
        metric("fp.stationary_steps", sum(|p| p.stationary_steps), "count"),
        metric("analysis.busy_s", busy(Layer::Analysis), "s"),
        metric("des.busy_s", busy(Layer::Des), "s"),
        metric("des.runs", sum(|p| p.des_runs), "count"),
        metric("des.packets", sum(|p| p.des_packets), "count"),
        metric(
            "des.packets_per_s",
            rate(sum(|p| p.des_packets), total("des.summary")),
            "1/s",
        ),
        metric("des.run_p50_ms", pct(&runs, 0.5, 1e3), "ms"),
        metric("des.run_p99_ms", pct(&runs, 0.99, 1e3), "ms"),
        metric("sweep.busy_s", busy(Layer::Sweep), "s"),
        metric(
            "sweep.cell_reps_per_s",
            rate(sum(|p| p.cell_reps), batch),
            "1/s",
        ),
        metric("sweep.cell_p50_ms", pct(&cells, 0.5, 1e3), "ms"),
        metric("sweep.cell_p99_ms", pct(&cells, 0.99, 1e3), "ms"),
        metric(
            "sweep.idle_frac",
            if batch > 0.0 {
                1.0 - cell_busy / (workers as f64 * batch)
            } else {
                0.0
            },
            "frac",
        ),
        metric("sweep.parallel_eff", extra("sweep.parallel_eff"), "frac"),
        metric("aggregate.busy_s", busy(Layer::Aggregate), "s"),
        metric(
            "aggregate.us_per_rep",
            rate(busy(Layer::Aggregate) * 1e6, sum(|p| p.cell_reps)),
            "us",
        ),
        metric("artifact.write_s", total("artifact.write"), "s"),
        metric("artifact.parse_s", total("artifact.parse"), "s"),
        metric("artifact.bytes", sum(|p| p.artifact_bytes), "bytes"),
        metric("traced_wall_s", median(traced_walls), "s"),
        metric(
            "trace_overhead_frac",
            median(traced_walls) / median(plain_walls) - 1.0,
            "frac",
        ),
    ];
    // Each layer's self time as a share of the traced passes' worker
    // capacity, W × traced wall; the shares add up to 1.
    let capacity = workers as f64 * traced_walls.iter().sum::<f64>() / n;
    for l in Layer::ALL {
        m.push(metric(
            format!("share.{}", l.name()),
            busy(l) / capacity,
            "frac",
        ));
    }
    m
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, tally) = match args.workload.as_str() {
        "langevin" => run::<langevin::Langevin>(&args),
        "fp_density" => run::<fp_density::FpDensity>(&args),
        "des_long" => run::<sweeps::SweepBench<sweeps::DesLong>>(&args),
        "sweep_many" => run::<sweeps::SweepBench<sweeps::SweepMany>>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<32} {:>18.6} frac ({} failed of {} attempted)",
        "fail_frac", fail_frac, tally.failed, tally.attempted
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_line(correct, &tally, &metrics));
    ExitCode::SUCCESS
}
