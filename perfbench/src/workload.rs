//! What every workload provides, and what one pass reports.

use crate::trace::{Layer, Trace, ROOT};

/// Work done and outcome of one pass (one regeneration of a workload's
/// artifact). Counts are per pass and repeat exactly for a fixed seed.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Operations attempted: MC snapshots, FP solves or cell-replications.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// FNV-1a digest of the artifact bytes written.
    pub digest: u64,
    /// Size of the artifact written, in bytes.
    pub artifact_bytes: u64,
    pub particle_steps: u64,
    /// FP steps taken through `FpSolver::step` / `run_until`.
    pub fp_steps: u64,
    /// Cell updates (cells × steps) of solves whose density array fits in
    /// L2, and of those whose array exceeds it.
    pub fp_cells_in_l2: u64,
    pub fp_cells_over_l2: u64,
    /// Steps taken inside `solve_stationary`.
    pub stationary_steps: u64,
    pub des_runs: u64,
    /// Packets delivered by the DES runs (static flows and workload flows).
    pub des_packets: u64,
    pub cell_reps: u64,
}

impl PassOut {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A traced-run measurement beyond the per-pass spans: (metric, value).
pub type Extra = (&'static str, f64);

/// One benchmark workload: a fixed job list that regenerates one
/// artifact per pass on W workers.
pub trait Workload: Sized {
    /// Build the inputs from `seed` for at most `workers` workers (the
    /// timed set-up).
    fn setup(seed: u64, workers: usize) -> Self;

    /// One pass. With tracing on, record a span around each layer call
    /// under the pass's root span (`trace::ROOT`).
    fn pass(&self, trace: &mut Trace) -> PassOut;

    /// Checks that need more than one pass's output, run once after the
    /// measured passes: `digest` is the untraced artifact's digest.
    fn verify(&self, _digest: u64) -> PassOut {
        PassOut::default()
    }

    /// Traced-run measurements made once: parallel efficiency, and the
    /// 1-worker digest. Failed checks land in the returned `PassOut`.
    fn extras(&self, _digest: u64) -> (Vec<Extra>, PassOut) {
        (Vec::new(), PassOut::default())
    }

    /// Workers the workload keeps busy: W, or 1 for a single-threaded one.
    fn workers(&self) -> usize;

    /// Human-readable description of the inputs and their sizes.
    fn describe(&self) -> String;
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64 of `(seed, k)`: the benchmark's input streams.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `[lo, hi)` drawn from `(seed, k)`.
pub fn jitter(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    let u = (sub_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// Write `body` as `<results dir>/<name>.json` through the library's
/// artifact writer (timed as `artifact.write`) and return the artifact's
/// size and digest.
pub fn write_artifact<T: serde::Serialize>(trace: &mut Trace, name: &str, body: &T) -> (u64, u64) {
    let path = trace.record(Layer::Artifact, "artifact.write", 1, ROOT, || {
        fpk_scenarios::write_json(name, body)
    });
    let bytes = std::fs::read(&path).expect("artifact just written is readable");
    (bytes.len() as u64, fnv1a(&bytes))
}
