//! In-memory spans recorded around the benchmark's calls into each layer
//! of the library.
//!
//! A span covers one call and occupies `width` workers for its duration
//! (1 for a call on one thread, W for a call that runs W threads
//! itself, such as the Monte Carlo ensemble or a whole pool batch). A
//! span's self time is `width × duration` minus the worker-time of its
//! children, so the self times of one pass add up to `W × pass wall`
//! and each layer's share of the machine can be read off directly.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON file.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The library layers the benchmark times, named by module. The
/// discriminant indexes per-layer arrays in [`Layer::ALL`] order.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `fpk_core::montecarlo`.
    Mc,
    /// `fpk_core::solver` and `fpk_core::steady`.
    Fp,
    /// `fpk_core::density` marginals and moments, `fpk_numerics::stats`.
    Analysis,
    /// `fpk_sim::metrics` / `fpk_sim::network` run + summary.
    Des,
    /// `fpk_scenarios::exec` / `pool` / `sweep` / `scenario`.
    Sweep,
    /// `fpk_scenarios::ensemble::CellAccum`.
    Aggregate,
    /// `fpk_scenarios::artifact`.
    Artifact,
    /// Worker capacity no layer call covers: idle workers, dispatch
    /// gaps and the benchmark's own bookkeeping.
    Idle,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Mc,
        Layer::Fp,
        Layer::Analysis,
        Layer::Des,
        Layer::Sweep,
        Layer::Aggregate,
        Layer::Artifact,
        Layer::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Mc => "mc",
            Layer::Fp => "fp",
            Layer::Analysis => "analysis",
            Layer::Des => "des",
            Layer::Sweep => "sweep",
            Layer::Aggregate => "aggregate",
            Layer::Artifact => "artifact",
            Layer::Idle => "idle",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub width: u32,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The parent of a pass's top-level spans: the pass's root span, which
/// `main` opens first.
pub const ROOT: Option<usize> = Some(0);

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos())
        .expect("run shorter than 584 years")
}

/// A span recorder. A disabled recorder records nothing and only runs
/// the closures it is given, so one code path serves both runs.
#[derive(Default)]
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn on() -> Self {
        Self {
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::default()
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Start a span; returns its id (meaningless when disabled).
    pub fn open(
        &mut self,
        layer: Layer,
        name: &'static str,
        width: usize,
        parent: Option<usize>,
    ) -> usize {
        if self.on {
            let t = now_ns();
            self.spans.push(Span {
                layer,
                name,
                start_ns: t,
                end_ns: t,
                width: u32::try_from(width).expect("width fits u32"),
                parent,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn record<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        width: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(layer, name, width, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Move `child`'s spans in under `parent`: its root spans become
    /// children of `parent`, its internal links are re-based.
    pub fn adopt(&mut self, parent: usize, child: Trace) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Self worker-seconds per layer, indexed by `Layer as usize`.
    pub fn self_times(&self) -> [f64; 8] {
        let mut child_work = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_work[p] += f64::from(s.width) * s.secs();
            }
        }
        let mut out = [0.0; 8];
        for (s, c) in self.spans.iter().zip(child_work) {
            out[s.layer as usize] += (f64::from(s.width) * s.secs() - c).max(0.0);
        }
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"width\":{},\"parent\":{parent}}}",
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.width
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
