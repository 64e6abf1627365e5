//! The topology-general discrete-event engine: an ordered chain of FIFO
//! links crossed by flows on contiguous routes.
//!
//! This is the one event loop behind every public entry point of the
//! crate. [`run_network`] subsumes both the single-bottleneck engine
//! (`engine::run_with_faults` is a 1-link shim) and the former tandem
//! simulator (a lossless K-link topology of window flows), so
//! parking-lot topologies, per-hop heterogeneous service, per-hop fault
//! injection, DECbit marking at any congested hop, and mixed rate/window
//! multi-hop flows are all expressible through a single API.
//!
//! Packet timeline for a flow routed over hops `first..=last` with
//! per-hop one-way delay `d` (= [`SourceSpec::prop_delay`]):
//!
//! ```text
//! send at t ──d──▶ hop first ──d──▶ hop first+1 … hop last ──(hops·d)──▶ ack
//! ```
//!
//! Congestion marks OR together along the route: a packet that saw *any*
//! congested hop returns a marked ack, so a long flow's mark probability
//! compounds with hop count — the hop-count-unfairness mechanism of
//! Zhang [Zha 89] and Jacobson [Jac 88] the paper's introduction cites.
//! Rate sources observe the most congested queue on their route (the
//! path bottleneck), one path delay stale.
//!
//! The event loop (`run_core`) is a short dispatch over [`EventKind`]
//! into two crate-private components (DESIGN §3d): a `Hop` per link
//! (rings, counters, fault machine, discipline scratch; `arrive`,
//! `depart`, `start_service`, the fault transitions and `finish`) and
//! `Traffic` (the source families' handlers, the finite workload, and
//! the one drop and one exit path). Both push straight into the run's
//! [`EventQueue`]; nothing on the packet path allocates or uses `dyn`.

use crate::engine::{FaultConfig, Service};
use crate::event::{EventKind, EventQueue};
use crate::hop::{Hop, Packet};
use crate::qdisc::{AveragedMark, Fifo, QDisc, QdiscKind, QdiscParams, RedMark, ThresholdMark};
use crate::source::{SourceSpec, SourceState};
use crate::traffic::{Traffic, WorkloadState};
use crate::workload::{PacketBytes, RtoPolicy, Workload, WorkloadStats};
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Where a run leaves its traces. Every run records them; the mode only
/// decides whether they are handed out, so the event dynamics (RNG
/// draws, event order, counters, mean queues) are identical across
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceMode {
    /// Keep the traces in the reusable [`NetArena`] buffers; the
    /// returned [`NetResult`]'s trace fields stay empty. This is the
    /// fast path behind [`crate::metrics::run_network_summary`]: a
    /// [`crate::RunSummary`] is computed straight from the arena, so a
    /// replication loop allocates no trace storage after its first run.
    Summary,
    /// Hand the traces out in [`NetResult`], preallocated at exact
    /// capacity (`⌊t_end/sample_interval⌋ + 1` samples).
    Full,
}

/// One link of a topology: a FIFO queue with its own service process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Service rate μ (packets/s).
    pub mu: f64,
    /// Service-time distribution.
    pub service: Service,
    /// Optional buffer limit (packets in system); `None` = infinite.
    pub buffer: Option<u64>,
}

/// An ordered chain of links, indexed `0..len()`. Flows cross contiguous
/// spans of it ([`Route`]), so a single link is the classic bottleneck,
/// K equal links a tandem, and per-hop cross traffic a parking lot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// The links in path order.
    pub links: Vec<Link>,
}

impl Topology {
    /// A one-link topology (the classic single bottleneck).
    #[must_use]
    pub fn single(mu: f64, service: Service, buffer: Option<u64>) -> Self {
        Self {
            links: vec![Link {
                mu,
                service,
                buffer,
            }],
        }
    }

    /// `k` identical links in series.
    #[must_use]
    pub fn uniform(k: usize, link: Link) -> Self {
        Self {
            links: vec![link; k],
        }
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the topology has no links (invalid for running).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// A contiguous span of hops a flow crosses, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// First hop index (0-based).
    pub first: usize,
    /// Last hop index (inclusive); must be ≥ `first`.
    pub last: usize,
}

impl Route {
    /// A route crossing exactly one hop.
    #[must_use]
    pub fn single(hop: usize) -> Self {
        Self {
            first: hop,
            last: hop,
        }
    }

    /// The full path of a `k`-link topology (`0..=k-1`).
    #[must_use]
    pub fn full(k: usize) -> Self {
        Self {
            first: 0,
            last: k.saturating_sub(1),
        }
    }

    /// Number of hops crossed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.last - self.first + 1
    }
}

/// A flow: any [`SourceSpec`] plus the route it crosses. The source's
/// propagation delay ([`SourceSpec::prop_delay`]) is the *per-hop*
/// one-way delay, so a window flow's effective round trip grows with its
/// hop count (`aimd.rtt` = 2 × per-hop delay — the legacy tandem
/// interpretation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Traffic source driving the flow.
    pub source: SourceSpec,
    /// The hops the flow crosses.
    pub route: Route,
}

impl FlowSpec {
    /// A flow crossing the single hop 0 (the 1-link topology case).
    #[must_use]
    pub fn single_hop(source: SourceSpec) -> Self {
        Self {
            source,
            route: Route::single(0),
        }
    }
}

/// Network simulation configuration: the topology plus run control.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// The ordered links.
    pub topology: Topology,
    /// Per-hop fault injection (i.i.d. loss, bursty Gilbert–Elliott
    /// loss, link flapping, or capacity degradation — see
    /// [`FaultConfig`]). Empty = fault-free everywhere; otherwise one
    /// entry per link.
    pub faults: Vec<FaultConfig>,
    /// Simulated horizon (seconds).
    pub t_end: f64,
    /// Statistics (throughput, mean queues) ignore `[0, warmup)`.
    pub warmup: f64,
    /// Queue/control trace sampling period.
    pub sample_interval: f64,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
    /// Queue discipline at every hop. [`QdiscKind::Fifo`] (the default)
    /// keeps the historical per-flow marking policy; the others impose
    /// a hop-level policy that overrides each flow's own `q̂`/DECbit
    /// settings (see [`crate::qdisc`]).
    pub qdisc: QdiscKind,
    /// Optional byte-granular packet sizing: `Some` makes every packet
    /// draw a byte size and take `bytes / ref_bytes` nominal service
    /// times; `None` (the default) is classic unit-packet service.
    pub packet_bytes: Option<PacketBytes>,
}

impl NetConfig {
    fn validate(&self, flows: &[FlowSpec], workload: Option<&Workload>) -> Result<()> {
        if self.topology.is_empty() {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: need at least one link",
            });
        }
        if self
            .topology
            .links
            .iter()
            .any(|l| !(l.mu > 0.0 && l.mu.is_finite()))
        {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: link service rates must be positive and finite",
            });
        }
        if !(self.t_end.is_finite() && self.sample_interval.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: t_end and sample_interval must be finite",
            });
        }
        if !(self.t_end > 0.0 && self.sample_interval > 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: t_end and sample_interval must be positive",
            });
        }
        // The sample count ⌊t_end/Δ⌋ + 1 sizes the trace buffers.
        if !(self.t_end / self.sample_interval < f64::from(u32::MAX)) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: t_end / sample_interval must stay below 2^32 samples",
            });
        }
        if !(0.0..self.t_end).contains(&self.warmup) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: warmup must lie in [0, t_end)",
            });
        }
        if !self.faults.is_empty() && self.faults.len() != self.topology.len() {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: faults must be empty or one per link",
            });
        }
        for f in &self.faults {
            f.validate()?;
        }
        if flows.is_empty() && workload.is_none() {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: need at least one flow",
            });
        }
        if let Some(w) = workload {
            w.validate(&self.topology)?;
        }
        validate_qdisc(self.qdisc)?;
        if let Some(pb) = &self.packet_bytes {
            pb.validate()?;
        }
        // FIFO entries pack the flow index into 31 bits (bit 31 carries
        // the congestion mark).
        if flows.len() >= (1 << 31) {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: at most 2^31 - 1 flows",
            });
        }
        if !flows.iter().all(|f| flow_timing_ok(&f.source)) {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: flow timing parameters must be finite \
                          (delays/RTTs >= 0, update intervals > 0)",
            });
        }
        let k = self.topology.len();
        if flows
            .iter()
            .any(|f| f.route.first > f.route.last || f.route.last >= k)
        {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: flow route out of range",
            });
        }
        Ok(())
    }
}

/// The discipline parameters [`NetConfig::validate`] accepts.
fn validate_qdisc(kind: QdiscKind) -> Result<()> {
    match kind {
        QdiscKind::Fifo => {}
        QdiscKind::ThresholdMark { threshold } | QdiscKind::AveragedMark { threshold } => {
            if !(threshold.is_finite() && threshold >= 0.0) {
                return Err(NumericsError::InvalidParameter {
                    context: "NetConfig: qdisc threshold must be finite and >= 0",
                });
            }
        }
        QdiscKind::RedMark {
            min_th,
            max_th,
            max_p,
            weight,
        } => {
            if !(min_th >= 0.0 && min_th < max_th && max_th.is_finite()) {
                return Err(NumericsError::InvalidParameter {
                    context: "NetConfig: RedMark needs 0 <= min_th < max_th < inf",
                });
            }
            if !(0.0..=1.0).contains(&max_p) {
                return Err(NumericsError::InvalidParameter {
                    context: "NetConfig: RedMark max_p must lie in [0, 1]",
                });
            }
            if !(weight > 0.0 && weight <= 1.0) {
                return Err(NumericsError::InvalidParameter {
                    context: "NetConfig: RedMark weight must lie in (0, 1]",
                });
            }
        }
    }
    Ok(())
}

/// Whether a flow's timing parameters are usable: every scheduled event
/// time is built from them, and non-finite or negative values would
/// poison the event clock (the hot-path finiteness check is
/// debug-only).
fn flow_timing_ok(source: &SourceSpec) -> bool {
    match source {
        SourceSpec::Rate {
            lambda0,
            update_interval,
            prop_delay,
            ..
        } => {
            prop_delay.is_finite()
                && *prop_delay >= 0.0
                && update_interval.is_finite()
                && *update_interval > 0.0
                && lambda0.is_finite()
        }
        SourceSpec::Window { aimd, w0 } => {
            aimd.rtt.is_finite() && aimd.rtt >= 0.0 && w0.is_finite()
        }
        SourceSpec::Decbit { rtt, w0, .. } => rtt.is_finite() && *rtt >= 0.0 && w0.is_finite(),
        SourceSpec::OnOff {
            peak_rate,
            mean_on,
            mean_off,
            prop_delay,
        } => {
            prop_delay.is_finite()
                && *prop_delay >= 0.0
                && peak_rate.is_finite()
                && mean_on.is_finite()
                && mean_off.is_finite()
        }
    }
}

/// Per-flow counters (collected after warm-up).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetFlowStats {
    /// Packets handed to the network.
    pub sent: u64,
    /// Packets that completed service at the flow's last hop.
    pub delivered: u64,
    /// Packets dropped (injected loss or a full buffer) at any hop.
    pub dropped: u64,
    /// Delivered / measurement window (packets per second).
    pub throughput: f64,
    /// Number of hops the flow crosses.
    pub hops: usize,
}

/// Result of one network run.
///
/// The three trace fields are populated by [`run_network`] and
/// [`run_network_workload`] (and their `_in` twins); the summary fast
/// paths ([`crate::metrics::run_network_summary`]) leave them empty and
/// read the traces straight from the [`NetArena`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetResult {
    /// Trace sample times.
    pub trace_t: Vec<f64>,
    /// Queue length of each hop at each sample: `trace_q[hop][k]`.
    pub trace_q: Vec<Vec<f64>>,
    /// Per-flow control state at each sample (λ for rate sources, window
    /// for window sources): `trace_ctl[k][i]`.
    pub trace_ctl: Vec<Vec<f64>>,
    /// Per-flow counters.
    pub flows: Vec<NetFlowStats>,
    /// Time-averaged queue length per hop after warm-up.
    pub mean_queue: Vec<f64>,
    /// Aggregate delivered (end-to-end) throughput after warm-up
    /// (packets/s, sum of per-flow throughputs).
    pub total_throughput: f64,
    /// Per-hop utilisation: packets served at the hop after warm-up per
    /// second, divided by the hop's μ.
    pub utilization: Vec<f64>,
    /// Aggregate capacity Σ μ over the links (for a 1-link topology this
    /// is exactly the bottleneck μ).
    pub capacity: f64,
    /// Per-hop fraction of the post-warm-up window the hop's link was
    /// down ([`FaultConfig::LinkFlap`] outages; exact 0.0 elsewhere).
    pub downtime_frac: Vec<f64>,
    /// Per-hop mean post-fault recovery time: from a fault clearing
    /// until the queue re-enters its pre-fault steady-state band
    /// (mean queue + 1). 0.0 for hops with no sampled recovery.
    pub recovery_time: Vec<f64>,
    /// Finite-flow outcome, `Some` iff the run carried a [`Workload`]
    /// (see [`run_network_workload`]). Workload packets count toward
    /// per-hop `utilization`/`mean_queue` but not `flows` /
    /// `total_throughput`, which stay static-flow quantities.
    pub workload: Option<WorkloadStats>,
}

impl NetResult {
    /// Index of the most congested hop (largest time-averaged queue,
    /// ties to the lowest index) — the hop whose trace the metrics layer
    /// analyses for oscillation.
    #[must_use]
    pub fn bottleneck_hop(&self) -> usize {
        let mut best = 0;
        for (h, &q) in self.mean_queue.iter().enumerate() {
            if q > self.mean_queue[best] {
                best = h;
            }
        }
        best
    }
}

/// Per-run constants every component handler reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Knobs {
    pub(crate) warmup: f64,
    /// `FPK_CHECK` strict mode (DESIGN §3h), read once per run so every
    /// per-event check is a predicted branch — free when off.
    pub(crate) strict: bool,
    /// The workload's RTO policy; `Some` also arms the attempt rings.
    pub(crate) rto: Option<RtoPolicy>,
    /// The run has a DECbit flow ([`Fifo`]'s observe hook needs it).
    pub(crate) any_decbit: bool,
    pub(crate) qp: QdiscParams,
    /// Byte-granular sizing (`Some` exactly in byte-mode runs).
    pub(crate) pb: Option<PacketBytes>,
}

/// Strict-mode draw tallies (DESIGN §3h): the workload and fault-lane
/// draws a run made, checked at the horizon against the §3f contract.
#[derive(Debug, Default)]
pub(crate) struct DrawAudit {
    /// Flow-size, route-choice and interarrival-gap draws.
    pub(crate) size: u64,
    pub(crate) route: u64,
    pub(crate) gap: u64,
    /// Fault sojourn draws (§3i)…
    pub(crate) fault_draws: u64,
    /// …which must equal the per-hop bootstrap draws…
    pub(crate) fault_boot: u64,
    /// …plus the transitions that rescheduled with one.
    pub(crate) fault_moves: u64,
}

impl DrawAudit {
    /// A fault transition that drew its next sojourn.
    pub(crate) fn fault_move(&mut self) {
        self.fault_moves += 1;
        self.fault_draws += 1;
    }

    /// Every fault sojourn draw is a bootstrap or a transition draw.
    fn check_faults(&self) {
        assert_eq!(
            self.fault_draws,
            self.fault_boot + self.fault_moves,
            "FPK_CHECK: fault sojourn draws diverged from fault transitions \
             (bootstrap {} + moves {})",
            self.fault_boot,
            self.fault_moves
        );
    }
}

/// The run context every component handler takes. Handlers rebind
/// `let rng = &mut cx.rng;` where they draw, so each draw site reads
/// as an `rng` call and carries its `// draw:` label.
pub(crate) struct Ctx {
    pub(crate) ev: EventQueue,
    pub(crate) rng: StdRng,
    pub(crate) audit: DrawAudit,
    pub(crate) k: Knobs,
}

/// Claim the next side lane when `cond` holds (`usize::MAX` = none).
pub(crate) fn alloc_lane(next: &mut usize, cond: bool) -> usize {
    if cond {
        *next += 1;
        *next - 1
    } else {
        usize::MAX
    }
}

/// A run's traces and sampling clock ([`TraceMode`] only decides
/// whether the traces are handed out).
#[derive(Debug, Default)]
pub(crate) struct Traces {
    pub(crate) t: Vec<f64>,
    /// `q[hop][sample]`.
    pub(crate) q: Vec<Vec<f64>>,
    /// Control trace, one row of static-flow values per sample.
    pub(crate) ctl: Vec<f64>,
    /// Indices of the next sample and of the last one in the horizon.
    next: u64,
    last: u64,
    interval: f64,
    t_end: f64,
}

impl Traces {
    /// Clear the buffers and size them exactly for the schedule
    /// `t_k = k·Δ ≤ t_end` (fresh multiples: no `t += Δ` drift).
    fn reset(&mut self, config: &NetConfig, n_flows: usize) {
        let quotient = config.t_end / config.sample_interval;
        self.last = (quotient * (1.0 + 1e-12) + 1e-9).floor() as u64;
        self.next = 0;
        self.interval = config.sample_interval;
        self.t_end = config.t_end;
        let n = self.last as usize + 1;
        self.t.clear();
        self.t.reserve(n);
        self.q.resize_with(config.topology.len(), Vec::new);
        for q in &mut self.q {
            q.clear();
            q.reserve(n);
        }
        self.ctl.clear();
        self.ctl.reserve(n * n_flows);
    }
}

// lint: hot-path arena(t, q, ctl)
impl Traces {
    /// `Sample`: record every queue and control state and schedule the
    /// next sample (clamped: the multiple can round past `t_end`).
    /// Sampling draws nothing, so the cadence cannot move a counter; in
    /// strict mode it also drives the periodic event-queue audit.
    fn sample(&mut self, t: f64, hops: &[Hop], states: &[SourceState], cx: &mut Ctx) {
        self.t.push(t);
        for (q, hop) in self.q.iter_mut().zip(hops) {
            q.push(hop.q_len() as f64);
        }
        self.ctl.extend(states.iter().map(|s| match s {
            SourceState::Rate { lambda } => *lambda,
            SourceState::Window { window, .. } => *window,
            SourceState::Decbit { ctl, .. } => ctl.window(),
            SourceState::OnOff { on, .. } => f64::from(u8::from(*on)),
        }));
        if cx.k.strict {
            cx.ev.assert_valid();
        }
        self.next += 1;
        if self.next <= self.last {
            cx.ev
                .schedule_sample((self.next as f64 * self.interval).min(self.t_end));
        }
    }
}
// lint: end

/// Reusable per-run scratch state: the event queue, source states, the
/// per-hop components (rings, counters, fault and discipline state),
/// the traces, and the finite-flow workload state.
///
/// One arena serves any number of sequential runs of any shape — every
/// buffer is cleared (capacity kept) and re-sized at the start of each
/// run, so a replication loop ([`crate::metrics::run_network_summary`]
/// driven by a sweep worker) stops paying per-run allocation entirely.
/// Output is bit-identical to a fresh-allocation run by construction:
/// nothing read by the simulation survives the reset.
#[derive(Debug, Default)]
pub struct NetArena {
    ev: EventQueue,
    states: Vec<SourceState>,
    hops: Vec<Hop>,
    pub(crate) traces: Traces,
    wl: WorkloadState,
}

impl NetArena {
    /// Fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer (keeping capacity) for a run of `config`;
    /// `run_core` re-arms the hops once it allocates the side lanes.
    fn reset(&mut self, config: &NetConfig, flows: &[FlowSpec], workload: Option<&Workload>) {
        self.ev.clear();
        self.states.clear();
        self.states
            .extend(flows.iter().map(|f| f.source.initial_state()));
        self.hops.truncate(config.topology.len());
        self.hops.resize_with(config.topology.len(), Hop::default);
        self.traces.reset(config, flows.len());
        self.wl.reset(flows.len(), workload);
    }
}

/// Run a network simulation: every flow crosses its route through the
/// shared deterministic [`EventQueue`].
///
/// For a 1-link topology this reproduces the historical single-bottleneck
/// engine bit-identically (same seed → same traces and counters); for a
/// lossless all-window topology it reproduces the historical tandem
/// engine's counters (both pinned by `tests/engine_equivalence.rs`).
///
/// Allocates a fresh [`NetArena`] per call; use [`run_network_in`] to
/// amortise the scratch state over many runs.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] for an empty topology or flow
/// list, non-positive or non-finite link rates, non-positive times, a
/// non-finite horizon or sampling
/// period, routes out of range, or `loss_prob` outside [0, 1).
pub fn run_network(config: &NetConfig, flows: &[FlowSpec]) -> Result<NetResult> {
    run_network_in(&mut NetArena::new(), config, flows)
}

/// [`run_network`] against caller-owned scratch state. The arena is
/// fully reset first, so the output is identical to a fresh run; what
/// the reuse buys is zero per-run allocation for everything except the
/// returned [`NetResult`] and its traces.
///
/// # Errors
/// See [`run_network`].
pub fn run_network_in(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
) -> Result<NetResult> {
    run_network_core(arena, config, flows, None, TraceMode::Full)
}

/// [`run_network`] plus a finite-flow [`Workload`]: open-loop flow
/// arrivals draw a size and a Zipf-popular route, inject their packets
/// as a paced burst, and depart once every packet is accounted
/// (delivered or dropped). `flows` may be empty for a workload-only
/// run; static flows coexist with the workload and keep their exact
/// static-only schedule prefix (a workload with `max_flows = Some(0)`
/// is bit-identical to [`run_network`], pinned by
/// `tests/engine_equivalence.rs`).
///
/// The returned [`NetResult::workload`] is always `Some`, carrying the
/// FCT / slowdown summaries and conservation counters.
///
/// # Errors
/// See [`run_network`]; additionally anything [`Workload::validate`]
/// rejects.
pub fn run_network_workload(
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: &Workload,
) -> Result<NetResult> {
    run_network_workload_in(&mut NetArena::new(), config, flows, workload)
}

/// [`run_network_workload`] against caller-owned scratch state (the
/// workload analogue of [`run_network_in`]).
///
/// # Errors
/// See [`run_network_workload`].
pub fn run_network_workload_in(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: &Workload,
) -> Result<NetResult> {
    run_network_core(arena, config, flows, Some(workload), TraceMode::Full)
}

/// Entry point behind every public runner: validate, then select one of
/// the eight monomorphized event loops (discipline `Q` × byte mode)
/// **once per run**, so every discipline hook inlines and no `dyn` call
/// sits on the packet path.
pub(crate) fn run_network_core(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    trace: TraceMode,
) -> Result<NetResult> {
    config.validate(flows, workload)?;
    match config.qdisc {
        QdiscKind::Fifo => run_q::<Fifo>(arena, config, flows, workload, trace),
        QdiscKind::ThresholdMark { .. } => {
            run_q::<ThresholdMark>(arena, config, flows, workload, trace)
        }
        QdiscKind::AveragedMark { .. } => {
            run_q::<AveragedMark>(arena, config, flows, workload, trace)
        }
        QdiscKind::RedMark { .. } => run_q::<RedMark>(arena, config, flows, workload, trace),
    }
}

/// [`run_core`] for discipline `Q` in byte or unit mode.
fn run_q<Q: QDisc>(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    trace: TraceMode,
) -> Result<NetResult> {
    if config.packet_bytes.is_some() {
        run_core::<Q, true>(arena, config, flows, workload, trace)
    } else {
        run_core::<Q, false>(arena, config, flows, workload, trace)
    }
}

/// The one event loop (see [`run_network_core`]): a dispatch over
/// [`EventKind`] into the [`Hop`] and [`Traffic`] components.
fn run_core<Q: QDisc, const BYTES: bool>(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    trace: TraceMode,
) -> Result<NetResult> {
    let t_end = config.t_end;
    arena.reset(config, flows, workload);
    // Move the scratch state into owned locals for the duration of the
    // loop — indexing through `&mut arena.field` keeps the Vec headers
    // behind a pointer and costs ~25% of the whole run; owned locals
    // let the compiler keep them in registers. Everything moves back
    // into the arena before returning so capacity is still reused.
    let mut hops = std::mem::take(&mut arena.hops);
    let mut traces = std::mem::take(&mut arena.traces);
    let mut ctx = Ctx {
        ev: std::mem::take(&mut arena.ev),
        rng: StdRng::seed_from_u64(config.seed),
        audit: DrawAudit::default(),
        k: Knobs {
            warmup: config.warmup,
            strict: crate::check::strict(),
            rto: workload.and_then(|w| w.rto),
            any_decbit: flows
                .iter()
                .any(|f| matches!(f.source, SourceSpec::Decbit { .. })),
            qp: QdiscParams::resolve(config.qdisc),
            pb: config.packet_bytes,
        },
    };

    // Side lanes (§3d) for the one-pending streams: the sample clock
    // (lane 0), each hop's departure (1 + hop), then — only where they
    // exist — the send chains, the arrival clock and the fault machines.
    let mut next_lane = 1 + hops.len();
    let mut traffic = Traffic::new(
        flows,
        workload,
        config,
        &mut next_lane,
        std::mem::take(&mut arena.states),
        std::mem::take(&mut arena.wl),
    );
    for (id, hop) in hops.iter_mut().enumerate() {
        hop.reset(id, config, &mut next_lane);
    }
    ctx.ev.set_lane_count(next_lane);
    ctx.ev.set_strict(ctx.k.strict);

    // Bootstrap in the §3f order: static flows, fault machines, the
    // workload's first gap, and the sample clock.
    traffic.bootstrap::<BYTES>(&mut ctx);
    for hop in &hops {
        hop.start_fault(&mut ctx);
    }
    traffic.start_workload(&mut ctx);
    ctx.ev.schedule_sample(0.0);

    // lint: hot-path
    while let Some(event) = ctx.ev.pop() {
        let t = event.t;
        if t > t_end {
            break;
        }
        let cx = &mut ctx;
        match event.kind {
            EventKind::SendPacket { flow } => traffic.send::<BYTES>(flow, t, cx),
            EventKind::Toggle { flow } => traffic.onoff_toggle(flow, t, cx),
            EventKind::Arrival {
                flow,
                hop,
                marked,
                size,
                attempt,
            } => {
                let pkt = Packet {
                    flow,
                    marked,
                    size,
                    attempt,
                };
                hops[hop].arrive::<Q, BYTES>(t, pkt, &mut traffic, cx);
            }
            EventKind::Departure { hop } => hops[hop].depart::<Q, BYTES>(t, &mut traffic, cx),
            EventKind::Observe { flow } => traffic.rate_observe(flow, t, &hops, &mut cx.ev),
            EventKind::Feedback {
                flow,
                observed_queue,
            } => traffic.rate_feedback(flow, observed_queue),
            EventKind::Ack { flow, marked } => traffic.window_ack::<BYTES>(flow, marked, t, cx),
            EventKind::FlowArrival => traffic.flow_arrival::<BYTES>(t, cx),
            EventKind::FlowComplete { flow } => traffic.flow_complete(flow, t, &cx.k),
            EventKind::Sample => traces.sample(t, &hops, &traffic.states, cx),
            EventKind::LinkDown { hop } => hops[hop].link_down(t, cx),
            EventKind::LinkUp { hop } => hops[hop].link_up::<BYTES>(t, cx),
            EventKind::FaultShift { hop } => hops[hop].fault_shift(t, cx),
        }
    }
    // lint: end

    // FPK_CHECK horizon invariants (DESIGN §3h). Runs once, after the
    // loop — allocation here is off the packet path.
    if ctx.k.strict {
        ctx.ev.assert_valid();
        if let Some(w) = workload {
            let parked = hops.iter().map(|h| h.parked_workload(flows.len())).sum();
            traffic.wl.check_horizon(w, parked, &ctx.audit);
        }
        ctx.audit.check_faults();
    }
    let out = net_result(config, trace, &hops, &mut traffic, &mut traces);
    *arena = NetArena {
        ev: ctx.ev,
        states: traffic.states,
        hops,
        traces,
        wl: traffic.wl,
    };
    Ok(out)
}

/// Close the run at the horizon into its [`NetResult`].
fn net_result(
    config: &NetConfig,
    trace: TraceMode,
    hops: &[Hop],
    traffic: &mut Traffic,
    traces: &mut Traces,
) -> NetResult {
    let (warmup, t_end) = (config.warmup, config.t_end);
    let window = t_end - warmup;
    for f in &mut traffic.stats {
        f.throughput = f.delivered as f64 / window;
    }
    // Full mode hands the trace buffers out (the arena grows fresh ones
    // next run); a workload-only run has one empty control row per
    // sample (`chunks(0)` would panic).
    let (mut trace_t, mut trace_q, mut trace_ctl) = Default::default();
    if trace == TraceMode::Full {
        trace_t = std::mem::take(&mut traces.t);
        trace_q = std::mem::take(&mut traces.q);
        trace_ctl = match traffic.stats.len() {
            0 => vec![Vec::new(); trace_t.len()],
            n => traces.ctl.chunks(n).map(<[f64]>::to_vec).collect(),
        };
    }
    let ends: Vec<_> = hops.iter().map(|h| h.finish(t_end, warmup)).collect();
    NetResult {
        trace_t,
        trace_q,
        trace_ctl,
        total_throughput: traffic.stats.iter().map(|f| f.throughput).sum(),
        flows: std::mem::take(&mut traffic.stats),
        mean_queue: ends.iter().map(|e| e.0).collect(),
        utilization: ends.iter().map(|e| e.1).collect(),
        capacity: config.topology.links.iter().map(|l| l.mu).sum(),
        downtime_frac: ends.iter().map(|e| e.2).collect(),
        recovery_time: ends.iter().map(|e| e.3).collect(),
        workload: traffic.workload.map(|_| traffic.wl.stats(t_end)),
    }
}

/// Fault process at `hop` (`faults` empty = fault-free everywhere).
pub(crate) fn fault_at(faults: &[FaultConfig], hop: usize) -> FaultConfig {
    faults.get(hop).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, WindowAimd};

    fn link(mu: f64) -> Link {
        Link {
            mu,
            service: Service::Exponential,
            buffer: None,
        }
    }

    fn window_flow(route: Route) -> FlowSpec {
        FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            },
            route,
        }
    }

    fn net(k: usize) -> NetConfig {
        NetConfig {
            topology: Topology::uniform(k, link(100.0)),
            faults: Vec::new(),
            t_end: 60.0,
            warmup: 12.0,
            sample_interval: 0.1,
            seed: 17,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3)), window_flow(Route::single(1))];
        let a = run_network(&cfg, &flows).unwrap();
        let b = run_network(&cfg, &flows).unwrap();
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
        assert_eq!(a.trace_q, b.trace_q);
    }

    #[test]
    fn per_hop_traces_and_means_recorded() {
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3))];
        let out = run_network(&cfg, &flows).unwrap();
        assert_eq!(out.trace_q.len(), 3);
        assert_eq!(out.mean_queue.len(), 3);
        assert_eq!(out.utilization.len(), 3);
        assert_eq!(out.trace_q[0].len(), out.trace_t.len());
        assert!(out.mean_queue.iter().all(|&q| q >= 0.0));
        assert!(out.flows[0].delivered > 0);
        assert_eq!(out.flows[0].hops, 3);
        // Lossless infinite-buffer books: every sent packet is delivered
        // or still in flight.
        let f = &out.flows[0];
        assert_eq!(f.dropped, 0);
        assert!(
            f.sent >= f.delivered,
            "sent {} < delivered {}",
            f.sent,
            f.delivered
        );

        // One aggressive flow across 2 hops with hop 0 the bottleneck:
        // hop 0 caps the end-to-end throughput and holds the queue.
        let mut cfg = net(2);
        cfg.topology = Topology {
            links: vec![link(50.0), link(100.0)],
        };
        cfg.t_end = 300.0;
        cfg.warmup = 60.0;
        let flows = vec![FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(4.0, 0.5, 0.02, 20.0),
                w0: 8.0,
            },
            route: Route::full(2),
        }];
        let out = run_network(&cfg, &flows).unwrap();
        let tput = out.flows[0].throughput;
        assert!(tput > 20.0 && tput <= 51.0, "throughput {tput}");
        assert!(out.mean_queue[0] > out.mean_queue[1]);
    }

    #[test]
    fn rate_sources_work_multi_hop() {
        // The scenario the legacy tandem could not express: a rate-based
        // JRJ source crossing several hops.
        let cfg = net(3);
        let flows = vec![FlowSpec {
            source: SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            },
            route: Route::full(3),
        }];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].delivered > 100, "rate flow must deliver");
        assert!(out.flows[0].sent >= out.flows[0].delivered);
    }

    #[test]
    fn per_hop_faults_hit_only_their_hop() {
        // Loss only at hop 1: a hop-0 cross flow sees no drops, the
        // 2-hop flow does.
        let mut cfg = net(2);
        cfg.faults = vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.15 },
        ];
        let flows = vec![window_flow(Route::full(2)), window_flow(Route::single(0))];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].dropped > 0, "2-hop flow crosses the lossy hop");
        assert_eq!(out.flows[1].dropped, 0, "hop-0 flow never sees hop 1");
    }

    #[test]
    fn per_hop_buffers_drop_where_small() {
        let mut cfg = net(2);
        cfg.topology.links[1].buffer = Some(2);
        cfg.topology.links[1].mu = 40.0; // hop 1 is the bottleneck
        let flows = vec![window_flow(Route::full(2))];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].dropped > 0, "tiny hop-1 buffer must drop");
        assert!(out.trace_q[1].iter().all(|&q| q <= 2.0));
    }

    #[test]
    fn hop_count_unfairness_reproduced() {
        // The fig8 mechanism through the unified engine: a long flow
        // crossing 3 hops against per-hop cross traffic is starved.
        let cfg = net(3);
        let mut flows = vec![window_flow(Route::full(3))];
        for hop in 0..3 {
            flows.push(window_flow(Route::single(hop)));
        }
        let out = run_network(&cfg, &flows).unwrap();
        let long = out.flows[0].throughput;
        for f in &out.flows[1..] {
            assert!(
                f.throughput > 1.3 * long,
                "cross ({}) must beat long ({long})",
                f.throughput
            );
        }
        // Flows of 1, 2 and 3 hops all entering at hop 0: throughput
        // falls with every extra hop.
        let flows: Vec<FlowSpec> = (0..3)
            .map(|last| window_flow(Route { first: 0, last }))
            .collect();
        let out = run_network(&cfg, &flows).unwrap();
        let t: Vec<f64> = out.flows.iter().map(|f| f.throughput).collect();
        assert!(
            t[0] > t[1] && t[1] > t[2],
            "throughput must fall with hop count: {t:?}"
        );
    }

    #[test]
    fn mixed_rate_and_window_share_a_tandem() {
        let cfg = net(2);
        let flows = vec![
            window_flow(Route::full(2)),
            FlowSpec {
                source: SourceSpec::Rate {
                    law: LinearExp::new(8.0, 0.5, 10.0),
                    lambda0: 10.0,
                    update_interval: 0.1,
                    prop_delay: 0.01,
                    poisson: true,
                },
                route: Route::single(1),
            },
        ];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows.iter().all(|f| f.delivered > 0));
    }

    #[test]
    fn bottleneck_hop_is_argmax_mean_queue() {
        let r = NetResult {
            trace_t: vec![],
            trace_q: vec![],
            trace_ctl: vec![],
            flows: vec![],
            mean_queue: vec![1.0, 4.0, 4.0, 2.0],
            total_throughput: 0.0,
            utilization: vec![],
            capacity: 0.0,
            workload: None,
            downtime_frac: vec![],
            recovery_time: vec![],
        };
        assert_eq!(r.bottleneck_hop(), 1, "ties resolve to the lowest index");
    }

    #[test]
    fn rejects_bad_inputs() {
        let flows = vec![window_flow(Route::full(2))];
        // Route out of range.
        assert!(run_network(&net(1), &flows).is_err());
        // Empty topology.
        let mut cfg = net(2);
        cfg.topology.links.clear();
        assert!(run_network(&cfg, &flows).is_err());
        // Faults length mismatch.
        let mut cfg = net(2);
        cfg.faults = vec![FaultConfig::Iid { loss_prob: 0.1 }];
        assert!(run_network(&cfg, &flows).is_err());
        // Bad loss probability.
        let mut cfg = net(2);
        cfg.faults = vec![
            FaultConfig::Iid { loss_prob: 0.1 },
            FaultConfig::Iid { loss_prob: 1.0 },
        ];
        assert!(run_network(&cfg, &flows).is_err());
        // Empty flows.
        assert!(run_network(&net(2), &[]).is_err());
        // Non-finite timing parameters (the hot-path finiteness check
        // is debug-only, so validation must catch these up front).
        let nan_rate = FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(1.0, 0.5, 10.0),
            lambda0: 10.0,
            update_interval: 0.1,
            prop_delay: f64::NAN,
            poisson: true,
        });
        assert!(run_network(&net(1), &[nan_rate]).is_err());
        let inf_window = FlowSpec::single_hop(SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, f64::INFINITY, 10.0),
            w0: 2.0,
        });
        assert!(run_network(&net(1), &[inf_window]).is_err());
        let bad_interval = FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(1.0, 0.5, 10.0),
            lambda0: 10.0,
            update_interval: 0.0,
            prop_delay: 0.01,
            poisson: true,
        });
        assert!(run_network(&net(1), &[bad_interval]).is_err());
        // Bad warmup.
        let mut cfg = net(2);
        cfg.warmup = cfg.t_end;
        assert!(run_network(&cfg, &flows).is_err());
        // A non-finite horizon or sampling period is a named error, not
        // an overflow in the sample-count arithmetic; so is a finite
        // horizon whose sample count would not fit the trace buffers.
        let context = |f: &dyn Fn(&mut NetConfig)| {
            let mut cfg = net(2);
            f(&mut cfg);
            match run_network(&cfg, &flows) {
                Err(NumericsError::InvalidParameter { context }) => context,
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        };
        let non_finite = "NetConfig: t_end and sample_interval must be finite";
        assert_eq!(context(&|c| c.t_end = f64::INFINITY), non_finite);
        assert_eq!(context(&|c| c.t_end = f64::NAN), non_finite);
        assert_eq!(context(&|c| c.sample_interval = f64::INFINITY), non_finite);
        assert_eq!(
            context(&|c| c.t_end = 1e300),
            "NetConfig: t_end / sample_interval must stay below 2^32 samples"
        );
        // An infinite link rate used to pass as "positive" and report
        // zero utilisation against an infinite capacity.
        let bad_mu = "NetConfig: link service rates must be positive and finite";
        assert_eq!(context(&|c| c.topology.links[1].mu = f64::INFINITY), bad_mu);
        assert_eq!(context(&|c| c.topology.links[0].mu = f64::NAN), bad_mu);
        assert_eq!(context(&|c| c.topology.links[1].mu = 0.0), bad_mu);
    }

    #[test]
    fn sampling_cadence_does_not_move_counters() {
        // Sampling only observes: a dense cadence, an endpoints-only
        // cadence (Δ = t_end) and the arena summary path all run the
        // same dynamics.
        let mut cfg = net(2);
        let flows = vec![window_flow(Route::full(2)), window_flow(Route::single(1))];
        let full = run_network(&cfg, &flows).unwrap();
        let summary =
            run_network_core(&mut NetArena::new(), &cfg, &flows, None, TraceMode::Summary).unwrap();
        cfg.sample_interval = cfg.t_end;
        let sparse = run_network(&cfg, &flows).unwrap();
        assert_eq!(full.trace_t.len(), 601);
        assert_eq!(sparse.trace_t, vec![0.0, cfg.t_end]);
        assert!(
            summary.trace_t.is_empty(),
            "Summary keeps traces in the arena"
        );
        for other in [&sparse, &summary] {
            for (a, b) in full.flows.iter().zip(&other.flows) {
                assert_eq!(a.sent, b.sent);
                assert_eq!(a.delivered, b.delivered);
                assert_eq!(a.dropped, b.dropped);
                assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
            }
            let full_mq: Vec<u64> = full.mean_queue.iter().map(|q| q.to_bits()).collect();
            let other_mq: Vec<u64> = other.mean_queue.iter().map(|q| q.to_bits()).collect();
            assert_eq!(full_mq, other_mq);
            assert_eq!(
                full.total_throughput.to_bits(),
                other.total_throughput.to_bits()
            );
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // Run A on a fresh arena, dirty the arena with a differently
        // shaped run, then re-run A: every number must come out
        // identical to the fresh-arena result.
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3)), window_flow(Route::single(1))];
        let mut arena = NetArena::new();
        let fresh = run_network_in(&mut arena, &cfg, &flows).unwrap();
        let other_cfg = net(1);
        let other_flows = vec![window_flow(Route::single(0))];
        run_network_in(&mut arena, &other_cfg, &other_flows).unwrap();
        let reused = run_network_in(&mut arena, &cfg, &flows).unwrap();
        assert_eq!(fresh.trace_t, reused.trace_t);
        assert_eq!(fresh.trace_q, reused.trace_q);
        assert_eq!(fresh.trace_ctl, reused.trace_ctl);
        for (a, b) in fresh.flows.iter().zip(&reused.flows) {
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.dropped, b.dropped);
        }
        let fresh_mq: Vec<u64> = fresh.mean_queue.iter().map(|q| q.to_bits()).collect();
        let reused_mq: Vec<u64> = reused.mean_queue.iter().map(|q| q.to_bits()).collect();
        assert_eq!(fresh_mq, reused_mq);
    }

    #[test]
    fn marks_compound_along_the_route() {
        // A tight q̂ at every hop: the long flow's ack marks come from
        // any congested hop, so its window is cut more often than a
        // single-hop flow with the same parameters sees.
        let mk = |route: Route| FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 2.0),
                w0: 2.0,
            },
            route,
        };
        let mut cfg = net(3);
        cfg.topology = Topology::uniform(3, link(60.0));
        let mut flows = vec![mk(Route::full(3))];
        for hop in 0..3 {
            flows.push(mk(Route::single(hop)));
        }
        let out = run_network(&cfg, &flows).unwrap();
        let long = out.flows[0].throughput;
        let best_cross = out.flows[1..]
            .iter()
            .map(|f| f.throughput)
            .fold(f64::MIN, f64::max);
        assert!(
            long < best_cross,
            "compounded marks must cost the long flow"
        );
    }

    /// Every hop-level discipline must tame the queue a lax per-flow
    /// policy lets grow: window elephants whose own q̂ is far above the
    /// discipline's threshold see early marks only from the hop, so the
    /// mean queue under ThresholdMark / AveragedMark / RedMark must sit
    /// below the FIFO baseline.
    #[test]
    fn hop_disciplines_cut_the_queue_fifo_allows() {
        let lax = |route: Route| FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 30.0),
                w0: 2.0,
            },
            route,
        };
        let mut cfg = net(1);
        cfg.topology = Topology::uniform(1, link(60.0));
        let flows = vec![lax(Route::single(0)), lax(Route::single(0))];
        let mean_q = |qdisc: QdiscKind| {
            let mut c = cfg.clone();
            c.qdisc = qdisc;
            run_network(&c, &flows).unwrap().mean_queue[0]
        };
        let fifo = mean_q(QdiscKind::Fifo);
        for (name, qdisc) in [
            ("threshold", QdiscKind::ThresholdMark { threshold: 5.0 }),
            ("averaged", QdiscKind::AveragedMark { threshold: 2.5 }),
            (
                "red",
                QdiscKind::RedMark {
                    min_th: 2.5,
                    max_th: 10.0,
                    max_p: 0.1,
                    weight: 0.05,
                },
            ),
        ] {
            let q = mean_q(qdisc);
            assert!(
                q < fifo,
                "{name}: mean queue {q} should undercut the FIFO baseline {fifo}"
            );
        }
    }

    /// RED's uniform marking draw comes off the run's single RNG lane,
    /// so runs repeat bit for bit like every other configuration.
    #[test]
    fn red_runs_are_deterministic_for_seed() {
        let mut cfg = net(2);
        cfg.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 0.1,
            weight: 0.05,
        };
        let flows = vec![window_flow(Route::full(2)), window_flow(Route::single(0))];
        let a = run_network(&cfg, &flows).unwrap();
        let b = run_network(&cfg, &flows).unwrap();
        assert_eq!(a.trace_q, b.trace_q);
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
        assert_eq!(
            a.mean_queue[0].to_bits(),
            b.mean_queue[0].to_bits(),
            "RED perturbed determinism"
        );
    }

    /// Byte mode with a heavier-than-reference deterministic size slows
    /// every transmission by the same factor, so the delivered count
    /// must drop against the unit-packet run of the same scenario.
    #[test]
    fn heavier_bytes_slow_the_network() {
        let cfg = net(1);
        let flows = vec![window_flow(Route::single(0))];
        let unit = run_network(&cfg, &flows).unwrap();
        let mut heavy_cfg = cfg;
        heavy_cfg.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Deterministic { packets: 3000 },
            ref_bytes: crate::units::Bytes(1000.0),
        });
        let heavy = run_network(&heavy_cfg, &flows).unwrap();
        assert!(
            heavy.flows[0].delivered < unit.flows[0].delivered,
            "3x packets must deliver less: {} vs {}",
            heavy.flows[0].delivered,
            unit.flows[0].delivered
        );
    }

    #[test]
    fn validate_rejects_bad_qdisc_and_packet_bytes() {
        let flows = vec![window_flow(Route::single(0))];
        let bad = |f: &dyn Fn(&mut NetConfig)| {
            let mut cfg = net(1);
            f(&mut cfg);
            run_network(&cfg, &flows).is_err()
        };
        assert!(bad(&|c| c.qdisc = QdiscKind::ThresholdMark {
            threshold: f64::NAN
        }));
        assert!(bad(
            &|c| c.qdisc = QdiscKind::AveragedMark { threshold: -1.0 }
        ));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 10.0,
            max_th: 2.5, // inverted thresholds
            max_p: 0.1,
            weight: 0.05,
        }));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 1.5, // not a probability
            weight: 0.05,
        }));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 0.1,
            weight: 0.0, // EWMA would never move
        }));
        assert!(bad(&|c| c.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Deterministic { packets: 1 },
            ref_bytes: crate::units::Bytes(0.0), // zero reference
        })));
        assert!(bad(&|c| c.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Exponential { mean: -2.0 },
            ref_bytes: crate::units::Bytes(1000.0),
        })));
    }
}
