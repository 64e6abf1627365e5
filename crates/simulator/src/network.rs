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

use crate::engine::{FaultConfig, Service};
use crate::event::{EventKind, EventQueue};
use crate::qdisc::{
    AveragedMark, Fifo, HopQdiscState, QDisc, QdiscKind, QdiscParams, RedMark, ThresholdMark,
};
use crate::source::{rate_update, window_on_ack, SourceSpec, SourceState};
use crate::workload::{
    ideal_fct_sized, sample_cumulative, DistSummary, FlowSizeDist, PacketBytes, RtoPolicy,
    Workload, WorkloadStats,
};
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
        if self.topology.links.iter().any(|l| !(l.mu > 0.0)) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: link service rates must be positive",
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
        match self.qdisc {
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
        // Every scheduled event time is built from these parameters;
        // non-finite or negative values would poison the event clock
        // (the hot-path finiteness check is debug-only).
        for f in flows {
            let timing_ok = match &f.source {
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
                SourceSpec::Decbit { rtt, w0, .. } => {
                    rtt.is_finite() && *rtt >= 0.0 && w0.is_finite()
                }
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
            };
            if !timing_ok {
                return Err(NumericsError::InvalidParameter {
                    context: "run_network: flow timing parameters must be finite \
                              (delays/RTTs >= 0, update intervals > 0)",
                });
            }
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

/// Reusable per-run scratch state: source states, per-hop FIFOs (ring
/// buffers of packed `u32` flow+mark words, plus a parallel byte-factor
/// ring in byte mode), per-hop queue-discipline scratch, accumulators,
/// the event queue, and the trace buffers.
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
    /// Per-hop FIFO of `flow | (marked << 31)` words, head in service.
    fifos: Vec<VecDeque<u32>>,
    /// Per-hop FIFO of packet size factors, parallel to `fifos`; only
    /// touched by byte-mode instantiations (`packet_bytes: Some`).
    fifo_bytes: Vec<VecDeque<f32>>,
    /// Per-hop FIFO of retransmission-attempt indices, parallel to
    /// `fifos`; only touched when the run's workload carries an
    /// [`RtoPolicy`] (so the attempt count survives multi-hop routes).
    fifo_attempt: Vec<VecDeque<u8>>,
    hops: Vec<HopState>,
    /// Per-hop queue-discipline scratch (DECbit averager, RED EWMA).
    qdisc: Vec<HopQdiscState>,
    pub(crate) trace_t: Vec<f64>,
    /// `trace_q[hop][sample]`, reused across runs.
    pub(crate) trace_q: Vec<Vec<f64>>,
    /// Flattened control trace, stride = flow count (row per sample).
    pub(crate) trace_ctl: Vec<f64>,
    /// Per-slot finite-flow state (slot `s` is flow `n_static + s`).
    dyn_flows: Vec<DynFlow>,
    /// Free list of retired workload slots, reused LIFO so a 10⁵-flow
    /// run holds O(active flows) per-flow state.
    dyn_free: Vec<u32>,
    /// Clean post-warm-up flow completion times (sorted at finalize).
    fcts: Vec<f64>,
    /// Matching slowdown samples (FCT / ideal FCT).
    slowdowns: Vec<f64>,
}

impl NetArena {
    /// Fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer (keeping capacity) and size it for a run over
    /// `k` hops with the given flows and expected sample count.
    fn reset(&mut self, k: usize, flows: &[FlowSpec], n_samples: usize) {
        self.ev.clear();
        self.states.clear();
        self.states
            .extend(flows.iter().map(|f| f.source.initial_state()));
        self.fifos.truncate(k);
        for f in &mut self.fifos {
            f.clear();
        }
        self.fifos.resize_with(k, VecDeque::new);
        self.fifo_bytes.truncate(k);
        for f in &mut self.fifo_bytes {
            f.clear();
        }
        self.fifo_bytes.resize_with(k, VecDeque::new);
        self.fifo_attempt.truncate(k);
        for f in &mut self.fifo_attempt {
            f.clear();
        }
        self.fifo_attempt.resize_with(k, VecDeque::new);
        self.hops.clear();
        self.hops.resize(k, HopState::default());
        self.qdisc.clear();
        self.qdisc.resize_with(k, HopQdiscState::default);
        self.trace_t.clear();
        self.trace_q.truncate(k);
        for q in &mut self.trace_q {
            q.clear();
        }
        self.trace_q.resize_with(k, Vec::new);
        self.trace_ctl.clear();
        self.dyn_flows.clear();
        self.dyn_free.clear();
        self.fcts.clear();
        self.slowdowns.clear();
        self.trace_t.reserve(n_samples);
        for q in &mut self.trace_q {
            q.reserve(n_samples);
        }
        self.trace_ctl.reserve(n_samples * flows.len());
    }
}

/// Read-only per-flow hot fields, extracted once per run from the fat
/// [`SourceSpec`] so each event pays one bounds check and one cache
/// line.
#[derive(Debug, Clone, Copy)]
struct FlowHot {
    route: Route,
    prop_delay: f64,
    q_hat: f64,
    /// Window-like (window/DECbit): gets acks, reacts to drops.
    acked: bool,
    decbit: bool,
}

/// Read-only per-hop hot fields, extracted once per run from [`Link`].
/// (The per-hop loss probability lives in [`FaultState`] — it can move
/// at runtime under a dynamic [`FaultConfig`].)
#[derive(Debug, Clone, Copy)]
struct HopHot {
    buffer: Option<u64>,
    mu: f64,
    /// `1.0 / mu` (the deterministic service time).
    det_service: f64,
    expo: bool,
}

/// Runtime state of one hop's fault process (DESIGN §3i). The hot path
/// reads `loss` / `mu` / `det_service` / `down` on every packet; for a
/// fault-free or [`FaultConfig::Iid`] hop these are constants equal to
/// the pre-fault values, so the packet path is bit-identical to the
/// static-loss engine. The remaining fields drive the recovery-time
/// and downtime metrics and are touched only on fault transitions.
#[derive(Debug, Clone, Copy)]
struct FaultState {
    /// Current per-arrival loss probability at this hop.
    loss: f64,
    /// Current service rate (μ, possibly degraded).
    mu: f64,
    /// `1.0 / mu` for the current μ.
    det_service: f64,
    /// Gilbert–Elliott chain is in the bad state.
    bad: bool,
    /// Link is down ([`FaultConfig::LinkFlap`]): server stalled,
    /// arrivals park in the queue.
    down: bool,
    /// Capacity currently degraded ([`FaultConfig::Degrade`]).
    degraded: bool,
    /// Instant the current outage began (valid while `down`).
    down_since: f64,
    /// Accumulated post-warm-up outage time (closed outages).
    downtime: f64,
    /// Steady-state queue band recorded at first fault onset: the
    /// pre-fault mean queue + 1. Recovery is declared when the queue
    /// re-enters this band after a fault clears.
    band: f64,
    /// A fault cleared and the queue has not yet re-entered `band`.
    recovering: bool,
    /// Instant of the most recent fault clear (valid while
    /// `recovering`).
    t_up: f64,
    /// A fault onset has been observed (fixes `band` once).
    faulted_once: bool,
    /// Sum of recovery times sampled at this hop.
    recovery_sum: f64,
    /// Number of recovery samples.
    recovery_n: u64,
}

/// Record a fault onset at a hop: snapshot the pre-fault mean queue
/// into the recovery band (first onset only — later onsets reuse it so
/// the band is not contaminated by fault-era queues) and cancel any
/// recovery in progress.
#[inline]
fn fault_onset(fs: &mut FaultState, hs: &HopState, t: f64, warmup: f64) {
    if !fs.faulted_once {
        fs.faulted_once = true;
        let a = hs.area + hs.q_len as f64 * (t - hs.last_change).max(0.0);
        fs.band = if t > warmup { a / (t - warmup) } else { 0.0 } + 1.0;
    }
    fs.recovering = false;
}

/// Record a fault clearing at a hop: start the recovery clock. The
/// recovery time is sampled by the next departure that brings the
/// queue back inside the band (see the `Departure` arm).
#[inline]
fn fault_clear(fs: &mut FaultState, t: f64) {
    if fs.faulted_once {
        fs.recovering = true;
        fs.t_up = t;
    }
}

/// Per-hop dynamic state, packed into one struct so an event touches a
/// single cache line instead of five parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct HopState {
    /// Packets in system (queue + the one in service).
    q_len: u64,
    /// Packets that completed service after warm-up.
    served: u64,
    /// Time-weighted queue accumulation after warm-up.
    area: f64,
    /// Instant of the last `q_len` change (clamped to warm-up).
    last_change: f64,
    /// Whether a departure is scheduled for this hop.
    busy: bool,
}

/// Per-slot state of one finite workload flow. A slot is live from its
/// `FlowArrival` until the `FlowComplete` fired by its last accounted
/// packet; with recycling the slot then returns to the free list.
#[derive(Debug, Clone, Copy, Default)]
struct DynFlow {
    /// Flow size in packets.
    size: u64,
    /// Packets accounted so far (delivered + dropped); the flow
    /// completes when this reaches `size`.
    accounted: u64,
    /// Packets that exited the last hop.
    delivered: u64,
    /// Arrival instant (FCT reference point).
    arrival_t: f64,
    /// Idle-network FCT (slowdown denominator).
    ideal: f64,
    /// At least one packet exhausted its RTO retry budget.
    gave_up: bool,
}

/// Running workload counters (ungated by warm-up: conservation must be
/// exact over the whole run).
#[derive(Debug, Default)]
struct WlCounters {
    arrived: u64,
    completed: u64,
    completed_clean: u64,
    packets_sent: u64,
    packets_delivered: u64,
    packets_dropped: u64,
    retransmits: u64,
    packets_gave_up: u64,
    flows_gave_up: u64,
    active: u64,
    peak_active: u64,
}

/// Account one terminal packet outcome (delivered or dropped) to a
/// finite flow, firing its `FlowComplete` when the last packet lands.
/// A free function (not a closure) so call sites can hold other
/// mutable borrows.
#[inline]
fn dyn_account_packet(d: &mut DynFlow, flow: usize, t: f64, ev: &mut EventQueue) {
    d.accounted += 1;
    if d.accounted == d.size {
        ev.push(t, EventKind::FlowComplete { flow });
    }
}

/// Handle a dropped workload packet. Without an [`RtoPolicy`] the drop
/// is terminal (`packets_dropped`, accounted). With one, the packet is
/// re-injected at the flow's first hop after the backed-off timeout —
/// zero RNG draws, the retry schedule is a pure function of the drop
/// time — until it either delivers or exhausts `max_retries`, at which
/// point it is *given up* (`packets_gave_up`, accounted). A free
/// function (not a closure) so both drop sites can hold other borrows.
#[inline]
#[allow(clippy::too_many_arguments)]
fn wl_drop(
    rto: Option<RtoPolicy>,
    attempt: u8,
    flow: usize,
    n_static: usize,
    first_hop: usize,
    prop_delay: f64,
    t: f64,
    size: f32,
    wlc: &mut WlCounters,
    dyn_flows: &mut [DynFlow],
    ev: &mut EventQueue,
) {
    let slot = flow - n_static;
    let Some(r) = rto else {
        wlc.packets_dropped += 1;
        dyn_account_packet(&mut dyn_flows[slot], flow, t, ev);
        return;
    };
    if u32::from(attempt) < r.max_retries {
        wlc.retransmits += 1;
        let wait = r.wait_before(u32::from(attempt) + 1);
        ev.push(
            t + wait + prop_delay,
            EventKind::Arrival {
                flow,
                hop: first_hop,
                marked: false,
                size,
                attempt: attempt + 1,
            },
        );
    } else {
        wlc.packets_gave_up += 1;
        dyn_flows[slot].gave_up = true;
        dyn_account_packet(&mut dyn_flows[slot], flow, t, ev);
    }
}

/// Pack a FIFO word (`flow` must fit in 31 bits, checked at validate).
#[inline]
fn fifo_word(flow: usize, marked: bool) -> u32 {
    flow as u32 | (u32::from(marked) << 31)
}

/// Unpack a FIFO word back into `(flow, marked)`.
#[inline]
fn fifo_flow_marked(word: u32) -> (usize, bool) {
    ((word & 0x7fff_ffff) as usize, word >> 31 == 1)
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
/// list, non-positive rates/times, a non-finite horizon or sampling
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

/// Entry point behind every public runner: validate, resolve the
/// queue-discipline parameters, and select the monomorphized event
/// loop **once per run** — `run_core` is generic over the discipline
/// `Q: QDisc` and a `BYTES` const for byte-granular service, so each
/// of the eight instantiations compiles to its own loop with every
/// discipline hook inlined and no `dyn` call on the packet path. The
/// unit-size/`Fifo` instantiation is therefore the exact pre-refactor
/// fast path (pinned bit-for-bit by `tests/engine_equivalence.rs`).
pub(crate) fn run_network_core(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    trace: TraceMode,
) -> Result<NetResult> {
    config.validate(flows, workload)?;
    let qp = QdiscParams::resolve(config.qdisc);
    match (config.qdisc, config.packet_bytes.is_some()) {
        (QdiscKind::Fifo, false) => {
            run_core::<Fifo, false>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::Fifo, true) => {
            run_core::<Fifo, true>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::ThresholdMark { .. }, false) => {
            run_core::<ThresholdMark, false>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::ThresholdMark { .. }, true) => {
            run_core::<ThresholdMark, true>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::AveragedMark { .. }, false) => {
            run_core::<AveragedMark, false>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::AveragedMark { .. }, true) => {
            run_core::<AveragedMark, true>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::RedMark { .. }, false) => {
            run_core::<RedMark, false>(arena, config, flows, workload, trace, qp)
        }
        (QdiscKind::RedMark { .. }, true) => {
            run_core::<RedMark, true>(arena, config, flows, workload, trace, qp)
        }
    }
}

/// The one event loop, monomorphized per discipline `Q` and byte mode
/// (see [`run_network_core`]). `trace` says whether the traces are
/// handed out ([`TraceMode::Full`]) or left in the arena for the
/// summary fast path ([`TraceMode::Summary`]).
#[allow(clippy::too_many_lines)]
fn run_core<Q: QDisc, const BYTES: bool>(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    trace: TraceMode,
    qp: QdiscParams,
) -> Result<NetResult> {
    let k = config.topology.len();
    let n_flows = flows.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // FPK_CHECK strict invariant mode (DESIGN §3h): one env read per
    // run, hoisted to a local so every per-event check is a perfectly
    // predicted branch on a register — free when off.
    let strict = crate::check::strict();

    // Sample schedule: t_k = k·sample_interval for every k with
    // k·Δ ≤ t_end, computed as fresh multiples (no `t += Δ` drift); see
    // the relative+absolute tolerance note in the engine history.
    let sample_quotient = config.t_end / config.sample_interval;
    let last_sample_index = (sample_quotient * (1.0 + 1e-12) + 1e-9).floor() as u64;

    arena.reset(k, flows, last_sample_index as usize + 1);
    // Move the scratch buffers into owned locals for the duration of
    // the loop — indexing through `&mut arena.field` keeps the Vec
    // headers behind a pointer and costs ~25% of the whole run; owned
    // locals let the compiler keep them in registers. Everything moves
    // back into the arena before returning so capacity is still reused.
    let mut ev = std::mem::take(&mut arena.ev);
    let mut states = std::mem::take(&mut arena.states);
    let mut fifos = std::mem::take(&mut arena.fifos);
    let mut fifo_bytes = std::mem::take(&mut arena.fifo_bytes);
    let mut fifo_attempt = std::mem::take(&mut arena.fifo_attempt);
    let mut hops = std::mem::take(&mut arena.hops);
    let mut qdisc_state = std::mem::take(&mut arena.qdisc);
    let mut trace_t = std::mem::take(&mut arena.trace_t);
    let mut trace_q = std::mem::take(&mut arena.trace_q);
    let mut trace_ctl = std::mem::take(&mut arena.trace_ctl);
    let mut dyn_flows = std::mem::take(&mut arena.dyn_flows);
    let mut dyn_free = std::mem::take(&mut arena.dyn_free);
    let mut fcts = std::mem::take(&mut arena.fcts);
    let mut slowdowns = std::mem::take(&mut arena.slowdowns);
    for h in hops.iter_mut() {
        h.last_change = config.warmup;
    }

    let mut stats: Vec<NetFlowStats> = flows
        .iter()
        .map(|f| NetFlowStats {
            hops: f.route.hops(),
            ..NetFlowStats::default()
        })
        .collect();

    // Dense per-flow / per-hop hot fields: the event loop reads these
    // once or more per packet event, and pulling them out of the fat
    // `SourceSpec` / `Link` enums into one compact struct per flow/hop
    // turns several bounds-checked array reads per event into a single
    // cache-line access. Values and arithmetic are exactly what the enum
    // accessors produce, so results are bit-identical (the deterministic
    // service branch evaluated `1.0 / mu` per event; computing it once
    // per hop is the identical operation, hence identical bits).
    // `flow_hot` grows past `n_flows` as workload flows claim slots
    // (flow index = n_flows + slot); static entries never move.
    let n_static = n_flows;
    let mut flow_hot: Vec<FlowHot> = flows
        .iter()
        .map(|f| FlowHot {
            route: f.route,
            prop_delay: f.source.prop_delay(),
            q_hat: f.source.q_hat(),
            acked: matches!(
                f.source,
                SourceSpec::Window { .. } | SourceSpec::Decbit { .. }
            ),
            decbit: matches!(f.source, SourceSpec::Decbit { .. }),
        })
        .collect();
    let hop_hot: Vec<HopHot> = config
        .topology
        .links
        .iter()
        .map(|l| HopHot {
            buffer: l.buffer,
            mu: l.mu,
            det_service: 1.0 / l.mu,
            expo: l.service == Service::Exponential,
        })
        .collect();
    // Per-hop fault runtime state (DESIGN §3i). For fault-free and
    // `Iid` hops every hot field is the constant the engine always
    // used (`loss` = the static loss, `mu`/`det_service` = the link's),
    // so the packet path below is bit-identical to the static-loss
    // engine. Gilbert–Elliott chains start in the good state; flapping
    // links start up; degradation starts at full capacity.
    let mut fault_state: Vec<FaultState> = (0..k)
        .map(|h| {
            let loss = match fault_at(&config.faults, h) {
                FaultConfig::Iid { loss_prob } => loss_prob,
                FaultConfig::GilbertElliott { loss_good, .. } => loss_good,
                FaultConfig::LinkFlap { .. } | FaultConfig::Degrade { .. } => 0.0,
            };
            FaultState {
                loss,
                mu: hop_hot[h].mu,
                det_service: hop_hot[h].det_service,
                bad: false,
                down: false,
                degraded: false,
                down_since: 0.0,
                downtime: 0.0,
                band: 0.0,
                recovering: false,
                t_up: 0.0,
                faulted_once: false,
                recovery_sum: 0.0,
                recovery_n: 0,
            }
        })
        .collect();
    // Retransmission policy: `None` unless the workload carries one.
    // `rto_active` gates the parallel attempt ring — two perfectly
    // predicted branches per packet when off, so non-RTO runs stay on
    // the historical path.
    let rto = workload.and_then(|w| w.rto);
    let rto_active = rto.is_some();

    // Side lanes for the *per-packet* event streams with at most one
    // pending instance: the sampling clock (lane 0), each hop's next
    // departure (1 + hop), and each rate/on-off flow's self-rescheduling
    // SendPacket chain. They merge against the heap at pop time instead
    // of paying sifts — roughly half of all events in a typical run —
    // and still consume sequence numbers exactly as pushed events
    // would, keeping the order bit-identical to the historical
    // all-in-heap schedule. Everything else stays in the heap: acks,
    // arrivals and feedback can have many instances in flight, and the
    // low-rate Observe/Toggle chains are not worth widening the lane
    // rescan that every high-rate pop pays. Lanes are allocated only
    // for the chains that exist (a window flow has none).
    let mut lane_count = 1 + k;
    let mut alloc_lane = |cond: bool| {
        if cond {
            lane_count += 1;
            lane_count - 1
        } else {
            usize::MAX
        }
    };
    let lane_send: Vec<usize> = flows
        .iter()
        .map(|f| {
            alloc_lane(matches!(
                f.source,
                SourceSpec::Rate { .. } | SourceSpec::OnOff { .. }
            ))
        })
        .collect();
    // The workload arrival clock is one-pending by construction (each
    // FlowArrival schedules its successor), so it rides a lane too.
    let lane_arrival = alloc_lane(workload.is_some());
    // Each dynamic-fault hop advances a one-pending state machine
    // (`LinkDown`/`LinkUp` or `FaultShift`) on its own lane. Fault-free
    // and `Iid` hops allocate nothing, so existing runs keep their
    // exact lane layout.
    let lane_fault: Vec<usize> = (0..k)
        .map(|h| alloc_lane(fault_at(&config.faults, h).is_dynamic()))
        .collect();
    ev.set_lane_count(lane_count);
    ev.set_strict(strict);

    // Byte-granular packet sizing: each packet draws its size factor
    // at its creation site (exactly one f64 draw, none for a
    // deterministic byte dist); unit mode draws nothing and passes a
    // compile-time-ignored 1.0, so its RNG stream is untouched.
    let pb = config.packet_bytes;
    let draw_size = |rng: &mut StdRng| -> f32 {
        if BYTES {
            let pb = pb.expect("byte-mode instantiation without packet_bytes");
            (pb.dist.sample(rng) as f64 / pb.ref_bytes.get()) as f32 // draw: pkt.size_factor — per-packet byte-size factor (byte mode only)
        } else {
            1.0
        }
    };
    // Slowdown denominator scale: the mean byte factor (unit mode: 1).
    let mean_factor = if BYTES {
        pb.expect("byte-mode instantiation without packet_bytes")
            .mean_factor()
    } else {
        1.0
    };

    // Strict-mode draw-count audit (DESIGN §3h): tally the workload
    // draws the engine performs so the horizon check can compare them
    // against what the §3f draw-order contract says must have happened.
    let mut chk_size_draws: u64 = 0;
    let mut chk_route_draws: u64 = 0;
    let mut chk_gap_draws: u64 = 0;
    // Fault-lane draw audit (§3i): sojourn draws must equal the
    // bootstrap draws plus the transitions that rescheduled with one.
    let mut chk_fault_draws: u64 = 0;
    let mut chk_fault_moves: u64 = 0;
    let mut n_fault_boot: u64 = 0;

    // Bootstrap events (flow order; identical schedule to the legacy
    // engines so the shims stay bit-identical).
    for (i, f) in flows.iter().enumerate() {
        match &f.source {
            SourceSpec::Rate {
                update_interval, ..
            } => {
                ev.schedule_lane(lane_send[i], 0.0, EventKind::SendPacket { flow: i });
                ev.push(*update_interval, EventKind::Observe { flow: i });
            }
            SourceSpec::OnOff { .. } => {
                ev.schedule_lane(lane_send[i], 0.0, EventKind::SendPacket { flow: i });
                if let SourceState::OnOff { chain_alive, .. } = &mut states[i] {
                    *chain_alive = true;
                }
                // First ON sojourn; the toggle chain is self-rescheduling.
                ev.push(0.0, EventKind::Toggle { flow: i });
            }
            SourceSpec::Window { w0, .. } | SourceSpec::Decbit { w0, .. } => {
                // Initial burst of ⌊w0⌋ packets, spaced a hair apart so
                // FIFO order is well-defined.
                let burst = w0.max(1.0).floor() as u64;
                match &mut states[i] {
                    SourceState::Window { in_flight, .. }
                    | SourceState::Decbit { in_flight, .. } => *in_flight = burst,
                    SourceState::Rate { .. } | SourceState::OnOff { .. } => {
                        unreachable!("state enum mismatches source spec for window flow")
                    }
                }
                for b in 0..burst {
                    ev.push(
                        b as f64 * 1e-6 + f.source.prop_delay(),
                        EventKind::Arrival {
                            flow: i,
                            hop: f.route.first,
                            marked: false,
                            size: draw_size(&mut rng), // draw: window.bootstrap.pkt — size factor per initial-burst packet
                            attempt: 0,
                        },
                    );
                }
                // The burst leaves the source at t = 0: count it only
                // when the warm-up window is empty, like every other
                // `sent` site (gated on t >= warmup).
                if config.warmup <= 0.0 {
                    stats[i].sent += burst;
                }
            }
        }
    }
    // Fault bootstrap (hop order, after the static-flow bursts and
    // before the workload's first gap — the §3f position of
    // `fault.bootstrap.sojourn`). A Gilbert–Elliott hop draws its
    // first good-state sojourn, a flapping hop its first up-time; the
    // deterministic `Degrade` clock schedules drawlessly at `period`.
    // Fault-free and `Iid` hops draw nothing and schedule nothing.
    for h in 0..k {
        let first = match fault_at(&config.faults, h) {
            FaultConfig::Iid { .. } => None,
            FaultConfig::GilbertElliott { p_gb, .. } => {
                Some((p_gb, EventKind::FaultShift { hop: h }))
            }
            FaultConfig::LinkFlap { down_rate, .. } => {
                Some((down_rate, EventKind::LinkDown { hop: h }))
            }
            FaultConfig::Degrade { period, .. } => {
                ev.schedule_lane(lane_fault[h], period, EventKind::FaultShift { hop: h });
                None
            }
        };
        if let Some((rate, kind)) = first {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.bootstrap.sojourn — first fault-transition sojourn (GE/flap hops only)
            if strict {
                chk_fault_draws += 1;
                n_fault_boot += 1;
            }
            ev.schedule_lane(lane_fault[h], -u.ln() / rate, kind);
        }
    }
    // Workload bootstrap: the first flow arrives one interarrival gap
    // after t = 0. `max_flows = Some(0)` schedules nothing and draws no
    // randomness, so it cannot perturb a static-flow run.
    let mut wlc = WlCounters::default();
    let route_cum: Vec<f64> = workload.map_or_else(Vec::new, |w| {
        let mut acc = 0.0;
        w.route_weights()
            .iter()
            .map(|wt| {
                acc += wt;
                acc
            })
            .collect()
    });
    if let Some(w) = workload {
        if w.max_flows != Some(0) {
            let gap = w.arrivals.sample_interarrival(&mut rng); // draw: wl.bootstrap.gap — first interarrival gap after t = 0
            if strict {
                chk_gap_draws += 1;
            }
            ev.schedule_lane(lane_arrival, gap, EventKind::FlowArrival);
        }
    }
    // The sampling clock starts at t = 0 and schedules its successors
    // from inside the Sample arm. Sampling draws no randomness and
    // touches no dynamic state, so the cadence cannot move a counter.
    ev.schedule_sample(0.0);
    let mut next_sample_index: u64 = 0;

    let any_decbit = flows
        .iter()
        .any(|f| matches!(f.source, SourceSpec::Decbit { .. }));

    // `mu`/`det` come from the hop's `FaultState` so a degraded hop
    // serves at its current capacity; without faults they are exactly
    // the `HopHot` constants, so the arithmetic is bit-identical.
    let service_time = |rng: &mut StdRng, mu: f64, det: f64, expo: bool| -> f64 {
        if expo {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: hop.service — exponential service uniform (expo hops only)
            -u.ln() / mu
        } else {
            det
        }
    };
    // One-way return delay from `hop` back to the flow's source (the
    // packet crossed `hop - first + 1` propagation segments to get
    // there). For a 1-hop route this is exactly `prop_delay`.
    let back_delay = |f: &FlowHot, hop: usize| (hop - f.route.first + 1) as f64 * f.prop_delay;

    let warmup = config.warmup;
    let t_end = config.t_end;
    // lint: hot-path arena(ev, fifos, fifo_bytes, fifo_attempt, trace_t, trace_q, trace_ctl, fcts, slowdowns, dyn_flows, dyn_free, flow_hot)
    while let Some(event) = ev.pop() {
        let t = event.t;
        if t > t_end {
            break;
        }
        match event.kind {
            EventKind::SendPacket { flow } => match (&flows[flow].source, &mut states[flow]) {
                (
                    SourceSpec::Rate {
                        prop_delay,
                        poisson,
                        ..
                    },
                    SourceState::Rate { lambda },
                ) => {
                    let lam = lambda.max(1e-9);
                    if t >= warmup {
                        stats[flow].sent += 1;
                    }
                    ev.push(
                        t + prop_delay,
                        EventKind::Arrival {
                            flow,
                            hop: flow_hot[flow].route.first,
                            marked: false,
                            size: draw_size(&mut rng), // draw: rate.pkt — size factor per rate-source packet
                            attempt: 0,
                        },
                    );
                    let gap = if *poisson {
                        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: rate.gap — Poisson interpacket gap uniform
                        -u.ln() / lam
                    } else {
                        1.0 / lam
                    };
                    ev.schedule_lane(lane_send[flow], t + gap, EventKind::SendPacket { flow });
                }
                (
                    SourceSpec::OnOff {
                        peak_rate,
                        prop_delay,
                        ..
                    },
                    SourceState::OnOff { on, chain_alive },
                ) => {
                    if !*on {
                        // Chain dies during the OFF phase; the next
                        // toggle-to-ON starts a fresh one.
                        *chain_alive = false;
                        continue;
                    }
                    if t >= warmup {
                        stats[flow].sent += 1;
                    }
                    ev.push(
                        t + prop_delay,
                        EventKind::Arrival {
                            flow,
                            hop: flow_hot[flow].route.first,
                            marked: false,
                            size: draw_size(&mut rng), // draw: onoff.pkt — size factor per on-off packet
                            attempt: 0,
                        },
                    );
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.gap — ON-phase interpacket gap uniform
                    ev.schedule_lane(
                        lane_send[flow],
                        t - u.ln() / peak_rate.max(1e-9),
                        EventKind::SendPacket { flow },
                    );
                }
                _ => unreachable!("SendPacket for a window flow"),
            },
            EventKind::Toggle { flow } => {
                let SourceSpec::OnOff {
                    mean_on, mean_off, ..
                } = &flows[flow].source
                else {
                    unreachable!("Toggle for non-on-off flow")
                };
                let SourceState::OnOff { on, chain_alive } = &mut states[flow] else {
                    unreachable!("Toggle for a flow without on-off state")
                };
                // Exponential sojourn in the phase we are *entering*; the
                // bootstrap toggle at t = 0 enters the ON phase.
                let entering_on = !*on || t == 0.0;
                let sojourn_mean = if entering_on { *mean_on } else { *mean_off };
                if t > 0.0 {
                    *on = !*on;
                }
                if *on && !*chain_alive {
                    *chain_alive = true;
                    // First send a full exponential gap after the phase
                    // starts — emitting at the toggle instant itself
                    // would bias the mean rate upward.
                    let SourceSpec::OnOff { peak_rate, .. } = &flows[flow].source else {
                        unreachable!("on-off state paired with non-on-off spec")
                    };
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.first_send — first-send gap after toggle-to-ON
                    ev.schedule_lane(
                        lane_send[flow],
                        t - u.ln() / peak_rate.max(1e-9),
                        EventKind::SendPacket { flow },
                    );
                }
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.sojourn — next phase-sojourn uniform
                ev.push(
                    t - u.ln() * sojourn_mean.max(1e-9),
                    EventKind::Toggle { flow },
                );
            }
            EventKind::Arrival {
                flow,
                hop,
                marked,
                size,
                attempt,
            } => {
                let fh = flow_hot[flow];
                let hh = hop_hot[hop];
                // Random link loss (per-hop fault injection; the loss
                // probability is the hop's *current* one — static for
                // `Iid`, state-dependent for Gilbert–Elliott).
                let loss = fault_state[hop].loss;
                // draw: hop.loss — per-hop loss uniform (faulty hops only)
                if loss > 0.0 && rng.gen::<f64>() < loss {
                    if flow < n_static {
                        if t >= warmup {
                            stats[flow].dropped += 1;
                        }
                        if fh.acked {
                            // Drop-as-signal: a marked ack returns from
                            // the loss point so the source reacts.
                            ev.push(
                                t + back_delay(&fh, hop),
                                EventKind::Ack { flow, marked: true },
                            );
                        }
                    } else {
                        // Terminal without an RTO policy; otherwise the
                        // packet re-enters at the route head after its
                        // backed-off timeout (or gives up).
                        wl_drop(
                            rto,
                            attempt,
                            flow,
                            n_static,
                            fh.route.first,
                            fh.prop_delay,
                            t,
                            size,
                            &mut wlc,
                            &mut dyn_flows,
                            &mut ev,
                        );
                    }
                    continue;
                }
                if let Some(cap) = hh.buffer {
                    if hops[hop].q_len >= cap {
                        if flow < n_static {
                            if t >= warmup {
                                stats[flow].dropped += 1;
                            }
                            // A dropped packet of a window flow still
                            // frees its in-flight slot (drop-as-mark).
                            if fh.acked {
                                ev.push(
                                    t + back_delay(&fh, hop),
                                    EventKind::Ack { flow, marked: true },
                                );
                            }
                        } else {
                            wl_drop(
                                rto,
                                attempt,
                                flow,
                                n_static,
                                fh.route.first,
                                fh.prop_delay,
                                t,
                                size,
                                &mut wlc,
                                &mut dyn_flows,
                                &mut ev,
                            );
                        }
                        continue;
                    }
                }
                // Mark policy at this hop, OR-ed with marks from hops
                // already crossed (`q_len` is the pre-enqueue
                // packets-in-system count). A pure hook short-circuits
                // behind an upstream mark — the historical fast path;
                // a stateful one (RED's EWMA) runs for every surviving
                // arrival so its scratch never depends on upstream
                // marking.
                let hs = &mut hops[hop];
                let marked = if Q::MARK_IS_PURE {
                    marked
                        || Q::mark(
                            &qp,
                            &mut qdisc_state,
                            hop,
                            t,
                            hs.q_len,
                            fh.decbit,
                            fh.q_hat,
                            &mut rng, // draw: mark.pure — mark hook may draw (RED gentle mode); pure hooks draw nothing
                        )
                } else {
                    let hop_mark = Q::mark(
                        &qp,
                        &mut qdisc_state,
                        hop,
                        t,
                        hs.q_len,
                        fh.decbit,
                        fh.q_hat,
                        &mut rng, // draw: mark.stateful — stateful mark hook (RED) draws its drop uniform here
                    );
                    marked || hop_mark
                };
                if t >= warmup {
                    hs.area += hs.q_len as f64 * (t - hs.last_change);
                    hs.last_change = t;
                } else {
                    hs.last_change = t.max(warmup);
                }
                fifos[hop].push_back(fifo_word(flow, marked));
                if BYTES {
                    fifo_bytes[hop].push_back(size);
                }
                if rto_active {
                    fifo_attempt[hop].push_back(attempt);
                }
                hs.q_len += 1;
                if strict && BYTES {
                    assert_eq!(
                        fifos[hop].len(),
                        fifo_bytes[hop].len(),
                        "FPK_CHECK: hop {hop} word ring and byte ring desynced after enqueue at t = {t}"
                    );
                }
                if Q::needs_observe(any_decbit) {
                    let q = hs.q_len;
                    Q::observe(&mut qdisc_state[hop], t, q as f64);
                }
                let hs = &mut hops[hop];
                // A down hop parks the arrival in the queue: service
                // restarts from the `LinkUp` arm.
                if !hs.busy && !fault_state[hop].down {
                    hs.busy = true;
                    let fs = &fault_state[hop];
                    let mut svc = service_time(&mut rng, fs.mu, fs.det_service, hh.expo); // draw: arrival.service — service for the packet entering an idle hop
                    if BYTES {
                        // The hop was idle, so the arriving packet is
                        // the one entering service.
                        svc *= f64::from(size);
                    }
                    ev.schedule_lane(1 + hop, t + svc, EventKind::Departure { hop });
                }
            }
            EventKind::Departure { hop } => {
                let (flow, marked) =
                    fifo_flow_marked(fifos[hop].pop_front().expect("departure from empty queue"));
                let size = if BYTES {
                    fifo_bytes[hop]
                        .pop_front()
                        .expect("departure from empty byte queue")
                } else {
                    1.0f32
                };
                let attempt = if rto_active {
                    fifo_attempt[hop]
                        .pop_front()
                        .expect("departure from empty attempt queue")
                } else {
                    0
                };
                if strict && BYTES {
                    assert_eq!(
                        fifos[hop].len(),
                        fifo_bytes[hop].len(),
                        "FPK_CHECK: hop {hop} word ring and byte ring desynced after dequeue at t = {t}"
                    );
                }
                let fh = flow_hot[flow];
                let exits = hop == fh.route.last;
                let hs = &mut hops[hop];
                if t >= warmup {
                    hs.area += hs.q_len as f64 * (t - hs.last_change);
                    hs.last_change = t;
                    hs.served += 1;
                    if exits && flow < n_static {
                        stats[flow].delivered += 1;
                    }
                } else {
                    hs.last_change = t.max(warmup);
                }
                if exits && flow >= n_static {
                    // Workload conservation counters are never
                    // warm-up-gated; only the FCT *samples* are.
                    wlc.packets_delivered += 1;
                    let d = &mut dyn_flows[flow - n_static];
                    d.delivered += 1;
                    dyn_account_packet(d, flow, t, &mut ev);
                }
                hs.q_len -= 1;
                let q_now = hs.q_len;
                if Q::needs_observe(any_decbit) {
                    Q::observe(&mut qdisc_state[hop], t, q_now as f64);
                }
                {
                    // Post-fault recovery sample (§3i): the first
                    // departure that brings the queue back inside the
                    // pre-fault band closes the recovery clock. Always
                    // false without faults — one predicted branch.
                    let fs = &mut fault_state[hop];
                    if fs.recovering && (q_now as f64) <= fs.band {
                        fs.recovery_sum += t - fs.t_up;
                        fs.recovery_n += 1;
                        fs.recovering = false;
                    }
                }
                if exits {
                    // Leaves the network; window flows get an ack across
                    // the whole return path.
                    if fh.acked {
                        ev.push(t + back_delay(&fh, hop), EventKind::Ack { flow, marked });
                    }
                } else {
                    // Forward to the next hop after one hop delay,
                    // carrying the marks collected so far (and, in byte
                    // mode, the packet's size factor; under RTO, its
                    // attempt index).
                    ev.push(
                        t + fh.prop_delay,
                        EventKind::Arrival {
                            flow,
                            hop: hop + 1,
                            marked,
                            size,
                            attempt,
                        },
                    );
                }
                // A hop that went down mid-service finished its packet
                // non-preemptively; it starts no successor until the
                // `LinkUp` arm restarts it.
                if q_now > 0 && !fault_state[hop].down {
                    let fs = &fault_state[hop];
                    let mut svc = service_time(&mut rng, fs.mu, fs.det_service, hop_hot[hop].expo); // draw: departure.service — service for the next head-of-line packet
                    if BYTES {
                        // The new head of line sets the next service.
                        svc *= f64::from(
                            *fifo_bytes[hop]
                                .front()
                                .expect("busy hop with empty byte queue"),
                        );
                    }
                    ev.schedule_lane(1 + hop, t + svc, EventKind::Departure { hop });
                } else {
                    hops[hop].busy = false;
                }
            }
            EventKind::Observe { flow } => {
                let SourceSpec::Rate {
                    update_interval, ..
                } = &flows[flow].source
                else {
                    unreachable!("Observe for non-rate flow");
                };
                // The path bottleneck: the most congested queue on the
                // flow's route (a 1-hop route reads its only queue).
                let route = flow_hot[flow].route;
                let observed_queue = (route.first..=route.last)
                    .map(|h| hops[h].q_len)
                    .max()
                    .unwrap_or(0);
                ev.push(
                    t + back_delay(&flow_hot[flow], route.last),
                    EventKind::Feedback {
                        flow,
                        observed_queue,
                    },
                );
                ev.push(t + update_interval, EventKind::Observe { flow });
            }
            EventKind::Feedback {
                flow,
                observed_queue,
            } => {
                let SourceSpec::Rate {
                    law,
                    update_interval,
                    ..
                } = &flows[flow].source
                else {
                    unreachable!("Feedback for non-rate flow")
                };
                let SourceState::Rate { lambda } = &mut states[flow] else {
                    unreachable!("rate spec paired with non-rate state")
                };
                *lambda = rate_update(law, *lambda, observed_queue as f64, *update_interval);
            }
            EventKind::Ack { flow, marked } => {
                let (allowed, in_flight_ref) = match (&flows[flow].source, &mut states[flow]) {
                    (SourceSpec::Window { aimd, .. }, state) => {
                        window_on_ack(aimd, state, marked);
                        let SourceState::Window {
                            window, in_flight, ..
                        } = state
                        else {
                            unreachable!("window spec paired with non-window state")
                        };
                        (window.floor().max(1.0) as u64, in_flight)
                    }
                    (SourceSpec::Decbit { .. }, SourceState::Decbit { ctl, in_flight }) => {
                        *in_flight = in_flight.saturating_sub(1);
                        let _ = ctl.on_ack(marked);
                        (ctl.window().floor().max(1.0) as u64, in_flight)
                    }
                    _ => unreachable!("Ack for a rate flow"),
                };
                let mut to_send = allowed.saturating_sub(*in_flight_ref);
                while to_send > 0 {
                    *in_flight_ref += 1;
                    if t >= warmup {
                        stats[flow].sent += 1;
                    }
                    ev.push(
                        t + flow_hot[flow].prop_delay,
                        EventKind::Arrival {
                            flow,
                            hop: flow_hot[flow].route.first,
                            marked: false,
                            size: draw_size(&mut rng), // draw: ack.pkt — size factor per ack-clocked window packet
                            attempt: 0,
                        },
                    );
                    to_send -= 1;
                }
            }
            EventKind::FlowArrival => {
                let w = workload.expect("FlowArrival without a workload");
                // Draw order is the §3f contract: size, route, next gap
                // (one f64 each; deterministic sizes draw nothing).
                let size = w.sizes.sample(&mut rng); // draw: wl.flow.size — flow size in packets (deterministic dists draw nothing)
                let u: f64 = rng.gen::<f64>(); // draw: wl.flow.route — route-choice uniform
                let route = w.routes[sample_cumulative(&route_cum, u)];
                if strict {
                    chk_route_draws += 1;
                    if !matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
                        chk_size_draws += 1;
                    }
                }
                // Finite flows are open-loop: no acks, no marking
                // reaction (q_hat = ∞ never self-marks).
                let fh = FlowHot {
                    route,
                    prop_delay: w.prop_delay,
                    q_hat: f64::INFINITY,
                    acked: false,
                    decbit: false,
                };
                let d = DynFlow {
                    size,
                    accounted: 0,
                    delivered: 0,
                    arrival_t: t,
                    ideal: ideal_fct_sized(
                        &config.topology,
                        route,
                        size,
                        w.prop_delay,
                        mean_factor,
                    ),
                    gave_up: false,
                };
                let slot = match dyn_free.pop() {
                    Some(s) => {
                        let s = s as usize;
                        flow_hot[n_static + s] = fh;
                        dyn_flows[s] = d;
                        s
                    }
                    None => {
                        flow_hot.push(fh);
                        dyn_flows.push(d);
                        dyn_flows.len() - 1
                    }
                };
                let flow = n_static + slot;
                assert!(
                    flow < (1 << 31),
                    "run_network: workload flow index exceeds the 31-bit FIFO word"
                );
                wlc.arrived += 1;
                wlc.active += 1;
                wlc.peak_active = wlc.peak_active.max(wlc.active);
                wlc.packets_sent += size;
                // The whole transfer enters as a paced burst (1 µs
                // spacing, like the window bootstrap), so an idle
                // network completes it in exactly `ideal_fct`. Byte
                // mode draws each packet's size here, after the route
                // and before the next interarrival gap (§3f order).
                for b in 0..size {
                    ev.push(
                        t + b as f64 * 1e-6 + w.prop_delay,
                        EventKind::Arrival {
                            flow,
                            hop: route.first,
                            marked: false,
                            size: draw_size(&mut rng), // draw: wl.flow.pkt — size factor per workload-burst packet
                            attempt: 0,
                        },
                    );
                }
                if w.max_flows.is_none_or(|m| wlc.arrived < m) {
                    let gap = w.arrivals.sample_interarrival(&mut rng); // draw: wl.flow.gap — next interarrival gap
                    if strict {
                        chk_gap_draws += 1;
                    }
                    ev.schedule_lane(lane_arrival, t + gap, EventKind::FlowArrival);
                }
            }
            EventKind::FlowComplete { flow } => {
                let w = workload.expect("FlowComplete without a workload");
                let slot = flow - n_static;
                let d = dyn_flows[slot];
                wlc.active -= 1;
                wlc.completed += 1;
                if d.gave_up {
                    wlc.flows_gave_up += 1;
                }
                if d.delivered == d.size {
                    wlc.completed_clean += 1;
                    // FCT/slowdown sample only the post-warm-up, fully
                    // delivered population.
                    if d.arrival_t >= warmup {
                        let fct = t - d.arrival_t;
                        fcts.push(fct);
                        slowdowns.push(fct / d.ideal);
                    }
                }
                // No event or FIFO word references the slot once the
                // last packet is accounted (in-flight packets are by
                // definition unaccounted), so reuse is safe. Slot
                // numbering never feeds times or RNG, so recycling
                // on/off only moves `slot_high_water`.
                if strict {
                    assert!(
                        !dyn_free.contains(&(slot as u32)),
                        "FPK_CHECK: flow slot {slot} completed while already on the free list"
                    );
                    assert_eq!(
                        d.accounted, d.size,
                        "FPK_CHECK: flow slot {slot} completed with {} of {} packets accounted",
                        d.accounted, d.size
                    );
                }
                if w.recycle_slots {
                    dyn_free.push(slot as u32);
                }
            }
            EventKind::Sample => {
                trace_t.push(t);
                for hop in 0..k {
                    trace_q[hop].push(hops[hop].q_len as f64);
                }
                trace_ctl.extend(states.iter().map(|s| match s {
                    SourceState::Rate { lambda } => *lambda,
                    SourceState::Window { window, .. } => *window,
                    SourceState::Decbit { ctl, .. } => ctl.window(),
                    SourceState::OnOff { on, .. } => f64::from(u8::from(*on)),
                }));
                if strict {
                    // Periodic structural audit: the sample clock is the
                    // one low-rate event stream that is always present.
                    ev.assert_valid();
                }
                next_sample_index += 1;
                if next_sample_index <= last_sample_index {
                    // The multiple can round a hair past t_end; clamp so
                    // the final sample still lands inside the horizon.
                    let tk = (next_sample_index as f64 * config.sample_interval).min(t_end);
                    ev.schedule_sample(tk);
                }
            }
            EventKind::LinkDown { hop } => {
                let FaultConfig::LinkFlap { up_rate, .. } = fault_at(&config.faults, hop) else {
                    unreachable!("LinkDown on a hop without a LinkFlap fault")
                };
                fault_onset(&mut fault_state[hop], &hops[hop], t, warmup);
                let fs = &mut fault_state[hop];
                fs.down = true;
                fs.down_since = t;
                if strict {
                    chk_fault_moves += 1;
                    chk_fault_draws += 1;
                }
                // Outage length ~ Exp(up_rate); the in-service packet
                // (if any) completes non-preemptively, after which the
                // Departure arm parks the queue.
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.flap.downtime — outage-duration uniform
                ev.schedule_lane(
                    lane_fault[hop],
                    t - u.ln() / up_rate,
                    EventKind::LinkUp { hop },
                );
            }
            EventKind::LinkUp { hop } => {
                let FaultConfig::LinkFlap { down_rate, .. } = fault_at(&config.faults, hop) else {
                    unreachable!("LinkUp on a hop without a LinkFlap fault")
                };
                let fs = &mut fault_state[hop];
                fs.down = false;
                // Downtime is clamped to the measurement window, like
                // every other post-warm-up accumulator.
                fs.downtime += (t - fs.down_since.max(warmup)).max(0.0);
                fault_clear(fs, t);
                let (mu, det) = (fs.mu, fs.det_service);
                if strict {
                    chk_fault_moves += 1;
                    chk_fault_draws += 1;
                }
                // Restart the stalled server for the parked head of
                // line, if any packets accumulated during the outage.
                let hs = &mut hops[hop];
                if hs.q_len > 0 && !hs.busy {
                    hs.busy = true;
                    let mut svc = service_time(&mut rng, mu, det, hop_hot[hop].expo); // draw: fault.flap.resume — service restart for the parked head-of-line packet (expo hops only)
                    if BYTES {
                        svc *= f64::from(
                            *fifo_bytes[hop]
                                .front()
                                .expect("parked hop with empty byte queue"),
                        );
                    }
                    ev.schedule_lane(1 + hop, t + svc, EventKind::Departure { hop });
                }
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.flap.uptime — next up-time sojourn uniform
                ev.schedule_lane(
                    lane_fault[hop],
                    t - u.ln() / down_rate,
                    EventKind::LinkDown { hop },
                );
            }
            EventKind::FaultShift { hop } => match fault_at(&config.faults, hop) {
                FaultConfig::GilbertElliott {
                    p_gb,
                    p_bg,
                    loss_good,
                    loss_bad,
                } => {
                    if fault_state[hop].bad {
                        fault_clear(&mut fault_state[hop], t);
                    } else {
                        fault_onset(&mut fault_state[hop], &hops[hop], t, warmup);
                    }
                    let fs = &mut fault_state[hop];
                    fs.bad = !fs.bad;
                    fs.loss = if fs.bad { loss_bad } else { loss_good };
                    let exit_rate = if fs.bad { p_bg } else { p_gb };
                    if strict {
                        chk_fault_moves += 1;
                        chk_fault_draws += 1;
                    }
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.ge.sojourn — next Gilbert–Elliott state sojourn uniform
                    ev.schedule_lane(
                        lane_fault[hop],
                        t - u.ln() / exit_rate,
                        EventKind::FaultShift { hop },
                    );
                }
                FaultConfig::Degrade { factor, period } => {
                    // Deterministic capacity clock: zero draws. The
                    // in-service packet keeps its scheduled departure;
                    // the new μ applies from the next service start.
                    if fault_state[hop].degraded {
                        fault_clear(&mut fault_state[hop], t);
                    } else {
                        fault_onset(&mut fault_state[hop], &hops[hop], t, warmup);
                    }
                    let fs = &mut fault_state[hop];
                    fs.degraded = !fs.degraded;
                    fs.mu = if fs.degraded {
                        hop_hot[hop].mu * factor
                    } else {
                        hop_hot[hop].mu
                    };
                    fs.det_service = 1.0 / fs.mu;
                    ev.schedule_lane(lane_fault[hop], t + period, EventKind::FaultShift { hop });
                }
                FaultConfig::Iid { .. } | FaultConfig::LinkFlap { .. } => {
                    unreachable!("FaultShift on a hop without a GE/Degrade fault")
                }
            },
        }
    }
    // lint: end

    // FPK_CHECK horizon invariants (DESIGN §3h). Runs once, after the
    // loop — allocation here is off the packet path.
    if strict {
        ev.assert_valid();
        if let Some(w) = workload {
            // Free-list disjointness and bounds, globally.
            let mut freed = vec![false; dyn_flows.len()];
            for &s in &dyn_free {
                let s = s as usize;
                assert!(
                    s < dyn_flows.len(),
                    "FPK_CHECK: free list holds slot {s} beyond the {} allocated",
                    dyn_flows.len()
                );
                assert!(
                    !freed[s],
                    "FPK_CHECK: flow slot {s} appears twice on the free list"
                );
                freed[s] = true;
            }
            // Packet conservation at the horizon: every unique packet
            // a workload flow sent was delivered, terminally dropped,
            // given up after its RTO retries, parked in the queue of a
            // downed hop, or is otherwise still in flight (unaccounted
            // in its slot — including packets waiting out an RTO
            // timer). `parked` is computed independently by walking the
            // FIFOs of down hops, so the subtraction doubles as a
            // `parked ≤ unaccounted` check.
            let parked: u64 = fifos
                .iter()
                .enumerate()
                .filter(|&(h, _)| fault_state[h].down)
                .map(|(_, f)| {
                    f.iter()
                        .filter(|&&word| fifo_flow_marked(word).0 >= n_static)
                        .count() as u64
                })
                .sum();
            let unaccounted: u64 = dyn_flows.iter().map(|d| d.size - d.accounted).sum();
            let in_flight = unaccounted
                .checked_sub(parked)
                .expect("FPK_CHECK: parked packets exceed unaccounted packets");
            assert_eq!(
                wlc.packets_sent,
                wlc.packets_delivered
                    + wlc.packets_dropped
                    + wlc.packets_gave_up
                    + in_flight
                    + parked,
                "FPK_CHECK: workload packet conservation failed at t_end \
                 (sent {} != delivered {} + dropped {} + gave-up {} + in-flight {in_flight} \
                 + parked {parked})",
                wlc.packets_sent,
                wlc.packets_delivered,
                wlc.packets_dropped,
                wlc.packets_gave_up
            );
            // Draw-count audit against the §3f contract: one route and
            // one size draw per arrival (none for deterministic sizes),
            // and one gap per arrival — plus the bootstrap gap, minus
            // the final gap a `max_flows` cap suppresses.
            assert_eq!(
                chk_route_draws, wlc.arrived,
                "FPK_CHECK: route draws diverged from flow arrivals"
            );
            let expect_size = if matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
                0
            } else {
                wlc.arrived
            };
            assert_eq!(
                chk_size_draws, expect_size,
                "FPK_CHECK: size draws diverged from the §3f contract"
            );
            assert!(
                chk_gap_draws == wlc.arrived || chk_gap_draws == wlc.arrived + 1,
                "FPK_CHECK: gap draws ({chk_gap_draws}) must be arrivals ({}) or arrivals + 1",
                wlc.arrived
            );
        }
        // Fault-lane draw audit (§3i): every fault sojourn draw belongs
        // to either the per-hop bootstrap or a transition arm — a
        // fault-free run must show zeros on both sides.
        assert_eq!(
            chk_fault_draws,
            n_fault_boot + chk_fault_moves,
            "FPK_CHECK: fault sojourn draws diverged from fault transitions \
             (bootstrap {n_fault_boot} + moves {chk_fault_moves})"
        );
    }

    // Close the per-hop queue-area integrals at t_end.
    let window = config.t_end - config.warmup;
    let mut mean_queue = Vec::with_capacity(k);
    let mut utilization = Vec::with_capacity(k);
    let mut downtime_frac = Vec::with_capacity(k);
    let mut recovery_time = Vec::with_capacity(k);
    for (hop, hs) in hops.iter().enumerate() {
        let mut a = hs.area;
        if config.t_end > hs.last_change {
            a += hs.q_len as f64 * (config.t_end - hs.last_change);
        }
        mean_queue.push(a / window);
        utilization.push(hs.served as f64 / window / config.topology.links[hop].mu);
        // Close an outage still open at the horizon, then normalise by
        // the measurement window (fault-free hops report exact 0.0).
        let fs = &fault_state[hop];
        let mut dt = fs.downtime;
        if fs.down {
            dt += (config.t_end - fs.down_since.max(config.warmup)).max(0.0);
        }
        downtime_frac.push(dt / window);
        recovery_time.push(if fs.recovery_n > 0 {
            fs.recovery_sum / fs.recovery_n as f64
        } else {
            0.0
        });
    }
    for f in &mut stats {
        f.throughput = f.delivered as f64 / window;
    }
    let total_throughput: f64 = stats.iter().map(|f| f.throughput).sum();
    let capacity: f64 = config.topology.links.iter().map(|l| l.mu).sum();
    let workload_stats = workload.map(|_| {
        fcts.sort_by(f64::total_cmp);
        slowdowns.sort_by(f64::total_cmp);
        WorkloadStats {
            arrived: wlc.arrived,
            completed: wlc.completed,
            completed_clean: wlc.completed_clean,
            active_at_end: wlc.arrived - wlc.completed,
            packets_sent: wlc.packets_sent,
            packets_delivered: wlc.packets_delivered,
            packets_dropped: wlc.packets_dropped,
            retransmits: wlc.retransmits,
            packets_gave_up: wlc.packets_gave_up,
            flows_gave_up: wlc.flows_gave_up,
            goodput: wlc.packets_delivered as f64 / config.t_end,
            retx_overhead: wlc.retransmits as f64 / wlc.packets_sent.max(1) as f64,
            peak_active: wlc.peak_active,
            slot_high_water: dyn_flows.len() as u64,
            fct: DistSummary::from_sorted(&fcts),
            slowdown: DistSummary::from_sorted(&slowdowns),
        }
    });
    // Full mode hands the trace buffers to the caller (the arena grows
    // fresh ones next run); Summary leaves them in the arena for
    // `run_network_summary`.
    let (out_t, out_q, out_ctl) = if trace == TraceMode::Full {
        let out_t = std::mem::take(&mut trace_t);
        // A workload-only run has no per-flow control state: one empty
        // row per sample (`chunks(0)` would panic).
        let out_ctl = if n_flows == 0 {
            vec![Vec::new(); out_t.len()]
        } else {
            trace_ctl.chunks(n_flows).map(<[f64]>::to_vec).collect()
        };
        (out_t, std::mem::take(&mut trace_q), out_ctl)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    // Return the scratch buffers (and their capacity) to the arena in
    // one struct assignment.
    *arena = NetArena {
        ev,
        states,
        fifos,
        fifo_bytes,
        fifo_attempt,
        hops,
        qdisc: qdisc_state,
        trace_t,
        trace_q,
        trace_ctl,
        dyn_flows,
        dyn_free,
        fcts,
        slowdowns,
    };
    Ok(NetResult {
        trace_t: out_t,
        trace_q: out_q,
        trace_ctl: out_ctl,
        flows: stats,
        mean_queue,
        total_throughput,
        utilization,
        capacity,
        downtime_frac,
        recovery_time,
        workload: workload_stats,
    })
}

/// Fault process at `hop` (`faults` empty = fault-free everywhere).
fn fault_at(faults: &[FaultConfig], hop: usize) -> FaultConfig {
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
        // Bad μ.
        let mut cfg = net(2);
        cfg.topology.links[1].mu = 0.0;
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
