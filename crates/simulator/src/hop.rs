//! One link of a running topology as an engine component (DESIGN §3d):
//! its rings, counters, constants, fault machine and discipline
//! scratch, and the packet steps the event loop dispatches to it.

use crate::engine::{FaultConfig, Service};
use crate::event::{EventKind, EventQueue};
use crate::network::{alloc_lane, fault_at, Ctx, Knobs, NetConfig};
use crate::qdisc::{HopQdiscState, QDisc};
use crate::traffic::Traffic;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// A packet as it rides an `Arrival` event and sits in a hop's rings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    pub(crate) flow: usize,
    /// Congestion marks OR-ed over the hops crossed so far.
    pub(crate) marked: bool,
    /// Size factor `bytes / ref_bytes` (1.0 in unit mode).
    pub(crate) size: f32,
    /// Retransmission attempt index (0 = first transmission).
    pub(crate) attempt: u8,
}

impl Packet {
    /// The event that hands this packet to `hop`.
    pub(crate) fn arrival(self, hop: usize) -> EventKind {
        EventKind::Arrival {
            flow: self.flow,
            hop,
            marked: self.marked,
            size: self.size,
            attempt: self.attempt,
        }
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

/// Read-only link constants (the current loss and rate live in
/// [`FaultState`]: a dynamic [`FaultConfig`] moves them).
#[derive(Debug, Clone, Copy, Default)]
struct HopHot {
    buffer: Option<u64>,
    mu: f64,
    expo: bool,
}

/// Runtime state of the hop's fault process (DESIGN §3i). The packet
/// path reads `loss` / `mu` / `det_service` / `down`, constants for a
/// fault-free or `Iid` hop; the rest drives the recovery-time and
/// downtime metrics and moves only on fault transitions.
#[derive(Debug, Clone, Copy, Default)]
struct FaultState {
    /// Current per-arrival loss probability.
    loss: f64,
    /// Current service rate (μ, possibly degraded).
    mu: f64,
    /// `1.0 / mu` for the current μ.
    det_service: f64,
    /// Gilbert–Elliott chain is in the bad state.
    bad: bool,
    /// Link is down: server stalled, arrivals park in the queue.
    down: bool,
    /// Capacity currently degraded.
    degraded: bool,
    /// Instant the current outage began (valid while `down`).
    down_since: f64,
    /// Accumulated post-warm-up outage time (closed outages).
    downtime: f64,
    /// Recovery band fixed at the first fault onset: the pre-fault
    /// mean queue + 1.
    band: f64,
    /// A fault cleared and the queue has not yet re-entered `band`.
    recovering: bool,
    /// Instant of the most recent fault clear.
    t_up: f64,
    /// A fault onset has been observed (fixes `band` once).
    faulted_once: bool,
    /// Sum and count of the recovery times sampled at this hop.
    recovery_sum: f64,
    recovery_n: u64,
}

/// Queue counters, packed so an event touches one cache line.
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

/// One hop of the running topology; lives in the [`crate::NetArena`].
#[derive(Debug, Default)]
pub(crate) struct Hop {
    /// Index in the topology; the hop's `Departure` lane is `1 + id`.
    id: usize,
    /// Fault side lane (`usize::MAX` unless the model is dynamic).
    lane: usize,
    model: FaultConfig,
    /// `flow | marked << 31` words, head in service.
    words: VecDeque<u32>,
    /// Size factors parallel to `words` (byte mode only).
    sizes: VecDeque<f32>,
    /// Retransmission attempts parallel to `words` (RTO runs only).
    attempts: VecDeque<u8>,
    state: HopState,
    hot: HopHot,
    fault: FaultState,
    qdisc: HopQdiscState,
}

impl Hop {
    /// Re-arm the hop as link `id` of `config` (rings keep capacity),
    /// claiming a side lane if its fault model is dynamic. Faults start
    /// in their good / up / full-capacity state.
    pub(crate) fn reset(&mut self, id: usize, config: &NetConfig, next_lane: &mut usize) {
        let (link, model) = (&config.topology.links[id], fault_at(&config.faults, id));
        let det_service = 1.0 / link.mu;
        let loss = match model {
            FaultConfig::Iid { loss_prob } => loss_prob,
            FaultConfig::GilbertElliott { loss_good, .. } => loss_good,
            FaultConfig::LinkFlap { .. } | FaultConfig::Degrade { .. } => 0.0,
        };
        self.words.clear();
        self.sizes.clear();
        self.attempts.clear();
        self.id = id;
        self.lane = alloc_lane(next_lane, model.is_dynamic());
        self.model = model;
        self.state = HopState {
            last_change: config.warmup,
            ..HopState::default()
        };
        self.hot = HopHot {
            buffer: link.buffer,
            mu: link.mu,
            expo: link.service == Service::Exponential,
        };
        self.fault = FaultState {
            loss,
            mu: link.mu,
            det_service,
            ..FaultState::default()
        };
        self.qdisc = HopQdiscState::default();
    }

    /// Schedule the fault machine's first transition: a Gilbert–Elliott
    /// hop draws its first good-state sojourn, a flapping hop its first
    /// up-time; `Degrade` is drawless and `Iid` schedules nothing.
    pub(crate) fn start_fault(&self, cx: &mut Ctx) {
        let hop = self.id;
        let (rate, kind) = match self.model {
            FaultConfig::Iid { .. } => return,
            FaultConfig::GilbertElliott { p_gb, .. } => (p_gb, EventKind::FaultShift { hop }),
            FaultConfig::LinkFlap { down_rate, .. } => (down_rate, EventKind::LinkDown { hop }),
            FaultConfig::Degrade { period, .. } => {
                cx.ev
                    .schedule_lane(self.lane, period, EventKind::FaultShift { hop });
                return;
            }
        };
        let rng = &mut cx.rng;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.bootstrap.sojourn — first fault-transition sojourn (GE/flap hops only)
        cx.audit.fault_boot += 1;
        cx.audit.fault_draws += 1;
        cx.ev.schedule_lane(self.lane, -u.ln() / rate, kind);
    }

    /// Workload packets parked in a down hop's queue (for the strict
    /// horizon conservation check).
    pub(crate) fn parked_workload(&self, first_dynamic: usize) -> u64 {
        let parked = |word: &&u32| self.fault.down && fifo_flow_marked(**word).0 >= first_dynamic;
        self.words.iter().filter(parked).count() as u64
    }

    /// Close the hop at the horizon: `(mean queue, utilisation,
    /// downtime fraction, mean recovery time)` over the post-warm-up
    /// window, closing an outage still open at `t_end`.
    pub(crate) fn finish(&self, t_end: f64, warmup: f64) -> (f64, f64, f64, f64) {
        let window = t_end - warmup;
        let fs = &self.fault;
        let mut downtime = fs.downtime;
        if fs.down {
            downtime += (t_end - fs.down_since.max(warmup)).max(0.0);
        }
        let recovery = if fs.recovery_n > 0 {
            fs.recovery_sum / fs.recovery_n as f64
        } else {
            0.0
        };
        (
            self.area_at(t_end) / window,
            self.state.served as f64 / window / self.hot.mu,
            downtime / window,
            recovery,
        )
    }
}

// lint: hot-path arena(words, sizes, attempts)
impl Hop {
    /// Packets in system.
    #[inline]
    pub(crate) fn q_len(&self) -> u64 {
        self.state.q_len
    }

    /// The queue-length integral up to `t` — the one place it is
    /// extended (settle, fault band, horizon).
    #[inline]
    fn area_at(&self, t: f64) -> f64 {
        self.state.area + self.state.q_len as f64 * (t - self.state.last_change).max(0.0)
    }

    /// Settle the integral at `t` before `q_len` changes (during
    /// warm-up only the clamped change instant moves).
    #[inline]
    fn settle(&mut self, t: f64, warmup: f64) {
        if t >= warmup {
            self.state.area = self.area_at(t);
            self.state.last_change = t;
        } else {
            self.state.last_change = t.max(warmup);
        }
    }

    /// Enqueue at the tail of every ring the run uses.
    #[inline]
    fn push<const BYTES: bool>(&mut self, pkt: Packet, k: &Knobs, t: f64) {
        self.words.push_back(fifo_word(pkt.flow, pkt.marked));
        if BYTES {
            self.sizes.push_back(pkt.size);
        }
        if k.rto.is_some() {
            self.attempts.push_back(pkt.attempt);
        }
        self.state.q_len += 1;
        self.check_rings::<BYTES>(k, "enqueue", t);
    }

    /// Dequeue the head of line from every ring the run uses.
    #[inline]
    fn pop<const BYTES: bool>(&mut self, k: &Knobs, t: f64) -> Packet {
        let word = self.words.pop_front().expect("departure from empty queue");
        let (flow, marked) = fifo_flow_marked(word);
        let size = if BYTES {
            self.sizes.pop_front().expect("empty byte queue")
        } else {
            1.0
        };
        let attempt = if k.rto.is_some() {
            self.attempts.pop_front().expect("empty attempt queue")
        } else {
            0
        };
        self.state.q_len -= 1;
        self.check_rings::<BYTES>(k, "dequeue", t);
        Packet {
            flow,
            marked,
            size,
            attempt,
        }
    }

    /// `FPK_CHECK`: in byte mode the word and byte rings move together.
    #[inline]
    fn check_rings<const BYTES: bool>(&self, k: &Knobs, op: &str, t: f64) {
        if k.strict && BYTES {
            assert_eq!(
                self.words.len(),
                self.sizes.len(),
                "FPK_CHECK: hop {} word ring and byte ring desynced after {op} at t = {t}",
                self.id
            );
        }
    }

    /// `Arrival`: drop on injected loss (at the hop's *current* loss
    /// probability) or a full buffer; otherwise mark, enqueue, and start
    /// service if the hop is idle and up.
    #[inline]
    pub(crate) fn arrive<Q: QDisc, const BYTES: bool>(
        &mut self,
        t: f64,
        mut pkt: Packet,
        traffic: &mut Traffic,
        cx: &mut Ctx,
    ) {
        let (loss, q_len) = (self.fault.loss, self.state.q_len);
        let rng = &mut cx.rng;
        // draw: hop.loss — per-hop loss uniform (faulty hops only)
        if (loss > 0.0 && rng.gen::<f64>() < loss)
            || self.hot.buffer.is_some_and(|cap| q_len >= cap)
        {
            traffic.drop(pkt, self.id, t, cx);
            return;
        }
        // OR this hop's mark into the upstream ones. A pure hook
        // short-circuits behind an upstream mark; a stateful one (RED's
        // EWMA) runs for every surviving arrival.
        let (fh, k) = (traffic.hot[pkt.flow], &cx.k);
        let (qp, qdisc, decbit, q_hat) = (&k.qp, &mut self.qdisc, fh.decbit, fh.q_hat);
        pkt.marked = if Q::MARK_IS_PURE {
            pkt.marked || Q::mark(qp, qdisc, t, q_len, decbit, q_hat, rng) // draw: mark.pure — mark hook may draw (RED gentle mode); pure hooks draw nothing
        } else {
            let hop_mark = Q::mark(qp, qdisc, t, q_len, decbit, q_hat, rng); // draw: mark.stateful — stateful mark hook (RED) draws its drop uniform here
            pkt.marked || hop_mark
        };
        self.settle(t, k.warmup);
        self.push::<BYTES>(pkt, k, t);
        if Q::needs_observe(k.any_decbit) {
            Q::observe(&mut self.qdisc, t, self.state.q_len as f64);
        }
        self.start_service::<BYTES>(t, rng, &mut cx.ev); // draw: arrival.service — service for the packet entering an idle hop
    }

    /// `Departure`: the head of line leaves for `traffic` to route, and
    /// the next one starts service. The first departure back inside the
    /// pre-fault band closes a recovery clock (§3i).
    #[inline]
    pub(crate) fn depart<Q: QDisc, const BYTES: bool>(
        &mut self,
        t: f64,
        traffic: &mut Traffic,
        cx: &mut Ctx,
    ) {
        let k = &cx.k;
        self.settle(t, k.warmup);
        if t >= k.warmup {
            self.state.served += 1;
        }
        let pkt = self.pop::<BYTES>(k, t);
        self.state.busy = false;
        let q_now = self.state.q_len;
        if Q::needs_observe(k.any_decbit) {
            Q::observe(&mut self.qdisc, t, q_now as f64);
        }
        let fs = &mut self.fault;
        if fs.recovering && (q_now as f64) <= fs.band {
            fs.recovery_sum += t - fs.t_up;
            fs.recovery_n += 1;
            fs.recovering = false;
        }
        traffic.pass_on(pkt, self.id, t, cx);
        let rng = &mut cx.rng;
        self.start_service::<BYTES>(t, rng, &mut cx.ev); // draw: departure.service — service for the next head-of-line packet
    }

    /// Start serving the head of line if the server is free, the link
    /// up and a packet waiting — the one service start behind arrivals,
    /// departures and `LinkUp`. The time is drawn at the current rate
    /// and, in byte mode, scaled by the head packet's size factor.
    #[inline]
    pub(crate) fn start_service<const BYTES: bool>(
        &mut self,
        t: f64,
        rng: &mut StdRng,
        ev: &mut EventQueue,
    ) {
        if self.state.busy || self.fault.down || self.state.q_len == 0 {
            return;
        }
        self.state.busy = true;
        let mut svc = if self.hot.expo {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: hop.service — exponential service uniform (expo hops only)
            -u.ln() / self.fault.mu
        } else {
            self.fault.det_service
        };
        if BYTES {
            svc *= f64::from(self.sizes[0]);
        }
        let hop = self.id;
        ev.schedule_lane(1 + hop, t + svc, EventKind::Departure { hop });
    }

    /// A fault onset: fix the recovery band at the first one (later
    /// onsets would see fault-era queues) and cancel any recovery.
    #[inline]
    fn fault_onset(&mut self, t: f64, warmup: f64) {
        if !self.fault.faulted_once {
            self.fault.faulted_once = true;
            let a = self.area_at(t);
            self.fault.band = if t > warmup { a / (t - warmup) } else { 0.0 } + 1.0;
        }
        self.fault.recovering = false;
    }

    /// A fault clearing: start the recovery clock `depart` stops.
    #[inline]
    fn fault_clear(&mut self, t: f64) {
        if self.fault.faulted_once {
            self.fault.recovering = true;
            self.fault.t_up = t;
        }
    }

    /// `LinkDown`: stall the server (non-preemptively — the packet in
    /// service completes) and draw the outage length.
    pub(crate) fn link_down(&mut self, t: f64, cx: &mut Ctx) {
        let FaultConfig::LinkFlap { up_rate, .. } = self.model else {
            unreachable!("LinkDown on a hop without a LinkFlap fault")
        };
        self.fault_onset(t, cx.k.warmup);
        self.fault.down = true;
        self.fault.down_since = t;
        cx.audit.fault_move();
        let rng = &mut cx.rng;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.flap.downtime — outage-duration uniform
        let hop = self.id;
        cx.ev
            .schedule_lane(self.lane, t - u.ln() / up_rate, EventKind::LinkUp { hop });
    }

    /// `LinkUp`: close the outage (clamped to the measurement window),
    /// restart service for parked packets, draw the next up-time.
    pub(crate) fn link_up<const BYTES: bool>(&mut self, t: f64, cx: &mut Ctx) {
        let FaultConfig::LinkFlap { down_rate, .. } = self.model else {
            unreachable!("LinkUp on a hop without a LinkFlap fault")
        };
        self.fault.down = false;
        self.fault.downtime += (t - self.fault.down_since.max(cx.k.warmup)).max(0.0);
        self.fault_clear(t);
        cx.audit.fault_move();
        let rng = &mut cx.rng;
        self.start_service::<BYTES>(t, rng, &mut cx.ev); // draw: fault.flap.resume — service restart for the parked head-of-line packet (expo hops only)
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.flap.uptime — next up-time sojourn uniform
        let hop = self.id;
        cx.ev.schedule_lane(
            self.lane,
            t - u.ln() / down_rate,
            EventKind::LinkDown { hop },
        );
    }

    /// `FaultShift`: flip a Gilbert–Elliott chain (drawing its next
    /// sojourn) or a drawless `Degrade` clock (the new μ applies from
    /// the next service start).
    pub(crate) fn fault_shift(&mut self, t: f64, cx: &mut Ctx) {
        let hop = self.id;
        let entering = !(self.fault.bad || self.fault.degraded);
        if entering {
            self.fault_onset(t, cx.k.warmup);
        } else {
            self.fault_clear(t);
        }
        let fs = &mut self.fault;
        match self.model {
            FaultConfig::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                fs.bad = entering;
                fs.loss = if fs.bad { loss_bad } else { loss_good };
                let exit_rate = if fs.bad { p_bg } else { p_gb };
                cx.audit.fault_move();
                let rng = &mut cx.rng;
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: fault.ge.sojourn — next Gilbert–Elliott state sojourn uniform
                let next = t - u.ln() / exit_rate;
                cx.ev
                    .schedule_lane(self.lane, next, EventKind::FaultShift { hop });
            }
            FaultConfig::Degrade { factor, period } => {
                fs.degraded = entering;
                fs.mu = if fs.degraded {
                    self.hot.mu * factor
                } else {
                    self.hot.mu
                };
                fs.det_service = 1.0 / fs.mu;
                cx.ev
                    .schedule_lane(self.lane, t + period, EventKind::FaultShift { hop });
            }
            FaultConfig::Iid { .. } | FaultConfig::LinkFlap { .. } => {
                unreachable!("FaultShift on a hop without a GE/Degrade fault")
            }
        }
    }
}
// lint: end
