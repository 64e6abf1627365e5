//! The flows of a running network as an engine component (DESIGN §3d):
//! the static source families' event handlers, the finite-flow
//! workload, and the one drop path and one exit path of every packet.

use crate::event::{EventKind, EventQueue};
use crate::hop::{Hop, Packet};
use crate::network::{
    alloc_lane, Ctx, DrawAudit, FlowSpec, Knobs, NetConfig, NetFlowStats, Route, Topology,
};
use crate::source::{rate_update, window_on_ack, SourceSpec, SourceState};
use crate::workload::{
    ideal_fct_sized, sample_cumulative, DistSummary, FlowSizeDist, PacketBytes, Workload,
    WorkloadStats,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Read-only per-flow hot fields, extracted once per flow from the fat
/// [`SourceSpec`] so an event pays one bounds check and one cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowHot {
    route: Route,
    prop_delay: f64,
    pub(crate) q_hat: f64,
    /// Window-like (window/DECbit): gets acks, reacts to drops.
    acked: bool,
    pub(crate) decbit: bool,
}

impl FlowHot {
    fn of(f: &FlowSpec) -> Self {
        Self {
            route: f.route,
            prop_delay: f.source.prop_delay(),
            q_hat: f.source.q_hat(),
            acked: matches!(
                f.source,
                SourceSpec::Window { .. } | SourceSpec::Decbit { .. }
            ),
            decbit: matches!(f.source, SourceSpec::Decbit { .. }),
        }
    }
}

/// Per-slot state of one finite workload flow, live from its
/// `FlowArrival` to the `FlowComplete` its last accounted packet fires.
#[derive(Debug, Clone, Copy, Default)]
struct DynFlow {
    /// Flow size in packets.
    size: u64,
    /// Packets accounted so far (delivered + dropped).
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

/// The finite-flow workload's run state; lives in the [`crate::NetArena`].
#[derive(Debug, Default)]
pub(crate) struct WorkloadState {
    /// Flow index of slot 0 (= the static flow count).
    base: usize,
    /// Counters, kept in their output record (never warm-up-gated:
    /// conservation is exact); `stats` fills in the derived fields.
    c: WorkloadStats,
    /// Per-slot flow state (slot `s` is flow `base + s`).
    slots: Vec<DynFlow>,
    /// Retired slots, reused LIFO: memory is O(active flows).
    free: Vec<u32>,
    /// Cumulative Zipf route weights.
    route_cum: Vec<f64>,
    /// Clean post-warm-up flow completion times (sorted at the end).
    fcts: Vec<f64>,
    /// Matching slowdown samples (FCT / ideal FCT).
    slowdowns: Vec<f64>,
}

impl WorkloadState {
    /// Clear every buffer (keeping capacity) for a new run.
    pub(crate) fn reset(&mut self, base: usize, workload: Option<&Workload>) {
        self.base = base;
        self.c = WorkloadStats::default();
        self.slots.clear();
        self.free.clear();
        self.fcts.clear();
        self.slowdowns.clear();
        self.route_cum.clear();
        if let Some(w) = workload {
            let mut acc = 0.0;
            self.route_cum.extend(w.route_weights().iter().map(|wt| {
                acc += wt;
                acc
            }));
        }
    }

    /// `FPK_CHECK` horizon invariants: free-list disjointness and
    /// bounds, packet conservation (`parked` = packets in down hops'
    /// rings), and the §3f draw-count audit.
    pub(crate) fn check_horizon(&self, w: &Workload, parked: u64, audit: &DrawAudit) {
        let mut freed = vec![false; self.slots.len()];
        for &s in &self.free {
            let s = s as usize;
            assert!(
                s < self.slots.len(),
                "FPK_CHECK: free list holds slot {s} beyond the {} allocated",
                self.slots.len()
            );
            assert!(
                !std::mem::replace(&mut freed[s], true),
                "FPK_CHECK: flow slot {s} appears twice on the free list"
            );
        }
        // Every unique packet sent was delivered, dropped, given up,
        // parked in a down hop, or is still in flight (unaccounted in
        // its slot, RTO timers included). `parked` is counted
        // independently, so the subtraction checks `parked ≤ unaccounted`.
        let c = &self.c;
        let unaccounted: u64 = self.slots.iter().map(|d| d.size - d.accounted).sum();
        let in_flight = unaccounted
            .checked_sub(parked)
            .expect("FPK_CHECK: parked packets exceed unaccounted packets");
        assert_eq!(
            c.packets_sent,
            c.packets_delivered + c.packets_dropped + c.packets_gave_up + in_flight + parked,
            "FPK_CHECK: workload packet conservation failed at t_end \
             (sent {} != delivered {} + dropped {} + gave-up {} + in-flight {in_flight} \
             + parked {parked})",
            c.packets_sent,
            c.packets_delivered,
            c.packets_dropped,
            c.packets_gave_up
        );
        // One route, size (stochastic sizes only) and gap draw per
        // arrival — plus the bootstrap gap, minus a capped final gap.
        assert_eq!(
            audit.route, c.arrived,
            "FPK_CHECK: route draws diverged from flow arrivals"
        );
        let expect_size = if matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
            0
        } else {
            c.arrived
        };
        assert_eq!(
            audit.size, expect_size,
            "FPK_CHECK: size draws diverged from the §3f contract"
        );
        assert!(
            audit.gap == c.arrived || audit.gap == c.arrived + 1,
            "FPK_CHECK: gap draws ({}) must be arrivals ({}) or arrivals + 1",
            audit.gap,
            c.arrived
        );
    }

    /// The run's [`WorkloadStats`], sorting the FCT and slowdown samples.
    pub(crate) fn stats(&mut self, t_end: f64) -> WorkloadStats {
        self.fcts.sort_by(f64::total_cmp);
        self.slowdowns.sort_by(f64::total_cmp);
        let c = &self.c;
        WorkloadStats {
            active_at_end: c.arrived - c.completed,
            goodput: c.packets_delivered as f64 / t_end,
            retx_overhead: c.retransmits as f64 / c.packets_sent.max(1) as f64,
            slot_high_water: self.slots.len() as u64,
            fct: DistSummary::from_sorted(&self.fcts),
            slowdown: DistSummary::from_sorted(&self.slowdowns),
            ..c.clone()
        }
    }
}

/// Every flow of a run: static sources first, then workload slots.
pub(crate) struct Traffic<'a> {
    specs: &'a [FlowSpec],
    /// Hot fields of every flow (grows as workload flows claim slots).
    pub(crate) hot: Vec<FlowHot>,
    pub(crate) states: Vec<SourceState>,
    pub(crate) stats: Vec<NetFlowStats>,
    /// Side lane of each rate/on-off flow's `SendPacket` chain.
    lane_send: Vec<usize>,
    pub(crate) workload: Option<&'a Workload>,
    topology: &'a Topology,
    /// Side lane of the workload's `FlowArrival` clock.
    lane_arrival: usize,
    /// Slowdown denominator scale: the mean byte factor (unit mode: 1).
    mean_factor: f64,
    pub(crate) wl: WorkloadState,
}

impl<'a> Traffic<'a> {
    /// Assemble the run's flows around the arena's `states` and `wl`,
    /// claiming side lanes (§3d) for each rate/on-off send chain, in
    /// flow order, then for the workload's arrival clock.
    pub(crate) fn new(
        specs: &'a [FlowSpec],
        workload: Option<&'a Workload>,
        config: &'a NetConfig,
        next_lane: &mut usize,
        states: Vec<SourceState>,
        wl: WorkloadState,
    ) -> Self {
        let lane_send = specs
            .iter()
            .map(|f| {
                let chain = matches!(f.source, SourceSpec::Rate { .. } | SourceSpec::OnOff { .. });
                alloc_lane(next_lane, chain)
            })
            .collect();
        Self {
            specs,
            hot: specs.iter().map(FlowHot::of).collect(),
            states,
            stats: specs
                .iter()
                .map(|f| NetFlowStats {
                    hops: f.route.hops(),
                    ..NetFlowStats::default()
                })
                .collect(),
            lane_send,
            workload,
            topology: &config.topology,
            lane_arrival: alloc_lane(next_lane, workload.is_some()),
            mean_factor: config.packet_bytes.map_or(1.0, |pb| pb.mean_factor()),
            wl,
        }
    }

    /// Bootstrap the static flows in flow order: send chains start at
    /// t = 0; window and DECbit flows send a burst of ⌊w0⌋ packets a
    /// hair apart, so FIFO order is well-defined.
    pub(crate) fn bootstrap<const BYTES: bool>(&mut self, cx: &mut Ctx) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let rng = &mut cx.rng;
        let specs = self.specs;
        for (i, f) in specs.iter().enumerate() {
            match &f.source {
                SourceSpec::Rate {
                    update_interval, ..
                } => {
                    ev.schedule_lane(self.lane_send[i], 0.0, EventKind::SendPacket { flow: i });
                    ev.push(*update_interval, EventKind::Observe { flow: i });
                }
                SourceSpec::OnOff { .. } => {
                    ev.schedule_lane(self.lane_send[i], 0.0, EventKind::SendPacket { flow: i });
                    if let SourceState::OnOff { chain_alive, .. } = &mut self.states[i] {
                        *chain_alive = true;
                    }
                    ev.push(0.0, EventKind::Toggle { flow: i });
                }
                SourceSpec::Window { w0, .. } | SourceSpec::Decbit { w0, .. } => {
                    let burst = w0.max(1.0).floor() as u64;
                    let (SourceState::Window { in_flight, .. }
                    | SourceState::Decbit { in_flight, .. }) = &mut self.states[i]
                    else {
                        unreachable!("state enum mismatches source spec for window flow")
                    };
                    *in_flight = burst;
                    for b in 0..burst {
                        let size = pkt_size::<BYTES>(k.pb, rng); // draw: window.bootstrap.pkt — size factor per initial-burst packet
                        launch(ev, i, &self.hot[i], b as f64 * 1e-6, size);
                    }
                    // Sent at t = 0: counted only without a warm-up.
                    if k.warmup <= 0.0 {
                        self.stats[i].sent += burst;
                    }
                }
            }
        }
    }

    /// The first workload flow arrives one gap after t = 0; `max_flows =
    /// Some(0)` draws and schedules nothing, so it perturbs no run.
    pub(crate) fn start_workload(&self, cx: &mut Ctx) {
        let (ev, audit) = (&mut cx.ev, &mut cx.audit);
        let rng = &mut cx.rng;
        let Some(w) = self.workload else { return };
        if w.max_flows != Some(0) {
            let gap = w.arrivals.sample_interarrival(rng); // draw: wl.bootstrap.gap — first interarrival gap after t = 0
            audit.gap += 1;
            ev.schedule_lane(self.lane_arrival, gap, EventKind::FlowArrival);
        }
    }
}

// lint: hot-path arena(ev, hot, slots, fcts, slowdowns, free)

/// A packet's size factor: one draw in byte mode (none for a
/// deterministic byte dist); unit mode draws nothing.
#[inline]
fn pkt_size<const BYTES: bool>(pb: Option<PacketBytes>, rng: &mut StdRng) -> f32 {
    if BYTES {
        let pb = pb.expect("byte-mode instantiation without packet_bytes");
        (pb.dist.sample(rng) as f64 / pb.ref_bytes.get()) as f32 // draw: pkt.size_factor — per-packet byte-size factor (byte mode only)
    } else {
        1.0
    }
}

/// Put a fresh packet on the wire at `leave`, one hop delay from the
/// route head — the one packet-creation step (callers draw `size` at
/// their own labelled sites).
#[inline]
fn launch(ev: &mut EventQueue, flow: usize, fh: &FlowHot, leave: f64, size: f32) {
    let pkt = Packet {
        flow,
        marked: false,
        size,
        attempt: 0,
    };
    ev.push(leave + fh.prop_delay, pkt.arrival(fh.route.first));
}

/// One-way delay from `hop` back to the source (`hop - first + 1`
/// propagation segments).
#[inline]
fn back_delay(fh: &FlowHot, hop: usize) -> f64 {
    (hop - fh.route.first + 1) as f64 * fh.prop_delay
}

/// Window-like flows get an ack from `hop` across the return path.
#[inline]
fn ack_from(fh: &FlowHot, flow: usize, hop: usize, t: f64, marked: bool, ev: &mut EventQueue) {
    if fh.acked {
        ev.push(t + back_delay(fh, hop), EventKind::Ack { flow, marked });
    }
}

impl Traffic<'_> {
    /// A static flow's in-loop send: count it after warm-up and launch.
    #[inline]
    fn emit(&mut self, flow: usize, t: f64, size: f32, warmup: f64, ev: &mut EventQueue) {
        if t >= warmup {
            self.stats[flow].sent += 1;
        }
        launch(ev, flow, &self.hot[flow], t, size);
    }

    /// `SendPacket`: one step of a rate or on-off flow's send chain.
    #[inline]
    pub(crate) fn send<const BYTES: bool>(&mut self, flow: usize, t: f64, cx: &mut Ctx) {
        match self.specs[flow].source {
            SourceSpec::Rate { poisson, .. } => self.rate_send::<BYTES>(flow, poisson, t, cx),
            SourceSpec::OnOff { peak_rate, .. } => {
                self.onoff_send::<BYTES>(flow, peak_rate, t, cx);
            }
            SourceSpec::Window { .. } | SourceSpec::Decbit { .. } => {
                unreachable!("SendPacket for a window flow")
            }
        }
    }

    /// Rate family: send at λ, reschedule after a Poisson or paced gap.
    #[inline]
    fn rate_send<const BYTES: bool>(&mut self, flow: usize, poisson: bool, t: f64, cx: &mut Ctx) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let rng = &mut cx.rng;
        let SourceState::Rate { lambda } = self.states[flow] else {
            unreachable!("rate spec paired with non-rate state")
        };
        let lam = lambda.max(1e-9);
        let size = pkt_size::<BYTES>(k.pb, rng); // draw: rate.pkt — size factor per rate-source packet
        self.emit(flow, t, size, k.warmup, ev);
        let gap = if poisson {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: rate.gap — Poisson interpacket gap uniform
            -u.ln() / lam
        } else {
            1.0 / lam
        };
        ev.schedule_lane(
            self.lane_send[flow],
            t + gap,
            EventKind::SendPacket { flow },
        );
    }

    /// On-off family: send at the peak rate while ON; the chain dies in
    /// the OFF phase and the next toggle-to-ON starts a fresh one.
    #[inline]
    fn onoff_send<const BYTES: bool>(&mut self, flow: usize, peak: f64, t: f64, cx: &mut Ctx) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let rng = &mut cx.rng;
        let SourceState::OnOff { on, chain_alive } = &mut self.states[flow] else {
            unreachable!("on-off spec paired with non-on-off state")
        };
        if !*on {
            *chain_alive = false;
            return;
        }
        let size = pkt_size::<BYTES>(k.pb, rng); // draw: onoff.pkt — size factor per on-off packet
        self.emit(flow, t, size, k.warmup, ev);
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.gap — ON-phase interpacket gap uniform
        let next = t - u.ln() / peak.max(1e-9);
        ev.schedule_lane(self.lane_send[flow], next, EventKind::SendPacket { flow });
    }

    /// On-off `Toggle`: enter the next phase (t = 0 enters ON) and draw
    /// its sojourn.
    #[inline]
    pub(crate) fn onoff_toggle(&mut self, flow: usize, t: f64, cx: &mut Ctx) {
        let ev = &mut cx.ev;
        let rng = &mut cx.rng;
        let SourceSpec::OnOff {
            peak_rate,
            mean_on,
            mean_off,
            ..
        } = self.specs[flow].source
        else {
            unreachable!("Toggle for non-on-off flow")
        };
        let SourceState::OnOff { on, chain_alive } = &mut self.states[flow] else {
            unreachable!("Toggle for a flow without on-off state")
        };
        let entering_on = !*on || t == 0.0;
        let sojourn_mean = if entering_on { mean_on } else { mean_off };
        if t > 0.0 {
            *on = !*on;
        }
        if *on && !*chain_alive {
            *chain_alive = true;
            // A full gap after the phase starts: sending at the toggle
            // itself would bias the mean rate upward.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.first_send — first-send gap after toggle-to-ON
            let next = t - u.ln() / peak_rate.max(1e-9);
            ev.schedule_lane(self.lane_send[flow], next, EventKind::SendPacket { flow });
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: onoff.sojourn — next phase-sojourn uniform
        let next = t - u.ln() * sojourn_mean.max(1e-9);
        ev.push(next, EventKind::Toggle { flow });
    }

    /// Rate `Observe`: feed the route's most congested queue back one
    /// path delay later.
    #[inline]
    pub(crate) fn rate_observe(&self, flow: usize, t: f64, hops: &[Hop], ev: &mut EventQueue) {
        let SourceSpec::Rate {
            update_interval, ..
        } = self.specs[flow].source
        else {
            unreachable!("Observe for non-rate flow")
        };
        let fh = &self.hot[flow];
        let observed_queue = hops[fh.route.first..=fh.route.last]
            .iter()
            .map(Hop::q_len)
            .max()
            .unwrap_or(0);
        ev.push(
            t + back_delay(fh, fh.route.last),
            EventKind::Feedback {
                flow,
                observed_queue,
            },
        );
        ev.push(t + update_interval, EventKind::Observe { flow });
    }

    /// Rate `Feedback`: apply the control law to the stale queue.
    #[inline]
    pub(crate) fn rate_feedback(&mut self, flow: usize, observed_queue: u64) {
        let SourceSpec::Rate {
            law,
            update_interval,
            ..
        } = &self.specs[flow].source
        else {
            unreachable!("Feedback for non-rate flow")
        };
        let SourceState::Rate { lambda } = &mut self.states[flow] else {
            unreachable!("rate spec paired with non-rate state")
        };
        *lambda = rate_update(law, *lambda, observed_queue as f64, *update_interval);
    }

    /// Window and DECbit `Ack`: update the window, send what it allows.
    #[inline]
    pub(crate) fn window_ack<const BYTES: bool>(
        &mut self,
        flow: usize,
        marked: bool,
        t: f64,
        cx: &mut Ctx,
    ) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let rng = &mut cx.rng;
        let (allowed, in_flight) = match (&self.specs[flow].source, &mut self.states[flow]) {
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
        let to_send = allowed.saturating_sub(*in_flight);
        *in_flight += to_send;
        for _ in 0..to_send {
            let size = pkt_size::<BYTES>(k.pb, rng); // draw: ack.pkt — size factor per ack-clocked window packet
            self.emit(flow, t, size, k.warmup, ev);
        }
    }

    /// A packet refused at `hop` — the one drop path. A window-like
    /// static flow gets a marked ack (drop-as-signal). A workload drop
    /// is final without an RTO policy; with one the packet re-enters
    /// at the route head after its backed-off timeout (no draws) until
    /// it exhausts `max_retries` and is given up.
    #[inline]
    pub(crate) fn drop(&mut self, pkt: Packet, hop: usize, t: f64, cx: &mut Ctx) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let fh = self.hot[pkt.flow];
        if pkt.flow < self.wl.base {
            if t >= k.warmup {
                self.stats[pkt.flow].dropped += 1;
            }
            ack_from(&fh, pkt.flow, hop, t, true, ev);
            return;
        }
        match k.rto {
            None => {
                self.wl.c.packets_dropped += 1;
                self.account(pkt.flow, t, ev);
            }
            Some(rto) if u32::from(pkt.attempt) < rto.max_retries => {
                self.wl.c.retransmits += 1;
                let wait = rto.wait_before(u32::from(pkt.attempt) + 1);
                let retry = Packet {
                    marked: false,
                    attempt: pkt.attempt + 1,
                    ..pkt
                };
                ev.push(t + wait + fh.prop_delay, retry.arrival(fh.route.first));
            }
            Some(_) => {
                self.wl.c.packets_gave_up += 1;
                self.wl.slots[pkt.flow - self.wl.base].gave_up = true;
                self.account(pkt.flow, t, ev);
            }
        }
    }

    /// A packet that finished service at `hop` — the one exit path:
    /// forward it one hop delay on, or at its last hop deliver it
    /// (acking window-like flows across the whole return path).
    #[inline]
    pub(crate) fn pass_on(&mut self, pkt: Packet, hop: usize, t: f64, cx: &mut Ctx) {
        let (k, ev) = (&cx.k, &mut cx.ev);
        let fh = self.hot[pkt.flow];
        if hop != fh.route.last {
            ev.push(t + fh.prop_delay, pkt.arrival(hop + 1));
        } else if pkt.flow < self.wl.base {
            if t >= k.warmup {
                self.stats[pkt.flow].delivered += 1;
            }
            ack_from(&fh, pkt.flow, hop, t, pkt.marked, ev);
        } else {
            self.wl.c.packets_delivered += 1;
            self.wl.slots[pkt.flow - self.wl.base].delivered += 1;
            self.account(pkt.flow, t, ev);
        }
    }

    /// Account a workload packet's end, completing the flow at the last.
    #[inline]
    fn account(&mut self, flow: usize, t: f64, ev: &mut EventQueue) {
        let d = &mut self.wl.slots[flow - self.wl.base];
        d.accounted += 1;
        if d.accounted == d.size {
            ev.push(t, EventKind::FlowComplete { flow });
        }
    }

    /// `FlowArrival`: draw size and route (§3f order), claim a slot,
    /// inject the transfer as a 1 µs-paced burst (so an idle network
    /// completes it in exactly `ideal_fct`), and schedule the next
    /// arrival below the admission cap. Finite flows are open-loop.
    pub(crate) fn flow_arrival<const BYTES: bool>(&mut self, t: f64, cx: &mut Ctx) {
        let (k, ev, audit) = (&cx.k, &mut cx.ev, &mut cx.audit);
        let rng = &mut cx.rng;
        let w = self.workload.expect("FlowArrival without a workload");
        let size = w.sizes.sample(rng); // draw: wl.flow.size — flow size in packets (deterministic dists draw nothing)
        let u: f64 = rng.gen::<f64>(); // draw: wl.flow.route — route-choice uniform
        let route = w.routes[sample_cumulative(&self.wl.route_cum, u)];
        audit.route += 1;
        if !matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
            audit.size += 1;
        }
        let fh = FlowHot {
            route,
            prop_delay: w.prop_delay,
            q_hat: f64::INFINITY,
            acked: false,
            decbit: false,
        };
        let d = DynFlow {
            size,
            arrival_t: t,
            ideal: ideal_fct_sized(self.topology, route, size, w.prop_delay, self.mean_factor),
            ..DynFlow::default()
        };
        let base = self.wl.base;
        let flow = match self.wl.free.pop() {
            Some(s) => {
                let s = s as usize;
                self.hot[base + s] = fh;
                self.wl.slots[s] = d;
                base + s
            }
            None => {
                self.hot.push(fh);
                self.wl.slots.push(d);
                self.hot.len() - 1
            }
        };
        assert!(
            flow < (1 << 31),
            "run_network: workload flow index exceeds the 31-bit FIFO word"
        );
        let c = &mut self.wl.c;
        c.arrived += 1;
        c.peak_active = c.peak_active.max(c.arrived - c.completed);
        c.packets_sent += size;
        for b in 0..size {
            let size = pkt_size::<BYTES>(k.pb, rng); // draw: wl.flow.pkt — size factor per workload-burst packet
            launch(ev, flow, &fh, t + b as f64 * 1e-6, size);
        }
        if w.max_flows.is_none_or(|m| self.wl.c.arrived < m) {
            let gap = w.arrivals.sample_interarrival(rng); // draw: wl.flow.gap — next interarrival gap
            audit.gap += 1;
            ev.schedule_lane(self.lane_arrival, t + gap, EventKind::FlowArrival);
        }
    }

    /// `FlowComplete`: sample FCT and slowdown for a clean post-warm-up
    /// flow and recycle its slot (nothing references it any more).
    pub(crate) fn flow_complete(&mut self, flow: usize, t: f64, k: &Knobs) {
        let w = self.workload.expect("FlowComplete without a workload");
        let wl = &mut self.wl;
        let slot = flow - wl.base;
        let d = wl.slots[slot];
        wl.c.completed += 1;
        if d.gave_up {
            wl.c.flows_gave_up += 1;
        }
        if d.delivered == d.size {
            wl.c.completed_clean += 1;
            if d.arrival_t >= k.warmup {
                let fct = t - d.arrival_t;
                wl.fcts.push(fct);
                wl.slowdowns.push(fct / d.ideal);
            }
        }
        if k.strict {
            assert!(
                !wl.free.contains(&(slot as u32)),
                "FPK_CHECK: flow slot {slot} completed while already on the free list"
            );
            assert_eq!(
                d.accounted, d.size,
                "FPK_CHECK: flow slot {slot} completed with {} of {} packets accounted",
                d.accounted, d.size
            );
        }
        if w.recycle_slots {
            wl.free.push(slot as u32);
        }
    }
}
// lint: end
