//! The event queue: a hand-rolled 4-ary indexed min-heap of timestamped
//! events with deterministic FIFO tie-breaking, plus merged one-slot
//! side lanes for event streams that keep at most one instance pending
//! (the periodic `Sample` clock, per-hop departures, per-flow
//! self-rescheduling send chains).
//!
//! A binary heap alone is not deterministic for equal keys, so every
//! event carries a monotone sequence number; two events at the same
//! simulated time fire in the order they were scheduled. Determinism
//! matters here — every experiment in `EXPERIMENTS.md` quotes seeds, and
//! a re-run must reproduce the table byte for byte.
//!
//! # Hot-path layout
//!
//! This queue is the innermost data structure of every simulation run,
//! so it is built for speed without giving up the ordering contract:
//!
//! * **Packed keys.** `(t, seq)` is packed into one `u128`: the high 64
//!   bits are the time's order-preserving bit pattern (sign-flipped IEEE
//!   754, so `a < b ⇔ key(a) < key(b)` for all finite floats), the low
//!   64 bits the sequence number. One integer compare replaces an f64
//!   `partial_cmp` plus a tie-break branch.
//! * **4-ary layout.** Children of slot `i` live at `4i+1..=4i+4`:
//!   half the tree depth of a binary heap, so pops touch fewer cache
//!   lines for the same element count. Keys and payloads are parallel
//!   arrays, and pops sift bottom-up (sink the hole, bubble the leaf).
//! * **Merged side lanes.** Event streams with at most one pending
//!   instance — the periodic `Sample` clock (the arithmetic sequence
//!   `k·Δ`, via [`EventQueue::schedule_sample`]), each hop's next
//!   departure, each flow's self-rescheduling send chain (via
//!   [`EventQueue::schedule_lane`]) — never enter the heap: [`pop`]
//!   merges the cached lane minimum against the heap head. Lanes still
//!   consume sequence numbers exactly as pushed events would, which
//!   keeps the total order bit-identical to the historical all-in-heap
//!   schedule.
//! * **`debug_assert` on finiteness.** Event times are finite by
//!   construction in the engine; the check runs in debug/test builds
//!   only.
//!
//! [`pop`]: EventQueue::pop

use std::cmp::Ordering;

/// What happens when an event fires.
///
/// Kept at 24 bytes: the pop/push sift loops move the payload array in
/// lock-step with the key array, so widening the enum shows up directly
/// in the hot path — which is why [`EventKind::Arrival`] carries its
/// per-packet size factor as an `f32` (exact for the unit factor 1.0
/// and for the small dyadic factors the analytic pins use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A packet from `flow` reaches the queue of link `hop`.
    Arrival {
        /// Index of the sending flow.
        flow: usize,
        /// Index of the link whose queue the packet joins.
        hop: usize,
        /// Congestion marks accumulated at the hops already crossed
        /// (`false` for a packet fresh from its source).
        marked: bool,
        /// Service-time scale factor of this packet (its byte size over
        /// the run's reference bytes; exactly `1.0` for unit-packet
        /// runs, which never read it).
        size: f32,
        /// Retransmission attempt index: `0` for a first transmission,
        /// `k` for the k-th RTO retransmission of a workload packet
        /// (always `0` without a retransmission policy; see DESIGN §3i).
        attempt: u8,
    },
    /// The packet at the head of link `hop`'s queue finishes service.
    Departure {
        /// Index of the link whose head-of-line packet departs.
        hop: usize,
    },
    /// `flow` should emit its next packet (self-rescheduling).
    SendPacket {
        /// Index of the sending flow.
        flow: usize,
    },
    /// Take a queue-length observation on behalf of `flow` (the value
    /// travels back and fires as [`EventKind::Feedback`] one propagation
    /// delay later).
    Observe {
        /// Index of the flow to observe for.
        flow: usize,
    },
    /// A delayed queue-length observation arrives at `flow`.
    Feedback {
        /// Index of the observing flow.
        flow: usize,
        /// The queue length that was observed (already stale by the
        /// feedback delay when this fires).
        observed_queue: u64,
    },
    /// An acknowledgement returns to `flow`.
    Ack {
        /// Index of the flow being acked.
        flow: usize,
        /// Whether the packet saw a queue above target (DECbit-style
        /// congestion mark).
        marked: bool,
    },
    /// An on-off source toggles between its ON and OFF phases.
    Toggle {
        /// Index of the toggling flow.
        flow: usize,
    },
    /// The next finite flow of the run's `Workload` arrives
    /// (self-rescheduling open-loop clock; see DESIGN §3f).
    FlowArrival,
    /// Finite flow `flow` has accounted its last packet (delivered or
    /// dropped) and departs, releasing its arena slot.
    FlowComplete {
        /// Index of the completing flow (≥ the static-flow count).
        flow: usize,
    },
    /// Link `hop` goes down (LinkFlap fault, DESIGN §3i): the server
    /// stalls after the packet in service (if any) completes; arrivals
    /// park in the queue until the matching [`EventKind::LinkUp`].
    LinkDown {
        /// Index of the failing link.
        hop: usize,
    },
    /// Link `hop` comes back up: parked packets resume service and the
    /// next failure is scheduled.
    LinkUp {
        /// Index of the recovering link.
        hop: usize,
    },
    /// The per-hop fault process advances: a Gilbert–Elliott state flip
    /// or a `Degrade` capacity toggle (self-rescheduling).
    FaultShift {
        /// Index of the link whose fault state machine advances.
        hop: usize,
    },
    /// Periodic statistics sampling.
    Sample,
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated firing time.
    pub t: f64,
    /// Monotone tie-breaker (assigned by [`EventQueue::push`]).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (t, seq); times are finite by
        // construction. Kept as the *reference* ordering: the proptests
        // pit the indexed heap against a `BinaryHeap<Event>` using this
        // implementation.
        other
            .t
            .partial_cmp(&self.t)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Order-preserving bit pattern of a finite `f64`: for all finite
/// `a < b`, `ord_bits(a) < ord_bits(b)` as `u64`. Negative zero first
/// normalises to positive zero so the two compare equal, matching
/// `partial_cmp`.
#[inline]
fn ord_bits(t: f64) -> u64 {
    // +0.0 + -0.0 == +0.0, every other finite value is unchanged.
    let bits = (t + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`ord_bits`] (exact bijection on the mapped range).
#[inline]
fn ord_bits_inverse(mapped: u64) -> f64 {
    if mapped >> 63 == 1 {
        f64::from_bits(mapped ^ (1 << 63))
    } else {
        f64::from_bits(!mapped)
    }
}

/// Pack `(t, seq)` into one totally ordered `u128` key.
#[inline]
fn pack(t: f64, seq: u64) -> u128 {
    (u128::from(ord_bits(t)) << 64) | u128::from(seq)
}

/// Unpack a key back into `(t, seq)`.
#[inline]
fn unpack(key: u128) -> (f64, u64) {
    (ord_bits_inverse((key >> 64) as u64), key as u64)
}

/// Arity of the implicit heap.
const D: usize = 4;

/// Sentinel for an empty lane. Finite times always pack below this
/// (`ord_bits` of a finite f64 never fills the high 64 bits with ones).
const LANE_EMPTY: u128 = u128::MAX;

/// Deterministic min-queue of events: a 4-ary indexed min-heap on packed
/// `(t, seq)` keys, with the periodic sample stream merged in at pop
/// time instead of living in the heap.
///
/// Keys and payloads live in parallel arrays (structure-of-arrays): the
/// sift loops compare only 16-byte keys — four children span exactly one
/// cache line — and the fatter `EventKind` payloads move alongside
/// without ever being read during the search.
#[derive(Debug)]
pub struct EventQueue {
    keys: Vec<u128>,
    kinds: Vec<EventKind>,
    next_seq: u64,
    /// One-slot side lanes merged against the heap at pop time
    /// ([`LANE_EMPTY`] = vacant). The engine parks event streams that
    /// can only have one pending instance here — the sampling clock,
    /// each hop's next departure, and each flow's self-rescheduling
    /// send chain — so roughly half of a typical run's events never
    /// pay a heap sift.
    lane_keys: Vec<u128>,
    lane_kinds: Vec<EventKind>,
    /// Cached minimum over `lane_keys` (`LANE_EMPTY` when all vacant).
    lane_min: u128,
    /// Lane index of `lane_min` (meaningless when all vacant).
    lane_min_idx: usize,
    /// `FPK_CHECK` strict mode: verify per-pop key monotonicity.
    strict: bool,
    /// Last key handed out by [`Self::pop`] (0 = none yet; packed keys
    /// of finite times are always nonzero). Only read when `strict`.
    last_popped: u128,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            kinds: Vec::new(),
            next_seq: 0,
            lane_keys: Vec::new(),
            lane_kinds: Vec::new(),
            lane_min: LANE_EMPTY,
            lane_min_idx: 0,
            strict: false,
            last_popped: 0,
        }
    }
}

impl EventQueue {
    /// Empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every pending event and reset the sequence counter,
    /// keeping the allocated capacity (arena reuse across runs). Lanes
    /// are removed; call [`Self::set_lane_count`] to re-create them.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.kinds.clear();
        self.next_seq = 0;
        self.lane_keys.clear();
        self.lane_kinds.clear();
        self.lane_min = LANE_EMPTY;
        self.lane_min_idx = 0;
        self.last_popped = 0;
    }

    /// Enable `FPK_CHECK` strict mode: every [`Self::pop`] asserts the
    /// packed `(t, seq)` key strictly exceeds the previous pop's (keys
    /// are unique, so monotone non-strict would already be a bug).
    /// Resets the monotonicity watermark so a queue can be re-armed
    /// across runs.
    pub fn set_strict(&mut self, on: bool) {
        self.strict = on;
        self.last_popped = 0;
    }

    /// `FPK_CHECK`: verify the heap property over the whole key array
    /// and the cached lane minimum. O(n); called at sample points and
    /// at the horizon, never per event.
    ///
    /// # Panics
    /// When a parent key exceeds a child key or the cached lane min
    /// disagrees with a rescan.
    pub fn assert_valid(&self) {
        for (i, &k) in self.keys.iter().enumerate().skip(1) {
            let parent = (i - 1) / D;
            assert!(
                self.keys[parent] <= k,
                "FPK_CHECK: heap property violated at index {i} (parent {parent})"
            );
        }
        let min = self.lane_keys.iter().fold(LANE_EMPTY, |m, &k| m.min(k));
        assert_eq!(
            min, self.lane_min,
            "FPK_CHECK: cached lane minimum is stale"
        );
        if min != LANE_EMPTY {
            assert_eq!(
                self.lane_keys[self.lane_min_idx], min,
                "FPK_CHECK: cached lane-minimum index points at the wrong lane"
            );
        }
    }

    /// Create `n` vacant side lanes (dropping any pending lane events).
    pub fn set_lane_count(&mut self, n: usize) {
        self.lane_keys.clear();
        self.lane_keys.resize(n, LANE_EMPTY);
        self.lane_kinds.clear();
        self.lane_kinds.resize(n, EventKind::Sample);
        self.lane_min = LANE_EMPTY;
        self.lane_min_idx = 0;
    }

    /// Schedule `kind` at `t` on a vacant side lane instead of the heap.
    ///
    /// Consumes a sequence number exactly as [`push`] would, so the
    /// merged stream's position among equal-time events is bit-identical
    /// to having pushed into the heap. The caller must keep at most one
    /// pending event per lane (debug-checked) — which is what makes the
    /// one-slot channel sufficient.
    ///
    /// [`push`]: EventQueue::push
    // lint: hot-path arena(keys, kinds)
    pub fn schedule_lane(&mut self, lane: usize, t: f64, kind: EventKind) {
        debug_assert!(t.is_finite(), "event time must be finite, got {t}");
        debug_assert!(
            self.lane_keys[lane] == LANE_EMPTY,
            "lane {lane} already has a pending event"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(t, seq);
        self.lane_keys[lane] = key;
        self.lane_kinds[lane] = kind;
        if key < self.lane_min {
            self.lane_min = key;
            self.lane_min_idx = lane;
        }
    }

    /// Schedule `kind` at time `t`.
    ///
    /// Event times must be finite; this is checked in debug builds only
    /// (the engine constructs every time as `now + positive offset`).
    #[inline]
    pub fn push(&mut self, t: f64, kind: EventKind) {
        debug_assert!(t.is_finite(), "event time must be finite, got {t}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(t, seq);
        // Sift up from the new leaf with a hole, placing once.
        let mut hole = self.keys.len();
        self.keys.push(key);
        self.kinds.push(kind);
        while hole > 0 {
            let parent = (hole - 1) / D;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            self.kinds[hole] = self.kinds[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.kinds[hole] = kind;
    }

    /// Schedule the periodic statistics sample at time `t` on lane 0
    /// (creating the lane if the caller never sized the lane set).
    pub fn schedule_sample(&mut self, t: f64) {
        if self.lane_keys.is_empty() {
            self.set_lane_count(1);
        }
        self.schedule_lane(0, t, EventKind::Sample);
    }

    /// Pop the earliest event (ties in scheduling order), merging the
    /// side lanes against the heap head.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        // Finite-time keys never reach `u128::MAX`, so the vacancy
        // sentinel doubles as "heap empty" and one compare dispatches.
        // Keys are unique (monotone seq), so strict less-than picks the
        // same winner the one-heap ordering would.
        let lane_min = self.lane_min;
        let heap_min = self.keys.first().copied().unwrap_or(LANE_EMPTY);
        let (key, ev) = if lane_min < heap_min {
            (lane_min, self.pop_lane())
        } else if heap_min != LANE_EMPTY {
            (heap_min, self.pop_heap())
        } else {
            return None;
        };
        if self.strict {
            assert!(
                key > self.last_popped,
                "FPK_CHECK: popped event key did not advance (keys are unique and must be strictly increasing)"
            );
            self.last_popped = key;
        }
        ev
    }

    /// Pop the cached lane minimum and rescan the (tiny) lane set.
    #[inline]
    fn pop_lane(&mut self) -> Option<Event> {
        let lane = self.lane_min_idx;
        let key = self.lane_keys[lane];
        let kind = self.lane_kinds[lane];
        self.lane_keys[lane] = LANE_EMPTY;
        // Branchless min-reduce first (keys are unique except the
        // vacancy sentinel, so an equality scan then pins the index
        // without data-dependent branches in the reduce).
        let min = self.lane_keys.iter().fold(LANE_EMPTY, |m, &k| m.min(k));
        self.lane_min = min;
        if min != LANE_EMPTY {
            self.lane_min_idx = self
                .lane_keys
                .iter()
                .position(|&k| k == min)
                .expect("min key present");
        }
        let (t, seq) = unpack(key);
        Some(Event { t, seq, kind })
    }

    /// Pop the heap minimum (ignores the merged sample channel).
    fn pop_heap(&mut self) -> Option<Event> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        let top_key = self.keys[0];
        let top_kind = self.kinds[0];
        let last_key = self.keys.pop().expect("non-empty");
        let last_kind = self.kinds.pop().expect("non-empty");
        if n > 1 {
            // Bottom-up sift (Wegener): sink the root hole all the way
            // down along the min-child path without comparing against
            // the displaced leaf, then bubble the leaf up from the
            // bottom. The leaf almost always belongs near the bottom,
            // so this saves one comparison per level on the way down.
            // Any valid min-heap pops unique keys in the same order, so
            // the rearrangement cannot change the pop sequence.
            let len = n - 1;
            let mut hole = 0;
            loop {
                let first_child = hole * D + 1;
                if first_child >= len {
                    break;
                }
                let end = (first_child + D).min(len);
                let mut best = first_child;
                let mut best_key = self.keys[first_child];
                for c in first_child + 1..end {
                    let k = self.keys[c];
                    if k < best_key {
                        best = c;
                        best_key = k;
                    }
                }
                self.keys[hole] = best_key;
                self.kinds[hole] = self.kinds[best];
                hole = best;
            }
            // Bubble the displaced leaf up from the hole.
            while hole > 0 {
                let parent = (hole - 1) / D;
                if self.keys[parent] <= last_key {
                    break;
                }
                self.keys[hole] = self.keys[parent];
                self.kinds[hole] = self.kinds[parent];
                hole = parent;
            }
            self.keys[hole] = last_key;
            self.kinds[hole] = last_kind;
        }
        let (t, seq) = unpack(top_key);
        Some(Event {
            t,
            seq,
            kind: top_kind,
        })
    }
    // lint: end

    /// Number of pending events (including a pending merged sample).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len() + self.lane_keys.iter().filter(|&&k| k != LANE_EMPTY).count()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.lane_min == LANE_EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::Departure { hop: 0 });
        q.push(1.0, EventKind::Sample);
        q.push(
            2.0,
            EventKind::Arrival {
                flow: 0,
                hop: 0,
                marked: false,
                size: 1.0,
                attempt: 0,
            },
        );
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.t)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        for flow in 0..5 {
            q.push(
                1.0,
                EventKind::Arrival {
                    flow,
                    hop: 0,
                    marked: false,
                    size: 1.0,
                    attempt: 0,
                },
            );
        }
        let flows: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Arrival { flow, .. } => flow,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Sample);
        q.push(1.0, EventKind::Sample);
        assert_eq!(q.pop().unwrap().t, 1.0);
        q.push(0.5, EventKind::Sample);
        q.push(4.0, EventKind::Sample);
        assert_eq!(q.pop().unwrap().t, 0.5);
        assert_eq!(q.pop().unwrap().t, 4.0);
        assert_eq!(q.pop().unwrap().t, 5.0);
        assert!(q.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time_in_debug_builds() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::Sample);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, EventKind::Sample);
        q.push(2.0, EventKind::Sample);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn negative_zero_ties_break_by_seq() {
        // -0.0 and +0.0 compared Equal under the reference ordering, so
        // scheduling order must decide — the packed key normalises -0.0.
        let mut q = EventQueue::new();
        q.push(0.0, EventKind::Departure { hop: 0 });
        q.push(-0.0, EventKind::Departure { hop: 1 });
        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Departure { hop: 0 }));
    }

    #[test]
    fn negative_times_order_correctly() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Sample);
        q.push(-2.0, EventKind::Departure { hop: 0 });
        q.push(-1.0, EventKind::Departure { hop: 1 });
        let ts: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.t)).collect();
        assert_eq!(ts, vec![-2.0, -1.0, 1.0]);
    }

    #[test]
    fn merged_sample_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Departure { hop: 0 });
        q.schedule_sample(0.5);
        q.push(2.0, EventKind::Departure { hop: 1 });
        assert_eq!(q.len(), 3);
        let e = q.pop().unwrap();
        assert!(matches!(e.kind, EventKind::Sample));
        assert_eq!(e.t, 0.5);
        assert_eq!(q.pop().unwrap().t, 1.0);
        assert_eq!(q.pop().unwrap().t, 2.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn merged_sample_tie_breaks_by_seq_like_a_push() {
        // Same timestamp: the sample scheduled *before* an event fires
        // first, the sample scheduled *after* fires second — exactly the
        // FIFO contract the in-heap schedule had.
        let mut q = EventQueue::new();
        q.schedule_sample(1.0);
        q.push(1.0, EventKind::Departure { hop: 0 });
        assert!(matches!(q.pop().unwrap().kind, EventKind::Sample));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Departure { .. }));

        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Departure { hop: 0 });
        q.schedule_sample(1.0);
        assert!(matches!(q.pop().unwrap().kind, EventKind::Departure { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Sample));
    }

    #[test]
    fn sample_seq_consumption_matches_push() {
        // schedule_sample advances the same counter push uses: an event
        // pushed after a sample at the same time fires after it.
        let mut q = EventQueue::new();
        q.schedule_sample(2.0);
        q.push(2.0, EventKind::Departure { hop: 7 });
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert!(a.seq < b.seq);
        assert!(matches!(a.kind, EventKind::Sample));
    }

    #[test]
    fn clear_resets_but_keeps_working() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Sample);
        q.schedule_sample(2.0);
        q.clear();
        assert!(q.is_empty());
        q.push(3.0, EventKind::Departure { hop: 0 });
        let e = q.pop().unwrap();
        assert_eq!(e.seq, 0, "sequence counter must restart after clear");
        assert_eq!(e.t, 3.0);
    }

    #[test]
    fn matches_reference_binary_heap_on_dense_ties() {
        // A deterministic churn mixing many equal timestamps: the
        // indexed heap must pop in exactly the order a BinaryHeap of
        // `Event` (the reference Ord) produces.
        use std::collections::BinaryHeap;
        let mut fast = EventQueue::new();
        // Event's Ord is already reversed, so BinaryHeap<Event> is the
        // min-queue the old implementation used.
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut x = 0x9e37_79b9_u64;
        for round in 0..200u64 {
            for _ in 0..=(round % 7) {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
                // Coarse times force frequent ties.
                let t = ((x >> 59) as f64) * 0.25;
                let kind = EventKind::Arrival {
                    flow: (x % 13) as usize,
                    hop: 0,
                    marked: x & 1 == 0,
                    size: 1.0,
                    attempt: 0,
                };
                fast.push(t, kind);
                reference.push(Event { t, seq, kind });
                seq += 1;
            }
            for _ in 0..=(round % 5) {
                assert_eq!(fast.pop(), reference.pop());
            }
        }
        loop {
            let a = fast.pop();
            assert_eq!(a, reference.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
