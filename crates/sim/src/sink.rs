//! Execution-wide event tracing: the [`EventSink`] trait and the engine's
//! event vocabulary.
//!
//! The engine emits an [`EngineEvent`] at every transition it performs —
//! node wakes, send events, per-edge transmissions, deliveries, timer
//! arm/cancel/fire, rate-schedule steps, and protocol rate-multiplier
//! changes. A sink installed via
//! [`EngineBuilder::event_sink`](crate::EngineBuilder::event_sink) receives
//! them synchronously, in deterministic execution order, which makes an
//! event stream a *complete, replayable record of the execution*: logical
//! clocks are piecewise linear between events, so nothing happens that the
//! stream does not show.
//!
//! The default sink is [`NullSink`]; its hooks are empty `#[inline]` bodies
//! behind a monomorphized type parameter, so an uninstrumented engine
//! compiles to exactly the pre-observability code (see the
//! `observer_overhead` micro-benchmark).
//!
//! Sinks that need *state* rather than *transitions* (skew observers,
//! invariant watchdogs, clock traces) also implement [`EventSink::sample`],
//! which the engine calls after each processed event while
//! [`EventSink::wants_snapshots`] returns `true`. It names the nodes whose
//! clock trajectory the event changed and lends a lazy [`ClockView`], so a
//! sample costs whatever the sink reads: `O(deg)` for an event-local sink,
//! `O(n)` only for one that asks for the whole clock vector
//! ([`ClockView::values`]). A sink that always wants the vector implements
//! [`EventSink::snapshot`] instead, which the default `sample` feeds.

use gcs_graph::NodeId;

use crate::delay::DropCause;
use crate::protocol::TimerId;

/// One engine transition, in the order the engine performed it.
///
/// All payloads are plain `Copy` data (no message bodies): the stream
/// describes the *shape* of the execution, which is what the paper's
/// complexity and indistinguishability arguments are about, and keeps
/// recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// A node was initialized (spontaneous wake or first delivery).
    Wake {
        /// The initialized node.
        node: NodeId,
        /// Real time of the wake.
        t: f64,
        /// The node's hardware reading at the wake (its `H_v` origin).
        hw: f64,
    },
    /// A protocol issued a send action (one per `send`/`send_all`; the
    /// paper's unit of message complexity, Section 6.1).
    Send {
        /// The sending node.
        node: NodeId,
        /// Real time of the send event.
        t: f64,
        /// The sender's hardware reading.
        hw: f64,
    },
    /// One per-edge message copy left a node.
    Transmit {
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Real time of the transmission.
        t: f64,
        /// The real-time delay chosen by the delay model, when it chose
        /// one (`None` for receiver-hardware-targeted deliveries, whose
        /// real delay is only known once the receiver's clock gets there).
        delay: Option<f64>,
    },
    /// The delay model dropped a transmission.
    ///
    /// `dst` is declared first: every variant then leads with its primary
    /// node (the recorder's partition key), which lets the field
    /// extraction compile to a single load instead of a ten-way branch.
    /// Construction and matching use field names, so the order is
    /// invisible to callers.
    Drop {
        /// Intended receiver.
        dst: NodeId,
        /// Sender of the dropped copy.
        src: NodeId,
        /// Real time of the drop decision.
        t: f64,
        /// Whether the model itself (e.g. `lossy`) or an injected fault
        /// layer dropped the copy.
        cause: DropCause,
    },
    /// A message reached its receiver.
    ///
    /// `dst` first, like [`EngineEvent::Drop`] — see there.
    Deliver {
        /// Receiver.
        dst: NodeId,
        /// Sender.
        src: NodeId,
        /// Real time of the delivery.
        t: f64,
        /// The receiver's hardware reading at delivery.
        dst_hw: f64,
    },
    /// A timer slot was armed (or re-armed, replacing its previous target).
    TimerSet {
        /// Owning node.
        node: NodeId,
        /// The slot.
        timer: TimerId,
        /// The hardware value at which the slot fires.
        target_hw: f64,
        /// Real time of the arming.
        t: f64,
    },
    /// A pending timer slot was cancelled.
    TimerCancel {
        /// Owning node.
        node: NodeId,
        /// The slot.
        timer: TimerId,
        /// Real time of the cancellation.
        t: f64,
    },
    /// A timer fired.
    TimerFire {
        /// Owning node.
        node: NodeId,
        /// The slot that fired.
        timer: TimerId,
        /// Real time of the firing.
        t: f64,
        /// The node's hardware reading when it fired.
        hw: f64,
    },
    /// A pre-configured hardware rate-schedule step was applied.
    RateStep {
        /// The node whose hardware rate changed.
        node: NodeId,
        /// Real time of the step.
        t: f64,
        /// The new hardware rate.
        rate: f64,
    },
    /// A protocol changed its logical rate multiplier (`A^opt`'s
    /// `setClockRate` decision, Algorithm 3).
    MultiplierChange {
        /// The node whose multiplier changed.
        node: NodeId,
        /// Real time of the change.
        t: f64,
        /// The new multiplier (e.g. `1` or `1 + μ`).
        multiplier: f64,
    },
}

impl EngineEvent {
    /// The real time at which the event occurred.
    pub fn time(&self) -> f64 {
        match *self {
            EngineEvent::Wake { t, .. }
            | EngineEvent::Send { t, .. }
            | EngineEvent::Transmit { t, .. }
            | EngineEvent::Drop { t, .. }
            | EngineEvent::Deliver { t, .. }
            | EngineEvent::TimerSet { t, .. }
            | EngineEvent::TimerCancel { t, .. }
            | EngineEvent::TimerFire { t, .. }
            | EngineEvent::RateStep { t, .. }
            | EngineEvent::MultiplierChange { t, .. } => t,
        }
    }

    /// A short stable label for the event kind (used by metric counters
    /// and the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        KIND_LABELS[self.kind_index()]
    }

    /// A dense index for the event kind, `0..KIND_COUNT`, stable across
    /// releases: the slot of preresolved per-kind counters and of
    /// [`KIND_LABELS`].
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            EngineEvent::Wake { .. } => 0,
            EngineEvent::Send { .. } => 1,
            EngineEvent::Transmit { .. } => 2,
            EngineEvent::Drop { .. } => 3,
            EngineEvent::Deliver { .. } => 4,
            EngineEvent::TimerSet { .. } => 5,
            EngineEvent::TimerCancel { .. } => 6,
            EngineEvent::TimerFire { .. } => 7,
            EngineEvent::RateStep { .. } => 8,
            EngineEvent::MultiplierChange { .. } => 9,
        }
    }
}

/// Number of distinct [`EngineEvent`] kinds.
pub const KIND_COUNT: usize = 10;

/// Kind labels, indexed by [`EngineEvent::kind_index`].
pub const KIND_LABELS: [&str; KIND_COUNT] = [
    "wake",
    "send",
    "transmit",
    "drop",
    "deliver",
    "timer_set",
    "timer_cancel",
    "timer_fire",
    "rate_step",
    "multiplier",
];

/// Lazy access to every node's logical clock at the instant of an
/// [`EventSink::sample`].
///
/// Between two events of node `v`, `L_v` is a fixed function of real time
/// (its hardware clock runs at a fixed rate and its protocol state does not
/// change), so [`ClockView::value_at`] can read `v`'s clock at any later
/// time `T` under that state: the value `v` will show at `T` unless an
/// event touches `v` first. By the [`Protocol::logical_value`] contract
/// (correctly rounded, monotone operations on positive rates and
/// multipliers) that value is non-decreasing in `T`.
///
/// [`Protocol::logical_value`]: crate::Protocol::logical_value
pub trait ClockView {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the view has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `L_v(now)` — bit-identical to entry `v` of [`ClockView::values`].
    fn value(&self, v: NodeId) -> f64;

    /// Every node's clock at this instant, indexed by node. The engine's
    /// view builds the vector at the first call of a sample, `O(n)`, and
    /// hands the same one to every later call of that sample.
    fn values(&self) -> &[f64];

    /// `L_v(t)` for `t ≥ now`, extrapolated under `v`'s current state. A
    /// node no event touched since the previous sample may also be read
    /// back to that sample's instant, bit-identical to what it showed then.
    fn value_at(&self, v: NodeId, t: f64) -> f64;

    /// A lower bound α on the rate of every running clock; `0` (the
    /// default) claims nothing beyond monotonicity.
    ///
    /// A view that reports α > 0 also promises that between two events of
    /// `v`, `value_at(v, ·)` is an affine function of `t` up to a relative
    /// error of `2⁻⁴⁴·|value|` (the engine's clocks meet this under the
    /// [`Protocol::min_rate_multiplier`] contract). A clock that has not
    /// started reads a constant. A view whose clocks run slower than its α
    /// costs the event-local observer time, never correctness.
    ///
    /// [`Protocol::min_rate_multiplier`]: crate::Protocol::min_rate_multiplier
    fn rate_floor(&self) -> f64 {
        0.0
    }

    /// The previous sample's instant `t₀` (the engine's last sampling
    /// point) and, for each entry of the `touched` list passed with this
    /// view, that node's clock at `t₀`: read before the touching event
    /// changed it, so bit-identical to its entry in a clock vector taken at
    /// `t₀`. Only the first entry of a repeated node is that; later ones
    /// read its state after the earlier touches. `None` (the default) for
    /// a view that does not record them; the engine's records them for a
    /// sink that asks ([`EventSink::wants_previous_sample`]).
    fn previous_sample(&self) -> Option<(f64, &[f64])> {
        None
    }
}

/// Receiver of engine transitions (and, optionally, post-event state
/// samples).
///
/// All methods have no-op defaults, so a sink implements only what it
/// needs.
pub trait EventSink {
    /// Whether the engine should bother constructing and reporting events.
    ///
    /// [`NullSink`] returns `false`, letting the optimizer erase every
    /// hook in uninstrumented engines.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Called for every engine transition, in execution order.
    #[inline]
    fn record(&mut self, event: &EngineEvent) {
        let _ = event;
    }

    /// Whether the sink wants [`EventSink::sample`] calls.
    ///
    /// The engine asks before every sample. Touches are recorded only while
    /// this is `true`: a sink that turns it back on has missed the touches
    /// in between and must not trust state it built before.
    #[inline]
    fn wants_snapshots(&self) -> bool {
        false
    }

    /// Whether samples should also carry each touched node's clock at the
    /// previous sample ([`ClockView::previous_sample`]), at the cost of one
    /// clock read per touch. Asked at every touch.
    #[inline]
    fn wants_previous_sample(&self) -> bool {
        false
    }

    /// Called after each processed event — and once at the end of every
    /// [`Engine::run_until`](crate::Engine::run_until) horizon — with the
    /// current event-queue depth: `touched` lists the nodes whose clock
    /// trajectory changed since the previous sample (the event's home
    /// node, plus any [`Engine::set_hardware_rate`] target; possibly with
    /// repeats, and empty for stale queue entries and the horizon pass),
    /// and `clocks` reads any node's clock, or all of them, on demand.
    ///
    /// The default hands the whole clock vector to [`EventSink::snapshot`].
    ///
    /// [`Engine::set_hardware_rate`]: crate::Engine::set_hardware_rate
    #[inline]
    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        let _ = touched;
        self.snapshot(t, clocks.values(), queue_depth);
    }

    /// The default [`EventSink::sample`]'s callee: the exact logical clock
    /// values of all nodes, and the current event-queue depth.
    #[inline]
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        let _ = (t, clocks, queue_depth);
    }
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

impl<S: EventSink> EventSink for Option<S> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(|s| s.enabled())
    }
    fn record(&mut self, event: &EngineEvent) {
        if let Some(s) = self {
            s.record(event);
        }
    }
    fn wants_snapshots(&self) -> bool {
        self.as_ref().is_some_and(|s| s.wants_snapshots())
    }
    fn wants_previous_sample(&self) -> bool {
        self.as_ref().is_some_and(|s| s.wants_previous_sample())
    }
    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        if let Some(s) = self {
            s.sample(t, touched, clocks, queue_depth);
        }
    }
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        if let Some(s) = self {
            s.snapshot(t, clocks, queue_depth);
        }
    }
}

/// A growable, bounded-memory buffer of the most recent events — the
/// "flight recorder" behind the analysis layer's invariant watchdog, usable
/// on its own for debugging.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    events: std::collections::VecDeque<EngineEvent>,
    capacity: usize,
    recorded: u64,
}

impl RingBufferSink {
    /// Creates a buffer holding the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity");
        RingBufferSink {
            events: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EngineEvent> {
        self.events.iter()
    }

    /// Total number of events recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &EngineEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(*event);
        self.recorded += 1;
    }
}

/// A sink that simply collects every event into a `Vec` — handy in tests.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The recorded events, in execution order.
    pub events: Vec<EngineEvent>,
}

impl EventSink for VecSink {
    fn record(&mut self, event: &EngineEvent) {
        self.events.push(*event);
    }
}

// ---------------------------------------------------------------------------
// Flight recorder: raw events in per-partition bounded rings.
// ---------------------------------------------------------------------------

/// One partition's bounded ring of `(seq, event)` slots, overwritten
/// oldest-first once full. Slots hold the event verbatim next to its full
/// sequence number: the hot-path store is then a single straight 56-byte
/// `Copy` with no per-kind field shuffling — measured cheaper than every
/// denser layout tried (inline 40-byte wire frames, typed frame-field
/// slots, a split `u32` sequence side-array, a staged L1 buffer), because
/// at ~2.4 events per engine step the bottleneck is store instructions,
/// not ring footprint. Capacity is a power of two, and the write cursor
/// is a monotonic push count masked down on use: deriving the mask from
/// `buf.len()` right at the indexing site lets the compiler prove the
/// index in bounds, so the hot path is one slot store and one increment —
/// no wrap branch, no live-length bookkeeping, no bounds check.
#[derive(Debug, Clone)]
struct EventRing {
    buf: Vec<(u64, EngineEvent)>,
    /// Total slots ever pushed; the next write goes to
    /// `head & (buf.len() - 1)`.
    head: u64,
}

/// The ring slot filler — never observable, overwritten before the live
/// window covers it.
const EMPTY_SLOT: (u64, EngineEvent) = (
    0,
    EngineEvent::Wake {
        node: NodeId(0),
        t: 0.0,
        hw: 0.0,
    },
);

impl EventRing {
    fn new(frames: usize) -> Self {
        EventRing {
            buf: vec![EMPTY_SLOT; frames],
            head: 0,
        }
    }

    #[inline]
    fn push(&mut self, seq: u64, event: &EngineEvent) {
        let mask = self.buf.len() - 1;
        self.buf[(self.head as usize) & mask] = (seq, *event);
        self.head += 1;
    }

    /// Slots currently live (`<= buf.len()`).
    fn len(&self) -> usize {
        (self.head as usize).min(self.buf.len())
    }

    /// Slot at logical position `i` (0 = oldest retained).
    fn slot(&self, i: usize) -> (u64, EngineEvent) {
        debug_assert!(i < self.len());
        let mask = self.buf.len() - 1;
        let start = self.head as usize - self.len();
        self.buf[(start + i) & mask]
    }
}

/// The always-on flight recorder: every engine event is buffered raw into
/// one of several bounded per-partition rings, with **zero allocation at
/// steady state** — all buffers are preallocated at construction (the same
/// bar `NullSink`-style hot paths meet, enforced by `tests/zero_alloc.rs`).
/// The hot path is a plain `Copy` store plus a masked ring advance;
/// serialization happens only when a window is dumped.
///
/// Events are partitioned by their primary node (`node % partitions`), so
/// one chatty node cannot evict the whole window; a per-slot global
/// sequence number lets [`RecorderSink::window_events`] merge the rings
/// back into exact execution order at dump time. Because partitioning and
/// sequencing are functions of the (deterministic) record order alone, the
/// retained window is byte-identical across same-seed reruns.
///
/// One event kind never enters the rings: `Wake`. The offline clock
/// reconstruction cannot anchor a node's trajectory without its wake, and
/// any run longer than the window would evict the wakes (they all happen
/// at the start), leaving a dump that `gcs trace blame` cannot explain.
/// Wakes are pinned in a side table instead — one slot per node, written
/// once at wake time (startup, not steady state) and merged back into
/// sequence order at dump time.
#[derive(Debug, Clone)]
pub struct RecorderSink {
    /// Always a power-of-two count of rings, so the hot path masks
    /// instead of dividing.
    partitions: Vec<EventRing>,
    /// Pinned `Wake` events (see the type-level docs) — bounded by the
    /// node count, never evicted.
    wakes: Vec<(u64, EngineEvent)>,
    seq: u64,
}

/// Default partition count (power of two).
pub const DEFAULT_RECORDER_PARTITIONS: usize = 8;

/// Default retained frames per partition (power of two); with
/// [`DEFAULT_RECORDER_PARTITIONS`] the whole window holds the last
/// `8 * 1024 = 8192` events in under half a megabyte, regardless of
/// run length. The footprint is deliberately small enough to share L2
/// with the engine's own working set — the always-on overhead budget
/// is cache lines, not instructions.
pub const DEFAULT_RECORDER_FRAMES: usize = 1024;

impl Default for RecorderSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RecorderSink {
    /// A recorder with the default geometry
    /// ([`DEFAULT_RECORDER_PARTITIONS`] × [`DEFAULT_RECORDER_FRAMES`]).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_RECORDER_PARTITIONS, DEFAULT_RECORDER_FRAMES)
    }

    /// A recorder with `partitions` rings of `frames` frames each. Both
    /// are rounded up to powers of two; both must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0` or `frames == 0`.
    pub fn with_geometry(partitions: usize, frames: usize) -> Self {
        assert!(partitions > 0, "recorder needs at least one partition");
        assert!(frames > 0, "recorder partitions need capacity");
        let partitions = partitions.next_power_of_two();
        let frames = frames.next_power_of_two();
        RecorderSink {
            partitions: (0..partitions).map(|_| EventRing::new(frames)).collect(),
            wakes: Vec::new(),
            seq: 0,
        }
    }

    /// Forgets every recorded event, keeping the rings' memory: the
    /// recorder then behaves exactly like a fresh one of its geometry.
    pub fn clear(&mut self) {
        for ring in &mut self.partitions {
            ring.head = 0;
        }
        self.wakes.clear();
        self.seq = 0;
    }

    /// Total events recorded over the recorder's lifetime (including
    /// events already evicted from the window).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events currently retained (pinned wakes plus all partition rings).
    pub fn window_len(&self) -> usize {
        self.wakes.len() + self.partitions.iter().map(|p| p.len()).sum::<usize>()
    }

    /// The retained window as `(seq, event)` pairs merged back into exact
    /// execution order (ascending global sequence number). Allocates —
    /// dump path only.
    fn window_tagged(&self) -> Vec<(u64, EngineEvent)> {
        let mut tagged: Vec<(u64, EngineEvent)> = Vec::with_capacity(self.window_len());
        tagged.extend_from_slice(&self.wakes);
        for ring in &self.partitions {
            for i in 0..ring.len() {
                tagged.push(ring.slot(i));
            }
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged
    }

    /// The retained window, merged back into exact execution order
    /// (ascending global sequence number). Allocates — dump path only.
    pub fn window_events(&self) -> Vec<EngineEvent> {
        self.window_tagged().into_iter().map(|(_, e)| e).collect()
    }

    /// The primary node of an event — the partition key. Deliveries and
    /// drops belong to the receiver-side partition, so one chatty sender
    /// cannot evict everyone else's history; transmissions belong to the
    /// sender's.
    #[inline]
    fn primary_node(event: &EngineEvent) -> usize {
        match *event {
            EngineEvent::Wake { node, .. }
            | EngineEvent::Send { node, .. }
            | EngineEvent::TimerSet { node, .. }
            | EngineEvent::TimerCancel { node, .. }
            | EngineEvent::TimerFire { node, .. }
            | EngineEvent::RateStep { node, .. }
            | EngineEvent::MultiplierChange { node, .. } => node.0,
            EngineEvent::Transmit { src, .. } => src.0,
            EngineEvent::Drop { dst, .. } | EngineEvent::Deliver { dst, .. } => dst.0,
        }
    }
}

impl EventSink for RecorderSink {
    #[inline]
    fn record(&mut self, event: &EngineEvent) {
        let seq = self.seq;
        self.seq += 1;
        // Wakes are pinned, not rung: one push per node, all at startup
        // (a predictable never-taken branch at steady state).
        if let EngineEvent::Wake { .. } = event {
            self.wakes.push((seq, *event));
            return;
        }
        // Masking with `partitions.len() - 1` (a power of two) right at the
        // indexing site lets the compiler drop the bounds check.
        let p = Self::primary_node(event) & (self.partitions.len() - 1);
        self.partitions[p].push(seq, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_last_n() {
        let mut sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.record(&EngineEvent::Wake {
                node: NodeId(i),
                t: i as f64,
                hw: 0.0,
            });
        }
        assert_eq!(sink.recorded(), 5);
        let kept: Vec<f64> = sink.events().map(|e| e.time()).collect();
        assert_eq!(kept, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(!NullSink.wants_snapshots());
    }

    #[test]
    fn optional_sink_disabled_when_none() {
        let none: Option<VecSink> = None;
        assert!(!none.enabled());
        let some = Some(VecSink::default());
        assert!(some.enabled());
    }

    #[test]
    fn event_kinds_are_distinct() {
        let kinds = [
            EngineEvent::Wake {
                node: NodeId(0),
                t: 0.0,
                hw: 0.0,
            }
            .kind(),
            EngineEvent::Send {
                node: NodeId(0),
                t: 0.0,
                hw: 0.0,
            }
            .kind(),
            EngineEvent::Transmit {
                src: NodeId(0),
                dst: NodeId(1),
                t: 0.0,
                delay: None,
            }
            .kind(),
            EngineEvent::Drop {
                src: NodeId(0),
                dst: NodeId(1),
                t: 0.0,
                cause: DropCause::Model,
            }
            .kind(),
            EngineEvent::Deliver {
                src: NodeId(0),
                dst: NodeId(1),
                t: 0.0,
                dst_hw: 0.0,
            }
            .kind(),
            EngineEvent::TimerSet {
                node: NodeId(0),
                timer: TimerId(0),
                target_hw: 0.0,
                t: 0.0,
            }
            .kind(),
            EngineEvent::TimerCancel {
                node: NodeId(0),
                timer: TimerId(0),
                t: 0.0,
            }
            .kind(),
            EngineEvent::TimerFire {
                node: NodeId(0),
                timer: TimerId(0),
                t: 0.0,
                hw: 0.0,
            }
            .kind(),
            EngineEvent::RateStep {
                node: NodeId(0),
                t: 0.0,
                rate: 1.0,
            }
            .kind(),
            EngineEvent::MultiplierChange {
                node: NodeId(0),
                t: 0.0,
                multiplier: 1.0,
            }
            .kind(),
        ];
        let mut unique: Vec<&str> = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }

    /// One event of every shape, including both transmit-delay forms and
    /// both drop causes.
    fn all_events() -> Vec<EngineEvent> {
        vec![
            EngineEvent::Wake {
                node: NodeId(3),
                t: 1.5,
                hw: 0.25,
            },
            EngineEvent::Send {
                node: NodeId(0),
                t: 2.0,
                hw: 1.75,
            },
            EngineEvent::Transmit {
                src: NodeId(0),
                dst: NodeId(1),
                t: 2.0,
                delay: Some(0.5),
            },
            EngineEvent::Transmit {
                src: NodeId(1),
                dst: NodeId(2),
                t: 2.5,
                delay: None,
            },
            EngineEvent::Drop {
                src: NodeId(2),
                dst: NodeId(3),
                t: 3.0,
                cause: DropCause::Model,
            },
            EngineEvent::Drop {
                src: NodeId(3),
                dst: NodeId(4),
                t: 3.5,
                cause: DropCause::Fault,
            },
            EngineEvent::Deliver {
                src: NodeId(0),
                dst: NodeId(1),
                t: 2.5,
                dst_hw: 2.4,
            },
            EngineEvent::TimerSet {
                node: NodeId(5),
                timer: TimerId(2),
                target_hw: 7.0,
                t: 4.0,
            },
            EngineEvent::TimerCancel {
                node: NodeId(5),
                timer: TimerId(2),
                t: 4.5,
            },
            EngineEvent::TimerFire {
                node: NodeId(6),
                timer: TimerId(0),
                t: 5.0,
                hw: 5.1,
            },
            EngineEvent::RateStep {
                node: NodeId(7),
                t: 6.0,
                rate: 1.01,
            },
            EngineEvent::MultiplierChange {
                node: NodeId(7),
                t: 6.5,
                multiplier: 1.25,
            },
        ]
    }

    #[test]
    fn recorder_window_merges_partitions_in_execution_order() {
        let mut rec = RecorderSink::with_geometry(4, 64);
        let events = all_events();
        for event in &events {
            rec.record(event);
        }
        assert_eq!(rec.recorded(), events.len() as u64);
        assert_eq!(rec.window_len(), events.len());
        assert_eq!(rec.window_events(), events);
    }

    #[test]
    fn a_cleared_recorder_records_like_a_fresh_one() {
        let events = all_events();
        let mut reused = RecorderSink::with_geometry(2, 4);
        for event in events.iter().chain(&events) {
            reused.record(event);
        }
        reused.clear();
        assert_eq!((reused.recorded(), reused.window_len()), (0, 0));
        let mut fresh = RecorderSink::with_geometry(2, 4);
        for event in &events {
            reused.record(event);
            fresh.record(event);
        }
        assert_eq!(reused.recorded(), fresh.recorded());
        assert_eq!(reused.window_tagged(), fresh.window_tagged());
    }

    #[test]
    fn recorder_evicts_per_partition_oldest_first() {
        // One partition, capacity 4: only the last four survive.
        let mut rec = RecorderSink::with_geometry(1, 4);
        for i in 0..10 {
            rec.record(&EngineEvent::Send {
                node: NodeId(i),
                t: i as f64,
                hw: 0.0,
            });
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.window_len(), 4);
        let times: Vec<f64> = rec.window_events().iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn recorder_partitions_isolate_chatty_nodes() {
        // Two partitions of 4; node 0 floods its own partition while node 1
        // speaks once early — node 1's event must survive the flood.
        let mut rec = RecorderSink::with_geometry(2, 4);
        rec.record(&EngineEvent::Send {
            node: NodeId(1),
            t: 0.0,
            hw: 0.0,
        });
        for i in 0..100 {
            rec.record(&EngineEvent::Send {
                node: NodeId(0),
                t: 1.0 + i as f64,
                hw: 0.0,
            });
        }
        let window = rec.window_events();
        assert_eq!(window.len(), 5);
        assert_eq!(window[0].time(), 0.0, "early event on quiet node survives");
    }

    #[test]
    fn recorder_pins_wakes_past_any_eviction() {
        // A single ring of 4 flooded by 100 sends: the wake at seq 0 must
        // still lead the window, or a dump of a long run could never be
        // clock-reconstructed.
        let mut rec = RecorderSink::with_geometry(1, 4);
        rec.record(&EngineEvent::Wake {
            node: NodeId(0),
            t: 0.0,
            hw: 0.0,
        });
        for i in 0..100 {
            rec.record(&EngineEvent::Send {
                node: NodeId(0),
                t: 1.0 + i as f64,
                hw: 0.0,
            });
        }
        assert_eq!(rec.recorded(), 101);
        assert_eq!(rec.window_len(), 5);
        let window = rec.window_events();
        assert!(
            matches!(window[0], EngineEvent::Wake { .. }),
            "the wake survives the flood"
        );
        assert_eq!(window[1].time(), 97.0, "rings still evict oldest-first");
    }
}
