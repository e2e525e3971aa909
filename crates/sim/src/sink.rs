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
//! invariant watchdogs) additionally implement
//! [`EventSink::snapshot`], which the engine calls after each processed
//! event with the exact logical clock values — but only when
//! [`EventSink::wants_snapshots`] returns `true`, because computing the
//! clock vector costs `O(n)` per event.
//!
//! Sinks whose state can be maintained incrementally implement
//! [`EventSink::local_snapshot`] instead (opted into by
//! [`EventSink::wants_local_snapshots`]): after each processed event the
//! engine names the nodes whose clock trajectory the event changed and
//! lends a lazy [`ClockView`], so the per-event cost is whatever the sink
//! chooses to read rather than `O(n)`.

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
    /// releases: it doubles as the kind byte of the recorder frame layout
    /// (see [`encode_frame`]) and as the slot of preresolved per-kind
    /// counters.
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

/// Lazy access to every node's logical clock at the instant of a
/// [`EventSink::local_snapshot`].
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

    /// `L_v(now)` — bit-identical to entry `v` of the clock vector
    /// [`EventSink::snapshot`] would have received at this instant.
    fn value(&self, v: NodeId) -> f64;

    /// `L_v(t)` for `t ≥ now`, extrapolated under `v`'s current state.
    fn value_at(&self, v: NodeId, t: f64) -> f64;
}

/// Receiver of engine transitions (and, optionally, post-event state
/// snapshots).
///
/// All methods have no-op defaults, so a sink implements only what it
/// needs. The trait is object-safe: heterogeneous sinks can be composed
/// behind `Box<dyn EventSink>` when static composition is inconvenient.
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

    /// Whether the sink wants [`EventSink::snapshot`] calls (they cost an
    /// `O(n)` clock evaluation per processed event).
    #[inline]
    fn wants_snapshots(&self) -> bool {
        false
    }

    /// Called after each processed event — and once at the end of every
    /// [`Engine::run_until`](crate::Engine::run_until) horizon — with the
    /// exact logical clock values of all nodes and the current event-queue
    /// depth.
    #[inline]
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        let _ = (t, clocks, queue_depth);
    }

    /// Whether the sink wants [`EventSink::local_snapshot`] calls.
    ///
    /// The engine asks before every observation, so a sink may switch
    /// between the two snapshot kinds mid-run. Touches are recorded only
    /// while this is `true`: a sink that turns it back on has missed the
    /// touches in between and must not trust state it built before.
    #[inline]
    fn wants_local_snapshots(&self) -> bool {
        false
    }

    /// Called at the same points as [`EventSink::snapshot`], without the
    /// `O(n)` clock vector: `touched` lists the nodes whose clock
    /// trajectory changed since the previous local snapshot (the event's
    /// home node, plus any [`Engine::set_hardware_rate`] target; possibly
    /// with repeats, and empty for stale queue entries and the horizon
    /// pass), and `clocks` reads any node's clock on demand.
    ///
    /// [`Engine::set_hardware_rate`]: crate::Engine::set_hardware_rate
    #[inline]
    fn local_snapshot(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        queue_depth: usize,
    ) {
        let _ = (t, touched, clocks, queue_depth);
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

impl<S: EventSink + ?Sized> EventSink for Box<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, event: &EngineEvent) {
        (**self).record(event);
    }
    fn wants_snapshots(&self) -> bool {
        (**self).wants_snapshots()
    }
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        (**self).snapshot(t, clocks, queue_depth);
    }
    fn wants_local_snapshots(&self) -> bool {
        (**self).wants_local_snapshots()
    }
    fn local_snapshot(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        queue_depth: usize,
    ) {
        (**self).local_snapshot(t, touched, clocks, queue_depth);
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
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        if let Some(s) = self {
            s.snapshot(t, clocks, queue_depth);
        }
    }
    fn wants_local_snapshots(&self) -> bool {
        self.as_ref().is_some_and(|s| s.wants_local_snapshots())
    }
    fn local_snapshot(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        queue_depth: usize,
    ) {
        if let Some(s) = self {
            s.local_snapshot(t, touched, clocks, queue_depth);
        }
    }
}

macro_rules! tuple_sinks {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: EventSink),+> EventSink for ($($name,)+) {
            fn enabled(&self) -> bool {
                $(self.$idx.enabled())||+
            }
            fn record(&mut self, event: &EngineEvent) {
                $(self.$idx.record(event);)+
            }
            fn wants_snapshots(&self) -> bool {
                $(self.$idx.wants_snapshots())||+
            }
            fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
                $(self.$idx.snapshot(t, clocks, queue_depth);)+
            }
            fn wants_local_snapshots(&self) -> bool {
                $(self.$idx.wants_local_snapshots())||+
            }
            fn local_snapshot(
                &mut self,
                t: f64,
                touched: &[NodeId],
                clocks: &dyn ClockView,
                queue_depth: usize,
            ) {
                $(self.$idx.local_snapshot(t, touched, clocks, queue_depth);)+
            }
        }
    )*};
}

tuple_sinks! {
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
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

    /// Drains the buffer, oldest first.
    pub fn drain(&mut self) -> Vec<EngineEvent> {
        self.events.drain(..).collect()
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
// Flight recorder: fixed-width binary frames in per-partition bounded rings.
// ---------------------------------------------------------------------------

/// Size in bytes of one encoded recorder frame.
///
/// The layout is little-endian and position-fixed:
///
/// | offset | width | field                                                |
/// |--------|-------|------------------------------------------------------|
/// | 0      | 1     | kind byte ([`EngineEvent::kind_index`])              |
/// | 1      | 1     | flags (bit 0: transmit has a delay; bit 1: fault drop)|
/// | 2      | 2     | reserved, must be zero                               |
/// | 4      | 4     | `a`: node / src (u32)                                |
/// | 8      | 4     | `b`: dst / timer slot (u32)                          |
/// | 12     | 4     | reserved, must be zero                               |
/// | 16     | 8     | global record sequence number (u64)                  |
/// | 24     | 8     | event time `t` (f64 bits)                            |
/// | 32     | 8     | `x`: hw / delay / dst_hw / target_hw / rate / mult   |
pub const FRAME_LEN: usize = 40;

/// Magic prefix of a raw binary recorder dump file.
pub const RECORDER_MAGIC: &[u8; 8] = b"GCSREC01";

const FLAG_HAS_DELAY: u8 = 0b0000_0001;
const FLAG_FAULT_CAUSE: u8 = 0b0000_0010;

/// The wire fields of one event, extracted by a single match: kind byte,
/// flags byte, the two u32 payload slots, the time, and the f64 payload
/// slot. Kind values mirror [`EngineEvent::kind_index`].
#[inline]
fn frame_fields(event: &EngineEvent) -> (u8, u8, u32, u32, f64, f64) {
    match *event {
        EngineEvent::Wake { node, t, hw } => (0, 0u8, node.0 as u32, 0u32, t, hw),
        EngineEvent::Send { node, t, hw } => (1, 0, node.0 as u32, 0, t, hw),
        EngineEvent::Transmit { src, dst, t, delay } => (
            2,
            if delay.is_some() { FLAG_HAS_DELAY } else { 0 },
            src.0 as u32,
            dst.0 as u32,
            t,
            delay.unwrap_or(0.0),
        ),
        EngineEvent::Drop { src, dst, t, cause } => (
            3,
            match cause {
                DropCause::Model => 0,
                DropCause::Fault => FLAG_FAULT_CAUSE,
            },
            src.0 as u32,
            dst.0 as u32,
            t,
            0.0,
        ),
        EngineEvent::Deliver {
            src,
            dst,
            t,
            dst_hw,
        } => (4, 0, src.0 as u32, dst.0 as u32, t, dst_hw),
        EngineEvent::TimerSet {
            node,
            timer,
            target_hw,
            t,
        } => (5, 0, node.0 as u32, timer.0, t, target_hw),
        EngineEvent::TimerCancel { node, timer, t } => (6, 0, node.0 as u32, timer.0, t, 0.0),
        EngineEvent::TimerFire { node, timer, t, hw } => (7, 0, node.0 as u32, timer.0, t, hw),
        EngineEvent::RateStep { node, t, rate } => (8, 0, node.0 as u32, 0, t, rate),
        EngineEvent::MultiplierChange {
            node,
            t,
            multiplier,
        } => (9, 0, node.0 as u32, 0, t, multiplier),
    }
}

/// Writes one frame into a [`FRAME_LEN`]-byte slot as five aligned-width
/// `u64` little-endian word stores (the layout packs kind/flags/reserved/a
/// into word 0 and b/reserved into word 1). The slot may hold a stale
/// frame (ring reuse): every byte, including the reserved ranges, is
/// overwritten.
#[inline]
fn encode_frame_into(event: &EngineEvent, seq: u64, frame: &mut [u8; FRAME_LEN]) {
    let (kind, flags, a, b, t, x) = frame_fields(event);
    store_frame(frame, kind, flags, a, b, seq, t, x);
}

/// The five word stores shared by [`encode_frame_into`] and the recorder
/// hot path.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_frame(
    frame: &mut [u8; FRAME_LEN],
    kind: u8,
    flags: u8,
    a: u32,
    b: u32,
    seq: u64,
    t: f64,
    x: f64,
) {
    let word0 = kind as u64 | (flags as u64) << 8 | (a as u64) << 32;
    frame[0..8].copy_from_slice(&word0.to_le_bytes());
    frame[8..16].copy_from_slice(&(b as u64).to_le_bytes());
    frame[16..24].copy_from_slice(&seq.to_le_bytes());
    frame[24..32].copy_from_slice(&t.to_bits().to_le_bytes());
    frame[32..40].copy_from_slice(&x.to_bits().to_le_bytes());
}

/// Encodes one event (plus its global sequence number) as a recorder frame.
///
/// The encoding is total: every [`EngineEvent`] has exactly one frame, and
/// [`decode_frame`] inverts it bit-exactly (`f64` payloads travel as raw
/// bits, so `-0.0` and subnormals survive).
#[inline]
pub fn encode_frame(event: &EngineEvent, seq: u64) -> [u8; FRAME_LEN] {
    let mut frame = [0u8; FRAME_LEN];
    encode_frame_into(event, seq, &mut frame);
    frame
}

/// Decodes one recorder frame back into its sequence number and event.
///
/// # Errors
///
/// Returns a human-readable reason when `bytes` is not exactly
/// [`FRAME_LEN`] long, carries an unknown kind byte or flag bit, or has
/// nonzero reserved bytes (the cheap misalignment detector).
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, EngineEvent), String> {
    if bytes.len() != FRAME_LEN {
        return Err(format!(
            "frame is {} bytes, expected {FRAME_LEN}",
            bytes.len()
        ));
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let f64_at = |off: usize| f64::from_bits(u64_at(off));

    let kind = bytes[0];
    let flags = bytes[1];
    if flags & !(FLAG_HAS_DELAY | FLAG_FAULT_CAUSE) != 0 {
        return Err(format!("unknown flag bits 0x{flags:02x}"));
    }
    if bytes[2] != 0 || bytes[3] != 0 || u32_at(12) != 0 {
        return Err("nonzero reserved bytes (misaligned or corrupt frame)".into());
    }
    let a = u32_at(4);
    let b = u32_at(8);
    let seq = u64_at(16);
    let t = f64_at(24);
    let x = f64_at(32);
    let node = NodeId(a as usize);
    let src = NodeId(a as usize);
    let dst = NodeId(b as usize);
    let timer = TimerId(b);
    let event = match kind {
        0 => EngineEvent::Wake { node, t, hw: x },
        1 => EngineEvent::Send { node, t, hw: x },
        2 => EngineEvent::Transmit {
            src,
            dst,
            t,
            delay: (flags & FLAG_HAS_DELAY != 0).then_some(x),
        },
        3 => EngineEvent::Drop {
            src,
            dst,
            t,
            cause: if flags & FLAG_FAULT_CAUSE != 0 {
                DropCause::Fault
            } else {
                DropCause::Model
            },
        },
        4 => EngineEvent::Deliver {
            src,
            dst,
            t,
            dst_hw: x,
        },
        5 => EngineEvent::TimerSet {
            node,
            timer,
            target_hw: x,
            t,
        },
        6 => EngineEvent::TimerCancel { node, timer, t },
        7 => EngineEvent::TimerFire {
            node,
            timer,
            t,
            hw: x,
        },
        8 => EngineEvent::RateStep { node, t, rate: x },
        9 => EngineEvent::MultiplierChange {
            node,
            t,
            multiplier: x,
        },
        other => return Err(format!("unknown frame kind byte {other}")),
    };
    Ok((seq, event))
}

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
/// The hot path is a plain `Copy` store plus a masked ring advance; the
/// fixed-width binary frame encoding ([`encode_frame`]) is applied only
/// when a window is dumped.
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
    /// frames already evicted from the window).
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

    /// The retained window serialized as [`encode_frame`] frames in
    /// execution order, prefixed with [`RECORDER_MAGIC`] — the
    /// `--dump-recorder <path>.gcsrec` byte format, decoded by
    /// `gcs-forensics`.
    pub fn window_frames(&self) -> Vec<u8> {
        let tagged = self.window_tagged();
        let mut out = Vec::with_capacity(RECORDER_MAGIC.len() + tagged.len() * FRAME_LEN);
        out.extend_from_slice(RECORDER_MAGIC);
        for (seq, event) in &tagged {
            out.extend_from_slice(&encode_frame(event, *seq));
        }
        out
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
        assert!(!NullSink.wants_local_snapshots());
    }

    #[test]
    fn tuple_sink_fans_out() {
        let mut sink = (VecSink::default(), RingBufferSink::new(8));
        assert!(sink.enabled());
        sink.record(&EngineEvent::Drop {
            src: NodeId(0),
            dst: NodeId(1),
            t: 1.0,
            cause: DropCause::Model,
        });
        assert_eq!(sink.0.events.len(), 1);
        assert_eq!(sink.1.recorded(), 1);
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

    /// One event of every shape the codec must carry, including both
    /// transmit-delay forms and both drop causes.
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
    fn frames_round_trip_every_event_shape() {
        for (i, event) in all_events().iter().enumerate() {
            let seq = i as u64 * 1_000_003;
            let frame = encode_frame(event, seq);
            let (got_seq, got) = decode_frame(&frame).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(&got, event, "frame {i} did not round-trip");
        }
    }

    #[test]
    fn frames_preserve_f64_bit_patterns() {
        let event = EngineEvent::Wake {
            node: NodeId(0),
            t: -0.0,
            hw: f64::MIN_POSITIVE / 2.0, // subnormal
        };
        let (_, got) = decode_frame(&encode_frame(&event, 0)).unwrap();
        let EngineEvent::Wake { t, hw, .. } = got else {
            panic!("wrong kind");
        };
        assert_eq!(t.to_bits(), (-0.0f64).to_bits());
        assert_eq!(hw.to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_frame(&[0u8; 12]).is_err(), "short frame");
        let mut frame = encode_frame(
            &EngineEvent::Wake {
                node: NodeId(0),
                t: 0.0,
                hw: 0.0,
            },
            0,
        );
        frame[0] = 200;
        assert!(decode_frame(&frame).is_err(), "unknown kind byte");
        frame[0] = 0;
        frame[1] = 0b1000_0000;
        assert!(decode_frame(&frame).is_err(), "unknown flag bit");
        frame[1] = 0;
        frame[2] = 1;
        assert!(decode_frame(&frame).is_err(), "nonzero reserved byte");
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
        assert_eq!(reused.window_frames(), fresh.window_frames());
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

    #[test]
    fn recorder_raw_dump_has_magic_and_ordered_frames() {
        let mut rec = RecorderSink::with_geometry(4, 64);
        let events = all_events();
        for event in &events {
            rec.record(event);
        }
        let bytes = rec.window_frames();
        assert_eq!(&bytes[..8], RECORDER_MAGIC);
        assert_eq!((bytes.len() - 8) % FRAME_LEN, 0);
        let mut decoded = Vec::new();
        let mut last_seq = None;
        for chunk in bytes[8..].chunks(FRAME_LEN) {
            let (seq, event) = decode_frame(chunk).unwrap();
            assert!(last_seq < Some(seq), "frames must be seq-ascending");
            last_seq = Some(seq);
            decoded.push(event);
        }
        assert_eq!(decoded, events);
    }
}
