//! The discrete-event execution engine.

use gcs_graph::{Graph, NodeId};
use gcs_time::{HardwareClock, RateSchedule};

use crate::delay::{DelayCtx, DelayModel, Delivery};
use crate::pending::{PendingHw, PendingSlab};
use crate::profile::EngineProfile;
use crate::protocol::{Action, Context, Protocol, TimerId};
use crate::queue::EventQueue;
use crate::sink::{ClockView, EngineEvent, EventSink, NullSink};
use std::cell::{OnceCell, Ref, RefCell};
use std::time::Instant;

/// Counters over the messages exchanged in an execution.
///
/// `send_events` counts broadcast events (the unit of the paper's message
/// and bit complexity accounting — a node sends identical information to all
/// neighbours at a send event, its Section 6.2); `transmissions` counts
/// per-edge message copies; `deliveries` counts received messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    /// Number of send events (one per `send`/`send_all` action).
    pub send_events: u64,
    /// Number of per-edge message transmissions.
    pub transmissions: u64,
    /// Number of delivered messages.
    pub deliveries: u64,
    /// Total number of dropped transmissions (always 0 under the paper's
    /// reliable-links model). Always equals
    /// `dropped_model + dropped_faults` — the per-cause counters partition
    /// the total, nothing is double-counted.
    pub dropped: u64,
    /// Transmissions dropped by the delay model itself (e.g. the `lossy`
    /// wrapper's i.i.d. loss).
    pub dropped_model: u64,
    /// Transmissions dropped by an injected fault (the chaos layer's drop,
    /// partition, and crash clauses).
    pub dropped_faults: u64,
    /// Fault-injected duplicate copies delivered in addition to their
    /// originals ([`Delivery::AfterEcho`]). Each duplicate also counts as
    /// one transmission and (eventually) one delivery.
    pub duplicated: u64,
    /// Send events per node.
    pub per_node_sends: Vec<u64>,
    /// Messages delivered to each node.
    pub per_node_deliveries: Vec<u64>,
    /// Transmissions dropped en route to each node (attributed to the
    /// intended receiver).
    pub per_node_dropped: Vec<u64>,
}

#[derive(Debug, Clone)]
enum EventKind<M> {
    /// Spontaneous initialization of a node.
    Wake { node: NodeId },
    /// Real-time message delivery.
    Deliver { src: NodeId, dst: NodeId, msg: M },
    /// A hardware-value item (timer or hw-targeted delivery) may be due.
    /// `(slot, gen)` addresses the item in the node's [`PendingSlab`]; a
    /// generation mismatch marks the entry stale in O(1).
    HwDue { node: NodeId, slot: u32, gen: u64 },
    /// Apply the next step of the node's pre-configured rate schedule.
    RateStep { node: NodeId, at: f64 },
}

/// Hot per-node plane: what every dispatched event touches — the hardware
/// clock and the sink's multiplier-change detector — packed contiguously
/// so a wake reads one cache line of per-node engine state (plus the
/// node's entry in the protocol and pending planes).
#[derive(Debug, Clone)]
struct HotNode {
    hw: HardwareClock,
    /// The protocol's logical rate multiplier after its last handler ran
    /// (for change detection when a sink is installed).
    last_multiplier: f64,
}

/// Cold per-node plane: rate-schedule and arming-path state that typical
/// wakes never read, kept off the hot cache lines.
#[derive(Debug, Clone)]
struct ColdNode<M> {
    schedule: RateSchedule,
    /// Timer slot -> slab slot, for replacement semantics. Protocols use a
    /// handful of timer slots at most, so a linear scan beats hashing.
    timer_slots: Vec<(TimerId, u32)>,
    /// Hardware-targeted deliveries addressed to this node before it was
    /// initialized; activated at start time.
    prestart: Vec<PendingHw<M>>,
}

/// Struct-of-arrays node state: parallel planes indexed by node id. The
/// split keeps each plane's per-node entries adjacent, so an event that
/// reads node `v`'s clock, protocol, and pending slab touches three short
/// runs of contiguous memory instead of one sparse ~300-byte record.
#[derive(Debug, Clone)]
struct Nodes<P: Protocol> {
    hot: Vec<HotNode>,
    proto: Vec<P>,
    /// Pending hardware-value items per node (slab-backed,
    /// allocation-free in steady state).
    pending: Vec<PendingSlab<P::Msg>>,
    cold: Vec<ColdNode<P::Msg>>,
}

/// The [`ClockView`] lent to [`EventSink::sample`]: evaluates a node's
/// clock on demand with the same `proto.logical_value(hw.value_at(t))`
/// expression [`Engine::logical_values_into`] uses, so `value(v)` matches
/// the vector entry bit for bit. The vector itself is built at the first
/// [`ClockView::values`] call of the sample, into the engine's reused
/// buffer.
///
/// Its rate floor is [`Engine::rate_floor`]. The affinity it then promises
/// ([`ClockView::rate_floor`]) follows from the clock's form: with unit
/// roundoff `u`, `l + m·(hw − h)` over `hw = h₀ + r·(t − t₀)` evaluated in
/// `f64` is within `3.1u·(L + m·H)` of the exact affine function, and the
/// [`Protocol::min_rate_multiplier`] contract (`L ≥ f·H`, `m < 128·f`)
/// bounds that by `400u·L < 2⁻⁴⁴·L`.
struct NodeClocks<'a, P> {
    protos: &'a [P],
    hot: &'a [HotNode],
    now: f64,
    rate_floor: f64,
    /// The previous sample's instant and the touched nodes' clocks then,
    /// if the sink asked for them.
    previous: Option<(f64, &'a [f64])>,
    /// The engine's clock buffer, and the vector once
    /// [`ClockView::values`] has filled it.
    buf: &'a RefCell<Vec<f64>>,
    values: OnceCell<Ref<'a, Vec<f64>>>,
}

impl<P: Protocol> ClockView for NodeClocks<'_, P> {
    fn len(&self) -> usize {
        self.protos.len()
    }

    #[inline]
    fn value(&self, v: NodeId) -> f64 {
        self.value_at(v, self.now)
    }

    fn values(&self) -> &[f64] {
        self.values.get_or_init(|| {
            logical_values_into(self.protos, self.hot, self.now, &mut self.buf.borrow_mut());
            self.buf.borrow()
        })
    }

    #[inline]
    fn value_at(&self, v: NodeId, t: f64) -> f64 {
        let i = v.index();
        self.protos[i].logical_value(self.hot[i].hw.value_at(t))
    }

    fn rate_floor(&self) -> f64 {
        self.rate_floor
    }

    fn previous_sample(&self) -> Option<(f64, &[f64])> {
        self.previous
    }
}

/// Overwrites `out` with every node's logical clock at `now`.
fn logical_values_into<P: Protocol>(protos: &[P], hot: &[HotNode], now: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        protos
            .iter()
            .zip(hot)
            .map(|(p, h)| p.logical_value(h.hw.value_at(now))),
    );
}

impl<P: Protocol> Nodes<P> {
    fn len(&self) -> usize {
        self.hot.len()
    }
}

/// Per-node pending-slab slots pre-reserved at build time: `A^opt` keeps
/// 2–3 items concurrently pending (send timer, rate timer, the occasional
/// hardware-targeted delivery), so 4 covers the steady state without
/// mid-run slab growth even at n = 10⁶.
const PENDING_PREALLOC: usize = 4;

/// Pre-reserved timer-slot index entries per node (same sizing argument).
const TIMER_SLOT_PREALLOC: usize = 4;

/// Builder for [`Engine`].
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct EngineBuilder<P: Protocol, D: DelayModel, S: EventSink = NullSink> {
    graph: Graph,
    protocols: Option<Vec<P>>,
    delay: Option<D>,
    schedules: Option<Vec<RateSchedule>>,
    sink: S,
    profiling: bool,
}

impl<P: Protocol, D: DelayModel, S: EventSink> EngineBuilder<P, D, S> {
    /// Sets the per-node protocol instances (one per node, in id order).
    pub fn protocols(mut self, protocols: Vec<P>) -> Self {
        self.protocols = Some(protocols);
        self
    }

    /// Sets the delay model.
    pub fn delay_model(mut self, delay: D) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Sets per-node hardware-rate schedules (defaults to rate 1 everywhere).
    pub fn rate_schedules(mut self, schedules: Vec<RateSchedule>) -> Self {
        self.schedules = Some(schedules);
        self
    }

    /// Installs an [`EventSink`] that receives every engine transition (and
    /// per-event state samples if it asks for them). Defaults to
    /// [`NullSink`], which compiles to the uninstrumented engine.
    pub fn event_sink<S2: EventSink>(self, sink: S2) -> EngineBuilder<P, D, S2> {
        EngineBuilder {
            graph: self.graph,
            protocols: self.protocols,
            delay: self.delay,
            schedules: self.schedules,
            sink,
            profiling: self.profiling,
        }
    }

    /// Enables wall-clock phase profiling (see [`EngineProfile`]). Off by
    /// default; when off, the engine carries no timing overhead. Profiling
    /// never touches the event queue or the sink, so enabling it cannot
    /// change an execution.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics if protocols or the delay model are missing, or if the
    /// protocol/schedule counts do not match the node count.
    pub fn build(self) -> Engine<P, D, S> {
        let n = self.graph.len();
        let protocols = self.protocols.expect("protocols not set");
        assert_eq!(protocols.len(), n, "need one protocol per node");
        let schedules = self
            .schedules
            .unwrap_or_else(|| vec![RateSchedule::default(); n]);
        assert_eq!(schedules.len(), n, "need one rate schedule per node");
        let delay = self.delay.expect("delay model not set");
        let multiplier_floor = protocols
            .iter()
            .map(P::min_rate_multiplier)
            .fold(f64::INFINITY, f64::min);
        let min_rate = schedules
            .iter()
            .map(RateSchedule::min_rate)
            .fold(f64::INFINITY, f64::min);
        // Every plane (and each node's slab/timer index) is pre-reserved
        // here so a steady-state run never grows node storage mid-run —
        // `tests/zero_alloc.rs` pins this at both small and large n.
        let mut hot = Vec::with_capacity(n);
        let mut proto_plane = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut cold = Vec::with_capacity(n);
        for (proto, schedule) in protocols.into_iter().zip(schedules) {
            hot.push(HotNode {
                hw: HardwareClock::new(),
                last_multiplier: proto.rate_multiplier(),
            });
            pending.push(PendingSlab::with_capacity(PENDING_PREALLOC));
            cold.push(ColdNode {
                schedule,
                timer_slots: Vec::with_capacity(TIMER_SLOT_PREALLOC),
                prestart: Vec::new(),
            });
            proto_plane.push(proto);
        }
        let nodes = Nodes {
            hot,
            proto: proto_plane,
            pending,
            cold,
        };
        Engine {
            graph: self.graph,
            delay,
            now: 0.0,
            seq: 0,
            // Pre-sized so the heap reaches its steady-state high-water
            // mark without reallocating mid-run for typical workloads; it
            // grows (and is then reused) beyond that.
            queue: EventQueue::with_capacity(4 * n + 16),
            nodes,
            stats: MessageStats {
                per_node_sends: vec![0; n],
                per_node_deliveries: vec![0; n],
                per_node_dropped: vec![0; n],
                ..MessageStats::default()
            },
            sink: self.sink,
            clock_buf: RefCell::new(Vec::with_capacity(n)),
            touched: Vec::with_capacity(8),
            touched_before: Vec::with_capacity(8),
            last_sample: 0.0,
            multiplier_floor,
            min_rate,
            action_buf: Vec::with_capacity(8),
            profile: self.profiling.then(Box::default),
        }
    }
}

/// The deterministic discrete-event engine executing one [`Protocol`] per
/// node of a [`Graph`] under a [`DelayModel`] and per-node hardware-clock
/// rate schedules.
///
/// The engine *is* the paper's execution `E`: it fixes the hardware rates and
/// all message delays. It is `Clone`, so a driver can snapshot the world,
/// run ahead to inspect the future, rewind, and continue differently — the
/// *extended execution* pattern of the paper's lower-bound proofs.
///
/// The third type parameter is an [`EventSink`] receiving every transition;
/// it defaults to [`NullSink`] (no observation, no overhead). See the
/// [`sink`](crate::sink) module docs.
#[derive(Debug, Clone)]
pub struct Engine<P: Protocol, D: DelayModel, S: EventSink = NullSink> {
    graph: Graph,
    delay: D,
    now: f64,
    seq: u64,
    queue: EventQueue<EventKind<P::Msg>>,
    nodes: Nodes<P>,
    stats: MessageStats,
    sink: S,
    /// Reused buffer of the clock vector a sample builds on demand.
    clock_buf: RefCell<Vec<f64>>,
    /// Nodes whose clock trajectory changed since the last sample (filled
    /// only while the sink wants samples), and each one's
    /// clock at `last_sample`, read before the touching event changed it
    /// (only while the sink also wants those).
    touched: Vec<NodeId>,
    touched_before: Vec<f64>,
    /// The instant of the last sampling point (every processed event and
    /// horizon), whether or not the sink took a sample there.
    last_sample: f64,
    /// The smallest [`Protocol::min_rate_multiplier`] over the nodes, and
    /// the smallest hardware rate any node runs at (its schedules and
    /// [`Engine::set_hardware_rate`] overrides); their product is the rate
    /// floor samples report.
    multiplier_floor: f64,
    min_rate: f64,
    /// Reusable action buffer lent to each protocol handler's [`Context`]
    /// and drained by `apply_actions` — no per-event `Vec` allocation.
    action_buf: Vec<Action<P::Msg>>,
    /// Phase timers, present only when profiling was requested (boxed to
    /// keep the common unprofiled engine small).
    profile: Option<Box<EngineProfile>>,
}

impl<P: Protocol, D: DelayModel> Engine<P, D, NullSink> {
    /// Starts building an engine over `graph`.
    pub fn builder(graph: Graph) -> EngineBuilder<P, D, NullSink> {
        EngineBuilder {
            graph,
            protocols: None,
            delay: None,
            schedules: None,
            sink: NullSink,
            profiling: false,
        }
    }
}

impl<P: Protocol, D: DelayModel, S: EventSink> Engine<P, D, S> {
    /// The network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Message counters so far.
    pub fn message_stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Immutable access to a node's protocol state.
    pub fn protocol(&self, v: NodeId) -> &P {
        &self.nodes.proto[v.index()]
    }

    /// Mutable access to the delay model (e.g. to reconfigure an adversary
    /// between phases).
    pub fn delay_model_mut(&mut self) -> &mut D {
        &mut self.delay
    }

    /// Immutable access to the installed event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the installed event sink (e.g. to snapshot metrics
    /// mid-execution).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the engine, returning the installed event sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The accumulated phase timers, when profiling is enabled.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_deref()
    }

    /// The hardware-clock reading `H_v(now)`.
    pub fn hardware_value(&self, v: NodeId) -> f64 {
        self.nodes.hot[v.index()].hw.value_at(self.now)
    }

    /// The logical-clock reading `L_v(now)`.
    pub fn logical_value(&self, v: NodeId) -> f64 {
        let hw = self.hardware_value(v);
        self.nodes.proto[v.index()].logical_value(hw)
    }

    /// All logical-clock readings, indexed by node.
    pub fn logical_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.logical_values_into(&mut out);
        out
    }

    /// Overwrites `out` with all logical-clock readings, indexed by node —
    /// [`Engine::logical_values`] without the allocation once `out` has
    /// grown to the node count.
    pub fn logical_values_into(&self, out: &mut Vec<f64>) {
        logical_values_into(&self.nodes.proto, &self.nodes.hot, self.now, out);
    }

    /// Whether node `v` has been initialized.
    pub fn is_started(&self, v: NodeId) -> bool {
        self.nodes.hot[v.index()].hw.is_started()
    }

    /// Schedules a spontaneous wake of `v` at time `t ≥ now`. Waking an
    /// already-initialized node is a no-op at processing time.
    ///
    /// # Panics
    ///
    /// Panics if `t < now`.
    pub fn wake(&mut self, v: NodeId, t: f64) {
        assert!(t >= self.now, "cannot wake in the past");
        self.push(t, EventKind::Wake { node: v });
    }

    /// Wakes every node at time `t` (the all-initialized-at-once setting of
    /// the paper's Section 7 lower bounds).
    pub fn wake_all_at(&mut self, t: f64) {
        for v in 0..self.nodes.len() {
            self.wake(NodeId(v), t);
        }
    }

    /// Overrides node `v`'s hardware rate from the current instant onward.
    ///
    /// Pre-configured schedule steps that lie in the future will still apply
    /// when their time comes. Pending hardware-value items are rescheduled.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not initialized or `rate <= 0`.
    pub fn set_hardware_rate(&mut self, v: NodeId, rate: f64) {
        let now = self.now;
        self.touch(v);
        self.nodes.hot[v.index()].hw.set_rate(now, rate);
        self.min_rate = self.min_rate.min(rate);
        if self.sink.enabled() {
            self.sink.record(&EngineEvent::RateStep {
                node: v,
                t: now,
                rate,
            });
        }
        self.reschedule_pending(v);
    }

    /// The lower bound on every running logical clock's rate that samples
    /// report ([`ClockView::rate_floor`]): the smallest declared
    /// [`Protocol::min_rate_multiplier`] times the smallest hardware rate
    /// so far, `0` on an empty graph.
    pub fn rate_floor(&self) -> f64 {
        let floor = self.multiplier_floor * self.min_rate;
        if floor.is_finite() {
            floor
        } else {
            0.0
        }
    }

    /// Time of the next queued event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Processes the single next event (regardless of horizon); returns its
    /// time, or `None` if the queue is empty.
    pub fn step(&mut self) -> Option<f64> {
        let (time, kind) = self.queue.pop()?;
        debug_assert!(time >= self.now - 1e-9, "event in the past");
        let started = self.profile.as_ref().map(|_| Instant::now());
        self.now = self.now.max(time);
        self.dispatch(kind);
        self.maybe_snapshot();
        if let (Some(profile), Some(started)) = (self.profile.as_deref_mut(), started) {
            profile.dispatch += started.elapsed();
            profile.events += 1;
        }
        Some(self.now)
    }

    /// Processes all events up to and including time `t`, then advances the
    /// clock to exactly `t`.
    pub fn run_until(&mut self, t: f64) {
        assert!(t >= self.now, "cannot run backwards");
        while let Some(next) = self.next_event_time() {
            if next > t {
                break;
            }
            self.step();
        }
        self.now = t;
        self.maybe_snapshot();
    }

    /// Like [`Engine::run_until`], invoking `observer` after every processed
    /// event (and once at the horizon). Logical clocks are piecewise linear
    /// between events, so per-event sampling captures every kink.
    ///
    /// New code should prefer installing an [`EventSink`] with
    /// [`EngineBuilder::event_sink`] — sinks see the same per-event cadence
    /// through [`EventSink::sample`] without borrowing the engine, and
    /// build the `O(n)` clock vector only when they read it.
    pub fn run_until_observed(&mut self, t: f64, mut observer: impl FnMut(&Self)) {
        assert!(t >= self.now, "cannot run backwards");
        while let Some(next) = self.next_event_time() {
            if next > t {
                break;
            }
            self.step();
            observer(self);
        }
        self.now = t;
        self.maybe_snapshot();
        observer(self);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Reports the post-event state to the sink, if it wants state: the
    /// touched nodes and a lazy [`ClockView`].
    fn maybe_snapshot(&mut self) {
        let previous = std::mem::replace(&mut self.last_sample, self.now);
        if !self.sink.wants_snapshots() {
            return;
        }
        let started = self.profile.as_ref().map(|_| Instant::now());
        let clocks = NodeClocks {
            protos: &self.nodes.proto,
            hot: &self.nodes.hot,
            now: self.now,
            rate_floor: self.rate_floor(),
            previous: (self.touched_before.len() == self.touched.len())
                .then_some((previous, &self.touched_before[..])),
            buf: &self.clock_buf,
            values: OnceCell::new(),
        };
        self.sink
            .sample(self.now, &self.touched, &clocks, self.queue.len());
        drop(clocks);
        self.touched.clear();
        self.touched_before.clear();
        if let (Some(profile), Some(started)) = (self.profile.as_deref_mut(), started) {
            profile.snapshot += started.elapsed();
            profile.snapshots += 1;
        }
    }

    /// Notes that `v`'s clock trajectory is about to change, for the next
    /// sample: call it before the change, so it can read `v`'s clock at the
    /// last sample under the state that sample saw.
    #[inline]
    fn touch(&mut self, v: NodeId) {
        if self.sink.wants_snapshots() {
            self.touched.push(v);
            if self.sink.wants_previous_sample() {
                let i = v.index();
                let hw = self.nodes.hot[i].hw.value_at(self.last_sample);
                self.touched_before
                    .push(self.nodes.proto[i].logical_value(hw));
            }
        }
    }

    /// Emits a multiplier-change event if `v`'s protocol changed its
    /// logical rate multiplier while handling the last event.
    fn note_multiplier(&mut self, v: NodeId) {
        if !self.sink.enabled() {
            return;
        }
        let multiplier = self.nodes.proto[v.index()].rate_multiplier();
        if multiplier != self.nodes.hot[v.index()].last_multiplier {
            self.nodes.hot[v.index()].last_multiplier = multiplier;
            self.sink.record(&EngineEvent::MultiplierChange {
                node: v,
                t: self.now,
                multiplier,
            });
        }
    }

    fn push(&mut self, time: f64, kind: EventKind<P::Msg>) {
        assert!(time.is_finite(), "non-finite event time");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    fn dispatch(&mut self, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::Wake { node } => self.handle_wake(node),
            EventKind::Deliver { src, dst, msg } => self.handle_deliver(src, dst, msg),
            EventKind::HwDue { node, slot, gen } => self.handle_hw_due(node, slot, gen),
            EventKind::RateStep { node, at } => self.handle_rate_step(node, at),
        }
    }

    fn handle_wake(&mut self, v: NodeId) {
        if self.nodes.hot[v.index()].hw.is_started() {
            return;
        }
        self.touch(v);
        self.start_node(v);
        let hw = self.hardware_value(v);
        if self.sink.enabled() {
            self.sink.record(&EngineEvent::Wake {
                node: v,
                t: self.now,
                hw,
            });
        }
        let started = self.profile.as_ref().map(|_| Instant::now());
        let mut actions = std::mem::take(&mut self.action_buf);
        {
            let mut ctx = Context::new(v, hw, self.graph.neighbors(v), &mut actions);
            self.nodes.proto[v.index()].on_start(&mut ctx);
        }
        self.note_protocol(started);
        self.apply_actions(v, &mut actions);
        self.action_buf = actions;
        self.note_multiplier(v);
    }

    /// Credits time since `started` to the protocol phase (profiling only).
    fn note_protocol(&mut self, started: Option<Instant>) {
        if let (Some(profile), Some(started)) = (self.profile.as_deref_mut(), started) {
            profile.protocol += started.elapsed();
            profile.protocol_calls += 1;
        }
    }

    fn start_node(&mut self, v: NodeId) {
        let now = self.now;
        let i = v.index();
        let cold = &mut self.nodes.cold[i];
        let rate = cold.schedule.rate_at(now);
        let change = cold.schedule.next_change_after(now);
        let prestart = std::mem::take(&mut cold.prestart);
        self.nodes.hot[i].hw.start(now, rate);
        if let Some(change) = change {
            self.push(
                change,
                EventKind::RateStep {
                    node: v,
                    at: change,
                },
            );
        }
        for item in prestart {
            let target = item.target();
            let (slot, gen) = self.nodes.pending[i].insert(item);
            self.schedule_hw_due(v, slot, gen, target);
        }
    }

    fn handle_rate_step(&mut self, v: NodeId, at: f64) {
        let i = v.index();
        if !self.nodes.hot[i].hw.is_started() {
            return;
        }
        let rate = self.nodes.cold[i].schedule.rate_at(at);
        self.touch(v);
        self.nodes.hot[i].hw.set_rate(self.now, rate);
        if self.sink.enabled() {
            self.sink.record(&EngineEvent::RateStep {
                node: v,
                t: self.now,
                rate,
            });
        }
        if let Some(change) = self.nodes.cold[i].schedule.next_change_after(at) {
            self.push(
                change,
                EventKind::RateStep {
                    node: v,
                    at: change,
                },
            );
        }
        self.reschedule_pending(v);
    }

    fn handle_deliver(&mut self, src: NodeId, dst: NodeId, msg: P::Msg) {
        self.stats.deliveries += 1;
        self.stats.per_node_deliveries[dst.index()] += 1;
        self.touch(dst);
        let fresh = !self.nodes.hot[dst.index()].hw.is_started();
        if fresh {
            self.start_node(dst);
        }
        let hw = self.hardware_value(dst);
        if self.sink.enabled() {
            if fresh {
                self.sink.record(&EngineEvent::Wake {
                    node: dst,
                    t: self.now,
                    hw,
                });
            }
            self.sink.record(&EngineEvent::Deliver {
                src,
                dst,
                t: self.now,
                dst_hw: hw,
            });
        }
        let started = self.profile.as_ref().map(|_| Instant::now());
        let mut actions = std::mem::take(&mut self.action_buf);
        {
            let mut ctx = Context::new(dst, hw, self.graph.neighbors(dst), &mut actions);
            let proto = &mut self.nodes.proto[dst.index()];
            if fresh {
                proto.on_start(&mut ctx);
            }
            proto.on_message(&mut ctx, src, msg);
        }
        self.note_protocol(started);
        self.apply_actions(dst, &mut actions);
        self.action_buf = actions;
        self.note_multiplier(dst);
    }

    fn handle_hw_due(&mut self, v: NodeId, slot: u32, gen: u64) {
        // Stale entries: the item may be gone (already fired / replaced —
        // detected O(1) by the generation mismatch), or not yet due (a rate
        // slowdown pushed it later; the re-stamped entry exists at the
        // correct later time, so this one is skipped on an arithmetic
        // check — no hash lookups either way).
        let i = v.index();
        let due = match self.nodes.pending[i].target_of(slot, gen) {
            None => {
                self.note_stale();
                return;
            }
            Some(target) => self.nodes.hot[i].hw.value_at(self.now) >= target - 1e-9,
        };
        if !due {
            self.note_stale();
            return;
        }
        let item = self.nodes.pending[i].take(slot);
        match item {
            PendingHw::Timer { timer, .. } => {
                let slots = &mut self.nodes.cold[i].timer_slots;
                if let Some(pos) = slots.iter().position(|&(t, _)| t == timer) {
                    slots.swap_remove(pos);
                }
                self.touch(v);
                let hw = self.hardware_value(v);
                if self.sink.enabled() {
                    self.sink.record(&EngineEvent::TimerFire {
                        node: v,
                        timer,
                        t: self.now,
                        hw,
                    });
                }
                let started = self.profile.as_ref().map(|_| Instant::now());
                let mut actions = std::mem::take(&mut self.action_buf);
                {
                    let mut ctx = Context::new(v, hw, self.graph.neighbors(v), &mut actions);
                    self.nodes.proto[v.index()].on_timer(&mut ctx, timer);
                }
                self.note_protocol(started);
                self.apply_actions(v, &mut actions);
                self.action_buf = actions;
                self.note_multiplier(v);
            }
            PendingHw::Delivery { src, msg, .. } => {
                self.handle_deliver(src, v, msg);
            }
        }
    }

    /// Counts a stale queue entry (profiling only).
    fn note_stale(&mut self) {
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.stale_events += 1;
        }
    }

    fn apply_actions(&mut self, v: NodeId, actions: &mut Vec<Action<P::Msg>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    assert!(
                        self.graph.neighbors(v).contains(&to),
                        "{v:?} tried to send to non-neighbour {to:?}"
                    );
                    self.stats.send_events += 1;
                    self.stats.per_node_sends[v.index()] += 1;
                    if self.sink.enabled() {
                        let hw = self.hardware_value(v);
                        self.sink.record(&EngineEvent::Send {
                            node: v,
                            t: self.now,
                            hw,
                        });
                    }
                    self.transmit(v, to, msg);
                }
                Action::SendAll { msg } => {
                    self.stats.send_events += 1;
                    self.stats.per_node_sends[v.index()] += 1;
                    if self.sink.enabled() {
                        let hw = self.hardware_value(v);
                        self.sink.record(&EngineEvent::Send {
                            node: v,
                            t: self.now,
                            hw,
                        });
                    }
                    // Broadcast by index: `transmit` borrows `self` mutably,
                    // so walk the adjacency slice positionally instead of
                    // cloning it.
                    let deg = self.graph.neighbors(v).len();
                    for i in 0..deg {
                        let dst = self.graph.neighbors(v)[i];
                        if i + 1 == deg {
                            // Last edge takes ownership — one fewer clone.
                            self.transmit(v, dst, msg);
                            break;
                        }
                        self.transmit(v, dst, msg.clone());
                    }
                }
                Action::SetTimer { timer, target_hw } => {
                    self.set_timer(v, timer, target_hw);
                }
                Action::CancelTimer { timer } => {
                    let i = v.index();
                    let slots = &mut self.nodes.cold[i].timer_slots;
                    if let Some(pos) = slots.iter().position(|&(t, _)| t == timer) {
                        let (_, slot) = slots.swap_remove(pos);
                        self.nodes.pending[i].take(slot);
                        if self.sink.enabled() {
                            self.sink.record(&EngineEvent::TimerCancel {
                                node: v,
                                timer,
                                t: self.now,
                            });
                        }
                    }
                }
            }
        }
    }

    fn transmit(&mut self, src: NodeId, dst: NodeId, msg: P::Msg) {
        self.stats.transmissions += 1;
        // Hardware readings are resolved lazily inside `DelayCtx`: delay
        // models that never consult them cost zero clock evaluations here.
        let ctx = DelayCtx::from_clocks(
            src,
            dst,
            self.now,
            &self.nodes.hot[src.index()].hw,
            &self.nodes.hot[dst.index()].hw,
            &self.graph,
        );
        let delivery = if self.profile.is_some() {
            let started = Instant::now();
            let delivery = self.delay.delivery(&ctx);
            let profile = self.profile.as_deref_mut().expect("profiling is on");
            profile.delay += started.elapsed();
            profile.delay_calls += 1;
            delivery
        } else {
            self.delay.delivery(&ctx)
        };
        match delivery {
            Delivery::Drop(cause) => {
                self.stats.dropped += 1;
                match cause {
                    crate::delay::DropCause::Model => self.stats.dropped_model += 1,
                    crate::delay::DropCause::Fault => self.stats.dropped_faults += 1,
                }
                self.stats.per_node_dropped[dst.index()] += 1;
                if self.sink.enabled() {
                    self.sink.record(&EngineEvent::Drop {
                        src,
                        dst,
                        t: self.now,
                        cause,
                    });
                }
            }
            Delivery::AfterEcho { delay, echo } => {
                assert!(
                    delay.is_finite() && delay >= 0.0 && echo.is_finite() && echo >= delay,
                    "delay model produced invalid echo pair ({delay}, {echo})"
                );
                // The duplicate is its own per-edge copy: one extra
                // transmission, one `duplicated` tick, and its own Deliver
                // event down the normal queue path.
                self.stats.transmissions += 1;
                self.stats.duplicated += 1;
                for d in [delay, echo] {
                    if self.sink.enabled() {
                        self.sink.record(&EngineEvent::Transmit {
                            src,
                            dst,
                            t: self.now,
                            delay: Some(d),
                        });
                    }
                    self.push(
                        self.now + d,
                        EventKind::Deliver {
                            src,
                            dst,
                            msg: msg.clone(),
                        },
                    );
                }
            }
            Delivery::After(d) => {
                assert!(
                    d.is_finite() && d >= 0.0,
                    "delay model produced invalid delay {d}"
                );
                if self.sink.enabled() {
                    self.sink.record(&EngineEvent::Transmit {
                        src,
                        dst,
                        t: self.now,
                        delay: Some(d),
                    });
                }
                self.push(self.now + d, EventKind::Deliver { src, dst, msg });
            }
            Delivery::AtReceiverHw(target) => {
                if self.sink.enabled() {
                    self.sink.record(&EngineEvent::Transmit {
                        src,
                        dst,
                        t: self.now,
                        delay: None,
                    });
                }
                let item = PendingHw::Delivery { src, msg, target };
                if self.nodes.hot[dst.index()].hw.is_started() {
                    let (slot, gen) = self.nodes.pending[dst.index()].insert(item);
                    self.schedule_hw_due(dst, slot, gen, target);
                } else {
                    // The receiver has no clock yet; activate at its start.
                    self.nodes.cold[dst.index()].prestart.push(item);
                }
            }
        }
    }

    fn set_timer(&mut self, v: NodeId, timer: TimerId, target: f64) {
        assert!(target.is_finite(), "non-finite timer target");
        // Replace any previous target in this slot.
        let i = v.index();
        let slots = &mut self.nodes.cold[i].timer_slots;
        if let Some(pos) = slots.iter().position(|&(t, _)| t == timer) {
            let (_, old) = slots.swap_remove(pos);
            self.nodes.pending[i].take(old);
        }
        let (slot, gen) = self.nodes.pending[i].insert(PendingHw::Timer { timer, target });
        self.nodes.cold[i].timer_slots.push((timer, slot));
        if self.sink.enabled() {
            self.sink.record(&EngineEvent::TimerSet {
                node: v,
                timer,
                target_hw: target,
                t: self.now,
            });
        }
        self.schedule_hw_due(v, slot, gen, target);
    }

    fn schedule_hw_due(&mut self, v: NodeId, slot: u32, gen: u64, target: f64) {
        let t = self.nodes.hot[v.index()]
            .hw
            .time_when(target)
            .expect("node is started")
            .max(self.now);
        self.push(t, EventKind::HwDue { node: v, slot, gen });
    }

    fn reschedule_pending(&mut self, v: NodeId) {
        // Walk live items in creation order — the same ascending-unique-id
        // order the engine historically got from collecting and sorting
        // `HashMap` keys, so the requeue order (and hence the tie-broken,
        // byte-identical event stream) is preserved without allocating.
        // Re-stamped entries keep their generation: the superseded entry is
        // recognised as stale by the arithmetic due-check on pop, exactly as
        // before.
        let mut cursor = self.nodes.pending[v.index()].first();
        while let Some(slot) = cursor {
            let (gen, target, next) = self.nodes.pending[v.index()].cursor(slot);
            self.schedule_hw_due(v, slot, gen, target);
            cursor = next;
        }
    }
}
