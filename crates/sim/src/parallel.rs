//! The lookahead-windowed parallel driver: deterministic multi-core
//! execution of a single simulation.
//!
//! See `docs/PARALLEL.md` for the full protocol and determinism argument.
//! In brief:
//!
//! * The graph is split into `k` contiguous partitions
//!   ([`gcs_graph::partition::contiguous`]); each partition gets a full
//!   [`Engine`] replica owning its nodes' state, its share of the event
//!   queue, and a [`BufferSink`] capturing sink records.
//! * The delay model's [`lookahead`](crate::DelayModel::lookahead_at)
//!   `floor` bounds every delay from below, so **no message sent inside a
//!   time window of width `floor` can arrive within that window**. All
//!   partitions therefore process one window `[w, w + floor)` concurrently
//!   without violating causality; cross-partition sends divert into a
//!   per-partition outbox instead of any queue.
//! * At the window barrier, a serial replay pass merges the partitions' pop
//!   logs on `(time, seq)`, re-assigning the exact sequence numbers the
//!   sequential engine would have handed out and emitting buffered sink
//!   records in that order — making the observable event stream
//!   **byte-identical** to `run_until` at any thread count (pinned by
//!   `tests/parallel_parity.rs` against the golden fixture). Outbox
//!   messages then land in their destination partition's queue, and the
//!   next window begins.
//!
//! Within a window a partition stamps *provisional* sequence numbers
//! (`PROV_BASE + local id`). Provisional keys sort after every final key at
//! equal time and among themselves in push order — exactly the relative
//! order their final seqs will have — so each partition's pop order is
//! already correct before the replay pass renames the seqs (a strictly
//! monotone rewrite, so heap invariants survive in place).

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gcs_graph::{partition, NodeId};

use crate::delay::DelayModel;
use crate::engine::{Engine, EventKind, HotNode, MessageStats, NodeClocks};
use crate::protocol::Protocol;
use crate::queue::EventQueue;
use crate::sink::{EngineEvent, EventSink};

/// Base of the provisional sequence range. A partition's `seq` counter is
/// reset to this at every window start, so `seq - PROV_BASE` is the
/// window-local push id. Real (final) seqs stay far below: they would need
/// 2⁶³ events to collide.
pub(crate) const PROV_BASE: u64 = 1 << 63;

/// A cross-partition message waiting in a partition's outbox for the next
/// window barrier.
#[derive(Debug, Clone)]
pub(crate) struct Outgoing<M> {
    /// Delivery time (`send time + delay`), always at or past the window
    /// end thanks to the lookahead floor.
    pub(crate) time: f64,
    /// Provisional seq stamped at send; finalized through the replay map
    /// before the message enters the destination queue.
    pub(crate) seq: u64,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) msg: M,
}

/// One processed event in a partition's window log: enough to replay the
/// global order (`time`, raw `seq`) and its effects (how many seqs its
/// dispatch consumed, how many sink records it emitted). Pops that neither
/// pushed nor recorded anything (stale queue entries) are not logged — they
/// are invisible to both seq assignment and the event stream — *except* in
/// snapshot mode, where every pop is logged: the sequential engine snapshots
/// after every pop (stale ones included), so the barrier replay must too.
#[derive(Debug, Clone, Copy)]
struct PopRecord {
    time: f64,
    seq: u64,
    pushes: u32,
    events: u32,
}

/// The home node's post-dispatch state, logged once per pop in snapshot
/// mode. A dispatch mutates the logical-clock-relevant state (`proto`,
/// `hw`) of exactly one node — the event's home — so these entries are
/// sufficient to reconstruct every node's logical clock at every replayed
/// pop, with the *same bits* the sequential engine would have read.
#[derive(Debug, Clone)]
struct PopState<P: Protocol> {
    home: NodeId,
    hot: HotNode,
    proto: P,
}

/// Partition-replica context hung off [`Engine::remote`]; `None` on every
/// user-built engine.
#[derive(Debug, Clone)]
pub(crate) struct RemoteCtx<P: Protocol> {
    /// This replica's partition id.
    pub(crate) part: u32,
    /// Node → owning partition, shared by all replicas.
    pub(crate) owner: Arc<Vec<u32>>,
    /// Cross-partition sends of the current window, sharded by destination
    /// partition (`outbox[d]` holds sends to partition `d`; the own-partition
    /// shard stays empty). `transmit` already resolves the owner to decide a
    /// send is remote, so the shard append reuses that lookup, and the
    /// barrier routes whole shards without re-resolving per message.
    pub(crate) outbox: Vec<Vec<Outgoing<P::Msg>>>,
    /// Pop log of the current window.
    records: Vec<PopRecord>,
    /// Whether to log every pop with its [`PopState`] (snapshot mode).
    log_state: bool,
    /// Post-dispatch home-node states, parallel to `records` (snapshot
    /// mode only; empty otherwise).
    states: Vec<PopState<P>>,
    /// Total pops over all windows (profile accounting).
    pops: u64,
    /// Wall-time this partition spent executing the last window.
    run_dur: Duration,
}

/// Event-capturing sink for partition replicas. Mirrors the real sink's
/// `enabled()` so replicas record exactly the events the real sink would;
/// never asks for snapshots itself — when the *real* sink wants them, the
/// barrier replay reconstructs every per-event snapshot serially from the
/// partitions' [`PopState`] logs (see [`SnapReplay`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct BufferSink {
    events: Vec<EngineEvent>,
    on: bool,
}

impl EventSink for BufferSink {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: &EngineEvent) {
        self.events.push(*event);
    }
}

/// The coordinator's window instruction, published under a mutex between
/// two barrier waits.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Window end; admit events with `time < until` (or `<= until` when
    /// `inclusive` — the final window runs to the horizon inclusively, as
    /// `run_until` does).
    until: f64,
    inclusive: bool,
    /// Parallel phase is over; workers exit.
    stop: bool,
}

enum Decision {
    /// No events at or before the horizon remain anywhere.
    Done,
    /// The lookahead promise is gone (expired or zero): merge back and let
    /// the sequential loop finish.
    Fallback,
    Window {
        until: f64,
        inclusive: bool,
        last: bool,
    },
}

/// Serial-phase state owned by the coordinator: the global seq counter, the
/// per-partition push-id → final-seq maps, and reusable scratch buffers
/// (ping-ponged with partition buffers so steady-state windows allocate
/// nothing).
struct ReplayState<P: Protocol> {
    next_seq: u64,
    maps: Vec<Vec<u64>>,
    next_push: Vec<usize>,
    cursors: Vec<usize>,
    ev_cursors: Vec<usize>,
    st_cursors: Vec<usize>,
    records: Vec<Vec<PopRecord>>,
    events: Vec<Vec<EngineEvent>>,
    states: Vec<Vec<PopState<P>>>,
    /// Per-partition sharded outbox scratch, mirroring
    /// [`RemoteCtx::outbox`]: `outboxes[p][d]` holds partition `p`'s sends
    /// to partition `d`.
    outboxes: Vec<Vec<Vec<Outgoing<P::Msg>>>>,
}

/// Seq not yet assigned in a replay map.
const UNASSIGNED: u64 = u64::MAX;

impl<P: Protocol> ReplayState<P> {
    fn new(k: usize, next_seq: u64) -> Self {
        ReplayState {
            next_seq,
            maps: vec![Vec::new(); k],
            next_push: vec![0; k],
            cursors: vec![0; k],
            ev_cursors: vec![0; k],
            st_cursors: vec![0; k],
            records: vec![Vec::new(); k],
            events: vec![Vec::new(); k],
            states: (0..k).map(|_| Vec::new()).collect(),
            outboxes: (0..k)
                .map(|_| (0..k).map(|_| Vec::new()).collect())
                .collect(),
        }
    }
}

/// The serial snapshot reconstructor, used when the real sink wants
/// per-event snapshots (full or local). It shadows every node's
/// snapshot-relevant state (hot plane, `proto`) and the global queue depth,
/// updating both from each replayed pop, and feeds the sink the **exact**
/// snapshot the sequential engine would have produced after that pop: the
/// clock buffer (or the lazy [`NodeClocks`] view) evaluates the same
/// `proto.logical_value(hw.value_at(now))` expression on bit-identical
/// state, and the queue depth follows from pop/push arithmetic (each pop
/// removes one entry; each seq increment — queue push or outbox send,
/// which is a queue push sequentially — adds one). A local snapshot names
/// the pop's home node as touched — for a stale pop that is one more node
/// than the sequential engine names, which a local sink must (and does)
/// treat as a no-op re-read.
struct SnapReplay<P: Protocol> {
    hot: Vec<HotNode>,
    protos: Vec<P>,
    full: bool,
    local: bool,
    clock_buf: Vec<f64>,
    /// Touches not yet reported, starting with any the engine had pending
    /// when the parallel phase began.
    touched: Vec<NodeId>,
    depth: usize,
    now: f64,
    snapshots: u64,
    dur: Duration,
}

impl<P: Protocol> SnapReplay<P> {
    /// One reconstructed snapshot: fold the pop's home-node state into the
    /// shadow, advance time and queue depth, and call the sink.
    fn replay_pop(&mut self, rec: &PopRecord, st: &PopState<P>, sink: &mut impl EventSink) {
        let started = Instant::now();
        let i = st.home.index();
        self.hot[i] = st.hot.clone();
        self.protos[i].clone_from(&st.proto);
        self.now = self.now.max(rec.time);
        self.depth = self.depth + rec.pushes as usize - 1;
        let now = self.now;
        if self.full {
            self.clock_buf.clear();
            self.clock_buf.extend(
                self.protos
                    .iter()
                    .zip(&self.hot)
                    .map(|(p, h)| p.logical_value(h.hw.value_at(now))),
            );
            sink.snapshot(now, &self.clock_buf, self.depth);
        }
        if self.local {
            self.touched.push(st.home);
            let clocks = NodeClocks {
                protos: &self.protos,
                hot: &self.hot,
                now,
            };
            sink.local_snapshot(now, &self.touched, &clocks, self.depth);
            self.touched.clear();
        }
        self.snapshots += 1;
        self.dur += started.elapsed();
    }
}

impl<P, D, S> Engine<P, D, S>
where
    P: Protocol + Send,
    P::Msg: Send,
    D: DelayModel + Clone + Send,
    S: EventSink,
{
    /// Like [`Engine::run_until`], but executes graph partitions on up to
    /// `threads` worker threads in synchronized lookahead windows.
    ///
    /// The observable execution — event stream, per-event snapshots,
    /// protocol states, message statistics, final clocks — is
    /// **byte-identical** to `run_until` at any thread count. Sinks that
    /// want per-event snapshots (metrics, watchdog, skew observer, clock
    /// traces) are served by the barrier replay, which reconstructs every
    /// snapshot serially in exact sequential order (see [`SnapReplay`]).
    /// Parallel execution engages only when it can be proven safe;
    /// otherwise this transparently runs the sequential loop:
    ///
    /// * `threads < 2`, or the graph is too small to split;
    /// * the delay model offers no strictly positive
    ///   [`lookahead`](crate::DelayModel::lookahead_at).
    ///
    /// A promise that expires mid-run (e.g. the wavefront adversary's flip)
    /// merges partitions back and finishes the remainder sequentially.
    pub fn run_until_threaded(&mut self, t: f64, threads: usize) {
        assert!(t >= self.now, "cannot run backwards");
        let k = threads.min(self.graph.len());
        let usable = k >= 2
            && self
                .delay
                .lookahead_at(self.now)
                .is_some_and(|la| la.floor > 0.0 && la.valid_until > self.now);
        if usable {
            let completed = self.parallel_phase(t, k);
            if completed >= t {
                self.now = t;
                self.maybe_snapshot();
                return;
            }
            // Lookahead expired mid-run; fall through with `now` at the last
            // completed barrier and finish sequentially.
        }
        self.run_until(t);
    }

    /// Runs windows until the horizon is reached or the lookahead expires.
    /// Returns the time up to which every event has been processed; `self`
    /// is left merged and consistent at that time.
    fn parallel_phase(&mut self, horizon: f64, k: usize) -> f64 {
        let phase_started = Instant::now();
        let parts_assignment = partition::contiguous(&self.graph, k);
        let k = parts_assignment.parts as usize;
        if k < 2 {
            return self.now;
        }
        let (full, local) = (
            self.sink.wants_snapshots(),
            self.sink.wants_local_snapshots(),
        );
        let mut snap = (full || local).then(|| SnapReplay {
            hot: self.nodes.hot.clone(),
            protos: self.nodes.proto.clone(),
            full,
            local,
            clock_buf: Vec::with_capacity(if full { self.nodes.len() } else { 0 }),
            touched: std::mem::take(&mut self.touched),
            depth: self.queue.len(),
            now: self.now,
            snapshots: 0,
            dur: Duration::ZERO,
        });
        let owner = Arc::new(parts_assignment.assignment);
        let parts: Vec<Mutex<Engine<P, D, BufferSink>>> =
            self.split(&owner, k).into_iter().map(Mutex::new).collect();
        let barrier = Barrier::new(k);
        let plan = Mutex::new(Plan {
            until: self.now,
            inclusive: false,
            stop: false,
        });

        let mut completed = self.now;
        let mut window_start = self.now;
        let mut windows: u64 = 0;
        let mut replay_dur = Duration::ZERO;
        let mut idle_dur = Duration::ZERO;
        let mut replay = ReplayState::<P>::new(k, self.seq);

        std::thread::scope(|scope| {
            for i in 1..k {
                let (barrier, plan, parts) = (&barrier, &plan, &parts);
                scope.spawn(move || loop {
                    barrier.wait(); // (1) plan published
                    let Plan {
                        until,
                        inclusive,
                        stop,
                    } = *plan.lock().expect("plan lock");
                    if stop {
                        break;
                    }
                    let started = Instant::now();
                    let mut eng = parts[i].lock().expect("partition lock");
                    eng.run_window(until, inclusive);
                    eng.remote_mut().run_dur = started.elapsed();
                    drop(eng);
                    barrier.wait(); // (2) window complete
                });
            }

            // Coordinator: plans windows, runs partition 0, and performs
            // all serial barrier work. Every exit path publishes `stop` and
            // releases barrier (1) exactly once, matching the workers.
            loop {
                let decision = {
                    // Partitions are paused here; locks are uncontended.
                    let guards: Vec<_> = parts
                        .iter()
                        .map(|m| m.lock().expect("partition lock"))
                        .collect();
                    self.plan_window(&guards, window_start, horizon)
                };
                let (until, inclusive, last) = match decision {
                    Decision::Done => {
                        completed = horizon;
                        plan.lock().expect("plan lock").stop = true;
                        barrier.wait();
                        break;
                    }
                    Decision::Fallback => {
                        plan.lock().expect("plan lock").stop = true;
                        barrier.wait();
                        break;
                    }
                    Decision::Window {
                        until,
                        inclusive,
                        last,
                    } => (until, inclusive, last),
                };
                *plan.lock().expect("plan lock") = Plan {
                    until,
                    inclusive,
                    stop: false,
                };
                barrier.wait(); // (1)
                let window_started = Instant::now();
                {
                    let mut eng = parts[0].lock().expect("partition lock");
                    eng.run_window(until, inclusive);
                    eng.remote_mut().run_dur = window_started.elapsed();
                }
                barrier.wait(); // (2)
                let window_wall = window_started.elapsed();

                let replay_started = Instant::now();
                {
                    let mut guards: Vec<_> = parts
                        .iter()
                        .map(|m| m.lock().expect("partition lock"))
                        .collect();
                    replay_window(&mut replay, &mut guards, &mut self.sink, snap.as_mut());
                    for g in &guards {
                        idle_dur += window_wall.saturating_sub(g.remote_ref().run_dur);
                    }
                }
                replay_dur += replay_started.elapsed();
                windows += 1;
                window_start = until;
                completed = if last { horizon } else { until };
                if last {
                    plan.lock().expect("plan lock").stop = true;
                    barrier.wait();
                    break;
                }
            }
        });

        let parts: Vec<Engine<P, D, BufferSink>> = parts
            .into_iter()
            .map(|m| m.into_inner().expect("no panics while locked"))
            .collect();
        self.merge(parts, &owner, completed, replay.next_seq);
        if let Some(snap) = snap.as_mut() {
            debug_assert_eq!(
                snap.depth,
                self.queue.len(),
                "reconstructed queue depth diverged from the merged queue"
            );
            // Hand back touches no replayed pop reported (a phase that
            // popped nothing).
            std::mem::swap(&mut self.touched, &mut snap.touched);
        }
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.par_workers = profile.par_workers.max(k as u64);
            profile.par_windows += windows;
            profile.par_replay += replay_dur;
            profile.par_idle += idle_dur;
            let wall = phase_started.elapsed();
            profile.par_wall += wall;
            // The phase's wall time stands in for the per-event dispatch
            // timing the sequential loop would have accumulated, so
            // `dispatch` stays the run's total event-processing time.
            profile.dispatch += wall;
            if let Some(snap) = &snap {
                profile.snapshot += snap.dur;
                profile.snapshots += snap.snapshots;
            }
        }
        completed
    }

    /// Chooses the next window (serial phase; all partitions paused).
    fn plan_window(
        &self,
        guards: &[MutexGuard<'_, Engine<P, D, BufferSink>>],
        window_start: f64,
        horizon: f64,
    ) -> Decision {
        let next = guards
            .iter()
            .filter_map(|g| g.queue.peek_time())
            .min_by(f64::total_cmp);
        let Some(next) = next else {
            return Decision::Done;
        };
        if next > horizon {
            return Decision::Done;
        }
        // Skip idle stretches: the window may start at the earliest pending
        // event rather than the previous window's end. This only moves
        // window boundaries, never the replayed order.
        let w = window_start.max(next);
        let Some(la) = self.delay.lookahead_at(w) else {
            return Decision::Fallback;
        };
        if la.floor <= 0.0 || la.valid_until <= w {
            return Decision::Fallback;
        }
        let cap = w + la.floor;
        if cap > horizon && la.valid_until > horizon {
            // Final window: run to the horizon inclusively, as `run_until`
            // does. Any send at `s ≤ horizon` arrives at `s + d ≥ w + floor
            // > horizon` (float addition is monotone), so nothing due by the
            // horizon can be missed.
            return Decision::Window {
                until: horizon,
                inclusive: true,
                last: true,
            };
        }
        let until = cap.min(la.valid_until);
        if until <= w {
            // Zero-width window (promise expires immediately, or `w` is so
            // large the floor vanishes in rounding): no parallel progress.
            return Decision::Fallback;
        }
        Decision::Window {
            until,
            inclusive: false,
            last: false,
        }
    }

    /// Builds the `k` partition replicas and distributes the event queue.
    fn split(&mut self, owner: &Arc<Vec<u32>>, k: usize) -> Vec<Engine<P, D, BufferSink>> {
        assert!(
            self.seq < PROV_BASE,
            "sequence counter overflowed into the provisional range"
        );
        let n = self.graph.len();
        let mut parts: Vec<Engine<P, D, BufferSink>> = (0..k)
            .map(|p| Engine {
                graph: self.graph.clone(),
                delay: self.delay.clone(),
                now: self.now,
                seq: PROV_BASE,
                queue: EventQueue::with_capacity_and_floor(4 * n / k + 16, self.delay.min_delay()),
                // Full-length replica: only owned entries are ever touched
                // (events route by owner), and `merge` swaps them back. This
                // wastes clone work on unowned entries but keeps every
                // global `NodeId` a direct index — no remapping anywhere.
                nodes: self.nodes.clone(),
                stats: MessageStats {
                    per_node_sends: vec![0; n],
                    per_node_deliveries: vec![0; n],
                    per_node_dropped: vec![0; n],
                    ..MessageStats::default()
                },
                sink: BufferSink {
                    events: Vec::new(),
                    on: self.sink.enabled(),
                },
                clock_buf: Vec::new(),
                touched: Vec::new(),
                action_buf: Vec::with_capacity(8),
                profile: None,
                remote: Some(Box::new(RemoteCtx {
                    part: p as u32,
                    owner: Arc::clone(owner),
                    outbox: vec![Vec::new(); k],
                    records: Vec::new(),
                    log_state: self.sink.wants_snapshots() || self.sink.wants_local_snapshots(),
                    states: Vec::new(),
                    pops: 0,
                    run_dur: Duration::ZERO,
                })),
            })
            .collect();
        while let Some((time, seq, kind)) = self.queue.pop_entry() {
            let home = owner[kind.home().index()] as usize;
            parts[home].queue.push(time, seq, kind);
        }
        parts
    }

    /// Reabsorbs the partitions: owned node states, finalized queues,
    /// summed message stats. Leaves `self` exactly as the sequential engine
    /// would stand at `completed`.
    fn merge(
        &mut self,
        parts: Vec<Engine<P, D, BufferSink>>,
        owner: &[u32],
        completed: f64,
        next_seq: u64,
    ) {
        self.now = completed;
        self.seq = next_seq;
        for (p, mut part) in parts.into_iter().enumerate() {
            let remote = part.remote.as_deref().expect("partition replica");
            debug_assert!(
                remote.outbox.iter().all(Vec::is_empty),
                "unrouted outbox at merge"
            );
            let pops = remote.pops;
            for (i, &o) in owner.iter().enumerate() {
                if o == p as u32 {
                    self.nodes.swap_entry(&mut part.nodes, i);
                }
            }
            while let Some((time, seq, kind)) = part.queue.pop_entry() {
                debug_assert!(seq < PROV_BASE, "provisional seq escaped the phase");
                self.queue.push(time, seq, kind);
            }
            let s = &part.stats;
            self.stats.send_events += s.send_events;
            self.stats.transmissions += s.transmissions;
            self.stats.deliveries += s.deliveries;
            self.stats.dropped += s.dropped;
            self.stats.dropped_model += s.dropped_model;
            self.stats.dropped_faults += s.dropped_faults;
            self.stats.duplicated += s.duplicated;
            for (acc, x) in self.stats.per_node_sends.iter_mut().zip(&s.per_node_sends) {
                *acc += x;
            }
            for (acc, x) in self
                .stats
                .per_node_deliveries
                .iter_mut()
                .zip(&s.per_node_deliveries)
            {
                *acc += x;
            }
            for (acc, x) in self
                .stats
                .per_node_dropped
                .iter_mut()
                .zip(&s.per_node_dropped)
            {
                *acc += x;
            }
            if let Some(profile) = self.profile.as_deref_mut() {
                profile.events += pops;
            }
        }
    }
}

impl<P: Protocol, D: DelayModel> Engine<P, D, BufferSink> {
    pub(crate) fn remote_mut(&mut self) -> &mut RemoteCtx<P> {
        self.remote.as_deref_mut().expect("partition replica")
    }

    fn remote_ref(&self) -> &RemoteCtx<P> {
        self.remote.as_deref().expect("partition replica")
    }

    /// Processes this partition's events inside one window, logging each
    /// effective pop for the barrier replay. In snapshot mode every pop is
    /// logged — stale ones included — together with the home node's
    /// post-dispatch state, because the sequential engine snapshots after
    /// every pop.
    fn run_window(&mut self, until: f64, inclusive: bool) {
        let log_state = self.remote_ref().log_state;
        while let Some(next) = self.queue.peek_time() {
            let admit = if inclusive {
                next <= until
            } else {
                next < until
            };
            if !admit {
                break;
            }
            let seq_before = self.seq;
            let ev_before = self.sink.events.len();
            let (time, key_seq, kind) = self.queue.pop_entry().expect("peeked above");
            let home = kind.home();
            self.now = self.now.max(time);
            self.dispatch(kind);
            let pushes = (self.seq - seq_before) as u32;
            let events = (self.sink.events.len() - ev_before) as u32;
            if log_state {
                let state = PopState {
                    home,
                    hot: self.nodes.hot[home.index()].clone(),
                    proto: self.nodes.proto[home.index()].clone(),
                };
                let remote = self.remote_mut();
                remote.pops += 1;
                remote.records.push(PopRecord {
                    time,
                    seq: key_seq,
                    pushes,
                    events,
                });
                remote.states.push(state);
            } else {
                let remote = self.remote_mut();
                remote.pops += 1;
                if pushes > 0 || events > 0 {
                    remote.records.push(PopRecord {
                        time,
                        seq: key_seq,
                        pushes,
                        events,
                    });
                }
            }
        }
    }
}

/// The serial barrier pass: merges the window's per-partition pop logs into
/// the global `(time, seq)` order, assigns the exact sequence numbers the
/// sequential engine would have used, emits buffered sink records in that
/// order (and, in snapshot mode, the reconstructed per-pop snapshot),
/// rewrites still-queued provisional keys, and routes outboxes.
fn replay_window<P, D, S>(
    state: &mut ReplayState<P>,
    guards: &mut [MutexGuard<'_, Engine<P, D, BufferSink>>],
    sink: &mut S,
    mut snap: Option<&mut SnapReplay<P>>,
) where
    P: Protocol,
    D: DelayModel,
    S: EventSink,
{
    let k = guards.len();
    // Take the window's logs, leaving last window's (empty, capacity-bearing)
    // scratch in their place.
    for (p, guard) in guards.iter_mut().enumerate() {
        let eng = &mut **guard;
        state.records[p].clear();
        state.events[p].clear();
        state.states[p].clear();
        std::mem::swap(&mut state.records[p], &mut eng.remote_mut().records);
        let sink_events = &mut eng.sink.events;
        std::mem::swap(&mut state.events[p], sink_events);
        std::mem::swap(&mut state.states[p], &mut eng.remote_mut().states);
        let pushes = (eng.seq - PROV_BASE) as usize;
        state.maps[p].clear();
        state.maps[p].resize(pushes, UNASSIGNED);
        state.next_push[p] = 0;
        state.cursors[p] = 0;
        state.ev_cursors[p] = 0;
        state.st_cursors[p] = 0;
    }

    // K-way merge by (time, final seq). A provisional head's own push was
    // made by an earlier pop of the same partition (cross-partition pushes
    // only enter queues with final seqs at barriers), so it is always
    // resolvable by the time it reaches the head.
    loop {
        let mut best: Option<(f64, u64, usize)> = None;
        for p in 0..k {
            let Some(rec) = state.records[p].get(state.cursors[p]) else {
                continue;
            };
            let seq = if rec.seq >= PROV_BASE {
                let mapped = state.maps[p][(rec.seq - PROV_BASE) as usize];
                debug_assert_ne!(mapped, UNASSIGNED, "pop replayed before its push");
                mapped
            } else {
                rec.seq
            };
            let better = match best {
                None => true,
                Some((bt, bs, _)) => match rec.time.total_cmp(&bt) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => seq < bs,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                best = Some((rec.time, seq, p));
            }
        }
        let Some((_, _, p)) = best else {
            break;
        };
        let rec = state.records[p][state.cursors[p]];
        state.cursors[p] += 1;
        // This pop's pushes get the next consecutive global seqs — exactly
        // the sequential assignment, since sequential pops are serial and
        // this is the sequential pop order.
        for _ in 0..rec.pushes {
            state.maps[p][state.next_push[p]] = state.next_seq;
            state.next_push[p] += 1;
            state.next_seq += 1;
        }
        let evs = &state.events[p][state.ev_cursors[p]..state.ev_cursors[p] + rec.events as usize];
        for ev in evs {
            sink.record(ev);
        }
        state.ev_cursors[p] += rec.events as usize;
        if let Some(snap) = snap.as_deref_mut() {
            let st = &state.states[p][state.st_cursors[p]];
            state.st_cursors[p] += 1;
            snap.replay_pop(&rec, st, sink);
        }
    }

    for (p, guard) in guards.iter_mut().enumerate() {
        debug_assert_eq!(
            state.next_push[p],
            state.maps[p].len(),
            "every push belongs to a replayed pop"
        );
        debug_assert_eq!(state.ev_cursors[p], state.events[p].len());
        debug_assert!(
            snap.is_none() || state.st_cursors[p] == state.states[p].len(),
            "every logged pop state belongs to a replayed pop"
        );
        // Finalize still-queued provisional keys in place. The map is
        // strictly increasing in push id, and every new seq exceeds every
        // final seq already present, so the rewrite is order-preserving and
        // the heap invariant survives untouched.
        let map = &state.maps[p];
        guard.queue.remap_seqs(|s| {
            if s >= PROV_BASE {
                let mapped = map[(s - PROV_BASE) as usize];
                debug_assert_ne!(mapped, UNASSIGNED);
                mapped
            } else {
                s
            }
        });
        guard.seq = PROV_BASE;
    }

    // Route cross-partition messages: finalize their seqs through the
    // sender's map, then enqueue whole shards at their owners — the send
    // already resolved the destination partition, so routing never looks an
    // owner up again. Delivery times sit at or past the window end
    // (lookahead floor), so they never land in a partition's past. Shard
    // order differs from send order, but queue pushes commute: pop order is
    // the sorted key order, and the final seqs were fixed by the replay.
    for (p, guard) in guards.iter_mut().enumerate() {
        debug_assert!(state.outboxes[p].iter().all(Vec::is_empty));
        std::mem::swap(&mut state.outboxes[p], &mut guard.remote_mut().outbox);
    }
    for p in 0..k {
        let map = &state.maps[p];
        for (dest, shard) in state.outboxes[p].iter_mut().enumerate() {
            debug_assert!(dest != p || shard.is_empty(), "own-partition shard");
            // `drain` keeps the allocation; vecs ping-pong back next window.
            for out in shard.drain(..) {
                let seq = map[(out.seq - PROV_BASE) as usize];
                debug_assert_ne!(seq, UNASSIGNED);
                guards[dest].queue.push(
                    out.time,
                    seq,
                    EventKind::Deliver {
                        src: out.src,
                        dst: out.dst,
                        msg: out.msg,
                    },
                );
            }
        }
    }
}
