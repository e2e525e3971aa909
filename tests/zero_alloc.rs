//! Allocation-regression pin of the engine's steady-state hot path.
//!
//! A counting global allocator wraps `System`; after warming an F2
//! wavefront run past its flip, 10 000 further events must dispatch with
//! **zero** heap allocations. Every per-event allocation the hot path used
//! to make — the pending `HashMap` inserts, the fresh `Vec<Action>` per
//! handler, the `neighbors.to_vec()` broadcast clone, the collect-and-sort
//! in rate-change rescheduling — would trip this test if reintroduced.
//!
//! The same bar holds for the default `gcs run` observability stack
//! (`SinkSet::new`: skew observer plus flight recorder), whose observer
//! runs the event-local path: its certificate heaps and scratch are sized
//! on the first observation and only re-keyed afterwards, and at most one
//! sample in ten builds the clock vector. Adding the metrics sink (`gcs
//! run --metrics`) keeps both properties: it is fed from the same
//! event-local sample. With the invariant watchdog attached
//! (`gcs run --watchdog`), the watchdog runs event-locally too: Conditions
//! (1)/(2) are checked at the touched nodes and re-certified in an alarm
//! heap sized at its first sample, and Def. 5.6 holds from the observer's
//! edge record, so the all-pairs legal-state checker is never built and
//! the window stays allocation-free too.
//!
//! This file holds a single `#[test]` on purpose: the allocator count is
//! process-global, and a sibling test thread would pollute the window.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcs_adversary::WavefrontDelay;
use gcs_analysis::MetricsSink;
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::{ClockView, Engine, EngineEvent, EventSink, RecorderSink};
use gcs_sweep::{build_rates, Scenario, ScenarioSpec, SinkSet};

/// Counts every allocation (alloc + realloc) made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A [`SinkSet`] that counts the samples in which it read the clock vector.
struct Counted {
    set: SinkSet,
    vectors: usize,
}

impl EventSink for Counted {
    fn record(&mut self, event: &EngineEvent) {
        self.set.record(event);
    }

    fn wants_snapshots(&self) -> bool {
        self.set.wants_snapshots()
    }

    fn wants_previous_sample(&self) -> bool {
        self.set.wants_previous_sample()
    }

    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        let read = common::sample_noting_vector(&mut self.set, t, touched, clocks, queue_depth);
        self.vectors += usize::from(read);
    }
}

impl Counted {
    fn new(set: SinkSet) -> Self {
        Counted { set, vectors: 0 }
    }
}

#[test]
fn steady_state_window_makes_no_heap_allocations() {
    // The engine_hotpath bench fixture at n = 64: A^opt on a path under the
    // wavefront adversary with distance-split drift.
    let (eps, t_max, flip) = (0.02, 0.25, 30.0);
    let n = 64;
    let warmup_horizon = 40.0;
    let graph = topology::path(n);
    let boundary = (graph.diameter() / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let drift = gcs_time::DriftBounds::new(eps).unwrap();
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let params = Params::recommended(eps, t_max).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    // Warm past the wavefront flip: every buffer reaches its high-water
    // capacity (event queue, action buffer, pending slabs, A^opt state).
    engine.run_until(warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "engine hot path allocated {allocated} times across a 10k-event steady-state window"
    );

    // Same fixture with the flight recorder armed: recording every event
    // into the bounded rings must also be allocation-free — the rings are
    // preallocated at construction and slots are fixed-width (serialization
    // happens only at dump time).
    let graph = topology::path(n);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(RecorderSink::new())
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);

    let recorded_before = engine.sink().recorded();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "flight recorder allocated {allocated} times across a 10k-event steady-state window"
    );
    assert!(
        engine.sink().recorded() > recorded_before,
        "the recorder must have been recording during the window"
    );

    // Large-n case: the SoA hot/cold node planes, the packed-key queue,
    // and the pending slabs all pre-reserve capacity at build time, so the
    // steady state must stay allocation-free when the working set is far
    // beyond cache.
    let n = 8192;
    let graph = topology::path(n);
    let boundary = (graph.diameter() / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "large-n hot path allocated {allocated} times across a 10k-event window at n = {n}"
    );

    // Constant-delay case: every delivery lands exactly one delay ahead,
    // so sends of one instant tie in time and break by seq. The queue's
    // heap and slab must reach a hard allocation-free steady state here
    // too. The warm-up is ten times the wavefront cases' (the run is
    // deterministic: the measured window allocates zero reproducibly).
    let n = 256;
    let graph = topology::path(n);
    let delay = gcs_sim::ConstantDelay::new(0.1);
    let schedules = gcs_sim::rates::split(n, drift, move |v| v < n / 2);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(10.0 * warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the constant-delay fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "constant-delay hot path allocated {allocated} times across a 10k-event window"
    );

    // The default `gcs run` sinks (`gcs run --topology path:1024` with its
    // uniform delays and random-walk rates, warmed past the start-up
    // fan-out): the skew observer's event-local path (certificate heaps,
    // per-node caches) plus the flight recorder must not allocate per
    // event either — nor must its full-scan stints, should it take any.
    let n = 1024;
    let graph = topology::path(n);
    let eps = 0.01;
    let drift = gcs_time::DriftBounds::new(eps).unwrap();
    let horizon = 20.0;
    let schedules = build_rates("walk", &graph, drift, horizon, 1).unwrap();
    let sinks = Counted::new(SinkSet::new(&graph));
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(Params::recommended(eps, 0.1).unwrap()); n])
        .delay_model(gcs_sim::UniformDelay::new(0.1, 1))
        .rate_schedules(schedules)
        .event_sink(sinks)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(10.0);

    let observed_before = engine.sink().set.observer.observations();
    let vectors_before = engine.sink().vectors;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the uniform-delay fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "default gcs run sinks allocated {allocated} times across a 10k-event window"
    );
    assert_eq!(
        engine.sink().set.observer.observations() - observed_before,
        10_000,
        "the observer must have seen every event of the window"
    );
    let vectors = engine.sink().vectors - vectors_before;
    assert!(
        vectors <= 1_000,
        "{vectors} of 10 000 samples built the clock vector"
    );

    // The same fixture under `gcs run --metrics`: the metrics sink is fed
    // from the event-local sample (global skew from the observer's extremes),
    // so it neither allocates nor brings back the per-event clock vector.
    let graph = topology::path(n);
    let schedules = build_rates("walk", &graph, drift, horizon, 1).unwrap();
    let mut sinks = SinkSet::new(&graph);
    sinks.metrics = Some(MetricsSink::new());
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(Params::recommended(eps, 0.1).unwrap()); n])
        .delay_model(gcs_sim::UniformDelay::new(0.1, 1))
        .rate_schedules(schedules)
        .event_sink(Counted::new(sinks))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(10.0);

    let recorded_before = engine.sink().set.recorded();
    let vectors_before = engine.sink().vectors;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the uniform-delay fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "gcs run --metrics sinks allocated {allocated} times across a 10k-event window"
    );
    assert!(
        engine.sink().set.recorded() > recorded_before,
        "the metrics window must have recorded events"
    );
    let vectors = engine.sink().vectors - vectors_before;
    assert!(
        vectors <= 1_000,
        "{vectors} of 10 000 samples built the clock vector with metrics on"
    );

    // `gcs run --topology grid:12x12 --watchdog` with the other `gcs run`
    // defaults: the watchdog checks every event without a clock vector,
    // and its Def. 5.6 check must stay on the edge certificate.
    let scenario = Scenario::build(ScenarioSpec {
        topology: "grid:12x12",
        eps: 0.01,
        t: 0.1,
        sigma: None,
        delay: "uniform",
        rates: "walk",
        faults: Vec::new(),
        seed: 42,
        horizon: 30.0,
        horizon_per_diameter: 0.0,
    })
    .unwrap();
    let mut sinks = SinkSet::new(&scenario.graph);
    sinks.watchdog = Some(scenario.watchdog());
    let n = scenario.graph.len();
    let mut engine = Engine::builder(scenario.graph)
        .protocols(vec![AOpt::new(scenario.params); n])
        .delay_model(scenario.delay)
        .rate_schedules(scenario.schedules)
        .event_sink(Counted::new(sinks))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(5.0);

    let watchdog = engine.sink().set.watchdog.as_ref().unwrap();
    let snapshots_before = watchdog.snapshots();
    let vectors_before = engine.sink().vectors;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the uniform-delay fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "gcs run --watchdog sinks allocated {allocated} times across a 10k-event window"
    );
    let watchdog = engine.sink().set.watchdog.as_ref().unwrap();
    assert!(!watchdog.tripped(), "{:?}", watchdog.trip());
    assert_eq!(watchdog.snapshots() - snapshots_before, 10_000);
    assert!(
        !watchdog.wants_vectors(),
        "the watchdog fell back to vectors"
    );
    // Only the observer's full-scan stints (if any) read the vector.
    let vectors = engine.sink().vectors - vectors_before;
    assert!(
        vectors < 1_000,
        "{vectors} of 10 000 samples built the clock vector with the watchdog on"
    );
    assert_eq!(
        watchdog.exact_scans(),
        0,
        "a healthy run must never leave the edge certificate"
    );
}
