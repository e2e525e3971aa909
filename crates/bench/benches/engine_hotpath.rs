//! engine_hotpath — throughput and allocation behaviour of the engine's
//! steady-state event loop.
//!
//! The fixture is the F2 wavefront configuration (the local-skew builder
//! behind Theorem 5.10): `A^opt` on a path under `WavefrontDelay` with
//! distance-split drift, at n ∈ {64, 256, 1024, 65536, 10^6}. Each size is
//! warmed past the wavefront flip, then a fixed window of events is stepped
//! while measuring wall time and global heap allocations. Three metrics per
//! size land in `BENCH_engine_hotpath.json` (`gcs-bench-result/v1`):
//!
//! * `events_per_sec_per_core/n=N` — the headline: steady-state dispatch
//!   throughput divided by `config.cores` (1: the engine is sequential),
//! * `events_per_sec/n=N`   — raw steady-state dispatch throughput,
//! * `allocs_per_event/n=N` — heap allocations per dispatched event
//!   (the engine's steady state is allocation-free; see
//!   `tests/zero_alloc.rs` for the hard assertion).
//!
//! Set `GCS_BENCH_QUICK=1` (CI) to run n ∈ {64, 65536} with a smaller
//! window — one small row for the constant factors, one large row so cache
//! effects and the pre-reserved SoA planes stay covered in CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gcs_adversary::WavefrontDelay;
use gcs_analysis::Table;
use gcs_bench::{banner, f2, BenchReport};
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::{rates, Engine};

/// Counts every heap allocation (alloc + realloc) made by the process.
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

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.25;
/// Wavefront flip time; the warmup horizon runs past it so the measured
/// window sees the post-flip steady state (instant near-side delays).
const FLIP: f64 = 30.0;
const WARMUP_HORIZON: f64 = 40.0;

fn fixture(n: usize) -> Engine<AOpt, WavefrontDelay> {
    let graph = topology::path(n);
    // A path's diameter is n - 1 by construction; `graph.diameter()` is an
    // all-pairs BFS scan whose O(n^2) build would dwarf the run at n = 10^6.
    // Likewise the schedules below reproduce `build_rates("distsplit", ..)`
    // exactly (on a path, distance from node 0 is the node index) without
    // its internal diameter scan.
    let diameter = (n - 1) as u32;
    let boundary = (diameter / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), T_MAX, FLIP, boundary);
    let drift = gcs_time::DriftBounds::new(EPS).unwrap();
    let half = diameter / 2;
    let schedules = rates::split(n, drift, move |v| (v as u32) < half);
    let params = Params::recommended(EPS, T_MAX).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine
}

/// Number of measurement windows per size; the fastest is reported
/// (min-of-N rejects scheduler-noise outliers; allocations are summed —
/// zero must hold across *every* window).
const REPS: usize = 5;

/// Cores used by the sequential engine — the divisor behind the
/// `events_per_sec_per_core` headline.
const CORES: u64 = 1;

/// Steps `REPS` windows of exactly `window` events each, returning the
/// fastest window's wall seconds and the total allocations.
fn measure(engine: &mut Engine<AOpt, WavefrontDelay>, window: u64) -> (f64, u64) {
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let started = Instant::now();
        for _ in 0..window {
            engine
                .step()
                .expect("the wavefront fixture never drains its queue");
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    (best, allocs)
}

fn main() {
    banner(
        "engine_hotpath",
        "steady-state events/sec and allocations on the F2 wavefront fixture",
    );
    let quick = std::env::var("GCS_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let sizes: &[usize] = if quick {
        &[64, 65_536]
    } else {
        &[64, 256, 1024, 65_536, 1_000_000]
    };
    let window: u64 = if quick { 50_000 } else { 200_000 };

    let mut results = BenchReport::new("engine_hotpath");
    results
        .config("fixture", "f2-wavefront")
        .config("eps", EPS)
        .config("t", T_MAX)
        .config("flip", FLIP)
        .config("warmup_horizon", WARMUP_HORIZON)
        .config("window_events", window)
        .config("reps_best_of", REPS)
        .config("cores", CORES)
        .config("quick", quick);

    let mut table = Table::new(vec!["n", "events/sec/core", "ns/event", "allocs/event"]);
    for &n in sizes {
        let mut engine = fixture(n);
        engine.run_until(WARMUP_HORIZON);
        let (wall, allocs) = measure(&mut engine, window);
        let events_per_sec = window as f64 / wall;
        let allocs_per_event = allocs as f64 / (REPS as u64 * window) as f64;
        results.metric(
            &format!("events_per_sec_per_core/n={n}"),
            events_per_sec / CORES as f64,
        );
        results.metric(&format!("events_per_sec/n={n}"), events_per_sec);
        results.metric(&format!("allocs_per_event/n={n}"), allocs_per_event);
        table.row(vec![
            n.to_string(),
            format!("{:.0}", events_per_sec / CORES as f64),
            format!("{:.0}", 1e9 * wall / window as f64),
            f2(allocs_per_event),
        ]);
    }
    println!("{table}");

    match results.write() {
        Ok(path) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("warning: could not write bench results: {e}"),
    }
}
