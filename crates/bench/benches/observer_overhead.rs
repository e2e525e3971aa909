//! Criterion micro-benchmark: cost of the observability layer.
//!
//! The engine is generic over its [`gcs_sim::EventSink`], and the default
//! [`gcs_sim::NullSink`] reports `enabled() == false`, so every emission
//! site monomorphizes to a no-op. This benchmark pins that promise down:
//! the same `A^opt` run with the default sink, an explicit `NullSink`, the
//! always-armed flight recorder, a counting metrics sink, and a full JSONL
//! encoder — the first two must be indistinguishable (≤ ~1% apart), the
//! recorder must stay within the always-on budget (`overhead_ratio ≤ 1.10`,
//! CI-gated), and the figures for the heavier sinks tell you what
//! `--events`/`--metrics` actually costs.
//!
//! A second row at n = 4096 checks that the recorder's cost stays flat as
//! the node count (and hence the partition spread) grows.
//!
//! The `gcs_run_sinks` rows measure the default `gcs run` composition —
//! the `SinkSet` with its always-on skew observer and flight recorder — on
//! the default `gcs run` scenario at n = 32 and n = 4096, against the bare
//! engine. The observer works event-locally, so its per-event cost must
//! not grow with n the way a per-event `O(n)` clock scan does; CI gates the
//! n = 4096 ratio. The `gcs_run_sinks_metrics_n4096` row adds the metrics
//! sink (`gcs run --metrics`), which the set feeds from the same
//! event-local sample; CI gates it at the same bound, so metrics cannot
//! quietly go back to a per-event clock vector. The
//! `gcs_run_sinks_watchdog` rows at n = 1024 and n = 4096 add the
//! invariant watchdog (`gcs run --watchdog`), which the set also feeds
//! event-locally: its cost per event must not grow with n either.

use criterion::{BatchSize, Criterion};
use gcs_adversary::WavefrontDelay;
use gcs_analysis::{InvariantWatchdog, JsonlWriter, MetricsSink};
use gcs_bench::BenchReport;
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::{DelayModel, Engine, EventSink, NullSink, RecorderSink, UniformDelay};
use gcs_sweep::{build_rates, SinkSet};

const N: usize = 32;
const HORIZON: f64 = 100.0;
/// The large-n row: same per-node workload shape, 128× the nodes, with the
/// horizon cut so one iteration stays in the same time budget.
const N_LARGE: usize = 4096;
const HORIZON_LARGE: f64 = 2.0;

fn make_engine<S: EventSink>(n: usize, sink: S) -> Engine<AOpt, UniformDelay, S> {
    let params = Params::recommended(0.02, 0.25).unwrap();
    let graph = topology::path(n);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(0.25, 3))
        .event_sink(sink)
        .build();
    engine.wake_all_at(0.0);
    engine
}

fn make_default_engine(n: usize) -> Engine<AOpt, UniformDelay> {
    let params = Params::recommended(0.02, 0.25).unwrap();
    let graph = topology::path(n);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(0.25, 3))
        .build();
    engine.wake_all_at(0.0);
    engine
}

fn observer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer_overhead");

    // Baseline: the default engine type, no `.event_sink(..)` call at all.
    group.bench_function("baseline_default", |b| {
        b.iter_batched(
            || make_default_engine(N),
            |mut engine| {
                engine.run_until(HORIZON);
                engine.message_stats().deliveries
            },
            BatchSize::SmallInput,
        );
    });

    // Explicit NullSink through the generic path — must match the baseline.
    group.bench_function("null_sink", |b| {
        b.iter_batched(
            || make_engine(N, NullSink),
            |mut engine| {
                engine.run_until(HORIZON);
                engine.message_stats().deliveries
            },
            BatchSize::SmallInput,
        );
    });

    // The always-armed flight recorder: raw events into bounded per-node
    // rings. This is what every `gcs run` now pays by default.
    group.bench_function("recorder_sink", |b| {
        b.iter_batched(
            || make_engine(N, RecorderSink::new()),
            |mut engine| {
                engine.run_until(HORIZON);
                engine.into_sink().recorded()
            },
            BatchSize::SmallInput,
        );
    });

    // Counting sink: counters + histograms on every event and snapshot.
    group.bench_function("metrics_sink", |b| {
        b.iter_batched(
            || make_engine(N, MetricsSink::new()),
            |mut engine| {
                engine.run_until(HORIZON);
                engine.message_stats().deliveries
            },
            BatchSize::SmallInput,
        );
    });

    // Full JSONL encoding into an in-memory buffer (no disk I/O).
    group.bench_function("jsonl_writer", |b| {
        b.iter_batched(
            || make_engine(N, JsonlWriter::new(Vec::with_capacity(1 << 20))),
            |mut engine| {
                engine.run_until(HORIZON);
                engine.into_sink().finish().map(|v| v.len()).unwrap()
            },
            BatchSize::SmallInput,
        );
    });

    // Large-n rows: the recorder's per-event cost must not degrade when
    // events spread over many nodes (partition indexing, cache behavior).
    group.bench_function("baseline_default_n4096", |b| {
        b.iter_batched(
            || make_default_engine(N_LARGE),
            |mut engine| {
                engine.run_until(HORIZON_LARGE);
                engine.message_stats().deliveries
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("recorder_sink_n4096", |b| {
        b.iter_batched(
            || make_engine(N_LARGE, RecorderSink::new()),
            |mut engine| {
                engine.run_until(HORIZON_LARGE);
                engine.into_sink().recorded()
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

/// Passes over the whole group. Shared machines drift on a seconds scale
/// — slow enough that every sample of one bench can land in the same load
/// spike — so the group is repeated and each bench keeps its best epoch.
const EPOCHS: usize = 3;

/// The engine_hotpath / zero_alloc steady-state fixture: `A^opt` on a
/// path under the F2 wavefront adversary with distance-split drift,
/// warmed past the wavefront flip. This is the workload whose events/sec
/// the repo tracks commit over commit — the denominator an "always-on
/// recorder" claim has to be measured against.
fn wavefront_engine<S: EventSink>(n: usize, sink: S) -> Engine<AOpt, WavefrontDelay, S> {
    let (eps, t_max, flip) = (0.02, 0.25, 30.0);
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
        .event_sink(sink)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);
    engine
}

/// The default `gcs run --topology path:<n>` scenario — `A^opt`, ε̂ = 0.01,
/// 𝒯̂ = 0.1, uniform delays, random-walk drift — warmed to t = 10, past
/// the start-up fan-out during which every clock sits within ε·t of the
/// others and no event-local certificate can last.
fn gcs_run_engine<S: EventSink>(n: usize, sink: S) -> Engine<AOpt, UniformDelay, S> {
    let (eps, t_max, warmup_horizon) = (0.01, 0.1, 10.0);
    let graph = topology::path(n);
    let drift = gcs_time::DriftBounds::new(eps).unwrap();
    let schedules = build_rates("walk", &graph, drift, 1000.0, 1).unwrap();
    let params = Params::recommended(eps, t_max).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 1))
        .rate_schedules(schedules)
        .event_sink(sink)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);
    engine
}

/// Times `window` engine steps; the inner loop of the paired measurement.
fn run_window<D: DelayModel, S: EventSink>(engine: &mut Engine<AOpt, D, S>, window: u64) -> f64 {
    let started = std::time::Instant::now();
    for _ in 0..window {
        engine
            .step()
            .expect("the steady-state fixtures never drain their queues");
    }
    started.elapsed().as_secs_f64()
}

/// The CI-gated recorder overhead: steady-state windows of `window` engine
/// steps on the canonical wavefront fixture, timed in interleaved pairs —
/// a baseline window and a recorder window back to back, giving one
/// `(base, recorder)` time pair per rep. The reported figure is the
/// median ratio of the fastest quarter of pairs by combined wall time.
///
/// The pairing makes this measurement hold still on a noisy shared
/// machine where independently-timed whole-run ratios swing past any
/// threshold: paired windows are adjacent in time, so load drift hits
/// both sides alike, and the within-pair order alternates, so residual
/// drift across a pair biases half the pairs each way. Both engines run
/// the same deterministic execution (each rep advances both by exactly
/// `window` steps), so every pair compares identical work — many short
/// pairs beat few long ones because each pair is a fresh chance to
/// dodge a load spike.
///
/// Selecting pairs by combined time — not by the shape of the ratio
/// distribution — is what makes the estimate robust when background
/// load is *sustained* rather than transient. A co-scheduled neighbor
/// inflates the absolute time of whichever window it lands in, so clean
/// pairs are exactly the fast pairs, and that signal is independent of
/// the ratio being estimated. Ratio-only estimators (median, quantiles,
/// half-sample mode — all tried) fail here: under ~50% background load
/// the contaminated pairs become the majority and can even form the
/// densest cluster, dragging any such statistic around by several
/// percent per run. The fastest-quarter median is the paired analog of
/// the min-sample rule used for the unpaired rows above, and agrees
/// with the plain median to well under 1% on a quiet machine.
fn recorder_steady_ratio(n: usize, window: u64, reps: usize) -> f64 {
    let mut base = wavefront_engine(n, NullSink);
    let mut recorder = wavefront_engine(n, RecorderSink::new());
    let ratio = paired_steady_ratio(&mut base, &mut recorder, window, reps, "recorder", n);
    criterion::black_box(recorder.sink().recorded());
    ratio
}

/// The `gcs_run_sinks` rows: the same paired steady-state measurement as
/// the recorder's, with the default `gcs run` sink set on the default
/// `gcs run` scenario.
fn gcs_run_sinks_steady_ratio(n: usize, window: u64, reps: usize) -> f64 {
    let set = SinkSet::new(&topology::path(n));
    sink_set_steady_ratio(n, window, reps, set, "gcs run sinks")
}

/// The `gcs_run_sinks_metrics` row: the `gcs_run_sinks` measurement with
/// the metrics sink added (`gcs run --metrics`), which the set feeds
/// event-locally.
fn gcs_run_sinks_metrics_steady_ratio(n: usize, window: u64, reps: usize) -> f64 {
    let mut set = SinkSet::new(&topology::path(n));
    set.metrics = Some(MetricsSink::new());
    sink_set_steady_ratio(n, window, reps, set, "gcs run sinks + metrics")
}

/// The `gcs_run_sinks_watchdog` rows: the `gcs_run_sinks` measurement with
/// the invariant watchdog added (`gcs run --watchdog`), which the set
/// feeds event-locally.
fn gcs_run_sinks_watchdog_steady_ratio(n: usize, window: u64, reps: usize) -> f64 {
    let graph = topology::path(n);
    let mut set = SinkSet::new(&graph);
    let params = Params::recommended(0.01, 0.1).unwrap();
    let drift = gcs_time::DriftBounds::new(0.01).unwrap();
    set.watchdog = Some(InvariantWatchdog::new(&graph, params, drift));
    sink_set_steady_ratio(n, window, reps, set, "gcs run sinks + watchdog")
}

fn sink_set_steady_ratio(n: usize, window: u64, reps: usize, set: SinkSet, what: &str) -> f64 {
    let mut base = gcs_run_engine(n, NullSink);
    let mut sinks = gcs_run_engine(n, set);
    let ratio = paired_steady_ratio(&mut base, &mut sinks, window, reps, what, n);
    assert!(!sinks.sink().tripped(), "{what}: the watchdog tripped");
    criterion::black_box(sinks.sink().observer.worst_global());
    ratio
}

/// Times `reps` interleaved `(base, probe)` window pairs and returns the
/// median `probe / base` ratio of the fastest quarter of pairs by combined
/// time (see [`recorder_steady_ratio`] for why).
fn paired_steady_ratio<D: DelayModel, S: EventSink>(
    base: &mut Engine<AOpt, D, NullSink>,
    probe: &mut Engine<AOpt, D, S>,
    window: u64,
    reps: usize,
    what: &str,
    n: usize,
) -> f64 {
    let mut pairs: Vec<(f64, f64)> = (0..reps)
        .map(|i| {
            if i % 2 == 0 {
                let b = run_window(base, window);
                (b, run_window(probe, window))
            } else {
                let r = run_window(probe, window);
                (run_window(base, window), r)
            }
        })
        .collect();
    pairs.sort_unstable_by(|p, q| (p.0 + p.1).total_cmp(&(q.0 + q.1)));
    let kept = (pairs.len() / 4).max(1);
    let mut ratios: Vec<f64> = pairs[..kept].iter().map(|(b, r)| r / b).collect();
    ratios.sort_unstable_by(|a, b| a.total_cmp(b));
    let fastest_quarter = ratios[ratios.len() / 2];
    // Stderr diagnostic for when the CI gate fires: if the all-pairs
    // median reads well above the fastest-quarter figure, the machine
    // was loaded; if they agree and both are high, the recorder really
    // regressed.
    let mut all: Vec<f64> = pairs.iter().map(|(b, r)| r / b).collect();
    all.sort_unstable_by(|a, b| a.total_cmp(b));
    eprintln!(
        "{what} steady-state pairs (n = {n}): fastest-quarter median = {fastest_quarter:.4}, \
         all-pairs median = {:.4}",
        all[all.len() / 2],
    );
    fastest_quarter
}

// A hand-written main instead of `criterion_main!`: after the group runs,
// drain the measurements and export them as BENCH_observer_overhead.json
// so the observability layer's cost is tracked commit over commit.
fn main() {
    let mut criterion = Criterion::default();
    for _ in 0..EPOCHS {
        observer_overhead(&mut criterion);
    }

    // Fold the epochs: per bench id, keep the fastest median and the
    // fastest single sample seen in any epoch.
    let mut results: Vec<criterion::BenchResult> = Vec::new();
    for r in criterion.take_results() {
        match results.iter_mut().find(|k| k.id == r.id) {
            Some(kept) => {
                kept.median = kept.median.min(r.median);
                kept.min = kept.min.min(r.min);
            }
            None => results.push(r),
        }
    }
    let mut report = BenchReport::new("observer_overhead");
    report
        .config("topology", format!("path:{N}"))
        .config("horizon", HORIZON)
        .config("topology_large", format!("path:{N_LARGE}"))
        .config("horizon_large", HORIZON_LARGE)
        .config("eps", 0.02)
        .config("t", 0.25)
        .config(
            "gcs_run_sinks_fixture",
            "gcs run defaults on path:n (eps 0.01, t 0.1, uniform, walk), warmed to t = 10",
        );
    let name = |id: &str| id.rsplit('/').next().unwrap_or(id).to_string();
    let mut baseline = None;
    let mut baseline_large = None;
    for r in &results {
        report.metric(
            &format!("median_seconds/{}", name(&r.id)),
            r.median.as_secs_f64(),
        );
        match name(&r.id).as_str() {
            "baseline_default" => baseline = Some(r.min.as_secs_f64()),
            "baseline_default_n4096" => baseline_large = Some(r.min.as_secs_f64()),
            _ => {}
        }
    }
    for r in &results {
        let n = name(&r.id);
        // Each row is compared against the baseline of its own size class.
        // Ratios come from per-bench *minimum* samples, not medians: on a
        // shared machine transient load inflates both numerator and
        // denominator unpredictably, while the fastest sample of each side
        // is the run the noise missed. The recorder rows are gated in CI,
        // so they get a stronger interleaved measurement below instead.
        let base = if n.ends_with("_n4096") {
            baseline_large
        } else {
            baseline
        };
        if n.starts_with("baseline_default") || n.starts_with("recorder_sink") {
            continue;
        }
        if let Some(base) = base.filter(|b| *b > 0.0) {
            report.metric(&format!("overhead_ratio/{n}"), r.min.as_secs_f64() / base);
        }
    }
    // Like the criterion rows, the gated measurement keeps its best of
    // EPOCHS repetitions: within a repetition the fastest-quarter median
    // suppresses transient spikes, and across repetitions the minimum
    // dodges background load sustained for the whole repetition —
    // contamination only ever inflates the estimate, so the smallest
    // repetition is the most accurate one.
    let best_of = |ratio: fn(usize, u64, usize) -> f64, n: usize, window: u64, reps: usize| {
        (0..EPOCHS)
            .map(|_| ratio(n, window, reps))
            .fold(f64::INFINITY, f64::min)
    };
    report.metric(
        "overhead_ratio/recorder_sink",
        best_of(recorder_steady_ratio, 64, 5_000, 301),
    );
    report.metric(
        "overhead_ratio/recorder_sink_n4096",
        best_of(recorder_steady_ratio, N_LARGE, 5_000, 75),
    );
    report.metric(
        "overhead_ratio/gcs_run_sinks",
        best_of(gcs_run_sinks_steady_ratio, N, 5_000, 151),
    );
    report.metric(
        "overhead_ratio/gcs_run_sinks_n4096",
        best_of(gcs_run_sinks_steady_ratio, N_LARGE, 5_000, 75),
    );
    report.metric(
        "overhead_ratio/gcs_run_sinks_metrics_n4096",
        best_of(gcs_run_sinks_metrics_steady_ratio, N_LARGE, 5_000, 75),
    );
    report.metric(
        "overhead_ratio/gcs_run_sinks_watchdog",
        best_of(gcs_run_sinks_watchdog_steady_ratio, 1024, 5_000, 75),
    );
    report.metric(
        "overhead_ratio/gcs_run_sinks_watchdog_n4096",
        best_of(gcs_run_sinks_watchdog_steady_ratio, N_LARGE, 5_000, 75),
    );
    match report.write() {
        Ok(path) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("warning: could not write bench results: {e}"),
    }
}
