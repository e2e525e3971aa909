//! `gcs-benchmark-traced`: one `gcs run` or `gcs sweep` invocation,
//! re-created through the crates' public functions with a timer around
//! every layer.
//!
//! ```text
//! gcs-benchmark-traced run --topology T --horizon H --seed S [--watchdog]
//! gcs-benchmark-traced sweep --spec F --jobs J --csv C [--jsonl L] [--horizon H]
//! ```
//!
//! It takes the arguments of the `gcs` invocation it mirrors and writes the
//! same CSV/JSONL, so `gcs-benchmark` can check that it reproduced `gcs` byte for
//! byte. On stdout it prints `metric <name> <value> <unit>` lines, its own
//! in-process `wall_s`, and for a run `result <deliveries> <global skew>
//! <local skew>`; for a sweep, `outcomes equal|differ` compares its results
//! with the library's untraced sweep.
//!
//! Each layer call is timed with one `Instant` pair. A layer's raw time
//! holds the part of each pair that falls inside its span; its self time
//! subtracts that (calls × the calibrated in-span cost), and the enclosing
//! layer loses the rest of each pair. The per-event clock-vector snapshot
//! is no call that can be wrapped, so it is measured by ablation: the
//! engine with a do-nothing snapshot-wanting sink minus the engine with
//! `NullSink`, both untraced.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcs_adversary::{apply_rate_faults, ChaosDelay, FaultClause};
use gcs_analysis::{InvariantWatchdog, MetricsSink, SkewObserver};
use gcs_benchmark::stats::{median, percentile};
use gcs_core::{AOpt, MinGapAOpt, Params};
use gcs_graph::{Graph, NodeId};
use gcs_sim::{
    Context, DelayCtx, DelayModel, Delivery, Engine, EngineEvent, EventSink, Lookahead,
    MessageStats, Protocol, RecorderSink, TimerId,
};
use gcs_sweep::parse::resolve_chaos;
use gcs_sweep::{
    build_delay, build_rates, parse_topology, report, run_pool, run_pool_timed, run_sweep_deduped,
    DedupePlan, JobOutcome, JobResult, JobSpec, PoolProgress, PoolStats, SweepAggregate,
    SweepDelay, SweepSpec,
};
use gcs_time::{DriftBounds, RateSchedule};

/// The timed layers.
#[derive(Clone, Copy)]
enum L {
    GraphBuild,
    GraphDiameter,
    Parse,
    RecorderNew,
    WatchdogNew,
    Engine,
    Protocol,
    Delay,
    Chaos,
    Observer,
    Watchdog,
    Metrics,
    Recorder,
    Report,
}
const LAYERS: usize = L::Report as usize + 1;

/// Accumulated time and call count of one layer.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
struct Span {
    ns: u64,
    calls: u64,
}

impl Span {
    #[inline]
    fn add(&mut self, elapsed: Duration) {
        self.ns += elapsed.as_nanos() as u64;
        self.calls += 1;
    }

    fn merge(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Every layer's span for one unit (or, merged, for a whole workload).
#[derive(Clone, Copy, Default, Debug)]
struct Ledger {
    spans: [Span; LAYERS],
    events: u64,
    chaos_drops: u64,
    snapshot_ns: u64,
    report_bytes: u64,
    /// Time inside runs and jobs that no span covers.
    unattributed_ns: u64,
}

impl Ledger {
    #[inline]
    fn time<R>(&mut self, layer: L, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.spans[layer as usize].add(started.elapsed());
        r
    }

    fn span(&self, layer: L) -> Span {
        self.spans[layer as usize]
    }

    fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.spans.iter_mut().zip(other.spans) {
            a.merge(b);
        }
        self.events += other.events;
        self.chaos_drops += other.chaos_drops;
        self.snapshot_ns += other.snapshot_ns;
        self.report_bytes += other.report_bytes;
        self.unattributed_ns += other.unattributed_ns;
    }
}

/// A protocol or delay model with a timer around each handler call.
#[derive(Clone)]
struct Timed<T> {
    inner: T,
    span: Span,
    drops: u64,
}

impl<T> Timed<T> {
    fn new(inner: T) -> Self {
        Timed {
            inner,
            span: Span::default(),
            drops: 0,
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let started = Instant::now();
        let r = f(&mut self.inner);
        self.span.add(started.elapsed());
        r
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.time(|p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        self.time(|p| p.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId) {
        self.time(|p| p.on_timer(ctx, timer));
    }

    // Called O(n) times per event by the snapshot: untimed, and measured
    // with the snapshot by ablation.
    fn logical_value(&self, hw: f64) -> f64 {
        self.inner.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.inner.rate_multiplier()
    }
}

impl<D: DelayModel> DelayModel for Timed<D> {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let delivery = self.time(|d| d.delivery(ctx));
        if let Delivery::Drop(_) = delivery {
            self.drops += 1;
        }
        delivery
    }

    fn uncertainty(&self) -> Option<f64> {
        self.inner.uncertainty()
    }

    fn min_delay(&self) -> Option<f64> {
        self.inner.min_delay()
    }

    fn lookahead_at(&self, now: f64) -> Option<Lookahead> {
        self.inner.lookahead_at(now)
    }
}

/// Moves a timed delay stack's spans into a ledger.
trait Accounted {
    fn account(&self, led: &mut Ledger);
}

/// `gcs run`'s delay model: the spec's model, no chaos layer.
impl Accounted for Timed<SweepDelay> {
    fn account(&self, led: &mut Ledger) {
        led.spans[L::Delay as usize].merge(self.span);
    }
}

/// A sweep job's delay model: the chaos layer over the spec's model.
impl Accounted for Timed<ChaosDelay<Timed<SweepDelay>>> {
    fn account(&self, led: &mut Ledger) {
        led.spans[L::Chaos as usize].merge(self.span);
        led.chaos_drops += self.drops;
        self.inner.inner().account(led);
    }
}

/// The observability stack of `gcs run` (skew observer, flight recorder,
/// optional watchdog) or of a sweep job (plus the metrics sink), with a
/// timer around each sink call.
struct Sinks {
    observer: SkewObserver,
    metrics: Option<MetricsSink>,
    watchdog: Option<InvariantWatchdog>,
    recorder: RecorderSink,
    led: Ledger,
}

impl EventSink for Sinks {
    fn record(&mut self, event: &EngineEvent) {
        self.led.time(L::Recorder, || self.recorder.record(event));
        if let Some(m) = self.metrics.as_mut() {
            self.led.time(L::Metrics, || m.record(event));
        }
        if let Some(w) = self.watchdog.as_mut() {
            self.led.time(L::Watchdog, || w.record(event));
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        self.led
            .time(L::Observer, || self.observer.observe_clocks(t, clocks));
        if let Some(m) = self.metrics.as_mut() {
            self.led
                .time(L::Metrics, || m.snapshot(t, clocks, queue_depth));
        }
        if let Some(w) = self.watchdog.as_mut() {
            self.led
                .time(L::Watchdog, || w.snapshot(t, clocks, queue_depth));
        }
    }
}

/// Wants snapshots and does nothing with them: the ablation's probe.
struct SnapshotOnly;

impl EventSink for SnapshotOnly {
    fn enabled(&self) -> bool {
        false
    }

    fn wants_snapshots(&self) -> bool {
        true
    }
}

/// One execution: a `gcs run` invocation or one sweep job.
struct Unit {
    topology: String,
    algo: String,
    eps: f64,
    t: f64,
    seed: u64,
    horizon: f64,
    horizon_per_d: f64,
    delay: String,
    rates: String,
    /// `None` for `gcs run`, which has no chaos layer.
    chaos: Option<String>,
    watchdog: bool,
    /// Sweep jobs carry a metrics sink; `gcs run` without `--metrics` not.
    metrics: bool,
}

impl Unit {
    fn of_job(job: &JobSpec) -> Result<Unit, String> {
        if job.sigma.is_some() {
            return Err("σ overrides are not traced".into());
        }
        Ok(Unit {
            topology: job.topology.clone(),
            algo: job.algo.clone(),
            eps: job.eps,
            t: job.t,
            seed: job.seed,
            horizon: job.horizon,
            horizon_per_d: job.horizon_per_diameter,
            delay: job.delay.clone(),
            rates: job.rates.clone(),
            chaos: Some(job.chaos.clone()),
            watchdog: job.watchdog,
            metrics: true,
        })
    }
}

/// A unit's inputs, built exactly as `gcs run` / `run_job` build them.
struct Inputs {
    graph: Graph,
    diameter: u32,
    params: Params,
    drift: DriftBounds,
    delay: SweepDelay,
    horizon: f64,
    schedules: Vec<RateSchedule>,
    clauses: Option<Vec<FaultClause>>,
}

fn prepare(u: &Unit, led: &mut Ledger) -> Result<Inputs, String> {
    let graph = led.time(L::GraphBuild, || parse_topology(&u.topology, u.seed))?;
    let diameter = led.time(L::GraphDiameter, || graph.diameter());
    let drift = DriftBounds::new(u.eps).map_err(|e| e.to_string())?;
    let params = Params::recommended(u.eps, u.t).map_err(|e| e.to_string())?;
    led.time(L::Parse, || {
        let base = u.horizon + u.horizon_per_d * f64::from(diameter) * u.t;
        let (delay, min_horizon) = build_delay(&u.delay, &graph, u.t, u.eps, u.seed)?;
        let horizon = base.max(min_horizon);
        let mut schedules = build_rates(&u.rates, &graph, drift, horizon, u.seed)?;
        let clauses = match &u.chaos {
            Some(spec) => {
                let clauses = resolve_chaos(spec)?;
                apply_rate_faults(&mut schedules, &clauses)?;
                Some(clauses)
            }
            None => None,
        };
        Ok(Inputs {
            graph,
            diameter,
            params,
            drift,
            delay,
            horizon,
            schedules,
            clauses,
        })
    })
}

/// Runs `$body` with `$p` bound to a fresh protocol instance for `$algo`.
macro_rules! with_protocol {
    ($algo:expr, $params:expr, |$p:ident| $body:expr) => {
        match $algo {
            "aopt" => {
                let $p = AOpt::new($params);
                $body
            }
            "mingap" => {
                let $p = MinGapAOpt::new($params);
                $body
            }
            other => Err(format!("algorithm `{other}` is not traced")),
        }
    };
}

/// Builds and runs the engine with every protocol and the delay stack
/// timed, counting events; returns the message counters and the sinks.
fn exec<P: Protocol, D: DelayModel + Accounted>(
    graph: Graph,
    proto: P,
    delay: D,
    schedules: Vec<RateSchedule>,
    horizon: f64,
    sinks: Sinks,
    led: &mut Ledger,
) -> (MessageStats, Sinks) {
    let n = graph.len();
    let started = Instant::now();
    let mut engine = Engine::builder(graph)
        .protocols(vec![Timed::new(proto); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(sinks)
        .build();
    engine.wake_all_at(0.0);
    // `run_until`'s own loop, stepped here to count events.
    while engine.next_event_time().is_some_and(|t| t <= horizon) {
        engine.step();
        led.events += 1;
    }
    engine.run_until(horizon);
    led.spans[L::Engine as usize].add(started.elapsed());
    for v in 0..n {
        led.spans[L::Protocol as usize].merge(engine.protocol(NodeId(v)).span);
    }
    engine.delay_model_mut().account(led);
    (engine.message_stats().clone(), engine.into_sink())
}

/// One traced unit: its result, as `run_job` reports it, and its ledger.
fn run_unit(u: &Unit) -> Result<(JobResult, Ledger), String> {
    let started = Instant::now();
    let mut led = Ledger::default();
    let Inputs {
        graph,
        diameter,
        params,
        drift,
        delay,
        horizon,
        schedules,
        clauses,
    } = prepare(u, &mut led)?;
    let recorder = led.time(L::RecorderNew, RecorderSink::new);
    let watchdog = led.time(L::WatchdogNew, || {
        u.watchdog
            .then(|| InvariantWatchdog::new(&graph, params, drift))
    });
    let sinks = Sinks {
        observer: SkewObserver::new(&graph),
        metrics: u.metrics.then(MetricsSink::new),
        watchdog,
        recorder,
        led: Ledger::default(),
    };
    let nodes = graph.len();
    let (stats, mut sinks) = with_protocol!(u.algo.as_str(), params, |p| Ok(match clauses {
        Some(c) => {
            let chaos = ChaosDelay::new(Timed::new(delay), c, u.seed);
            exec(
                graph,
                p,
                Timed::new(chaos),
                schedules,
                horizon,
                sinks,
                &mut led,
            )
        }
        None => exec(
            graph,
            p,
            Timed::new(delay),
            schedules,
            horizon,
            sinks,
            &mut led
        ),
    }))?;
    let events_recorded = match sinks.metrics.as_mut() {
        Some(m) => {
            m.flush_rate_window(horizon);
            m.registry().counter_value("events.total").unwrap_or(0)
        }
        None => 0,
    };
    let result = JobResult {
        nodes,
        diameter,
        horizon,
        global_skew: sinks.observer.worst_global(),
        local_skew: sinks.observer.worst_local(),
        global_bound: params.global_skew_bound(diameter),
        local_bound: params.local_skew_bound(diameter),
        send_events: stats.send_events,
        transmissions: stats.transmissions,
        deliveries: stats.deliveries,
        dropped: stats.dropped,
        dropped_model: stats.dropped_model,
        dropped_faults: stats.dropped_faults,
        duplicated: stats.duplicated,
        events_recorded,
        watchdog_tripped: sinks.watchdog.as_ref().is_some_and(|w| w.tripped()),
    };
    led.merge(&sinks.led);
    let attributed: u64 = [
        L::GraphBuild,
        L::GraphDiameter,
        L::Parse,
        L::RecorderNew,
        L::WatchdogNew,
        L::Engine,
    ]
    .iter()
    .map(|&l| led.span(l).ns)
    .sum();
    led.unattributed_ns = (started.elapsed().as_nanos() as u64).saturating_sub(attributed);
    Ok((result, led))
}

/// The snapshot cost of one unit, by ablation (nanoseconds, at least 0).
fn ablate_unit(u: &Unit) -> Result<u64, String> {
    let inputs = prepare(u, &mut Ledger::default())?;
    with_protocol!(u.algo.as_str(), inputs.params, |p| Ok(
        match inputs.clauses.clone() {
            Some(c) => ablate(&inputs, p, ChaosDelay::new(inputs.delay.clone(), c, u.seed)),
            None => ablate(&inputs, p, inputs.delay.clone()),
        }
    ))
}

fn ablate<P: Protocol, D: DelayModel + Clone>(inputs: &Inputs, proto: P, delay: D) -> u64 {
    let n = inputs.graph.len();
    let builder = || {
        Engine::builder(inputs.graph.clone())
            .protocols(vec![proto.clone(); n])
            .delay_model(delay.clone())
            .rate_schedules(inputs.schedules.clone())
    };
    let mut bare = builder().build();
    let mut probed = builder().event_sink(SnapshotOnly).build();
    let started = Instant::now();
    bare.wake_all_at(0.0);
    bare.run_until(inputs.horizon);
    let bare_ns = started.elapsed().as_nanos();
    let started = Instant::now();
    probed.wake_all_at(0.0);
    probed.run_until(inputs.horizon);
    let probed_ns = started.elapsed().as_nanos();
    probed_ns.saturating_sub(bare_ns) as u64
}

/// The cost of one timer pair: in all (`pair_ns`) and the part a span
/// measures (`inside_ns`).
struct Timer {
    pair_ns: f64,
    inside_ns: f64,
}

fn calibrate() -> Timer {
    const N: u32 = 100_000;
    let (mut pairs, mut insides) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut span = Span::default();
        let started = Instant::now();
        for _ in 0..N {
            let s = Instant::now();
            span.add(black_box(s.elapsed()));
        }
        pairs.push(started.elapsed().as_nanos() as f64 / f64::from(N));
        insides.push(span.ns as f64 / f64::from(N));
    }
    Timer {
        pair_ns: median(&pairs),
        inside_ns: median(&insides),
    }
}

/// Prints every per-layer metric of a workload.
fn print_metrics(led: &Ledger, timer: &Timer, pool: Option<&PoolStats>) {
    let secs = |ns: f64| ns.max(0.0) / 1e9;
    let raw = |l: L| led.span(l).ns as f64;
    let calls = |l: L| led.span(l).calls as f64;
    let outside = timer.pair_ns - timer.inside_ns;
    // Self time: raw minus the in-span part of this layer's own timers.
    let own = |l: L| raw(l) - calls(l) * timer.inside_ns;
    let chaos_on = led.span(L::Chaos).calls > 0;
    let top_delay = if chaos_on { L::Chaos } else { L::Delay };
    let engine_children = [
        L::Protocol,
        top_delay,
        L::Observer,
        L::Watchdog,
        L::Metrics,
        L::Recorder,
    ];
    let engine_self = raw(L::Engine)
        - engine_children
            .iter()
            .map(|&l| raw(l) + calls(l) * outside)
            .sum::<f64>()
        - led.snapshot_ns as f64;
    let chaos_raw = if chaos_on {
        raw(L::Chaos) - raw(L::Delay)
    } else {
        0.0
    };
    let chaos_self = if chaos_on {
        chaos_raw - calls(L::Chaos) * timer.inside_ns - calls(L::Delay) * outside
    } else {
        0.0
    };
    let events = led.events as f64;
    let per = |ns: f64, n: f64| if n > 0.0 { ns.max(0.0) / n } else { 0.0 };
    let delivered = if chaos_on {
        1.0 - led.chaos_drops as f64 / calls(L::Chaos)
    } else {
        1.0
    };
    let (busy, idle, utilization, p50, tail, tail_pct) = match pool {
        Some(p) => {
            let busy = p.busy().as_secs_f64();
            let idle = (p.wall.as_secs_f64() * p.workers as f64 - busy).max(0.0);
            let mut ms: Vec<f64> = p.job_wall.iter().map(|d| d.as_secs_f64() * 1e3).collect();
            ms.sort_by(f64::total_cmp);
            // The highest percentile with at least ten jobs beyond it.
            let n = ms.len() as f64;
            let pct = [99.0, 95.0, 90.0, 75.0, 50.0]
                .into_iter()
                .find(|p| n - (p / 100.0 * n).ceil() >= 10.0)
                .unwrap_or(50.0);
            let (p50, tail) = if ms.is_empty() {
                (0.0, 0.0)
            } else {
                (percentile(&ms, 50.0), percentile(&ms, pct))
            };
            (busy, idle, p.utilization(), p50, tail, pct)
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let rows: [(&str, f64, &str); 45] = [
        ("graph.build_s", secs(own(L::GraphBuild)), "s"),
        ("graph.diameter_s", secs(own(L::GraphDiameter)), "s"),
        ("graph.calls", calls(L::GraphBuild), "count"),
        ("sweep.parse.self_s", secs(own(L::Parse)), "s"),
        ("sweep.parse.calls", calls(L::Parse), "count"),
        ("sim.engine.self_s", secs(engine_self), "s"),
        ("sim.engine.events", events, "count"),
        ("sim.engine.ns_per_event", per(engine_self, events), "ns"),
        ("sim.snapshot.self_s", secs(led.snapshot_ns as f64), "s"),
        (
            "sim.snapshot.ns_per_event",
            per(led.snapshot_ns as f64, events),
            "ns",
        ),
        ("core.protocol.self_s", secs(own(L::Protocol)), "s"),
        ("core.protocol.raw_s", secs(raw(L::Protocol)), "s"),
        ("core.protocol.calls", calls(L::Protocol), "count"),
        (
            "core.protocol.ns_per_call",
            per(own(L::Protocol), calls(L::Protocol)),
            "ns",
        ),
        ("sim.delay.self_s", secs(own(L::Delay)), "s"),
        ("sim.delay.raw_s", secs(raw(L::Delay)), "s"),
        ("sim.delay.calls", calls(L::Delay), "count"),
        ("adversary.chaos.self_s", secs(chaos_self), "s"),
        ("adversary.chaos.raw_s", secs(chaos_raw), "s"),
        ("adversary.chaos.calls", calls(L::Chaos), "count"),
        ("adversary.chaos.delivered_ratio", delivered, "ratio"),
        ("analysis.skew_observer.self_s", secs(own(L::Observer)), "s"),
        ("analysis.skew_observer.raw_s", secs(raw(L::Observer)), "s"),
        ("analysis.skew_observer.calls", calls(L::Observer), "count"),
        ("analysis.watchdog.self_s", secs(own(L::Watchdog)), "s"),
        ("analysis.watchdog.raw_s", secs(raw(L::Watchdog)), "s"),
        ("analysis.watchdog.calls", calls(L::Watchdog), "count"),
        ("analysis.watchdog.new_s", secs(own(L::WatchdogNew)), "s"),
        ("analysis.metrics.self_s", secs(own(L::Metrics)), "s"),
        ("analysis.metrics.raw_s", secs(raw(L::Metrics)), "s"),
        ("analysis.metrics.calls", calls(L::Metrics), "count"),
        ("sim.recorder.self_s", secs(own(L::Recorder)), "s"),
        ("sim.recorder.raw_s", secs(raw(L::Recorder)), "s"),
        ("sim.recorder.calls", calls(L::Recorder), "count"),
        ("sim.recorder.new_s", secs(own(L::RecorderNew)), "s"),
        ("sweep.pool.busy_s", busy, "s"),
        ("sweep.pool.idle_s", idle, "s"),
        ("sweep.pool.utilization", utilization, "ratio"),
        ("sweep.job.p50_ms", p50, "ms"),
        ("sweep.job.tail_ms", tail, "ms"),
        ("sweep.job.tail_pct", tail_pct, "pct"),
        ("sweep.report.self_s", secs(own(L::Report)), "s"),
        ("sweep.report.bytes", led.report_bytes as f64, "bytes"),
        ("trace.timer_ns", timer.pair_ns, "ns"),
        (
            "trace.unattributed_s",
            secs(led.unattributed_ns as f64),
            "s",
        ),
    ];
    for (name, value, unit) in rows {
        println!("metric {name} {value} {unit}");
    }
}

/// Reads `--flag value` pairs (and the bare `--watchdog`), rejecting any
/// flag the mirrored invocation does not use.
fn flags(args: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| allowed.contains(k))
            .ok_or_else(|| format!("unsupported argument `{flag}`"))?;
        let value = if key == "watchdog" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone()
        };
        out.push((key.to_string(), value));
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], key: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn num<T: std::str::FromStr>(
    flags: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match get(flags, key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: `{v}` is not a number")),
        None => Ok(default),
    }
}

/// `gcs run` with its defaults: A^opt, ε̂ = 0.01, 𝒯̂ = 0.1, uniform delays,
/// random-walk rates.
fn trace_run(args: &[String]) -> Result<(), String> {
    let f = flags(args, &["topology", "horizon", "seed", "watchdog"])?;
    let unit = Unit {
        topology: get(&f, "topology").unwrap_or("path:16").to_string(),
        algo: "aopt".into(),
        eps: 1e-2,
        t: 0.1,
        seed: num(&f, "seed", 42)?,
        horizon: num(&f, "horizon", 120.0)?,
        horizon_per_d: 0.0,
        delay: "uniform".into(),
        rates: "walk".into(),
        chaos: None,
        watchdog: get(&f, "watchdog").is_some(),
        metrics: false,
    };
    let timer = calibrate();
    let started = Instant::now();
    let (result, mut led) = run_unit(&unit)?;
    let wall = started.elapsed();
    led.snapshot_ns = ablate_unit(&unit)?;
    print_metrics(&led, &timer, None);
    println!("wall_s {}", wall.as_secs_f64());
    println!(
        "result {} {} {}",
        result.deliveries, result.global_skew, result.local_skew
    );
    Ok(())
}

/// `gcs sweep --spec F`: the library's untraced sweep for the pool layer
/// and as the reference, then the traced jobs, then the ablation.
fn trace_sweep(args: &[String]) -> Result<(), String> {
    let f = flags(args, &["spec", "jobs", "csv", "jsonl", "horizon"])?;
    let spec_path = get(&f, "spec").ok_or("--spec is required")?;
    let csv_path = get(&f, "csv").ok_or("--csv is required")?;
    let jsonl_path = get(&f, "jsonl");
    let workers: usize = num(&f, "jobs", 1)?;
    let timer = calibrate();

    let started = Instant::now();
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut spec = SweepSpec::parse_str(&text)?;
    if let Some(h) = get(&f, "horizon") {
        spec.apply("horizon", h)?;
    }
    spec.validate()?;
    let jobs = spec.expand();
    let parse_wall = started.elapsed();
    if DedupePlan::new(&jobs).duplicates() > 0 {
        return Err("specs with duplicate grid points are not traced".into());
    }
    let units = jobs
        .iter()
        .map(Unit::of_job)
        .collect::<Result<Vec<_>, _>>()?;

    let (reference, _, pool, _) =
        run_sweep_deduped(&jobs, workers, |_, _| {}, None::<fn(PoolProgress)>);

    let started = Instant::now();
    let mut total = Ledger::default();
    let mut aggregate = SweepAggregate::new();
    let mut csv = format!("{}\n", report::CSV_HEADER);
    let mut jsonl = String::new();
    let mut outcomes = Vec::with_capacity(jobs.len());
    run_pool_timed(
        jobs.len(),
        workers,
        |i| run_unit(&units[i]),
        |i, outcome| {
            let outcome = match outcome {
                JobOutcome::Completed((result, led)) => {
                    total.merge(led);
                    JobOutcome::Completed(result.clone())
                }
                JobOutcome::Failed(message) => JobOutcome::Failed(message.clone()),
            };
            let bytes = total.time(L::Report, || {
                aggregate.ingest(i, &outcome);
                let row = report::csv_row(&jobs[i], &outcome);
                csv.push_str(&row);
                csv.push('\n');
                let mut bytes = row.len() + 1;
                if jsonl_path.is_some() {
                    let row = report::jsonl_row(&jobs[i], &outcome);
                    jsonl.push_str(&row);
                    jsonl.push('\n');
                    bytes += row.len() + 1;
                }
                bytes
            });
            total.report_bytes += bytes as u64;
            outcomes.push(outcome);
        },
        None::<fn(PoolProgress)>,
    );
    if jsonl_path.is_some() {
        jsonl.push_str(&report::jsonl_summary(&aggregate));
        jsonl.push('\n');
    }
    let wall = parse_wall + started.elapsed();
    std::fs::write(csv_path, csv).map_err(|e| format!("{csv_path}: {e}"))?;
    if let Some(path) = jsonl_path {
        std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
    }

    for snapshot in run_pool(jobs.len(), workers, |i| ablate_unit(&units[i]), |_, _| {}) {
        match snapshot {
            JobOutcome::Completed(ns) => total.snapshot_ns += ns,
            JobOutcome::Failed(e) => return Err(format!("ablation failed: {e}")),
        }
    }
    total.spans[L::Parse as usize].add(parse_wall);
    print_metrics(&total, &timer, Some(&pool));
    println!("wall_s {}", wall.as_secs_f64());
    let verdict = if outcomes == reference {
        "equal"
    } else {
        "differ"
    };
    println!("outcomes {verdict}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => trace_run(&args[1..]),
        Some("sweep") => trace_sweep(&args[1..]),
        _ => Err("usage: gcs-benchmark-traced run|sweep ARGS (the gcs arguments)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
