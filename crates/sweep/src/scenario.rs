//! The one execution path behind `gcs run`, sweep jobs and chaos
//! scenarios: [`Scenario::build`] turns spec fields into a substrate, the
//! registry ([`with_protocols`]) picks the protocol, a [`SinkSet`] observes,
//! and [`Scenario::run`] returns one [`Outcome`]. The verbs only project
//! the outcome: [`crate::run_job`] and `gcs_chaos::run_scenario` through
//! [`Outcome::result`] (the latter adding an oracle verdict), and `gcs run`
//! into its report table.

use std::any::Any;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use gcs_adversary::{apply_rate_faults, ChaosDelay, FaultClause};
use gcs_analysis::{ClockTrace, InvariantWatchdog, JsonlWriter, MetricsSink, SkewObserver};
use gcs_core::{
    AOpt, AOptJump, EnvelopeAOpt, MaxAlgorithm, MidpointAlgorithm, MinGapAOpt, NoSync, Params,
};
use gcs_graph::{Graph, NodeId};
use gcs_sim::{
    ClockView, DropCause, Engine, EngineEvent, EngineProfile, EventSink, MessageStats, Protocol,
    RecorderSink,
};
use gcs_telemetry::{BeatInput, HeartbeatEmitter, SkewFieldWriter, WatchdogStatus};
use gcs_time::{DriftBounds, RateSchedule};

use crate::job::JobResult;
use crate::parse::{build_delay, build_rates, parse_topology, SweepDelay};

/// Receives the protocol vector the registry built for a name. Static
/// dispatch: `visit` is monomorphized once per registered protocol.
pub trait ProtocolVisitor {
    /// What visiting produces.
    type Output;

    /// Consumes one protocol instance per node.
    fn visit<P: Protocol>(self, protocols: Vec<P>) -> Self::Output;
}

macro_rules! registry {
    ($params:ident; $($name:literal => $protocol:expr,)*) => {
        /// Algorithm names the registry can instantiate, in help-listing
        /// order.
        pub const ALGOS: &[&str] = &[$($name),*];

        /// The protocol registry: builds `n` copies of the protocol named
        /// `algo`, parameterized by `params`, and hands them to `visitor`.
        ///
        /// # Errors
        ///
        /// ``unknown algorithm `NAME` `` for a name outside [`ALGOS`].
        pub fn with_protocols<V: ProtocolVisitor>(
            algo: &str,
            $params: Params,
            n: usize,
            visitor: V,
        ) -> Result<V::Output, String> {
            match algo {
                $($name => Ok(visitor.visit(vec![$protocol; n])),)*
                other => Err(format!("unknown algorithm `{other}`")),
            }
        }
    };
}

registry! {
    params;
    "aopt" => AOpt::new(params),
    "jump" => AOptJump::new(params),
    "mingap" => MinGapAOpt::new(params),
    "envelope" => EnvelopeAOpt::new(params),
    "max" => MaxAlgorithm::new(1.0),
    "midpoint" => MidpointAlgorithm::new(params.h0(), params.mu()),
    "nosync" => NoSync,
}

/// Checks a base horizon and its per-`D·𝒯̂` growth: both must be
/// non-negative and finite.
pub(crate) fn check_horizon(horizon: f64, per_diameter: f64) -> Result<(), String> {
    if !(horizon >= 0.0 && horizon.is_finite()) {
        return Err(format!("horizon must be non-negative, got {horizon}"));
    }
    if !(per_diameter >= 0.0 && per_diameter.is_finite()) {
        return Err(format!(
            "horizon-per-d must be non-negative, got {per_diameter}"
        ));
    }
    Ok(())
}

/// The textual fields a [`Scenario`] is built from, in the `kind:arg`
/// mini-language of [`crate::parse`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec<'a> {
    /// Topology spec, e.g. `path:16`.
    pub topology: &'a str,
    /// Drift bound ε̂.
    pub eps: f64,
    /// Delay bound 𝒯̂.
    pub t: f64,
    /// σ override (`None` = recommended parameters).
    pub sigma: Option<u32>,
    /// Delay-model spec.
    pub delay: &'a str,
    /// Rate-schedule spec.
    pub rates: &'a str,
    /// Fault schedule compiled onto the delay model and the rates.
    pub faults: Vec<FaultClause>,
    /// Seed for every randomized component.
    pub seed: u64,
    /// Base horizon.
    pub horizon: f64,
    /// Horizon growth per unit of `D·𝒯̂`.
    pub horizon_per_diameter: f64,
}

/// One fully built execution substrate, ready to run any registered
/// protocol.
pub struct Scenario {
    /// The instantiated topology.
    pub graph: Graph,
    /// Its diameter.
    pub diameter: u32,
    /// `A^opt` parameters (also the source of the reported bounds).
    pub params: Params,
    /// The drift bounds the watchdog enforces.
    pub drift: DriftBounds,
    /// The delay model under the chaos layer.
    pub delay: ChaosDelay<SweepDelay>,
    /// Per-node hardware-rate schedules, rate faults applied.
    pub schedules: Vec<RateSchedule>,
    /// Effective horizon: `horizon + horizon_per_diameter · D · 𝒯̂`,
    /// extended to whatever the delay model needs to play out.
    pub horizon: f64,
}

impl Scenario {
    /// Builds the substrate. Every randomized component is seeded from
    /// `spec.seed`, so the scenario is a pure function of `spec`.
    ///
    /// # Errors
    ///
    /// A negative or non-finite horizon, and every spec-parse or parameter
    /// error, in that order.
    pub fn build(spec: ScenarioSpec<'_>) -> Result<Self, String> {
        check_horizon(spec.horizon, spec.horizon_per_diameter)?;
        let graph = parse_topology(spec.topology, spec.seed)?;
        let diameter = graph.diameter();
        let drift = DriftBounds::new(spec.eps).map_err(|e| e.to_string())?;
        let params = match spec.sigma {
            Some(sigma) => Params::with_sigma(spec.eps, spec.t, sigma),
            None => Params::recommended(spec.eps, spec.t),
        }
        .map_err(|e| e.to_string())?;
        let base_horizon = spec.horizon + spec.horizon_per_diameter * diameter as f64 * spec.t;
        let (delay, min_horizon) = build_delay(spec.delay, &graph, spec.t, spec.eps, spec.seed)?;
        let horizon = base_horizon.max(min_horizon);
        let mut schedules = build_rates(spec.rates, &graph, drift, horizon, spec.seed)?;
        apply_rate_faults(&mut schedules, &spec.faults)?;
        Ok(Scenario {
            delay: ChaosDelay::new(delay, spec.faults, spec.seed),
            graph,
            diameter,
            params,
            drift,
            schedules,
            horizon,
        })
    }

    /// A fresh invariant watchdog for this scenario's graph and bounds.
    pub fn watchdog(&self) -> InvariantWatchdog {
        InvariantWatchdog::new(&self.graph, self.params, self.drift)
    }

    /// Runs protocol `algo` observed by `sinks`, profiling the engine when
    /// `profiling`. An engine panic is caught into [`Outcome::panic`] with
    /// the sinks intact, so callers can salvage the flight recorder first.
    ///
    /// # Errors
    ///
    /// ``unknown algorithm `NAME` `` (see [`with_protocols`]).
    pub fn run(self, algo: &str, sinks: SinkSet, profiling: bool) -> Result<Outcome, String> {
        let (params, n) = (self.params, self.graph.len());
        let executor = Executor {
            scenario: self,
            sinks,
            profiling,
        };
        with_protocols(algo, params, n, executor)
    }
}

/// The [`ProtocolVisitor`] that builds and runs the engine.
struct Executor {
    scenario: Scenario,
    sinks: SinkSet,
    profiling: bool,
}

impl ProtocolVisitor for Executor {
    type Output = Outcome;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> Outcome {
        let Executor {
            scenario: sc,
            mut sinks,
            profiling,
        } = self;
        let (nodes, horizon) = (sc.graph.len(), sc.horizon);
        // Condition (2) holds at the protocol's own multiplier floor; one
        // that declares none keeps `A^opt`'s.
        let floor = protocols.first().map_or(0.0, P::min_rate_multiplier);
        if floor > 0.0 {
            sinks.watchdog = sinks.watchdog.map(|w| w.with_multiplier_floor(floor));
        }
        let mut engine = Engine::builder(sc.graph)
            .protocols(protocols)
            .delay_model(sc.delay)
            .rate_schedules(sc.schedules)
            .event_sink(sinks)
            .profiling(profiling)
            .build();
        engine.wake_all_at(0.0);
        let panic = catch_unwind(AssertUnwindSafe(|| engine.run_until(horizon))).err();
        let stats = engine.message_stats().clone();
        let profile = engine.profile().cloned();
        let mut sinks = engine.into_sink();
        if panic.is_none() {
            if let Some(m) = sinks.metrics.as_mut() {
                m.flush_rate_window(horizon);
            }
        }
        Outcome {
            nodes,
            diameter: sc.diameter,
            horizon,
            global_bound: sc.params.global_skew_bound(sc.diameter),
            local_bound: sc.params.local_skew_bound(sc.diameter),
            stats,
            sinks,
            profile,
            panic,
        }
    }
}

/// Everything one execution produced.
pub struct Outcome {
    /// Nodes of the topology.
    pub nodes: usize,
    /// Diameter of the topology.
    pub diameter: u32,
    /// Effective horizon the execution ran to.
    pub horizon: f64,
    /// Theorem 5.5 global bound 𝒢 for these parameters and diameter.
    pub global_bound: f64,
    /// Theorem 5.10 local bound for these parameters and diameter.
    pub local_bound: f64,
    /// Engine message counters.
    pub stats: MessageStats,
    /// The observability stack, after the run.
    pub sinks: SinkSet,
    /// Engine phase profile, when profiling was on.
    pub profile: Option<EngineProfile>,
    /// The payload of an engine panic, if the run panicked.
    pub panic: Option<Box<dyn Any + Send>>,
}

impl Outcome {
    /// The execution's measurements: the one projection that sweep jobs
    /// and chaos scenarios report.
    pub fn result(&self) -> JobResult {
        JobResult {
            nodes: self.nodes,
            diameter: self.diameter,
            horizon: self.horizon,
            global_skew: self.sinks.observer.worst_global(),
            local_skew: self.sinks.observer.worst_local(),
            global_bound: self.global_bound,
            local_bound: self.local_bound,
            send_events: self.stats.send_events,
            transmissions: self.stats.transmissions,
            deliveries: self.stats.deliveries,
            dropped: self.stats.dropped,
            dropped_model: self.stats.dropped_model,
            dropped_faults: self.stats.dropped_faults,
            duplicated: self.stats.duplicated,
            events_recorded: self.sinks.recorded(),
            watchdog_tripped: self.sinks.tripped(),
        }
    }
}

/// Live `--heartbeat` state: the emitter plus the counters a beat
/// reports beyond the [`SinkSet`]'s own event count.
pub struct Heartbeat {
    emitter: HeartbeatEmitter<Box<dyn Write + Send>>,
    timer_sets: u64,
    timer_fires: u64,
    timer_cancels: u64,
    dropped_model: u64,
    dropped_faults: u64,
    last_queue_depth: u64,
    /// First write failure; surfaced by [`Heartbeat::finish`] (a sink
    /// cannot return errors mid-simulation).
    error: Option<String>,
}

impl Heartbeat {
    /// Streams beats to `out` every `every` units of simulated time.
    pub fn new(out: Box<dyn Write + Send>, every: f64, deterministic: bool) -> Self {
        Heartbeat {
            emitter: HeartbeatEmitter::new(out, every, 0.0, deterministic),
            timer_sets: 0,
            timer_fires: 0,
            timer_cancels: 0,
            dropped_model: 0,
            dropped_faults: 0,
            last_queue_depth: 0,
            error: None,
        }
    }

    fn record(&mut self, event: &EngineEvent) {
        match event {
            EngineEvent::TimerSet { .. } => self.timer_sets += 1,
            EngineEvent::TimerFire { .. } => self.timer_fires += 1,
            EngineEvent::TimerCancel { .. } => self.timer_cancels += 1,
            EngineEvent::Drop { cause, .. } => match cause {
                DropCause::Model => self.dropped_model += 1,
                DropCause::Fault => self.dropped_faults += 1,
            },
            _ => {}
        }
    }

    fn input(
        &self,
        t: f64,
        queue_depth: u64,
        events: u64,
        observer: &SkewObserver,
        watchdog: Option<&InvariantWatchdog>,
    ) -> BeatInput {
        BeatInput {
            t,
            events,
            queue_depth,
            timers_armed: self
                .timer_sets
                .saturating_sub(self.timer_fires)
                .saturating_sub(self.timer_cancels),
            dropped_model: self.dropped_model,
            dropped_faults: self.dropped_faults,
            skew_global: Some(observer.worst_global()),
            skew_local: Some(observer.worst_local()),
            watchdog: match watchdog {
                None => WatchdogStatus::Off,
                Some(w) if w.tripped() => WatchdogStatus::Tripped,
                Some(_) => WatchdogStatus::Ok,
            },
        }
    }

    fn snapshot(
        &mut self,
        t: f64,
        queue_depth: usize,
        events: u64,
        observer: &SkewObserver,
        watchdog: Option<&InvariantWatchdog>,
    ) {
        self.last_queue_depth = queue_depth as u64;
        if self.emitter.due(t) && self.error.is_none() {
            let input = self.input(t, queue_depth as u64, events, observer, watchdog);
            if let Err(e) = self.emitter.beat(&input) {
                self.error = Some(format!("heartbeat write failed: {e}"));
            }
        }
    }

    /// Writes the final `summary` record at `t`, from the state of the
    /// `sinks` it was taken out of, and surfaces the first write failure.
    ///
    /// # Errors
    ///
    /// The first failed heartbeat write.
    pub fn finish(mut self, t: f64, sinks: &SinkSet) -> Result<(), String> {
        let input = self.input(
            t,
            self.last_queue_depth,
            sinks.recorded,
            &sinks.observer,
            sinks.watchdog.as_ref(),
        );
        if let Err(e) = self.emitter.summary(&input) {
            self.error
                .get_or_insert(format!("heartbeat write failed: {e}"));
        }
        self.error.map_or(Ok(()), Err)
    }
}

/// The observability stack of one execution, composed statically: one
/// event stream and one per-event sample feed every consumer.
///
/// A sample reads the full clock vector ([`ClockView::values`]) only for
/// the consumers that need it. The observer and the watchdog take it when
/// a skew field reads it anyway, or when a watchdog reads vectors: on a
/// graph of at most `SMALL_GRAPH` nodes plus edges, or once it has fallen
/// back to them. Otherwise — the default `gcs run` composition and every
/// sweep and chaos job — they run event-locally: the observer updates its
/// certificates from the touched nodes (or scans the vector during one of
/// its full-scan stints), and the watchdog checks the touched nodes and
/// its lapsed certificates and takes Def. 5.6 from the observer's edge
/// record. The clock trace reads the vector only at its grid points. The
/// metrics and the heartbeat come last, the metrics' global skew from the
/// observer's current extremes.
pub struct SinkSet {
    /// Exact global/local skew observation (always on).
    pub observer: SkewObserver,
    /// The always-armed flight recorder: a bounded ring of recent events,
    /// dumped on trip, panic, or request.
    pub recorder: RecorderSink,
    /// Metrics registry (`gcs run --metrics`), fed event-locally: see
    /// [`MetricsSink::observe`].
    pub metrics: Option<MetricsSink>,
    /// Conditions (1)/(2) and Def. 5.6 online (`--watchdog`, the sweep
    /// `watchdog` key; always on in chaos scenarios).
    pub watchdog: Option<InvariantWatchdog>,
    /// Sampled clock trajectories (`gcs run --trace`).
    pub trace: Option<ClockTrace>,
    /// The complete JSONL event log (`gcs run --events`).
    pub events: Option<JsonlWriter<BufWriter<File>>>,
    /// `gcs-heartbeat/v1` progress records (`gcs run --heartbeat`).
    pub heartbeat: Option<Heartbeat>,
    /// `gcs-skewfield/v1` per-edge windows (`gcs run --skew-field`).
    pub skew_field: Option<SkewFieldWriter<Box<dyn Write + Send>>>,
    /// Engine events recorded so far.
    recorded: u64,
    /// Whether the graph is small enough (`n + m ≤` `SMALL_GRAPH`) that
    /// the watchdog reads vectors.
    small: bool,
}

/// On graphs with at most this many nodes plus edges, a scan of the clock
/// vector costs less than the event-local certificates, and the watchdog
/// reads vectors. Running the default `gcs run` scenario to h = 40 with
/// the watchdog both ways in one process (minimum of 60 runs each, 2-core
/// host), the event-local path took 1.32× as long on path:6, 1.41× on
/// ring:12 and 1.10× on path:24 (n + m = 47), and 0.91× on path:32
/// (n + m = 63) and 0.69× on grid:6x6.
const SMALL_GRAPH: usize = 48;

impl SinkSet {
    /// Observer and recorder only.
    pub fn new(graph: &Graph) -> Self {
        SinkSet::with_recorder(graph, RecorderSink::new())
    }

    /// Observer and the given (empty) recorder only.
    pub fn with_recorder(graph: &Graph, recorder: RecorderSink) -> Self {
        SinkSet {
            observer: SkewObserver::new(graph),
            recorder,
            metrics: None,
            watchdog: None,
            trace: None,
            events: None,
            heartbeat: None,
            skew_field: None,
            recorded: 0,
            small: graph.len() + graph.edge_count() <= SMALL_GRAPH,
        }
    }

    /// Engine events recorded so far (the sweep CSV `events` column).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether an attached watchdog tripped.
    pub fn tripped(&self) -> bool {
        self.watchdog.as_ref().is_some_and(|w| w.tripped())
    }

    /// Whether the observer and the watchdog are fed the clock vector: a
    /// skew field reads it anyway, or the watchdog reads vectors — on a
    /// small graph, or once it has fallen back to them.
    fn needs_vectors(&self) -> bool {
        self.skew_field.is_some()
            || self
                .watchdog
                .as_ref()
                .is_some_and(|w| self.small || w.wants_vectors())
    }
}

impl EventSink for SinkSet {
    fn enabled(&self) -> bool {
        // The flight recorder is always armed, so every run records.
        true
    }

    fn record(&mut self, event: &EngineEvent) {
        self.recorded += 1;
        self.recorder.record(event);
        self.events.record(event);
        self.metrics.record(event);
        self.watchdog.record(event);
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.record(event);
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn wants_previous_sample(&self) -> bool {
        self.watchdog.is_some() && !self.needs_vectors()
    }

    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        if self.needs_vectors() {
            let values = clocks.values();
            self.observer.observe_clocks(t, values);
            self.watchdog.snapshot(t, values, queue_depth);
            if let Some(sf) = self.skew_field.as_mut() {
                sf.observe(t, values);
            }
        } else {
            self.observer.observe_local(t, touched, clocks);
            if let Some(w) = self.watchdog.as_mut() {
                w.observe_local(t, touched, clocks, self.observer.worst_local());
            }
        }
        self.trace.sample(t, touched, clocks, queue_depth);
        if let Some(m) = self.metrics.as_mut() {
            m.observe(t, self.observer.current_global(), queue_depth);
        }
        // Last: a beat reports the observer's and watchdog's state after
        // this sample.
        if let Some(hb) = self.heartbeat.as_mut() {
            let watchdog = self.watchdog.as_ref();
            hb.snapshot(t, queue_depth, self.recorded, &self.observer, watchdog);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Len;

    impl ProtocolVisitor for Len {
        type Output = usize;

        fn visit<P: Protocol>(self, protocols: Vec<P>) -> usize {
            protocols.len()
        }
    }

    #[test]
    fn registry_builds_every_listed_algorithm_and_rejects_others() {
        let params = Params::recommended(0.01, 0.1).unwrap();
        for algo in ALGOS {
            assert_eq!(with_protocols(algo, params, 5, Len), Ok(5), "{algo}");
        }
        assert_eq!(
            with_protocols("quantum", params, 5, Len),
            Err("unknown algorithm `quantum`".to_string())
        );
    }

    fn spec(horizon: f64) -> ScenarioSpec<'static> {
        ScenarioSpec {
            topology: "path:4",
            eps: 0.01,
            t: 0.1,
            sigma: None,
            delay: "uniform",
            rates: "walk",
            faults: Vec::new(),
            seed: 0,
            horizon,
            horizon_per_diameter: 0.0,
        }
    }

    #[test]
    fn the_watchdog_holds_the_envelope_variant_to_its_own_floor() {
        // `EnvelopeAOpt` rides its damped estimate at (1 − ε̂)/(1 + ε̂)·h,
        // below `A^opt`'s α = 1 − ε: under `A^opt`'s envelope this run
        // tripped Condition (2) at t ≈ 0.72.
        for topology in ["path:16", "ring:12"] {
            let scenario = Scenario::build(ScenarioSpec {
                topology,
                eps: 0.01,
                seed: 42,
                horizon: 120.0,
                ..spec(0.0)
            })
            .unwrap();
            let mut sinks = SinkSet::new(&scenario.graph);
            sinks.watchdog = Some(scenario.watchdog());
            let out = scenario.run("envelope", sinks, false).unwrap();
            let watchdog = out.sinks.watchdog.as_ref().unwrap();
            assert!(
                watchdog.trip().is_none(),
                "{topology}: {:?}",
                watchdog.trip()
            );
            let damped = (1.0 - 0.01) / (1.0 + 0.01);
            assert_eq!(watchdog.rate_envelope().alpha(), (1.0 - 0.01) * damped);
        }
        // A floor of 1 leaves `A^opt`'s envelope bit for bit.
        let scenario = Scenario::build(spec(1.0)).unwrap();
        let mut sinks = SinkSet::new(&scenario.graph);
        sinks.watchdog = Some(scenario.watchdog());
        let expected = scenario.watchdog().rate_envelope();
        let out = scenario.run("aopt", sinks, false).unwrap();
        assert_eq!(out.sinks.watchdog.unwrap().rate_envelope(), expected);
    }

    /// A heartbeat sink the test can read back.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_watchdog_leaves_every_other_sink_fed_once_per_sample() {
        // The observer serves some samples by full-scan stints, which read
        // the clock vector while the watchdog stays event-local.
        let run = |watchdog: bool| {
            let scenario = Scenario::build(ScenarioSpec {
                topology: "grid:6x6",
                ..spec(20.0)
            })
            .unwrap();
            let mut sinks = SinkSet::new(&scenario.graph);
            sinks.metrics = Some(MetricsSink::new());
            let beats = Shared::default();
            sinks.heartbeat = Some(Heartbeat::new(Box::new(beats.clone()), 0.5, true));
            if watchdog {
                sinks.watchdog = Some(scenario.watchdog());
            }
            let out = scenario.run("aopt", sinks, false).unwrap();
            let mut sinks = out.sinks;
            let beats = String::from_utf8(beats.0.lock().unwrap().clone()).unwrap();
            (
                sinks.observer.observations(),
                sinks.watchdog.map(|w| (w.snapshots(), w.wants_vectors())),
                sinks.metrics.as_mut().unwrap().registry().to_json(),
                beats,
            )
        };
        let (observations, _, metrics, beats) = run(false);
        let (observations_on, watchdog, metrics_on, beats_on) = run(true);
        assert_eq!(observations_on, observations);
        assert_eq!(watchdog, Some((observations, false)));
        assert_eq!(metrics_on, metrics);
        // Beats on the event-local path report the watchdog.
        assert!(beats_on.contains("\"watchdog\":\"ok\""), "{beats_on}");
        assert_eq!(
            beats_on,
            beats.replace("\"watchdog\":\"off\"", "\"watchdog\":\"ok\"")
        );
    }

    #[test]
    fn a_trace_reads_vectors_without_moving_the_observer_or_the_watchdog() {
        let scenario = || {
            Scenario::build(ScenarioSpec {
                topology: "grid:6x6",
                ..spec(20.0)
            })
            .unwrap()
        };
        let run = |trace: bool| {
            let scenario = scenario();
            let mut sinks = SinkSet::new(&scenario.graph);
            sinks.watchdog = Some(scenario.watchdog());
            if trace {
                sinks.trace = Some(ClockTrace::new(scenario.graph.len(), 0.25));
            }
            let sinks = scenario.run("aopt", sinks, false).unwrap().sinks;
            let (observer, watchdog) = (&sinks.observer, sinks.watchdog.as_ref().unwrap());
            let worst = [
                observer.worst_global(),
                observer.worst_global_at(),
                observer.worst_local(),
                observer.worst_local_at(),
            ]
            .map(f64::to_bits);
            let observed = (
                worst,
                observer.worst_global_pair(),
                observer.worst_local_pair(),
                observer.observations(),
                watchdog.snapshots(),
                watchdog.tripped(),
                watchdog.wants_vectors(),
                watchdog.exact_scans(),
            );
            (observed, sinks.trace.map(|t| t.to_csv()))
        };
        let (plain, _) = run(false);
        let (traced, csv) = run(true);
        assert_eq!(traced, plain);
        assert!(!plain.6, "the watchdog stays event-local");

        // A standalone trace fed the clock vector after every event.
        let scenario = scenario();
        let n = scenario.graph.len();
        let mut trace = ClockTrace::new(n, 0.25);
        let mut engine = Engine::builder(scenario.graph)
            .protocols(vec![AOpt::new(scenario.params); n])
            .delay_model(scenario.delay)
            .rate_schedules(scenario.schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(scenario.horizon, |e| trace.observe(e));
        assert!(trace.len() > 40, "{} rows", trace.len());
        assert_eq!(csv.unwrap(), trace.to_csv());
    }

    #[test]
    fn horizons_must_be_non_negative_and_finite() {
        for bad in [-3.0, f64::NAN, f64::INFINITY] {
            let err = Scenario::build(spec(bad)).err().expect("rejected");
            assert!(err.starts_with("horizon must be non-negative"), "{err}");
        }
        let zero = Scenario::build(spec(0.0)).unwrap();
        let sinks = SinkSet::new(&zero.graph);
        let out = zero.run("aopt", sinks, false).unwrap();
        assert_eq!(out.horizon, 0.0);
        assert!(out.panic.is_none());
    }
}
