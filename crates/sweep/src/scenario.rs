//! The one execution path behind `gcs run`, sweep jobs and chaos
//! scenarios: [`Scenario::build`] turns spec fields into a substrate, the
//! registry ([`with_protocols`]) picks the protocol, a [`SinkSet`] observes,
//! and [`Scenario::run`] returns one [`Outcome`]. The verbs only project
//! the outcome: [`crate::run_job`] into a [`crate::JobResult`],
//! `gcs_chaos::run_scenario` into an oracle verdict, and `gcs run` into its
//! report table.

use std::any::Any;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use gcs_adversary::{apply_rate_faults, ChaosDelay, FaultClause};
use gcs_analysis::{ClockTrace, InvariantWatchdog, JsonlWriter, MetricsSink, SkewObserver};
use gcs_core::{
    AOpt, AOptJump, EnvelopeAOpt, MaxAlgorithm, MidpointAlgorithm, MinGapAOpt, NoSync, Params,
};
use gcs_graph::Graph;
use gcs_sim::{
    DropCause, Engine, EngineEvent, EngineProfile, EventSink, MessageStats, Protocol, RecorderSink,
};
use gcs_telemetry::{BeatInput, HeartbeatEmitter, ParStats, SkewFieldWriter, WatchdogStatus};
use gcs_time::{DriftBounds, RateSchedule};

use crate::parse::{build_delay, build_rates, parse_topology, SweepDelay};

/// Receives the protocol vector the registry built for a name. Static
/// dispatch: `visit` is monomorphized once per registered protocol.
pub trait ProtocolVisitor {
    /// What visiting produces.
    type Output;

    /// Consumes one protocol instance per node.
    fn visit<P>(self, protocols: Vec<P>) -> Self::Output
    where
        P: Protocol + Send,
        P::Msg: Send;
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

    /// Runs protocol `algo` observed by `sinks` on `threads` engine threads
    /// (`1` = the sequential loop), profiling the engine when `profiling`.
    /// An engine panic is caught into [`Outcome::panic`] with the sinks
    /// intact, so callers can salvage the flight recorder first.
    ///
    /// # Errors
    ///
    /// ``unknown algorithm `NAME` `` (see [`with_protocols`]).
    pub fn run(
        self,
        algo: &str,
        sinks: SinkSet,
        threads: usize,
        profiling: bool,
    ) -> Result<Outcome, String> {
        let (params, n) = (self.params, self.graph.len());
        let executor = Executor {
            scenario: self,
            sinks,
            threads,
            profiling,
        };
        with_protocols(algo, params, n, executor)
    }
}

/// The [`ProtocolVisitor`] that builds and runs the engine.
struct Executor {
    scenario: Scenario,
    sinks: SinkSet,
    threads: usize,
    profiling: bool,
}

impl ProtocolVisitor for Executor {
    type Output = Outcome;

    fn visit<P>(self, protocols: Vec<P>) -> Outcome
    where
        P: Protocol + Send,
        P::Msg: Send,
    {
        let Executor {
            scenario: sc,
            sinks,
            threads,
            profiling,
        } = self;
        let (nodes, horizon, per_event) = (sc.graph.len(), sc.horizon, sinks.per_event);
        let mut engine = Engine::builder(sc.graph)
            .protocols(protocols)
            .delay_model(sc.delay)
            .rate_schedules(sc.schedules)
            .event_sink(sinks)
            .profiling(profiling)
            .build();
        engine.wake_all_at(0.0);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            if threads > 1 {
                engine.run_until_threaded(horizon, threads);
            } else {
                engine.run_until(horizon);
            }
        }))
        .err();
        let stats = engine.message_stats().clone();
        let profile = engine.profile().cloned();
        let final_clocks = (panic.is_none() && !per_event).then(|| engine.logical_values());
        let mut sinks = engine.into_sink();
        if let Some(clocks) = final_clocks {
            // Per-event sampling was skipped; give the observer at least
            // the state at the horizon.
            sinks.observer.observe_clocks(horizon, &clocks);
        }
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

/// Live `--heartbeat` state: the emitter plus the counters a beat
/// reports.
pub struct Heartbeat {
    emitter: HeartbeatEmitter<Box<dyn Write + Send>>,
    events: u64,
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
            events: 0,
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
        self.events += 1;
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
        observer: &SkewObserver,
        watchdog: Option<&InvariantWatchdog>,
    ) -> BeatInput {
        BeatInput {
            t,
            events: self.events,
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
        observer: &SkewObserver,
        watchdog: Option<&InvariantWatchdog>,
    ) {
        self.last_queue_depth = queue_depth as u64;
        if self.emitter.due(t) && self.error.is_none() {
            let input = self.input(t, queue_depth as u64, observer, watchdog);
            if let Err(e) = self.emitter.beat(&input) {
                self.error = Some(format!("heartbeat write failed: {e}"));
            }
        }
    }

    /// Writes the final `summary` record at `t` (with the parallel shares
    /// `par`, if any) and surfaces the first write failure.
    ///
    /// # Errors
    ///
    /// The first failed heartbeat write.
    pub fn finish(
        mut self,
        t: f64,
        observer: &SkewObserver,
        watchdog: Option<&InvariantWatchdog>,
        par: Option<&ParStats>,
    ) -> Result<(), String> {
        let input = self.input(t, self.last_queue_depth, observer, watchdog);
        if let Err(e) = self.emitter.summary(&input, par) {
            self.error
                .get_or_insert(format!("heartbeat write failed: {e}"));
        }
        self.error.map_or(Ok(()), Err)
    }
}

/// The observability stack of one execution, composed statically: one
/// event stream and one per-event snapshot pass feed every consumer.
pub struct SinkSet {
    /// Exact global/local skew observation (always on).
    pub observer: SkewObserver,
    /// The always-armed flight recorder: a bounded ring of recent events,
    /// dumped on trip, panic, or request.
    pub recorder: RecorderSink,
    /// Metrics registry (`gcs run --metrics`; always on in sweep jobs).
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
    /// Sample engine state after every event. Under `--threads K>1` the
    /// parallel driver serves this by barrier-time snapshot replay; when
    /// off, the observer sees a single snapshot at the horizon instead.
    pub per_event: bool,
}

impl SinkSet {
    /// Observer and recorder only, sampling per event.
    pub fn new(graph: &Graph) -> Self {
        SinkSet {
            observer: SkewObserver::new(graph),
            recorder: RecorderSink::new(),
            metrics: None,
            watchdog: None,
            trace: None,
            events: None,
            heartbeat: None,
            skew_field: None,
            per_event: true,
        }
    }

    /// Whether an attached watchdog tripped.
    pub fn tripped(&self) -> bool {
        self.watchdog.as_ref().is_some_and(|w| w.tripped())
    }
}

impl EventSink for SinkSet {
    fn enabled(&self) -> bool {
        // The flight recorder is always armed, so every run records.
        true
    }

    fn record(&mut self, event: &EngineEvent) {
        self.recorder.record(event);
        self.events.record(event);
        self.metrics.record(event);
        self.watchdog.record(event);
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.record(event);
        }
    }

    fn wants_snapshots(&self) -> bool {
        self.per_event
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        self.observer.observe_clocks(t, clocks);
        self.trace.snapshot(t, clocks, queue_depth);
        self.metrics.snapshot(t, clocks, queue_depth);
        self.watchdog.snapshot(t, clocks, queue_depth);
        if let Some(sf) = self.skew_field.as_mut() {
            sf.observe(t, clocks);
        }
        // Last: a beat reports the observer's and watchdog's state after
        // this snapshot.
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.snapshot(t, queue_depth, &self.observer, self.watchdog.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Len;

    impl ProtocolVisitor for Len {
        type Output = usize;

        fn visit<P>(self, protocols: Vec<P>) -> usize
        where
            P: Protocol + Send,
            P::Msg: Send,
        {
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
    fn horizons_must_be_non_negative_and_finite() {
        for bad in [-3.0, f64::NAN, f64::INFINITY] {
            let err = Scenario::build(spec(bad)).err().expect("rejected");
            assert!(err.starts_with("horizon must be non-negative"), "{err}");
        }
        let zero = Scenario::build(spec(0.0)).unwrap();
        let sinks = SinkSet::new(&zero.graph);
        let out = zero.run("aopt", sinks, 1, false).unwrap();
        assert_eq!(out.horizon, 0.0);
        assert!(out.panic.is_none());
    }
}
