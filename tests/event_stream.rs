//! Determinism and watchdog integration tests for the observability layer.
//!
//! The engine promises that a fixed (seed, topology, rate schedule) triple
//! produces a *byte-identical* JSONL event stream on every run. These tests
//! pin that promise down with a property test over random environments, and
//! exercise the invariant watchdog on a deliberately broken parameterization.

use clock_sync::analysis::{diff_streams, InvariantWatchdog, JsonlWriter, WatchdogViolation};
use clock_sync::core::{AOpt, Params};
use clock_sync::graph::topology;
use clock_sync::sim::{rates, Engine, UniformDelay};
use clock_sync::sweep::SinkSet;
use clock_sync::time::DriftBounds;
use proptest::prelude::*;

/// Runs `A^opt` on the given environment, recording every engine event as
/// JSONL into an in-memory buffer, and returns the stream.
fn record_stream(
    n: usize,
    p_edge: f64,
    graph_seed: u64,
    delay_seed: u64,
    rate_seed: u64,
    horizon: f64,
) -> String {
    let eps = 0.01;
    let t_max = 0.1;
    let params = Params::recommended(eps, t_max).unwrap();
    let g = topology::erdos_renyi(n, p_edge, graph_seed);
    let drift = DriftBounds::new(eps).unwrap();
    let schedules = rates::random_walk(n, drift, 3.0, horizon, rate_seed);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, delay_seed))
        .rate_schedules(schedules)
        .event_sink(JsonlWriter::new(Vec::new()))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    let bytes = engine.into_sink().finish().unwrap();
    String::from_utf8(bytes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed + topology ⇒ byte-identical event streams, across random
    /// environments. This is the contract `gcs replay-check` relies on.
    #[test]
    fn same_seed_runs_emit_identical_jsonl(
        n in 2usize..9,
        p_edge in 0.1f64..0.6,
        graph_seed in 0u64..400,
        delay_seed in 0u64..400,
        rate_seed in 0u64..400,
    ) {
        let a = record_stream(n, p_edge, graph_seed, delay_seed, rate_seed, 30.0);
        let b = record_stream(n, p_edge, graph_seed, delay_seed, rate_seed, 30.0);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(diff_streams(&a, &b), None);
    }

    /// Different delay seeds diverge — the identity above is not vacuous.
    #[test]
    fn different_seeds_diverge(
        n in 3usize..8,
        graph_seed in 0u64..200,
        delay_seed in 0u64..200,
    ) {
        let a = record_stream(n, 0.4, graph_seed, delay_seed, 11, 20.0);
        let b = record_stream(n, 0.4, graph_seed, delay_seed + 1000, 11, 20.0);
        prop_assert!(diff_streams(&a, &b).is_some());
    }
}

/// Running `A^opt` with κ forced far below the Eq. 4 minimum must trip the
/// legal-state watchdog (Def. 5.6), and the trip must freeze the flight
/// recorder on the events leading up to it.
#[test]
fn watchdog_trips_when_kappa_violates_eq4() {
    let eps = 0.01;
    let t_max = 0.1;
    let params = Params::recommended(eps, t_max)
        .unwrap()
        .with_kappa_factor_unchecked(0.01);
    assert!(params.kappa() < params.min_kappa());
    let n = 8;
    let g = topology::path(n);
    let drift = DriftBounds::new(eps).unwrap();
    let horizon = 60.0;
    let schedules = rates::random_walk(n, drift, 3.0, horizon, 5);
    let mut sinks = SinkSet::new(&g);
    sinks.watchdog = Some(InvariantWatchdog::new(&g, params, drift));
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 5))
        .rate_schedules(schedules)
        .event_sink(sinks)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    let sinks = engine.into_sink();
    let violation = sinks
        .watchdog
        .as_ref()
        .and_then(|w| w.trip())
        .expect("κ below Eq. 4 must trip the watchdog");
    assert!(
        matches!(violation, WatchdogViolation::LegalState(_)),
        "expected a Def. 5.6 legal-state violation, got {violation:?}"
    );
    let window = sinks.recorder.window_events();
    assert!(
        window.last().is_some_and(|e| e.time() <= violation.time()),
        "the recorder must hold the events up to the trip"
    );
    assert!(sinks.recorder.recorded() < sinks.recorded());
}

/// With the recommended (Eq. 4-respecting) parameters the watchdog stays
/// silent on the same environment.
#[test]
fn watchdog_stays_silent_with_recommended_params() {
    let eps = 0.01;
    let t_max = 0.1;
    let params = Params::recommended(eps, t_max).unwrap();
    let n = 8;
    let g = topology::path(n);
    let drift = DriftBounds::new(eps).unwrap();
    let horizon = 60.0;
    let schedules = rates::random_walk(n, drift, 3.0, horizon, 5);
    let watchdog = InvariantWatchdog::new(&g, params, drift);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 5))
        .rate_schedules(schedules)
        .event_sink(watchdog)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    assert!(engine.sink().trip().is_none());
}
