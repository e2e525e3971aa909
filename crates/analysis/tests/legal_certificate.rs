//! Differential test of the watchdog's Definition 5.6 path against the
//! bare all-pairs [`LegalStateChecker`].
//!
//! The watchdog skips the pair scan whenever every edge skew is within its
//! `κ/2` certificate. A tee sink feeds each engine snapshot to both
//! checkers and asserts, snapshot by snapshot, that they agree on whether
//! the state is legal and on the first violation. Only snapshots reach the
//! watchdog (no wake events), so Conditions (1)/(2) never arm and
//! Definition 5.6 is the only check it runs.
//!
//! The healthy executions cross `κ/2` on some edge without violating, so
//! both the certified and the scanned path run; the unsynchronized and the
//! strongly κ-scaled ones violate.

use gcs_analysis::{InvariantWatchdog, LegalStateChecker, WatchdogViolation};
use gcs_core::{AOpt, AOptJump, MaxAlgorithm, NoSync, Params};
use gcs_graph::{topology, Graph};
use gcs_sim::{Engine, EventSink, Protocol, UniformDelay};
use gcs_time::DriftBounds;

const EPS: f64 = 0.02;
const T_HAT: f64 = 0.2;

struct Tee {
    watchdog: InvariantWatchdog,
    checker: LegalStateChecker,
    edges: Vec<(usize, usize)>,
    half_kappa: f64,
    /// Snapshots with some edge skew above `κ/2`.
    crossings: u64,
}

impl EventSink for Tee {
    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        if self.watchdog.tripped() {
            return;
        }
        let scans = self.watchdog.exact_scans();
        self.watchdog.snapshot(t, clocks, queue_depth);
        let legal = self.checker.observe_clocks(t, clocks);
        let max_edge = self
            .edges
            .iter()
            .map(|&(a, b)| (clocks[a] - clocks[b]).abs())
            .fold(0.0, f64::max);
        if max_edge > self.half_kappa {
            self.crossings += 1;
        }
        if self.watchdog.exact_scans() == scans {
            assert!(legal, "certified an illegal state at t={t}");
            assert!(max_edge <= self.half_kappa, "certified an edge above κ/2");
        }
        assert_eq!(legal, !self.watchdog.tripped(), "verdicts differ at t={t}");
        if !legal {
            assert_eq!(
                self.watchdog.trip(),
                Some(&WatchdogViolation::LegalState(
                    self.checker.first_violation().unwrap()
                ))
            );
        }
    }
}

struct Outcome {
    snapshots: u64,
    exact_scans: u64,
    crossings: u64,
    violated: bool,
}

/// Runs `protocols` on `graph` under 𝒯̂-uniform delays and a maximal drift
/// split (first half fast), with the tee watching.
fn run<P: Protocol>(graph: Graph, params: Params, protocols: Vec<P>, horizon: f64) -> Outcome {
    let n = graph.len();
    let drift = DriftBounds::new(EPS).unwrap();
    let tee = Tee {
        watchdog: InvariantWatchdog::new(&graph, params, drift),
        checker: LegalStateChecker::new(&graph, params),
        edges: graph.edges().map(|(a, b)| (a.index(), b.index())).collect(),
        half_kappa: params.kappa() / 2.0,
        crossings: 0,
    };
    let mut engine = Engine::builder(graph)
        .protocols(protocols)
        .delay_model(UniformDelay::new(T_HAT, 3))
        .rate_schedules(gcs_sim::rates::split(n, drift, |v| v < n / 2))
        .event_sink(tee)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    let tee = engine.into_sink();
    Outcome {
        snapshots: tee.watchdog.snapshots(),
        exact_scans: tee.watchdog.exact_scans(),
        crossings: tee.crossings,
        violated: tee.watchdog.tripped(),
    }
}

#[test]
fn executions_crossing_half_kappa_stay_legal_on_both_paths() {
    let p = Params::recommended(EPS, T_HAT).unwrap();
    let (jump, ring) = (
        p.with_kappa_factor_unchecked(0.4),
        p.with_kappa_factor_unchecked(0.3),
    );
    let outcomes = [
        (
            "jump, grid:6x6, κ×0.4",
            run(
                topology::grid(6, 6),
                jump,
                vec![AOptJump::new(jump); 36],
                200.0,
            ),
        ),
        (
            "max, path:16",
            run(
                topology::path(16),
                p,
                vec![MaxAlgorithm::new(10.0); 16],
                400.0,
            ),
        ),
        (
            "max, grid:6x6",
            run(
                topology::grid(6, 6),
                p,
                vec![MaxAlgorithm::new(20.0); 36],
                400.0,
            ),
        ),
        (
            "aopt, ring:20, κ×0.3",
            run(topology::cycle(20), ring, vec![AOpt::new(ring); 20], 200.0),
        ),
    ];
    for (name, o) in outcomes {
        assert!(!o.violated, "{name}: violated");
        assert!(o.crossings > 0, "{name}: never crossed κ/2");
        assert!(
            o.exact_scans >= o.crossings,
            "{name}: {} scans",
            o.exact_scans
        );
        assert!(o.exact_scans < o.snapshots, "{name}: never certified");
    }
}

#[test]
fn violating_executions_report_the_scan_s_first_violation() {
    let p = Params::recommended(EPS, T_HAT).unwrap();
    let nosync = |g: Graph| {
        let n = g.len();
        run(g, p, vec![NoSync; n], 400.0)
    };
    let (aopt, jump) = (
        p.with_kappa_factor_unchecked(0.1),
        p.with_kappa_factor_unchecked(0.05),
    );
    let outcomes = [
        ("nosync, ring:30", nosync(topology::cycle(30))),
        ("nosync, path:16", nosync(topology::path(16))),
        ("nosync, grid:8x8", nosync(topology::grid(8, 8))),
        (
            "aopt, path:32, κ×0.1",
            run(topology::path(32), aopt, vec![AOpt::new(aopt); 32], 200.0),
        ),
        (
            "jump, grid:6x6, κ×0.05",
            run(
                topology::grid(6, 6),
                jump,
                vec![AOptJump::new(jump); 36],
                200.0,
            ),
        ),
    ];
    for (name, o) in outcomes {
        assert!(o.violated, "{name}: never violated");
        assert!(o.exact_scans > 0, "{name}");
    }
}
