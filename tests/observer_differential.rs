//! Differential oracle for the event-local skew observer: after every
//! observed event, `SkewObserver::observe_local` (kinetic certificates over
//! the touched nodes) must report exactly what `observe_clocks` (the full
//! scan of the clock vector) reports — every worst value, `*_at` time and
//! pair, compared by `to_bits`.
//!
//! Both paths must also leave `current_global` at the full scan's
//! `max − min` after every event, and a `SinkSet` that feeds its metrics
//! event-locally from it must build the same registry, byte for byte, as
//! a standalone `MetricsSink` folding every clock vector itself.
//!
//! The matrix covers every registry protocol (including `jump`, whose
//! clocks jump forward), six topology families at sizes 1 to 512, four
//! delay models, three rate families and several seeds, plus external rate
//! overrides.

mod common;

use clock_sync::adversary::{parse_schedule, FaultClause};
use clock_sync::analysis::{MetricsSink, SkewObserver};
use clock_sync::graph::NodeId;
use clock_sync::sim::{ClockView, Engine, EngineEvent, EventSink, Protocol};
use clock_sync::sweep::{with_protocols, ProtocolVisitor, Scenario, ScenarioSpec, SinkSet, ALGOS};

/// `max − min` of a clock vector, folded the way a standalone
/// `MetricsSink` folds it (`None` for no clocks).
fn spread(clocks: &[f64]) -> Option<f64> {
    let max = clocks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = clocks.iter().copied().fold(f64::INFINITY, f64::min);
    (max >= min).then_some(max - min)
}

fn bits(global: Option<f64>) -> Option<u64> {
    global.map(f64::to_bits)
}

/// Feeds one observer the full vector and a twin the event-local path at
/// every sample, and checks them against each other after each one.
struct Twin {
    full: SkewObserver,
    local: SkewObserver,
    /// The full scan's `max − min` at the current instant.
    spread: Option<f64>,
    label: String,
    checks: u64,
}

impl Twin {
    fn assert_agree(&mut self) {
        let (f, l) = (&self.full, &self.local);
        let ctx = || {
            format!(
                "{} after {} observations: full = ({}, {}, {:?}, {}, {}, {:?}), \
                 local = ({}, {}, {:?}, {}, {}, {:?})",
                self.label,
                f.observations(),
                f.worst_global(),
                f.worst_global_at(),
                f.worst_global_pair(),
                f.worst_local(),
                f.worst_local_at(),
                f.worst_local_pair(),
                l.worst_global(),
                l.worst_global_at(),
                l.worst_global_pair(),
                l.worst_local(),
                l.worst_local_at(),
                l.worst_local_pair(),
            )
        };
        assert_eq!(f.observations(), l.observations(), "{}", ctx());
        assert_eq!(
            f.worst_global().to_bits(),
            l.worst_global().to_bits(),
            "{}",
            ctx()
        );
        assert_eq!(
            f.worst_global_at().to_bits(),
            l.worst_global_at().to_bits(),
            "{}",
            ctx()
        );
        assert_eq!(f.worst_global_pair(), l.worst_global_pair(), "{}", ctx());
        assert_eq!(
            f.worst_local().to_bits(),
            l.worst_local().to_bits(),
            "{}",
            ctx()
        );
        assert_eq!(
            f.worst_local_at().to_bits(),
            l.worst_local_at().to_bits(),
            "{}",
            ctx()
        );
        assert_eq!(f.worst_local_pair(), l.worst_local_pair(), "{}", ctx());
        assert_eq!(bits(f.current_global()), bits(self.spread), "{}", ctx());
        assert_eq!(bits(l.current_global()), bits(self.spread), "{}", ctx());
        self.checks += 1;
    }
}

impl EventSink for Twin {
    fn enabled(&self) -> bool {
        false
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, _queue_depth: usize) {
        self.full.observe_clocks(t, clocks.values());
        self.spread = spread(clocks.values());
        self.local.observe_local(t, touched, clocks);
        self.assert_agree();
    }
}

/// How a case drives its engine.
#[derive(Clone, Copy)]
enum Drive {
    /// `run_until` to the horizon.
    Plain,
    /// Override a few hardware rates between steps (`set_hardware_rate`
    /// touches outside any dispatch).
    RateOverrides,
    /// Advance in steps of 0.05 and re-rate a few nodes after each, so
    /// clocks keep overtaking each other while most certificates run to
    /// their expiry instead of being cut short by the node's own events.
    Crossings,
    /// Halfway through, slow one node below every scheduled rate: the
    /// engine's rate floor drops under live certificates.
    SlowOverride,
}

struct Case {
    scenario: Scenario,
    label: String,
    drive: Drive,
}

impl ProtocolVisitor for Case {
    type Output = u64;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> u64 {
        let Case {
            scenario: sc,
            label,
            drive,
        } = self;
        let twin = Twin {
            full: SkewObserver::new(&sc.graph),
            local: SkewObserver::new(&sc.graph),
            spread: None,
            label,
            checks: 0,
        };
        let n = sc.graph.len();
        let horizon = sc.horizon;
        let mut engine = Engine::builder(sc.graph)
            .protocols(protocols)
            .delay_model(sc.delay)
            .rate_schedules(sc.schedules)
            .event_sink(twin)
            .build();
        engine.wake_all_at(0.0);
        match drive {
            Drive::Plain => engine.run_until(horizon),
            Drive::RateOverrides => {
                let mut k = 0usize;
                while engine.next_event_time().is_some_and(|t| t <= horizon) {
                    engine.step();
                    k += 1;
                    if k.is_multiple_of(7) {
                        let v = NodeId((k * 31) % n);
                        if engine.is_started(v) {
                            let rate = [0.99, 1.0, 1.01][k % 3];
                            engine.set_hardware_rate(v, rate);
                        }
                    }
                }
                engine.run_until(horizon);
            }
            Drive::Crossings => {
                let rates = [0.9, 1.07, 0.95, 1.1, 1.0, 0.93];
                let mut k = 0usize;
                let mut t = 0.0;
                while t < horizon {
                    t = (t + 0.05).min(horizon);
                    engine.run_until(t);
                    for _ in 0..3 {
                        k += 1;
                        let v = NodeId((k * 37 + k / 5) % n);
                        if engine.is_started(v) {
                            engine.set_hardware_rate(v, rates[k % rates.len()]);
                        }
                    }
                }
            }
            Drive::SlowOverride => {
                engine.run_until(horizon / 2.0);
                let floor = engine.rate_floor();
                assert!(floor > 0.0, "registry protocols declare a floor");
                engine.set_hardware_rate(NodeId(n / 2), 0.5);
                assert!(engine.rate_floor() < floor * 0.6, "the floor follows");
                engine.run_until(horizon);
            }
        }
        let twin = engine.into_sink();
        assert!(twin.checks > 0, "{}: nothing observed", twin.label);
        twin.checks
    }
}

fn build(
    topology: &str,
    delay: &str,
    rates: &str,
    faults: Vec<FaultClause>,
    seed: u64,
    horizon: f64,
) -> Scenario {
    Scenario::build(ScenarioSpec {
        topology,
        eps: 0.02,
        t: 0.1,
        sigma: None,
        delay,
        rates,
        faults,
        seed,
        horizon,
        horizon_per_diameter: 0.0,
    })
    .unwrap_or_else(|e| panic!("{topology}/{delay}/{rates}: {e}"))
}

fn run_case(
    algo: &str,
    topology: &str,
    delay: &str,
    rates: &str,
    seed: u64,
    horizon: f64,
    drive: Drive,
) -> u64 {
    let scenario = build(topology, delay, rates, Vec::new(), seed, horizon);
    let (params, n) = (scenario.params, scenario.graph.len());
    let label = format!("{algo} on {topology}, delays {delay}, rates {rates}, seed {seed}");
    let case = Case {
        scenario,
        label,
        drive,
    };
    with_protocols(algo, params, n, case).expect("registered algorithm")
}

/// Topology specs of size roughly `n` in each family.
fn topologies(n: usize) -> Vec<String> {
    let side = ((n as f64).sqrt().round() as usize).max(1);
    vec![
        format!("path:{n}"),
        format!("ring:{}", n.max(3)),
        format!("grid:{side}x{}", n.div_ceil(side)),
        format!("star:{n}"),
        format!("tree:{n}"),
        format!("er:{n}:{}", (4.0 / n as f64).min(0.5)),
    ]
}

#[test]
fn event_local_observation_matches_the_full_scan_bit_for_bit() {
    let delays = ["uniform", "const", "zero", "wavefront"];
    let rates = ["walk", "nominal", "split"];
    let sizes = [1, 2, 3, 5, 8, 13, 24];
    let mut checks = 0;
    let mut case = 0usize;
    for algo in ALGOS {
        for delay in delays {
            for rate in rates {
                // Each (algo, delay, rates) cell walks the topology families
                // at a rotating size and seed, so the matrix covers every
                // size without running every product.
                let n = sizes[case % sizes.len()];
                let seed = (case % 5) as u64;
                for topology in topologies(n) {
                    checks += run_case(algo, &topology, delay, rate, seed, 4.0, Drive::Plain);
                }
                case += 1;
            }
        }
    }
    assert!(checks > 100_000, "only {checks} observations compared");
}

#[test]
fn event_local_observation_matches_at_large_n() {
    for (i, topology) in topologies(512).into_iter().enumerate() {
        let algo = ALGOS[i % ALGOS.len()];
        run_case(
            algo,
            &topology,
            "uniform",
            "walk",
            11 + i as u64,
            1.5,
            Drive::Plain,
        );
    }
    run_case("aopt", "path:512", "const", "split", 3, 2.0, Drive::Plain);
    run_case("jump", "grid:16x16", "const", "walk", 4, 2.0, Drive::Plain);
}

#[test]
fn event_local_observation_matches_under_rate_overrides() {
    for algo in ALGOS {
        for (topology, seed) in [("path:9", 1), ("ring:12", 2), ("grid:4x4", 3)] {
            run_case(
                algo,
                topology,
                "uniform",
                "walk",
                seed,
                6.0,
                Drive::RateOverrides,
            );
        }
    }
}

#[test]
fn event_local_observation_matches_when_an_override_lowers_the_rate_floor() {
    for algo in ALGOS {
        for (topology, seed) in [("path:24", 5), ("grid:5x5", 6)] {
            run_case(
                algo,
                topology,
                "uniform",
                "split",
                seed,
                8.0,
                Drive::SlowOverride,
            );
        }
    }
}

#[test]
fn event_local_observation_matches_while_clocks_overtake_each_other() {
    for algo in ["nosync", "aopt", "jump"] {
        for (topology, seed) in [
            ("path:5", 1),
            ("ring:16", 2),
            ("grid:8x8", 3),
            ("star:12", 4),
        ] {
            run_case(
                algo,
                topology,
                "const",
                "nominal",
                seed,
                20.0,
                Drive::Crossings,
            );
        }
    }
}

/// A `SinkSet` with event-local metrics beside a standalone vector-fed
/// `MetricsSink`, on one engine. The set sees the samples it would see
/// alone, and the twin counts those in which it read the clock vector (an
/// observer stint) and those it served event-locally.
struct MetricsTwin {
    set: SinkSet,
    vector: MetricsSink,
    vector_observations: u64,
    local_observations: u64,
}

impl EventSink for MetricsTwin {
    fn record(&mut self, event: &EngineEvent) {
        self.set.record(event);
        self.vector.record(event);
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn wants_previous_sample(&self) -> bool {
        self.set.wants_previous_sample()
    }

    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        if common::sample_noting_vector(&mut self.set, t, touched, clocks, queue_depth) {
            self.vector_observations += 1;
        } else {
            self.local_observations += 1;
        }
        self.vector.snapshot(t, clocks.values(), queue_depth);
    }
}

struct MetricsCase {
    scenario: Scenario,
    label: String,
}

impl ProtocolVisitor for MetricsCase {
    /// Observations the set served from a vector and event-locally.
    type Output = (u64, u64);

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> (u64, u64) {
        let MetricsCase {
            scenario: sc,
            label,
        } = self;
        let mut set = SinkSet::new(&sc.graph);
        set.metrics = Some(MetricsSink::new());
        let twin = MetricsTwin {
            set,
            vector: MetricsSink::new(),
            vector_observations: 0,
            local_observations: 0,
        };
        let horizon = sc.horizon;
        let mut engine = Engine::builder(sc.graph)
            .protocols(protocols)
            .delay_model(sc.delay)
            .rate_schedules(sc.schedules)
            .event_sink(twin)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(horizon);
        let mut twin = engine.into_sink();
        let mut local = twin.set.metrics.take().expect("metrics installed");
        let vector = &mut twin.vector;
        local.flush_rate_window(horizon);
        vector.flush_rate_window(horizon);
        assert_eq!(
            local.registry().to_json(),
            vector.registry().to_json(),
            "{label}"
        );
        assert_eq!(local.render(), vector.render(), "{label}");
        assert_eq!(
            local.registry().counter_value("events.total"),
            Some(twin.set.recorded()),
            "{label}"
        );
        (twin.vector_observations, twin.local_observations)
    }
}

fn metrics_case(algo: &str, topology: &str, faults: &str, seed: u64, horizon: f64) -> (u64, u64) {
    let faults = parse_schedule(faults).expect("valid fault schedule");
    let scenario = build(topology, "uniform", "walk", faults, seed, horizon);
    let (params, n) = (scenario.params, scenario.graph.len());
    let label = format!("metrics of {algo} on {topology}, seed {seed}, horizon {horizon}");
    with_protocols(algo, params, n, MetricsCase { scenario, label }).expect("registered algorithm")
}

#[test]
fn event_local_metrics_match_a_standalone_vector_sink_byte_for_byte() {
    let sizes = [1, 2, 5, 9, 16, 64];
    let (mut vector, mut local) = (0, 0);
    for (i, algo) in ALGOS.iter().enumerate() {
        for (j, topology) in topologies(sizes[i % sizes.len()]).iter().enumerate() {
            let (v, l) = metrics_case(algo, topology, "none", (i + j) as u64, 6.0);
            vector += v;
            local += l;
        }
        // Horizon 0: only the wake-ups at t = 0 and the horizon pass.
        metrics_case(algo, "path:4", "none", 1, 0.0);
        metrics_case(algo, "path:1", "none", 1, 0.0);
    }
    metrics_case(
        "aopt",
        "ring:10",
        "drop:1..3:*:0.5;dup:0..4:*:1:0.05;rate:1..4:0..2:1.01",
        7,
        8.0,
    );
    // Both ways the set observes are exercised: event-local samples, and
    // the vectors of the observer's full-scan stints.
    assert!(vector > 0 && local > 0, "vector {vector}, local {local}");
}
