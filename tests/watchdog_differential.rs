//! Differential oracle for the event-local invariant watchdog: after every
//! observed event, `InvariantWatchdog::observe_local` (exact checks at the
//! touched nodes and lapsed certificates, Def. 5.6 from the observer's edge
//! record) must have decided exactly what `InvariantWatchdog::snapshot`
//! (the full clock vector) decided — whether it tripped, every field of the
//! trip compared by `to_bits`, and the snapshot and exact-scan counts.
//!
//! The matrix covers every registry protocol at sizes 1 to 512 under four
//! delay models and three rate families: `jump` and `max` jump their clocks
//! and trip Condition (2), `nosync` drifts past Def. 5.6 under a scaled κ,
//! and `envelope` runs below `A^opt`'s multiplier floor. Rate overrides
//! below the floor mid-run and a chaos rate clause below α break Conditions
//! (1)/(2) between a node's events.

use clock_sync::adversary::{parse_schedule, FaultClause};
use clock_sync::analysis::{InvariantWatchdog, SkewObserver, WatchdogViolation};
use clock_sync::graph::NodeId;
use clock_sync::sim::{ClockView, Engine, EngineEvent, EventSink, Protocol};
use clock_sync::sweep::{with_protocols, ProtocolVisitor, Scenario, ScenarioSpec, ALGOS};

/// A violation as bit patterns, so `-0.0 ≠ 0.0` and NaNs compare too.
fn fingerprint(v: &WatchdogViolation) -> (&'static str, usize, Vec<u64>) {
    let bits = match v {
        WatchdogViolation::Envelope {
            t,
            logical,
            low_margin,
            high_margin,
            ..
        } => vec![t, logical, low_margin, high_margin]
            .into_iter()
            .map(|x| x.to_bits())
            .collect(),
        WatchdogViolation::Progress {
            t,
            min_margin,
            max_margin,
            ..
        } => vec![t.to_bits(), min_margin.to_bits(), max_margin.to_bits()],
        WatchdogViolation::LegalState(l) => vec![
            l.t.to_bits(),
            l.w as u64,
            u64::from(l.distance),
            u64::from(l.level),
            l.skew.to_bits(),
            l.bound.to_bits(),
        ],
    };
    (v.kind(), v.node(), bits)
}

/// Feeds one watchdog the full vector and a twin the event-local path
/// (with the edge record of an observer fed the same way, as `SinkSet`
/// does) at every sample, and checks them against each other after each
/// one.
struct Twin {
    full: InvariantWatchdog,
    local: InvariantWatchdog,
    observer: SkewObserver,
    label: String,
    checks: u64,
}

impl Twin {
    fn assert_agree(&mut self) {
        let (f, l) = (&self.full, &self.local);
        let ctx = || {
            format!(
                "{} after {} samples: full trip {:?}, local trip {:?}",
                self.label,
                f.snapshots(),
                f.trip().map(|t| &t.violation),
                l.trip().map(|t| &t.violation),
            )
        };
        assert_eq!(f.tripped(), l.tripped(), "{}", ctx());
        assert_eq!(f.snapshots(), l.snapshots(), "{}", ctx());
        assert_eq!(f.exact_scans(), l.exact_scans(), "{}", ctx());
        if let (Some(a), Some(b)) = (f.trip(), l.trip()) {
            assert_eq!(
                fingerprint(&a.violation),
                fingerprint(&b.violation),
                "{}",
                ctx()
            );
            assert_eq!(a.recent_events, b.recent_events, "{}", ctx());
            assert_eq!(a.events_recorded, b.events_recorded, "{}", ctx());
            assert_eq!(a.render(), b.render(), "{}", ctx());
        }
        self.checks += 1;
    }
}

impl EventSink for Twin {
    fn record(&mut self, event: &EngineEvent) {
        self.full.record(event);
        self.local.record(event);
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn wants_previous_sample(&self) -> bool {
        true
    }

    fn sample(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView, queue_depth: usize) {
        self.full.snapshot(t, clocks.values(), queue_depth);
        self.observer.observe_local(t, touched, clocks);
        if self.local.wants_vectors() {
            self.local.snapshot(t, clocks.values(), queue_depth);
        } else {
            let worst_local = self.observer.worst_local();
            self.local.observe_local(t, touched, clocks, worst_local);
        }
        self.assert_agree();
    }
}

/// How a case drives its engine.
#[derive(Clone, Copy)]
enum Drive {
    /// `run_until` to the horizon.
    Plain,
    /// Override a few hardware rates between steps, within the drift
    /// bounds.
    RateOverrides,
    /// Halfway through, slow one node to half speed: below the rate floor,
    /// so its clock breaks Conditions (1)/(2) between its own events.
    SlowOverride,
}

struct Case {
    scenario: Scenario,
    label: String,
    drive: Drive,
}

/// What one case saw: samples compared, and whether the watchdog tripped
/// and ran the all-pairs scan.
#[derive(Default)]
struct Seen {
    checks: u64,
    trips: u64,
    scans: u64,
}

impl ProtocolVisitor for Case {
    type Output = Seen;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> Seen {
        let Case {
            scenario: sc,
            label,
            drive,
        } = self;
        // Condition (2) at the protocol's own multiplier floor, as the
        // scenario runner sets it.
        let floor = protocols.first().map_or(0.0, P::min_rate_multiplier);
        let watchdog = || {
            let w = sc.watchdog();
            if floor > 0.0 {
                w.with_multiplier_floor(floor)
            } else {
                w
            }
        };
        let twin = Twin {
            full: watchdog(),
            local: watchdog(),
            observer: SkewObserver::new(&sc.graph),
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
                            engine.set_hardware_rate(v, [0.99, 1.0, 1.01][k % 3]);
                        }
                    }
                }
                engine.run_until(horizon);
            }
            Drive::SlowOverride => {
                engine.run_until(horizon / 2.0);
                let v = NodeId(n / 2);
                if engine.is_started(v) {
                    engine.set_hardware_rate(v, 0.5);
                }
                engine.run_until(horizon);
            }
        }
        let twin = engine.into_sink();
        assert!(twin.checks > 0, "{}: nothing observed", twin.label);
        Seen {
            checks: twin.checks,
            trips: u64::from(twin.full.tripped()),
            scans: twin.full.exact_scans(),
        }
    }
}

/// One case; `kappa` scales κ like `gcs run --kappa-factor`.
#[allow(clippy::too_many_arguments)]
fn run_case(
    algo: &str,
    topology: &str,
    delay: &str,
    rates: &str,
    faults: Vec<FaultClause>,
    kappa: f64,
    seed: u64,
    horizon: f64,
    drive: Drive,
) -> Seen {
    let mut scenario = Scenario::build(ScenarioSpec {
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
    .unwrap_or_else(|e| panic!("{topology}/{delay}/{rates}: {e}"));
    if kappa != 1.0 {
        scenario.params = scenario.params.with_kappa_factor_unchecked(kappa);
    }
    let (params, n) = (scenario.params, scenario.graph.len());
    let label = format!(
        "{algo} on {topology}, delays {delay}, rates {rates}, κ×{kappa}, seed {seed}, horizon {horizon}"
    );
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
fn event_local_watchdog_matches_the_vector_form_bit_for_bit() {
    let delays = ["uniform", "const", "zero", "wavefront"];
    let rates = ["walk", "split", "gradient"];
    let sizes = [1, 2, 3, 5, 8, 13, 24];
    let (mut checks, mut trips) = (0, 0);
    let mut case = 0usize;
    for algo in ALGOS {
        for delay in delays {
            for rate in rates {
                // Each (algo, delay, rates) cell walks the topology families
                // at a rotating size and seed.
                let n = sizes[case % sizes.len()];
                let seed = (case % 5) as u64;
                for topology in topologies(n) {
                    let seen = run_case(
                        algo,
                        &topology,
                        delay,
                        rate,
                        Vec::new(),
                        1.0,
                        seed,
                        4.0,
                        Drive::Plain,
                    );
                    checks += seen.checks;
                    trips += seen.trips;
                }
                case += 1;
            }
        }
    }
    assert!(checks > 100_000, "only {checks} samples compared");
    // `jump` and `max` trip Condition (2) within the horizon.
    assert!(trips > 10, "only {trips} trips");
}

#[test]
fn event_local_watchdog_matches_at_large_n() {
    for (i, topology) in topologies(512).into_iter().enumerate() {
        let algo = ALGOS[i % ALGOS.len()];
        let seed = 11 + i as u64;
        run_case(
            algo,
            &topology,
            "uniform",
            "walk",
            Vec::new(),
            1.0,
            seed,
            1.5,
            Drive::Plain,
        );
    }
    for algo in ["aopt", "envelope", "jump"] {
        run_case(
            algo,
            "grid:16x16",
            "const",
            "split",
            Vec::new(),
            1.0,
            3,
            2.0,
            Drive::Plain,
        );
    }
}

#[test]
fn event_local_watchdog_matches_through_the_def_5_6_fallback() {
    // NoSync drifts apart under split rates until an edge passes κ/2: the
    // event-local watchdog falls back to vectors, and the all-pairs scan
    // must find the same first violation. A κ scaled down makes it quick;
    // `max` and A^opt under a tight κ exercise scans that find nothing.
    let (mut trips, mut scans) = (0, 0);
    for (algo, topology, kappa, horizon) in [
        ("nosync", "ring:12", 0.05, 40.0),
        ("nosync", "path:9", 0.02, 30.0),
        ("nosync", "grid:4x4", 0.05, 40.0),
        ("aopt", "grid:5x5", 0.3, 12.0),
        ("aopt", "path:16", 0.2, 12.0),
        ("mingap", "ring:10", 0.25, 12.0),
        ("jump", "grid:8x8", 0.4, 4.0),
    ] {
        for (seed, rates) in [(1, "split"), (2, "walk"), (3, "gradient")] {
            let seen = run_case(
                algo,
                topology,
                "uniform",
                rates,
                Vec::new(),
                kappa,
                seed,
                horizon,
                Drive::Plain,
            );
            trips += seen.trips;
            scans += seen.scans;
        }
    }
    assert!(trips > 3 && scans > 10, "trips {trips}, scans {scans}");
}

#[test]
fn event_local_watchdog_matches_under_rate_overrides() {
    for algo in ALGOS {
        for (topology, seed) in [("path:9", 1), ("ring:12", 2), ("grid:4x4", 3)] {
            run_case(
                algo,
                topology,
                "uniform",
                "walk",
                Vec::new(),
                1.0,
                seed,
                6.0,
                Drive::RateOverrides,
            );
        }
    }
}

#[test]
fn event_local_watchdog_matches_when_a_rate_drops_below_the_floor() {
    let mut trips = 0;
    for algo in ALGOS {
        for (topology, seed) in [("path:24", 5), ("grid:5x5", 6)] {
            let seen = run_case(
                algo,
                topology,
                "uniform",
                "split",
                Vec::new(),
                1.0,
                seed,
                8.0,
                Drive::SlowOverride,
            );
            trips += seen.trips;
        }
    }
    assert!(trips >= ALGOS.len() as u64, "only {trips} trips");
}

#[test]
fn event_local_watchdog_matches_under_a_rate_clause_below_alpha() {
    // `rate_attack.min.chaos`: nodes 0 and 1 run at 0.9 < α = 0.98 for a short
    // window, which Condition (2) catches at the pair spanning it.
    let mut trips = 0;
    for (window, topology, seed) in [
        ("rate:5..5.008544921875:0..2:0.9", "path:6", 13),
        ("rate:2..2.5:1..3:0.95", "ring:8", 4),
        ("rate:1..6:0..1:0.97", "grid:3x3", 5),
    ] {
        for delay in ["const", "uniform"] {
            let faults = parse_schedule(window).expect("valid rate clause");
            let seen = run_case(
                "aopt",
                topology,
                delay,
                "nominal",
                faults,
                1.0,
                seed,
                7.5,
                Drive::Plain,
            );
            trips += seen.trips;
        }
    }
    assert!(trips > 0, "no rate clause tripped the watchdog");
}
