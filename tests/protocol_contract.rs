//! The `Protocol::logical_value` contract the event-local skew observer
//! rests on, checked for every registry protocol over random executions.
//! Between two consecutive events:
//!
//! * each node's `logical_value(hw)` is non-decreasing in `hw` from the
//!   node's current hardware reading on — down to adjacent floats, since
//!   without a rate floor the observer's certificates are exact in `f64`;
//! * `Engine::logical_value(v)` equals entry `v` of the clock vector the
//!   engine hands to `EventSink::snapshot`, bit for bit;
//! * the logical clock advances at least `Protocol::min_rate_multiplier`
//!   times as fast as the hardware clock — ahead of the current reading,
//!   and from each step to the next across the node's own events — and,
//!   as the observer's f64 margin assumes for a nonzero floor `f`, stays
//!   at or above `f·H` with a multiplier below `128·f`.

use clock_sync::graph::NodeId;
use clock_sync::sim::{Engine, EventSink, Protocol};
use clock_sync::sweep::{with_protocols, ProtocolVisitor, Scenario, ScenarioSpec, ALGOS};

/// Keeps the latest snapshot vector.
#[derive(Default)]
struct LastSnapshot {
    clocks: Vec<f64>,
}

impl EventSink for LastSnapshot {
    fn enabled(&self) -> bool {
        false
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, _t: f64, clocks: &[f64], _queue_depth: usize) {
        self.clocks.clear();
        self.clocks.extend_from_slice(clocks);
    }
}

/// The relative slack of the rate-floor checks: the affinity error the
/// event-local observer allows a clock under a nonzero rate floor.
const SLACK: f64 = 1.0 / 17_592_186_044_416.0; // 2⁻⁴⁴

/// Whether a clock read as `(H, L)` at `from` and then at `to` gained at
/// least `floor` times the hardware increment, up to [`SLACK`].
fn keeps_floor(floor: f64, from: (f64, f64), to: (f64, f64)) -> bool {
    to.1 - from.1 >= floor * (to.0 - from.0) - SLACK * (to.1.abs() + from.1.abs())
}

/// Hardware readings ahead of `h` at which a clock must not decrease:
/// adjacent floats first, then growing steps.
fn probes(h: f64) -> Vec<f64> {
    let mut out = vec![h];
    let mut x = h;
    for _ in 0..3 {
        x = x.next_up();
        out.push(x);
    }
    for step in [1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3] {
        out.push(h + step);
    }
    out
}

struct Contract {
    scenario: Scenario,
    label: String,
}

impl ProtocolVisitor for Contract {
    type Output = u64;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> u64 {
        let Contract {
            scenario: sc,
            label,
        } = self;
        let n = sc.graph.len();
        let horizon = sc.horizon;
        let mut engine = Engine::builder(sc.graph)
            .protocols(protocols)
            .delay_model(sc.delay)
            .rate_schedules(sc.schedules)
            .event_sink(LastSnapshot::default())
            .build();
        engine.wake_all_at(0.0);
        let floor = protocols_floor(&engine, n);
        let mut last_reads = vec![(0.0, 0.0); n];
        let mut checked = 0;
        while engine.next_event_time().is_some_and(|t| t <= horizon) {
            engine.step();
            let t = engine.now();
            for v in (0..n).map(NodeId) {
                let value = engine.logical_value(v);
                let entry = engine.sink().clocks[v.index()];
                assert_eq!(
                    value.to_bits(),
                    entry.to_bits(),
                    "{label}: v{} at t = {t}: Engine::logical_value {value} != snapshot {entry}",
                    v.index()
                );
                let proto = engine.protocol(v);
                let hw = engine.hardware_value(v);
                // A clock that has not started reads a constant 0.
                let running = engine.is_started(v);
                let mut last = f64::NEG_INFINITY;
                for h in probes(hw) {
                    let l = proto.logical_value(h);
                    assert!(
                        l >= last,
                        "{label}: v{} at t = {t}: logical_value decreased to {l} (from {last}) \
                         at hw = {h}",
                        v.index()
                    );
                    last = l;
                    assert!(
                        !running || keeps_floor(floor, (hw, value), (h, l)),
                        "{label}: v{} at t = {t}: from hw = {hw} to {h} the clock gained {} \
                         < floor {floor}",
                        v.index(),
                        l - value
                    );
                }
                let previous = last_reads[v.index()];
                assert!(
                    keeps_floor(floor, previous, (hw, value)),
                    "{label}: v{} at t = {t}: from hw = {} to {hw} the clock gained {} \
                     < floor {floor}",
                    v.index(),
                    previous.0,
                    value - previous.1
                );
                last_reads[v.index()] = (hw, value);
                if floor > 0.0 && running {
                    assert!(
                        value >= floor * hw * (1.0 - SLACK),
                        "{label}: v{} at t = {t}: L = {value} < floor · H = {}",
                        v.index(),
                        floor * hw
                    );
                    let m = proto.rate_multiplier();
                    assert!(
                        m < 128.0 * floor,
                        "{label}: v{}: multiplier {m} ≥ 128 · floor",
                        v.index()
                    );
                }
                checked += 1;
            }
        }
        checked
    }
}

/// The smallest declared multiplier floor over the engine's nodes.
fn protocols_floor<P: Protocol, D: clock_sync::sim::DelayModel, S: EventSink>(
    engine: &Engine<P, D, S>,
    n: usize,
) -> f64 {
    (0..n)
        .map(|v| engine.protocol(NodeId(v)).min_rate_multiplier())
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn every_protocol_keeps_the_logical_value_contract() {
    let cases = [
        ("path:6", "uniform", "walk"),
        ("ring:5", "const", "split"),
        ("grid:3x3", "wavefront", "walk"),
        ("star:7", "zero", "nominal"),
        ("tree:9", "uniform", "gradient"),
    ];
    for algo in ALGOS {
        let mut checked = 0;
        for (i, (topology, delay, rates)) in cases.into_iter().enumerate() {
            let seed = 7 * i as u64 + 1;
            let scenario = Scenario::build(ScenarioSpec {
                topology,
                eps: 0.05,
                t: 0.2,
                sigma: None,
                delay,
                rates,
                faults: Vec::new(),
                seed,
                horizon: 8.0,
                horizon_per_diameter: 0.0,
            })
            .expect("valid scenario");
            let (params, n) = (scenario.params, scenario.graph.len());
            let label = format!("{algo} on {topology} ({delay}, {rates}, seed {seed})");
            checked += with_protocols(algo, params, n, Contract { scenario, label })
                .expect("registered algorithm");
        }
        assert!(checked > 500, "{algo}: only {checked} node-events checked");
    }
}
