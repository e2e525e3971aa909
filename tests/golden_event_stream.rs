//! Golden-fixture pin of the engine's event stream.
//!
//! `tests/fixtures/f2_wavefront_events.jsonl` is the committed `--events`
//! log of one F2 wavefront run (`gcs run --topology path:8 --delays
//! wavefront --rates gradient --eps 0.05 --t 0.5 --horizon 40`). This test
//! re-runs the identical configuration in-process and asserts the produced
//! stream is **byte-identical** to the fixture.
//!
//! The point is to freeze the engine's determinism contract across hot-path
//! refactors: event ordering is tie-broken by queue insertion sequence, so
//! any change to how `HwDue` entries are stored, requeued after a rate
//! change, or validated on pop shows up here as a byte diff — it cannot
//! slip through silently.
//!
//! `every_protocol_stream_digest_is_pinned` extends the pin to every
//! protocol: each registry algorithm and each `A^opt` variant runs one
//! fixed small scenario, and the 64-bit digest of its stream must match the
//! recorded constant. The registry algorithms run a second, constant-delay
//! scenario too (the `/const` rows). Timer set/cancel order within an
//! event is part of the stream, so a refactor of the shared `A^opt` core
//! that reorders them, or changes any rate decision, shows up here.

use gcs_analysis::JsonlWriter;
use gcs_core::{AOpt, AdaptiveAOpt, DiscreteAOpt, ExternalAOpt, OffsetAOpt, Params, PiggybackAOpt};
use gcs_sim::{Engine, Protocol};
use gcs_sweep::hash::digest;
use gcs_sweep::{build_delay, build_rates, parse_topology, with_protocols, ProtocolVisitor, ALGOS};
use gcs_time::{DriftBounds, RateSchedule};

const FIXTURE: &str = include_str!("fixtures/f2_wavefront_events.jsonl");

#[test]
fn wavefront_event_stream_is_byte_identical_to_fixture() {
    // Mirrors `gcs run`'s construction for the fixture's flag set.
    let (eps, t, seed) = (0.05, 0.5, 42);
    let graph = parse_topology("path:8", seed).expect("valid topology");
    let n = graph.len();
    let drift = DriftBounds::new(eps).expect("valid drift");
    let params = Params::recommended(eps, t).expect("valid params");
    let (delay, min_horizon) = build_delay("wavefront", &graph, t, eps, seed).expect("valid delay");
    let horizon = 40.0_f64.max(min_horizon);
    let schedules = build_rates("gradient", &graph, drift, horizon, seed).expect("valid rates");

    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(JsonlWriter::new(Vec::<u8>::new()))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    let bytes = engine.into_sink().finish().expect("Vec sink cannot fail");

    let produced = String::from_utf8(bytes).expect("stream is UTF-8");
    assert!(
        produced == FIXTURE,
        "event stream diverged from the golden fixture\n{}",
        match gcs_analysis::diff_streams(FIXTURE, &produced) {
            Some(diff) => format!("{diff:?}"),
            None => "streams differ only in trailing bytes".to_string(),
        }
    );
}

/// A fixed scenario a protocol's stream digest is taken on: a 7-node
/// ring under drift random walks. It is a regression pin, not a
/// model-faithful setting for every variant.
struct Scenario {
    eps: f64,
    t: f64,
    delay: &'static str,
    horizon: f64,
}

const SEED: u64 = 7;

/// Uniform delays in `[0, 𝒯]` (constant `𝒯/2` for the FIFO-only discrete
/// variant) for 30 time units.
const UNIFORM: Scenario = Scenario {
    eps: 0.05,
    t: 0.5,
    delay: "uniform",
    horizon: 30.0,
};

/// Constant delays `𝒯/2` with 𝒯 = 0.02. Messages land one delay ahead,
/// resends H₀ = 𝒯/μ ≈ 2.7 delays ahead, and the random walk's rate steps
/// (every 5 units) 500 delays ahead, so the queue holds events at three
/// horizons at once. Twelve units drain two rounds of rate steps.
const CONST: Scenario = Scenario {
    eps: 0.05,
    t: 0.02,
    delay: "const",
    horizon: 12.0,
};

impl Scenario {
    fn params(&self) -> Params {
        Params::recommended(self.eps, self.t).expect("valid params")
    }

    /// Runs `protocols` on this scenario and returns the 64-bit digest of
    /// the produced `--events` JSONL stream.
    fn digest<P: Protocol>(&self, protocols: Vec<P>, reference_root: bool) -> u64 {
        let graph = parse_topology("ring:7", SEED).expect("valid topology");
        let drift = DriftBounds::new(self.eps).expect("valid drift");
        let (delay, _) =
            build_delay(self.delay, &graph, self.t, self.eps, SEED).expect("valid delay");
        let mut schedules =
            build_rates("walk", &graph, drift, self.horizon, SEED).expect("valid rates");
        if reference_root {
            // The external-time reference runs at real-time rate.
            schedules[0] = RateSchedule::constant(1.0).expect("valid rate");
        }
        let mut engine = Engine::builder(graph)
            .protocols(protocols)
            .delay_model(delay)
            .rate_schedules(schedules)
            .event_sink(JsonlWriter::new(Vec::<u8>::new()))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(self.horizon);
        let bytes = engine.into_sink().finish().expect("Vec sink cannot fail");
        assert!(!bytes.is_empty());
        digest(&bytes)
    }
}

/// Hands a registry protocol vector to [`Scenario::digest`].
struct RegistryDigest(&'static Scenario);

impl ProtocolVisitor for RegistryDigest {
    type Output = u64;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> u64 {
        self.0.digest(protocols, false)
    }
}

#[test]
fn every_protocol_stream_digest_is_pinned() {
    let params = UNIFORM.params();
    let n = 7;
    let registry = |scenario: &'static Scenario, suffix: &str| {
        ALGOS
            .iter()
            .map(|&algo| {
                let d = with_protocols(algo, scenario.params(), n, RegistryDigest(scenario))
                    .expect("registered");
                (format!("{algo}{suffix}"), d)
            })
            .collect::<Vec<_>>()
    };
    let discrete = Scenario {
        delay: "const",
        ..UNIFORM
    };
    let piggyback = (0..n)
        .map(|v| PiggybackAOpt::new(params, params.h0() / 2.0, v as u64 + 1))
        .collect();
    let mut external = vec![ExternalAOpt::reference(params)];
    external.extend(vec![ExternalAOpt::new(params); n - 1]);
    let mut produced = registry(&UNIFORM, "");
    let mut push = |name: &str, d| produced.push((name.to_string(), d));
    push(
        "offset",
        UNIFORM.digest(vec![OffsetAOpt::new(params, 0.1); n], false),
    );
    push(
        "discrete",
        discrete.digest(vec![DiscreteAOpt::new(params); n], false),
    );
    push("piggyback", UNIFORM.digest(piggyback, false));
    push(
        "adaptive",
        UNIFORM.digest(vec![AdaptiveAOpt::new(UNIFORM.eps, 0.05); n], false),
    );
    push("external", UNIFORM.digest(external, true));
    produced.extend(registry(&CONST, "/const"));

    let expected: &[(&str, u64)] = &[
        ("aopt", 0x724170ae241abc25),
        ("jump", 0xfc3953e129f5cbc0),
        ("mingap", 0xa5c4644627087923),
        ("envelope", 0xaf8f1a0eac254053),
        ("max", 0x45dd9912f3d27be4),
        ("midpoint", 0x1b2e82b9a1764890),
        ("nosync", 0x39fdf9a1a882ba26),
        ("offset", 0x39957654b145db1a),
        ("discrete", 0x91fed1e1c3a5274a),
        ("piggyback", 0xc971003e9ed5a91d),
        ("adaptive", 0xcf1dddd2884b49da),
        ("external", 0x7b4d33c40d876174),
        ("aopt/const", 0x32ae9555d5e7c605),
        ("jump/const", 0x5c0cb67b3c13fd52),
        ("mingap/const", 0xaee2c2d2933c542c),
        ("envelope/const", 0xf40d655463b59c75),
        ("max/const", 0x81599600ee481565),
        ("midpoint/const", 0x86e395499e1cff37),
        ("nosync/const", 0x0bf72a101b40a800),
    ];
    let table: String = produced
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
        .collect();
    let produced: Vec<(&str, u64)> = produced
        .iter()
        .map(|(name, d)| (name.as_str(), *d))
        .collect();
    assert_eq!(produced, expected, "stream digests changed:\n{table}");
}
