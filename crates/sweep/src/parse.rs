//! The `kind:arg` mini-language shared by the `gcs` CLI and sweep specs:
//! topology, rate-schedule, and delay-model constructors from strings.
//!
//! This module is the single source of truth for spec syntax; `gcs run`
//! and every [`crate::SweepSpec`] axis parse through it.

use gcs_adversary::WavefrontDelay;
use gcs_graph::{topology, Graph, NodeId};
use gcs_sim::{
    rates, ConstantDelay, DelayCtx, DelayModel, Delivery, DirectionalDelay, UniformDelay,
};
use gcs_time::{DriftBounds, RateSchedule};

use crate::scenario::ALGOS;

/// Checks `name` is a runnable algorithm.
pub fn known_algo(name: &str) -> Result<(), String> {
    if ALGOS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown algorithm `{name}` (expected one of {})",
            ALGOS.join("|")
        ))
    }
}

/// Builds a topology from a `kind:arg` spec.
///
/// `path:N | ring:N | star:N | tree:N | complete:N | hypercube:DIM |
/// grid:WxH | torus:WxH | er:N:P | geo:N:R`. Random families (`er`, `geo`)
/// consume `seed`.
///
/// # Errors
///
/// An unknown family, a malformed size, and every size or parameter the
/// family's constructor would reject: no nodes, a ring below 3 nodes, a
/// torus side below 3, a hypercube dimension outside `1..64`, an `er`
/// probability outside `[0, 1]`, a `geo` radius that is not positive.
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let arg = parts.next();
    let arg2 = parts.next();
    fn need<'a>(a: Option<&'a str>, spec: &str) -> Result<&'a str, String> {
        a.ok_or_else(|| format!("topology `{spec}` needs a size"))
    }
    let invalid = |what: &str| format!("topology `{spec}`: {what}");
    let int = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad size in topology `{spec}`"))
    };
    // A size of at least `min`.
    let size = |s: Option<&str>, min: usize| -> Result<usize, String> {
        let n = int(need(s, spec)?)?;
        if n < min {
            return Err(invalid(&format!("size must be at least {min}, got {n}")));
        }
        Ok(n)
    };
    let dims = |s: &str, min: usize| -> Result<(usize, usize), String> {
        let (w, h) = s
            .split_once('x')
            .ok_or_else(|| format!("topology `{spec}` needs WxH dimensions"))?;
        Ok((size(Some(w), min)?, size(Some(h), min)?))
    };
    match kind {
        "path" => Ok(topology::path(size(arg, 1)?)),
        "ring" => Ok(topology::cycle(size(arg, 3)?)),
        "star" => Ok(topology::star(size(arg, 1)?)),
        "tree" => Ok(topology::binary_tree(size(arg, 1)?)),
        "complete" => Ok(topology::complete(size(arg, 1)?)),
        "hypercube" => match size(arg, 1)? {
            dim if dim < usize::BITS as usize => Ok(topology::hypercube(dim)),
            dim => Err(invalid(&format!(
                "dimension must be below {}, got {dim}",
                usize::BITS
            ))),
        },
        "grid" => {
            let (w, h) = dims(need(arg, spec)?, 1)?;
            Ok(topology::grid(w, h))
        }
        "torus" => {
            let (w, h) = dims(need(arg, spec)?, 3)?;
            Ok(topology::torus(w, h))
        }
        "er" => {
            let n = size(arg, 1)?;
            let p: f64 = need(arg2, spec)?
                .parse()
                .map_err(|_| format!("bad probability in `{spec}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(invalid(&format!("probability must lie in [0, 1], got {p}")));
            }
            Ok(topology::erdos_renyi(n, p, seed))
        }
        "geo" => {
            let n = size(arg, 1)?;
            let r: f64 = need(arg2, spec)?
                .parse()
                .map_err(|_| format!("bad radius in `{spec}`"))?;
            if r.is_nan() || r <= 0.0 {
                return Err(invalid(&format!("radius must be positive, got {r}")));
            }
            Ok(topology::random_geometric(n, r, seed))
        }
        other => Err(format!("unknown topology `{other}`")),
    }
}

/// The square-wave period of an `alternating[:PERIOD]` rates spec
/// (default 10).
fn alternating_period(arg: &str, spec: &str) -> Result<f64, String> {
    if arg.is_empty() {
        return Ok(10.0);
    }
    match arg.parse::<f64>() {
        Ok(period) if period > 0.0 => Ok(period),
        Ok(_) => Err(format!(
            "period `{arg}` in rates spec `{spec}` must be positive"
        )),
        Err(_) => Err(format!("bad period `{arg}` in rates spec `{spec}`")),
    }
}

/// Time between the rate redraws of a `walk` rates spec.
const WALK_STEP: f64 = 5.0;

/// Checks that a schedule stepping by `step` gets past `horizon`: when
/// `horizon + step` rounds to `horizon`, its steps would never end.
fn check_step(step: f64, horizon: f64, spec: &str) -> Result<(), String> {
    if horizon + step == horizon {
        return Err(format!(
            "rates spec `{spec}`: its steps are too small to pass horizon {horizon}"
        ));
    }
    Ok(())
}

/// Builds per-node hardware-rate schedules from a spec.
///
/// `walk` (seeded random walk) | `split` (fast half by node index) |
/// `distsplit` (fast half by distance from node 0 — the generic
/// skew-builder used by the figure benches) | `gradient` | `nominal` |
/// `alternating:PERIOD`.
///
/// # Errors
///
/// An unknown kind, a malformed or non-positive period, and a step that
/// cannot pass `horizon` in `f64`.
pub fn build_rates(
    spec: &str,
    graph: &Graph,
    drift: DriftBounds,
    horizon: f64,
    seed: u64,
) -> Result<Vec<RateSchedule>, String> {
    let n = graph.len();
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "walk" => {
            check_step(WALK_STEP, horizon, spec)?;
            Ok(rates::random_walk(n, drift, WALK_STEP, horizon, seed))
        }
        "split" => Ok(rates::split(n, drift, |v| v < n / 2)),
        "distsplit" => {
            let dist = graph.distances_from(NodeId(0));
            let half = graph.diameter() / 2;
            Ok(rates::split(n, drift, move |v| dist[v] < half))
        }
        "gradient" => Ok(rates::gradient(n, drift)),
        "nominal" => Ok(rates::nominal(n)),
        "alternating" => {
            let period = alternating_period(arg, spec)?;
            check_step(period, horizon, spec)?;
            Ok(rates::alternating(n, drift, period, horizon))
        }
        other => Err(format!("unknown rates spec `{other}`")),
    }
}

/// A delay model chosen at runtime — one enum so the engine monomorphizes
/// once per algorithm rather than once per (algorithm × delay model).
#[derive(Debug, Clone)]
pub enum SweepDelay {
    /// Uniform random delays in `[0, 𝒯̂]`.
    Uniform(UniformDelay),
    /// A fixed delay (`const` ⇒ 𝒯̂/2, `zero` ⇒ 0).
    Constant(ConstantDelay),
    /// Slow away from / fast toward the reference node.
    Directional(DirectionalDelay),
    /// The flipping wavefront adversary (F2's local-skew builder).
    Wavefront(WavefrontDelay),
}

impl DelayModel for SweepDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        match self {
            SweepDelay::Uniform(m) => m.delivery(ctx),
            SweepDelay::Constant(m) => m.delivery(ctx),
            SweepDelay::Directional(m) => m.delivery(ctx),
            SweepDelay::Wavefront(m) => m.delivery(ctx),
        }
    }

    fn uncertainty(&self) -> Option<f64> {
        match self {
            SweepDelay::Uniform(m) => m.uncertainty(),
            SweepDelay::Constant(m) => m.uncertainty(),
            SweepDelay::Directional(m) => m.uncertainty(),
            SweepDelay::Wavefront(m) => m.uncertainty(),
        }
    }

    // Forwarded explicitly: the trait default would answer `None` for every
    // variant, and with it `lookahead_at`, even under `const` delays.
    fn min_delay(&self) -> Option<f64> {
        match self {
            SweepDelay::Uniform(m) => m.min_delay(),
            SweepDelay::Constant(m) => m.min_delay(),
            SweepDelay::Directional(m) => m.min_delay(),
            SweepDelay::Wavefront(m) => m.min_delay(),
        }
    }
}

/// Builds a delay model from a spec.
///
/// `uniform | const | zero | directional | wavefront[:BOUNDARY]`.
/// Returns the model plus a minimum horizon it needs to play out
/// (`wavefront` must run past its flip time), which callers take the max
/// of with their own horizon.
pub fn build_delay(
    spec: &str,
    graph: &Graph,
    t: f64,
    eps: f64,
    seed: u64,
) -> Result<(SweepDelay, f64), String> {
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "uniform" => Ok((SweepDelay::Uniform(UniformDelay::new(t, seed)), 0.0)),
        "const" => Ok((SweepDelay::Constant(ConstantDelay::new(t / 2.0)), 0.0)),
        "zero" => Ok((SweepDelay::Constant(ConstantDelay::new(0.0)), 0.0)),
        "directional" => Ok((
            SweepDelay::Directional(DirectionalDelay::new(graph, NodeId(0), 0.0, t)),
            0.0,
        )),
        "wavefront" => {
            let boundary: u32 = if arg.is_empty() {
                (graph.diameter() / 2).max(1)
            } else {
                arg.parse()
                    .map_err(|_| format!("bad boundary `{arg}` in delay spec `{spec}`"))?
            };
            let flip = boundary as f64 * t / (2.0 * eps) + 20.0;
            Ok((
                SweepDelay::Wavefront(WavefrontDelay::new(graph, NodeId(0), t, flip, boundary)),
                flip + 20.0,
            ))
        }
        other => Err(format!("unknown delays spec `{other}`")),
    }
}

/// Resolves a sweep `chaos` axis value into a fault schedule: `none` (or
/// empty) → no faults, a `*.chaos` path → the file's `fault =` lines, and
/// anything else → an inline `;`-separated clause list (see
/// [`gcs_adversary::fault::parse_schedule`]).
///
/// # Errors
///
/// Returns the file-read or clause-parse failure.
pub fn resolve_chaos(spec: &str) -> Result<Vec<gcs_adversary::FaultClause>, String> {
    if spec.ends_with(".chaos") {
        let text =
            std::fs::read_to_string(spec).map_err(|e| format!("chaos file `{spec}`: {e}"))?;
        return gcs_adversary::parse_schedule(&text)
            .map_err(|e| format!("chaos file `{spec}`: {e}"));
    }
    gcs_adversary::parse_schedule(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_parse() {
        for spec in [
            "path:8",
            "ring:8",
            "star:5",
            "tree:15",
            "complete:4",
            "hypercube:3",
            "grid:3x4",
            "torus:4x4",
            "er:10:0.3",
            "geo:10:0.5",
        ] {
            assert!(parse_topology(spec, 1).is_ok(), "{spec} should parse");
        }
        assert!(parse_topology("moebius:8", 1).is_err());
        assert!(parse_topology("grid:9", 1).is_err());
        assert!(parse_topology("path", 1).is_err());
    }

    #[test]
    fn sizes_the_constructors_reject_are_errors() {
        for spec in [
            "path:0",
            "ring:2",
            "star:0",
            "tree:0",
            "complete:0",
            "hypercube:0",
            "hypercube:64",
            "grid:0x3",
            "torus:1x1",
            "torus:3x2",
            "er:0:0.5",
            "er:5:2",
            "er:5:nan",
            "geo:5:0",
            "geo:5:-1",
            "geo:5:nan",
        ] {
            let err = parse_topology(spec, 1).expect_err(spec);
            assert!(err.contains(&format!("`{spec}`")), "{spec}: {err}");
        }
        for spec in [
            "path:1",
            "ring:3",
            "grid:1x1",
            "torus:3x3",
            "er:5:0",
            "geo:5:1",
        ] {
            assert!(parse_topology(spec, 1).is_ok(), "{spec} should parse");
        }
    }

    #[test]
    fn alternating_periods_must_be_positive() {
        let graph = topology::path(3);
        let drift = DriftBounds::new(0.01).unwrap();
        for spec in ["alternating:0", "alternating:-1", "alternating:nan"] {
            let err = build_rates(spec, &graph, drift, 10.0, 0).expect_err(spec);
            assert!(err.contains(&format!("`{spec}`")), "{spec}: {err}");
        }
        assert!(build_rates("alternating:2.5", &graph, drift, 10.0, 0).is_ok());
        assert!(build_rates("alternating", &graph, drift, 10.0, 0).is_ok());
    }

    #[test]
    fn rate_steps_must_pass_the_horizon() {
        let graph = topology::path(3);
        let drift = DriftBounds::new(0.01).unwrap();
        for (spec, horizon) in [("alternating:1e-300", 5.0), ("walk", 2f64.powi(56))] {
            let err = build_rates(spec, &graph, drift, horizon, 0).expect_err(spec);
            assert!(err.contains(&format!("`{spec}`")), "{spec}: {err}");
        }
        assert!(build_rates("alternating:1e-300", &graph, drift, 0.0, 0).is_ok());
    }

    #[test]
    fn rates_and_delay_kinds_build() {
        let graph = topology::path(3);
        let drift = DriftBounds::new(0.01).unwrap();
        for spec in ["walk", "split", "distsplit", "alternating:5"] {
            build_rates(spec, &graph, drift, 10.0, 0).unwrap();
        }
        let err = build_rates("chaos", &graph, drift, 10.0, 0).expect_err("chaos");
        assert_eq!(err, "unknown rates spec `chaos`");
        for spec in ["uniform", "const", "zero", "directional", "wavefront:4"] {
            build_delay(spec, &graph, 0.25, 0.01, 0).unwrap();
        }
        let err = build_delay("wormhole", &graph, 0.25, 0.01, 0).expect_err("wormhole");
        assert_eq!(err, "unknown delays spec `wormhole`");
        let err = build_delay("wavefront:x", &graph, 0.25, 0.01, 0).expect_err("wavefront:x");
        assert_eq!(err, "bad boundary `x` in delay spec `wavefront:x`");
    }

    #[test]
    fn wavefront_extends_horizon() {
        let g = topology::path(9);
        let (_, min_h) = build_delay("wavefront", &g, 0.25, 0.02, 0).unwrap();
        // boundary = 4, flip = 4·0.25/(2·0.02) + 20 = 45, min horizon 65.
        assert!((min_h - 65.0).abs() < 1e-9);
    }

    #[test]
    fn path_wavefront_fixture_splits_at_half_the_index_range() {
        // The `engine_hotpath` bench and `tests/zero_alloc.rs` build their
        // path fixture from `graph.diameter()` and `distsplit` at every size
        // up to n = 10^6. On a path D = n − 1 and the distance from node 0
        // is the node index, so the wavefront boundary is ⌊(n − 1)/2⌋ (at
        // least 1) and exactly the nodes below ⌊(n − 1)/2⌋ run fast.
        let drift = DriftBounds::new(0.02).unwrap();
        let fast = RateSchedule::constant(drift.max_rate()).unwrap();
        let slow = RateSchedule::constant(drift.min_rate()).unwrap();
        for n in [1, 2, 3, 64, 256, 1024, 8192, 65_536, 1_000_000] {
            let graph = topology::path(n);
            assert_eq!(graph.diameter() as usize, n - 1, "path:{n}");
            let half = (n - 1) / 2;
            let schedules = build_rates("distsplit", &graph, drift, 40.0, 0).unwrap();
            assert_eq!(schedules.len(), n);
            for (v, schedule) in schedules.iter().enumerate() {
                let expected = if v < half { &fast } else { &slow };
                assert_eq!(schedule, expected, "path:{n}, node {v}");
            }
        }
    }
}
