//! The `kind:arg` mini-language shared by the `gcs` CLI and sweep specs:
//! topology, rate-schedule, and delay-model constructors from strings.
//!
//! This module is the single source of truth for spec syntax; `gcs run`
//! and every [`crate::SweepSpec`] axis parse through it.

use gcs_adversary::WavefrontDelay;
use gcs_graph::{topology, Graph, NodeId};
use gcs_sim::{
    rates, ConstantDelay, DelayCtx, DelayModel, Delivery, DirectionalDelay, Lookahead, UniformDelay,
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
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let arg = parts.next();
    let arg2 = parts.next();
    fn need<'a>(a: Option<&'a str>, spec: &str) -> Result<&'a str, String> {
        a.ok_or_else(|| format!("topology `{spec}` needs a size"))
    }
    let int = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad size in topology `{spec}`"))
    };
    let dims = |s: &str| -> Result<(usize, usize), String> {
        let (w, h) = s
            .split_once('x')
            .ok_or_else(|| format!("topology `{spec}` needs WxH dimensions"))?;
        Ok((int(w)?, int(h)?))
    };
    match kind {
        "path" => Ok(topology::path(int(need(arg, spec)?)?)),
        "ring" => Ok(topology::cycle(int(need(arg, spec)?)?)),
        "star" => Ok(topology::star(int(need(arg, spec)?)?)),
        "tree" => Ok(topology::binary_tree(int(need(arg, spec)?)?)),
        "complete" => Ok(topology::complete(int(need(arg, spec)?)?)),
        "hypercube" => Ok(topology::hypercube(int(need(arg, spec)?)?)),
        "grid" => {
            let (w, h) = dims(need(arg, spec)?)?;
            Ok(topology::grid(w, h))
        }
        "torus" => {
            let (w, h) = dims(need(arg, spec)?)?;
            Ok(topology::torus(w, h))
        }
        "er" => {
            let n = int(need(arg, spec)?)?;
            let p: f64 = need(arg2, spec)?
                .parse()
                .map_err(|_| format!("bad probability in `{spec}`"))?;
            Ok(topology::erdos_renyi(n, p, seed))
        }
        "geo" => {
            let n = int(need(arg, spec)?)?;
            let r: f64 = need(arg2, spec)?
                .parse()
                .map_err(|_| format!("bad radius in `{spec}`"))?;
            Ok(topology::random_geometric(n, r, seed))
        }
        other => Err(format!("unknown topology `{other}`")),
    }
}

/// Checks a rates spec without a graph at hand (syntax only).
pub fn parse_rates_kind(spec: &str) -> Result<(), String> {
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "walk" | "split" | "distsplit" | "gradient" | "nominal" => Ok(()),
        "alternating" => {
            if arg.is_empty() {
                Ok(())
            } else {
                arg.parse::<f64>()
                    .map(|_| ())
                    .map_err(|_| format!("bad period `{arg}` in rates spec `{spec}`"))
            }
        }
        other => Err(format!("unknown rates spec `{other}`")),
    }
}

/// Builds per-node hardware-rate schedules from a spec.
///
/// `walk` (seeded random walk) | `split` (fast half by node index) |
/// `distsplit` (fast half by distance from node 0 — the generic
/// skew-builder used by the figure benches) | `gradient` | `nominal` |
/// `alternating:PERIOD`.
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
        "walk" => Ok(rates::random_walk(n, drift, 5.0, horizon, seed)),
        "split" => Ok(rates::split(n, drift, |v| v < n / 2)),
        "distsplit" => {
            let dist = graph.distances_from(NodeId(0));
            let half = graph.diameter() / 2;
            Ok(rates::split(n, drift, move |v| dist[v] < half))
        }
        "gradient" => Ok(rates::gradient(n, drift)),
        "nominal" => Ok(rates::nominal(n)),
        "alternating" => {
            let period: f64 = if arg.is_empty() {
                10.0
            } else {
                arg.parse().map_err(|_| format!("bad period `{arg}`"))?
            };
            Ok(rates::alternating(n, drift, period, horizon))
        }
        other => Err(format!("unknown rates spec `{other}`")),
    }
}

/// Checks a delay spec without a graph at hand (syntax only).
pub fn parse_delay_kind(spec: &str) -> Result<(), String> {
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "uniform" | "const" | "zero" | "directional" => Ok(()),
        "wavefront" => {
            if arg.is_empty() {
                Ok(())
            } else {
                arg.parse::<u32>()
                    .map(|_| ())
                    .map_err(|_| format!("bad boundary `{arg}` in delay spec `{spec}`"))
            }
        }
        other => Err(format!("unknown delays spec `{other}`")),
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

    // Forwarded explicitly: the trait defaults would answer `None` for every
    // variant and silently keep `gcs run --threads` sequential even under
    // `const`/`wavefront` delays.
    fn min_delay(&self) -> Option<f64> {
        match self {
            SweepDelay::Uniform(m) => m.min_delay(),
            SweepDelay::Constant(m) => m.min_delay(),
            SweepDelay::Directional(m) => m.min_delay(),
            SweepDelay::Wavefront(m) => m.min_delay(),
        }
    }

    fn lookahead_at(&self, now: f64) -> Option<Lookahead> {
        match self {
            SweepDelay::Uniform(m) => m.lookahead_at(now),
            SweepDelay::Constant(m) => m.lookahead_at(now),
            SweepDelay::Directional(m) => m.lookahead_at(now),
            SweepDelay::Wavefront(m) => m.lookahead_at(now),
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
                arg.parse().map_err(|_| format!("bad boundary `{arg}`"))?
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
    fn rates_and_delay_kinds_validate() {
        for spec in ["walk", "split", "distsplit", "alternating:5"] {
            parse_rates_kind(spec).unwrap();
        }
        assert!(parse_rates_kind("chaos").is_err());
        for spec in ["uniform", "const", "zero", "directional", "wavefront:4"] {
            parse_delay_kind(spec).unwrap();
        }
        assert!(parse_delay_kind("wormhole").is_err());
        assert!(parse_delay_kind("wavefront:x").is_err());
    }

    #[test]
    fn wavefront_extends_horizon() {
        let g = topology::path(9);
        let (_, min_h) = build_delay("wavefront", &g, 0.25, 0.02, 0).unwrap();
        // boundary = 4, flip = 4·0.25/(2·0.02) + 20 = 45, min horizon 65.
        assert!((min_h - 65.0).abs() < 1e-9);
    }
}
