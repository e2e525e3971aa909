//! Heuristic greedy adversaries for baseline-comparison experiments.
//!
//! The precise constructions of [`crate::shift`] and [`crate::framed`]
//! target specific theorems; the models here are simpler "mean"
//! environments that reliably expose the weaknesses of non-gradient
//! algorithms — in particular the *delay flip* that makes maximum-forwarding
//! algorithms build `Θ(D)`-scale skew between neighbours at the wavefront.

use gcs_graph::{Graph, NodeId};
use gcs_sim::{DelayCtx, DelayModel, Delivery};

/// Delays that flap between the extremes on a fixed period: during an odd
/// phase every message takes the full `𝒯`; during an even phase messages
/// toward the reference node are instantaneous (and away-messages stay
/// slow).
///
/// Slow phases let distant information go stale (skew accumulates along the
/// path); the flip to instant delivery then slams the fresh maximum into
/// part of the network while the rest still waits — the wavefront on which
/// max-forwarding algorithms exhibit their `Θ(D)` local skew.
#[derive(Debug, Clone, PartialEq)]
pub struct FlappingDelay {
    dist: Vec<u32>,
    t_max: f64,
    period: f64,
}

impl FlappingDelay {
    /// Creates the model with the given uncertainty and flip period,
    /// referenced to `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `t_max < 0` or `period <= 0`.
    pub fn new(graph: &Graph, reference: NodeId, t_max: f64, period: f64) -> Self {
        assert!(t_max >= 0.0 && t_max.is_finite(), "invalid 𝒯 {t_max}");
        assert!(
            period > 0.0 && period.is_finite(),
            "invalid period {period}"
        );
        FlappingDelay {
            dist: graph.distances_from(reference),
            t_max,
            period,
        }
    }
}

impl DelayModel for FlappingDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let phase = (ctx.now / self.period).floor() as i64;
        let toward = self.dist[ctx.dst.index()] < self.dist[ctx.src.index()];
        let delay = if phase % 2 == 1 || !toward {
            self.t_max
        } else {
            0.0
        };
        Delivery::After(delay)
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.t_max)
    }

    fn min_delay(&self) -> Option<f64> {
        // Even phases deliver toward-messages instantaneously, so the
        // static floor over all time is 0.
        Some(0.0)
    }
}

/// The wavefront adversary that realizes the `Θ(D)` local skew of
/// maximum-forwarding algorithms.
///
/// Phase 1 (until `flip_time`): every delay is the full `𝒯`, so information
/// from the fast source (the reference node) arrives `d(v₀, v)·𝒯` stale at
/// node `v` — a smooth gradient of staleness, `Θ(𝒯)` per hop.
///
/// Phase 2 (after `flip_time`): messages *within* distance `boundary` of
/// the source become instantaneous, while every message to a node at
/// distance ≥ `boundary` still takes `𝒯`. The fresh maximum instantly
/// floods the near side; the node just beyond the boundary keeps its
/// `boundary·𝒯`-stale clock for up to `𝒯` more — a local skew of
/// `Θ(boundary·𝒯)` across a single edge. Gradient algorithms are immune:
/// they spread the catch-up over time (that is Theorem 5.10's point).
#[derive(Debug, Clone, PartialEq)]
pub struct WavefrontDelay {
    dist: Vec<u32>,
    t_max: f64,
    flip_time: f64,
    boundary: u32,
}

impl WavefrontDelay {
    /// Creates the model; distances are measured from `source` in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `t_max < 0` or `flip_time < 0`.
    pub fn new(graph: &Graph, source: NodeId, t_max: f64, flip_time: f64, boundary: u32) -> Self {
        assert!(t_max >= 0.0 && t_max.is_finite(), "invalid 𝒯 {t_max}");
        assert!(flip_time >= 0.0, "invalid flip time {flip_time}");
        WavefrontDelay {
            dist: graph.distances_from(source),
            t_max,
            flip_time,
            boundary,
        }
    }
}

impl DelayModel for WavefrontDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let slow = ctx.now < self.flip_time || self.dist[ctx.dst.index()] >= self.boundary;
        Delivery::After(if slow { self.t_max } else { 0.0 })
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.t_max)
    }

    fn min_delay(&self) -> Option<f64> {
        // With a non-trivial boundary the post-flip near side sees 0-delay
        // messages, so the *static* floor is 0; a boundary of 0 keeps every
        // edge at the full `𝒯` forever.
        Some(if self.boundary == 0 { self.t_max } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, MaxAlgorithm, Params};
    use gcs_graph::topology;
    use gcs_sim::Engine;
    use gcs_time::RateSchedule;

    fn worst_local_skew<P, D>(engine: &mut Engine<P, D>, n: usize, horizon: f64) -> f64
    where
        P: gcs_sim::Protocol,
        D: DelayModel,
    {
        let mut worst: f64 = 0.0;
        engine.run_until_observed(horizon, |e| {
            for v in 0..n - 1 {
                let skew = (e.logical_value(NodeId(v)) - e.logical_value(NodeId(v + 1))).abs();
                worst = worst.max(skew);
            }
        });
        worst
    }

    #[test]
    fn wavefront_exposes_max_algorithm_but_not_a_opt() {
        let n = 24;
        let t_max = 0.4;
        let eps = 0.02;
        let boundary = 16;
        let g = topology::path(n);
        // Node 0 is the fast maximum source.
        let mut schedules = vec![RateSchedule::constant(1.0 + eps).unwrap()];
        schedules.extend(vec![RateSchedule::constant(1.0 - eps).unwrap(); n - 1]);
        // The stale-relay lag at the boundary is min(2ε·t, ≈boundary·𝒯);
        // give the buildup enough time for the distance term to dominate.
        let flip = boundary as f64 * t_max / (2.0 * eps) + 40.0;
        let horizon = flip + 10.0;

        let mut max_engine = Engine::builder(g.clone())
            .protocols(vec![MaxAlgorithm::new(1.0); n])
            .delay_model(WavefrontDelay::new(&g, NodeId(0), t_max, flip, boundary))
            .rate_schedules(schedules.clone())
            .build();
        max_engine.wake_all_at(0.0);
        let max_local = worst_local_skew(&mut max_engine, n, horizon);

        let params = Params::recommended(eps, t_max).unwrap();
        let mut aopt_engine = Engine::builder(g.clone())
            .protocols(vec![AOpt::new(params); n])
            .delay_model(WavefrontDelay::new(&g, NodeId(0), t_max, flip, boundary))
            .rate_schedules(schedules)
            .build();
        aopt_engine.wake_all_at(0.0);
        let aopt_local = worst_local_skew(&mut aopt_engine, n, horizon);

        // A^opt's local skew obeys its bound; the max algorithm's wavefront
        // skew is Θ(boundary·𝒯) across one edge.
        assert!(
            aopt_local <= params.local_skew_bound((n - 1) as u32) + 1e-9,
            "A^opt local skew {aopt_local} above bound"
        );
        assert!(
            max_local > 0.5 * boundary as f64 * t_max,
            "expected a Θ(boundary·𝒯) wavefront, got {max_local}"
        );
        assert!(
            max_local > 2.0 * aopt_local,
            "expected max-algorithm ({max_local}) to be far worse than A^opt ({aopt_local})"
        );
    }

    #[test]
    fn flapping_still_bounds_a_opt() {
        let n = 12;
        let t_max = 0.4;
        let eps = 0.02;
        let g = topology::path(n);
        let params = Params::recommended(eps, t_max).unwrap();
        let mut engine = Engine::builder(g.clone())
            .protocols(vec![AOpt::new(params); n])
            .delay_model(FlappingDelay::new(&g, NodeId(n - 1), t_max, 15.0))
            .build();
        engine.wake_all_at(0.0);
        let local = worst_local_skew(&mut engine, n, 90.0);
        assert!(local <= params.local_skew_bound((n - 1) as u32) + 1e-9);
    }

    #[test]
    fn static_floors() {
        let g = topology::path(8);
        // The post-flip near side is instantaneous, so the static floor is
        // 0; a boundary of 0 keeps every edge at the full 𝒯 forever.
        assert_eq!(
            WavefrontDelay::new(&g, NodeId(0), 0.4, 30.0, 3).min_delay(),
            Some(0.0)
        );
        assert_eq!(
            WavefrontDelay::new(&g, NodeId(0), 0.4, 30.0, 0).min_delay(),
            Some(0.4)
        );
        assert_eq!(
            FlappingDelay::new(&g, NodeId(0), 0.5, 1.0).min_delay(),
            Some(0.0)
        );
    }

    #[test]
    fn phases_alternate() {
        let g = topology::path(2);
        let mut m = FlappingDelay::new(&g, NodeId(0), 0.5, 1.0);
        let ctx = |now: f64| DelayCtx::new(NodeId(1), NodeId(0), now, now, now, &g);
        assert_eq!(m.delivery(&ctx(0.5)), Delivery::After(0.0)); // even phase, toward
        assert_eq!(m.delivery(&ctx(1.5)), Delivery::After(0.5)); // odd phase
    }
}
