//! The legal-state invariant (paper Definition 5.6).
//!
//! A system is in a *legal state* at time `t` if for every level `s ∈ ℕ₀`
//! and every pair `v, w` at distance `d(v, w) ≥ C_s = (2𝒢/κ)·σ^{−s}`:
//!
//! ```text
//! L_v(t) − L_w(t) ≤ d(v, w) · (s + ½) · κ
//! ```
//!
//! Theorem 5.10 is proved by showing `A^opt` never leaves the legal state;
//! this module checks the invariant directly on simulated executions
//! (experiment F10). For a pair at distance `d`, the binding level is the
//! *smallest* `s` with `C_s ≤ d` — larger levels only weaken the bound — so
//! each pair carries one precomputed bound.
//!
//! Every level's bound is at least `d·κ/2` (`s ≥ 0`), so neighbours all
//! within `κ/2` make every pair legal by the triangle inequality. The
//! [`InvariantWatchdog`](crate::InvariantWatchdog) checks that first, with
//! a stated f64 margin, and runs this checker's all-pairs scan only when an
//! edge exceeds it.

use gcs_core::{binding_level, Params};
use gcs_graph::Graph;
use gcs_sim::{DelayModel, Engine, EventSink, Protocol};
use gcs_time::slack;

/// A detected violation of the legal-state invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalStateViolation {
    /// Real time of the violation.
    pub t: f64,
    /// The ahead node (index).
    pub v: usize,
    /// The behind node (index).
    pub w: usize,
    /// Their distance.
    pub distance: u32,
    /// The binding level `s`.
    pub level: u32,
    /// The observed skew.
    pub skew: f64,
    /// The violated bound `d(s + ½)κ`.
    pub bound: f64,
}

/// Checks the Definition 5.6 invariant over an execution and tracks the
/// worst margin per level. A margin is a violation only below the
/// [slack rule](gcs_time#one-slack-rule) at `|L_v| + |L_w| + bound`.
///
/// # Example
///
/// ```
/// use gcs_analysis::LegalStateChecker;
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let g = topology::path(5);
/// let mut checker = LegalStateChecker::new(&g, p);
/// let mut engine = Engine::builder(g)
///     .protocols(vec![AOpt::new(p); 5])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until_observed(20.0, |e| { checker.observe(e); });
/// assert!(checker.first_violation().is_none());
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LegalStateChecker {
    /// For each unordered pair (v, w) with v < w: (v, w, distance, level, bound).
    pairs: Vec<(usize, usize, u32, u32, f64)>,
    /// Worst (smallest) slack `bound − skew` seen per level.
    margins: Vec<f64>,
    first_violation: Option<LegalStateViolation>,
}

impl LegalStateChecker {
    /// Builds the checker for a graph and parameter set (`𝒢` is computed
    /// from the graph's diameter).
    pub fn new(graph: &Graph, params: Params) -> Self {
        let dist = graph.all_pairs_distances();
        let kappa = params.kappa();
        let c0 = 2.0 * params.global_skew_bound(graph.diameter()) / kappa;
        let mut pairs = Vec::new();
        let mut max_level = 0u32;
        for (v, dist_v) in dist.iter().enumerate() {
            for (w, &d) in dist_v.iter().enumerate().skip(v + 1) {
                let s = binding_level(d, c0, params.sigma());
                let bound = d as f64 * (s as f64 + 0.5) * kappa;
                max_level = max_level.max(s);
                pairs.push((v, w, d, s, bound));
            }
        }
        LegalStateChecker {
            pairs,
            margins: vec![f64::INFINITY; (max_level + 1) as usize],
            first_violation: None,
        }
    }

    /// Records the engine's state; returns `false` on (the first) violation.
    pub fn observe<P: Protocol, D: DelayModel, S: EventSink>(
        &mut self,
        engine: &Engine<P, D, S>,
    ) -> bool {
        self.observe_clocks(engine.now(), &engine.logical_values())
    }

    /// Records a clock vector sampled at time `t` (e.g. from an
    /// [`EventSink::snapshot`] callback); returns `false` on violation.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `clocks` has fewer entries than the graph
    /// the checker was built for.
    pub fn observe_clocks(&mut self, t: f64, clocks: &[f64]) -> bool {
        let mut ok = true;
        for &(v, w, d, s, bound) in &self.pairs {
            let skew = (clocks[v] - clocks[w]).abs();
            let margin = bound - skew;
            if margin < self.margins[s as usize] {
                self.margins[s as usize] = margin;
            }
            if margin < 0.0 && margin < -slack(clocks[v].abs() + clocks[w].abs() + bound) {
                ok = false;
                if self.first_violation.is_none() {
                    let (ahead, behind) = if clocks[v] >= clocks[w] {
                        (v, w)
                    } else {
                        (w, v)
                    };
                    self.first_violation = Some(LegalStateViolation {
                        t,
                        v: ahead,
                        w: behind,
                        distance: d,
                        level: s,
                        skew,
                        bound,
                    });
                }
            }
        }
        ok
    }

    /// The first violation seen, if any.
    pub fn first_violation(&self) -> Option<LegalStateViolation> {
        self.first_violation
    }

    /// Worst slack (`bound − skew`, possibly negative) per level `s`.
    pub fn margins(&self) -> &[f64] {
        &self.margins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, NoSync};
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, UniformDelay};
    use gcs_time::DriftBounds;

    #[test]
    fn a_opt_stays_legal_under_adversity() {
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(7);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(7, drift, |v| v < 3);
        let mut checker = LegalStateChecker::new(&g, params);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); 7])
            .delay_model(UniformDelay::new(0.2, 13))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(150.0, |e| {
            assert!(
                checker.observe(e),
                "legal state violated: {:?}",
                checker.first_violation()
            );
        });
        // Margins were actually exercised (finite).
        assert!(checker.margins().iter().all(|m| m.is_finite()));
    }

    #[test]
    fn unsynchronized_clocks_eventually_violate() {
        // NoSync on a long path with max drift split: skew grows at 2ε/s
        // without bound and must break the neighbour-level constraint.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let n = 7;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut checker = LegalStateChecker::new(&g, params);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; n])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut violated = false;
        engine.run_until_observed(3000.0, |e| {
            if !checker.observe(e) {
                violated = true;
            }
        });
        assert!(violated, "margins: {:?}", checker.margins());
        let v = checker.first_violation().unwrap();
        assert!(v.skew > v.bound);
    }

    #[test]
    fn a_legal_state_far_from_zero_stays_legal() {
        // Two neighbours exactly one bound apart, shifted by 2²⁴ and 2³²
        // and read as floats: rounding puts the skew past the bound by
        // more than an absolute 1e-9, which the slack rule absorbs. Twice
        // the bound at the same magnitudes is still a violation.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(2);
        let bound = LegalStateChecker::new(&g, params).pairs[0].4;
        for shift in [24f64.exp2(), 32f64.exp2()] {
            // The first float above `shift + bound` by more than 1e-9.
            let mut ahead = shift + bound;
            while ahead - shift - bound <= 1e-9 {
                ahead = ahead.next_up();
            }
            assert!(ahead - shift - bound <= 2.0 * (ahead - ahead.next_down()));
            let mut checker = LegalStateChecker::new(&g, params);
            assert!(checker.observe_clocks(1.0, &[ahead, shift]), "{shift}");
            assert!(checker.margins()[0] < -1e-9);
            let far = ahead + bound;
            assert!(!checker.observe_clocks(2.0, &[shift, far]), "{shift}");
            let v = checker.first_violation().unwrap();
            assert_eq!((v.v, v.w, v.t), (1, 0, 2.0));
        }
    }

    #[test]
    fn binding_level_shrinks_with_distance() {
        // Closer pairs must carry higher (tighter-per-hop) levels.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(9);
        let checker = LegalStateChecker::new(&g, params);
        let level_of = |d: u32| {
            checker
                .pairs
                .iter()
                .find(|&&(_, _, pd, _, _)| pd == d)
                .map(|&(_, _, _, s, _)| s)
                .unwrap()
        };
        assert!(level_of(1) >= level_of(8));
    }
}
