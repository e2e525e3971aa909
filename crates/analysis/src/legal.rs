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
//! Every level's bound is at least `d·κ/2` (`s ≥ 0`), so a clock vector
//! whose neighbours all differ by at most `κ/2` is legal at every level by
//! the triangle inequality. [`InvariantWatchdog`](crate::InvariantWatchdog)
//! checks that O(|E|) certificate first, against
//! `τ = (κ/2)(1 − 4·f64::EPSILON)` (the margin absorbs every rounding of
//! the skews, the bounds and `τ` itself; the argument is in its module
//! doc), and runs this checker's all-pairs scan only when an edge exceeds
//! `τ`.

use gcs_core::Params;
use gcs_graph::Graph;
use gcs_sim::{DelayModel, Engine, EventSink, Protocol};

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
/// worst margin per level.
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
    /// How far a margin may go negative before it is a violation: 1e-9,
    /// absolute, in clock units. It is not ulp-relative, so it holds only
    /// while one rounding step of a clock value stays below it: from
    /// L ≥ 2²³ ≈ 8.4·10⁶ one ulp (2⁻²⁹ ≈ 1.9·10⁻⁹) exceeds it, and a single
    /// rounding could read as a violation.
    tolerance: f64,
}

impl LegalStateChecker {
    /// Builds the checker for a graph and parameter set (`𝒢` is computed
    /// from the graph's diameter, read off the one all-pairs BFS table the
    /// pair bounds need — graphs are connected by construction).
    pub fn new(graph: &Graph, params: Params) -> Self {
        let dist = graph.all_pairs_distances();
        let diameter = table_diameter(&dist);
        let kappa = params.kappa();
        let c0 = 2.0 * params.global_skew_bound(diameter) / kappa;
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
            tolerance: 1e-9,
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
            if margin < -self.tolerance {
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

/// The diameter `D` of a connected graph: the largest entry of its
/// all-pairs distance table.
fn table_diameter(dist: &[Vec<u32>]) -> u32 {
    dist.iter().flatten().copied().max().unwrap_or(0)
}

/// The binding level of a pair at distance `d`: the smallest `s ≥ 0` with
/// `C_s = c0·σ^{−s} ≤ d`, i.e. `d·σ^s ≥ c0`.
///
/// Decided by direct comparison rather than `⌈log_σ(c0/d)⌉`, whose rounded
/// logarithm lands on either side of an exact power `c0/d = σ^k`. The
/// products `d·σ^s` are integers, exact in f64 below 2⁵³. A non-finite
/// `c0` stops the loop too: `∞` once the product overflows, NaN at once.
///
/// # Panics
///
/// Panics unless `d ≥ 1` and `σ ≥ 2` (validated parameters give `σ ≥ 2`).
fn binding_level(d: u32, c0: f64, sigma: u32) -> u32 {
    assert!(d >= 1 && sigma >= 2, "binding level needs d ≥ 1, σ ≥ 2");
    let sigma = f64::from(sigma);
    let mut reach = f64::from(d);
    let mut s = 0;
    while reach < c0 && reach.is_finite() {
        reach *= sigma;
        s += 1;
    }
    s
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
    fn binding_level_is_exact_at_powers_of_sigma() {
        // ⌈log₅(125)⌉ evaluates to 4; the binding level is 3.
        assert_eq!(binding_level(1, 125.0, 5), 3);
        assert_eq!(binding_level(2, 250.0, 5), 3);
        for sigma in 2..=10u32 {
            let mut power = 1.0f64;
            for k in 0..30u32 {
                for d in [1u32, 3, 7] {
                    let c0 = f64::from(d) * power;
                    if c0 >= 2f64.powi(53) {
                        continue;
                    }
                    assert_eq!(binding_level(d, c0, sigma), k, "σ={sigma} k={k} d={d}");
                    assert_eq!(
                        binding_level(d, c0.next_up(), sigma),
                        k + 1,
                        "σ={sigma} k={k} d={d}, just above"
                    );
                    assert_eq!(
                        binding_level(d, c0.next_down(), sigma),
                        k,
                        "σ={sigma} k={k} d={d}, just below"
                    );
                }
                power *= f64::from(sigma);
            }
        }
        // Pairs at or beyond C_0, and a degenerate threshold, bind level 0.
        assert_eq!(binding_level(9, 4.5, 2), 0);
        assert_eq!(binding_level(1, f64::NAN, 2), 0);
        assert!(binding_level(1, f64::INFINITY, 2) > 1000);
    }

    #[test]
    fn diameter_from_the_distance_table_matches_bfs() {
        let graphs = [
            topology::path(9),
            topology::cycle(10),
            topology::grid(4, 5),
            topology::star(8),
            topology::binary_tree(13),
            topology::erdos_renyi(30, 0.15, 4),
        ];
        for g in &graphs {
            assert_eq!(table_diameter(&g.all_pairs_distances()), g.diameter());
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
