//! Lemma 7.6 and Theorem 7.7: the local-skew lower bound.
//!
//! The construction drives an ever-larger *average* skew onto ever-shorter
//! subpaths of a path of length `D' = b^S`:
//!
//! 1. **Base** (`k = 0`): run the drift-free execution `E₀` (all rates 1;
//!    messages toward the `w`-side instantaneous, toward the `v`-side
//!    delayed by the full `𝒯`) for `D'𝒯/ε` time. Either the endpoints
//!    already disagree by `α·D'·𝒯/2`, or the indistinguishable execution
//!    `Ē₀` — in which the `v`-side hardware clocks run graded-fast for the
//!    whole window — adds `α·D'·𝒯` of skew on top (Lemma 7.6).
//! 2. **Step** (`k → k + 1`): extend by `E_{k+1}` (rates 1, the same
//!    `Φ`-directed delays) for `n_{k+1}·𝒯/ε` time, where
//!    `n_{k+1} = n_k / b`. The pair's skew decays by at most
//!    `(β − α)·n_{k+1}𝒯/ε`, so by averaging some length-`n_{k+1}` segment
//!    `(v', w')` of the path still carries `≥ k/2·α·n_{k+1}𝒯`. Rewind and
//!    run `Ē_{k+1}` instead — rates graded from `1 + ε` at `v'` down to `1`
//!    at `w'`, message pattern held fixed by receiver-local-time delivery —
//!    which hands `v'` an extra `α·n_{k+1}𝒯`, restoring the invariant
//!    `skew ≥ (k + 2)/2 · α·n_{k+1}·𝒯`.
//!
//! After `S` stages the pair is a single edge carrying
//! `(S + 1)/2 · α𝒯 = (1 + ⌊log_b D'⌋)/2 · α𝒯` of skew — Theorem 7.7. The
//! guarantee needs `b ≥ ⌈2(β − α)/(αε)⌉`; running the construction with a
//! smaller branching factor still *measures* whatever skew it manages to
//! force (useful against aggressive algorithms like `A^opt`, whose `β`
//! makes the guaranteed `b` large).
//!
//! The rewind step uses the engine's snapshot/restore (`Clone`) — the
//! *extended execution* device of Definition 7.4.

use gcs_graph::{topology, Graph, NodeId};
use gcs_sim::{DelayCtx, DelayModel, Delivery, Engine, Protocol};
use gcs_time::slack;

/// The `Φ`-directed delivery rule of Lemma 7.6 (with `φ = 0`), expressed in
/// receiver-local time so the identical rule serves both the base execution
/// `E` (where all rates are 1 and it reduces to plain delays of `0`/`𝒯`)
/// and the shifted execution `Ē`.
///
/// A message sent at sender reading `X` is delivered when the receiver
/// reads `base_dst + (X − base_src) + d_E`, where `base_u` is `u`'s reading
/// at the start of the stage and `d_E = 0` if `Φ(src) ≥ Φ(dst)` (moving
/// toward the `w`-side) and `𝒯` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedDelay {
    phi: Vec<i64>,
    bases: Vec<f64>,
    t_max: f64,
}

impl StagedDelay {
    /// An inert placeholder used before the first stage is configured.
    pub fn unconfigured(n: usize, t_max: f64) -> Self {
        StagedDelay {
            phi: vec![0; n],
            bases: vec![0.0; n],
            t_max,
        }
    }

    /// Configures the rule for a stage with pair `(v, w)`: `Φ(u) =
    /// d(w, u) − d(v, u)`, bases taken from the engine at stage start.
    pub fn configure(&mut self, graph: &Graph, v: NodeId, w: NodeId, bases: Vec<f64>) {
        let dw = graph.distances_from(w);
        let dv = graph.distances_from(v);
        self.phi = dw
            .iter()
            .zip(&dv)
            .map(|(&a, &b)| a as i64 - b as i64)
            .collect();
        self.bases = bases;
    }
}

impl DelayModel for StagedDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let d_e = if self.phi[ctx.src.index()] >= self.phi[ctx.dst.index()] {
            0.0
        } else {
            self.t_max
        };
        let target =
            self.bases[ctx.dst.index()] + (ctx.src_hw() - self.bases[ctx.src.index()]) + d_e;
        Delivery::AtReceiverHw(target)
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.t_max)
    }
}

/// Outcome of one stage of the construction.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage index `k` (0 is the base case).
    pub stage: usize,
    /// The ahead node `v_k` (path index).
    pub ahead: usize,
    /// The behind node `w_k` (path index).
    pub behind: usize,
    /// `n_k = d(v_k, w_k)`.
    pub distance: usize,
    /// Measured `L_{v_k} − L_{w_k}` at the stage checkpoint.
    pub skew: f64,
    /// The invariant target `(k + 1)/2 · α · n_k · 𝒯` (guaranteed when the
    /// branching factor meets Theorem 7.7's threshold).
    pub target: f64,
    /// Real time of the stage checkpoint.
    pub time: f64,
    /// `(L_{v_k}, L_{w_k})` at the stage checkpoint.
    pub clocks: (f64, f64),
}

impl StageReport {
    /// Whether the stage forced its target: `skew ≥ target` within the
    /// [slack rule](gcs_time#one-slack-rule) at the two clocks and the
    /// target. A NaN skew fails.
    pub fn meets_target(&self) -> bool {
        let magnitude = self.clocks.0.abs() + self.clocks.1.abs() + self.target.abs();
        self.skew >= self.target - slack(magnitude)
    }
}

/// Harness for the Theorem 7.7 construction on a path of `b^stages` edges.
///
/// # Example
///
/// ```
/// use gcs_adversary::LocalLowerBound;
/// use gcs_core::NoSync;
///
/// // NoSync has α = 1 − ε, β = 1 + ε ⇒ guaranteed b = ⌈4/(1 − ε)⌉ = 5.
/// let lb = LocalLowerBound::new(5, 2, 0.2, 1.0, 0.8)?;
/// let reports = lb.run(|n| vec![NoSync; n]);
/// let last = reports.last().unwrap();
/// assert_eq!(last.distance, 1);
/// assert!(last.meets_target());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalLowerBound {
    b: usize,
    stages: usize,
    d_prime: usize,
    epsilon: f64,
    t_max: f64,
    alpha: f64,
}

impl LocalLowerBound {
    /// Creates the harness.
    ///
    /// * `b` — branching factor (path lengths shrink by `b` per stage);
    ///   Theorem 7.7 guarantees the invariant when
    ///   `b ≥ ⌈2(β − α)/(αε)⌉` for the algorithm under attack,
    /// * `stages` — number of halving stages `S`; the path has `b^S` edges,
    /// * `epsilon` — the true drift bound `ε` the adversary may use,
    /// * `t_max` — the delay uncertainty `𝒯`,
    /// * `alpha` — the algorithm's minimum logical rate `α`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range parameter, or the
    /// overflow when `b^S` does not fit in a `usize`.
    pub fn new(
        b: usize,
        stages: usize,
        epsilon: f64,
        t_max: f64,
        alpha: f64,
    ) -> Result<Self, String> {
        if b < 2 {
            return Err("branching factor must be at least 2".into());
        }
        if stages < 1 {
            return Err("need at least one stage".into());
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(format!("invalid ε {epsilon}"));
        }
        if !(t_max > 0.0 && t_max.is_finite()) {
            return Err(format!("invalid 𝒯 {t_max}"));
        }
        if alpha.is_nan() || alpha <= 0.0 {
            return Err(format!("invalid α {alpha}"));
        }
        let d_prime = u32::try_from(stages)
            .ok()
            .and_then(|s| b.checked_pow(s))
            .ok_or_else(|| format!("path length b^S = {b}^{stages} overflows"))?;
        Ok(LocalLowerBound {
            b,
            stages,
            d_prime,
            epsilon,
            t_max,
            alpha,
        })
    }

    /// The path length `D' = b^S` (number of edges).
    pub fn d_prime(&self) -> usize {
        self.d_prime
    }

    /// The skew Theorem 7.7 forces between the final pair of neighbours:
    /// `(S + 1)/2 · α𝒯`.
    pub fn guaranteed_final_skew(&self) -> f64 {
        (self.stages as f64 + 1.0) / 2.0 * self.alpha * self.t_max
    }

    /// Runs the construction against the given algorithm (the factory
    /// receives the node count) and returns one report per stage,
    /// `stage = 0..=S`, ending with a pair at distance 1.
    pub fn run<P: Protocol>(&self, make: impl FnOnce(usize) -> Vec<P>) -> Vec<StageReport> {
        let d_prime = self.d_prime();
        let n_nodes = d_prime + 1;
        let graph = topology::path(n_nodes);
        let mut engine = Engine::builder(graph.clone())
            .protocols(make(n_nodes))
            .delay_model(StagedDelay::unconfigured(n_nodes, self.t_max))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(0.0); // process the wakes so rates can be driven

        let mut reports = Vec::with_capacity(self.stages + 1);
        // Current pair, oriented: `ahead` is the paper's v, `behind` its w.
        let mut ahead = 0usize;
        let mut behind = d_prime;
        let mut t_cur = 0.0;

        for stage in 0..=self.stages {
            let span = ahead.abs_diff(behind);
            // Segment length this stage establishes skew on.
            let n_next = if stage == 0 { span } else { span / self.b };
            debug_assert!(n_next >= 1);
            let duration = n_next as f64 * self.t_max / self.epsilon;
            let t_end = t_cur + duration;

            let bases: Vec<f64> = graph.nodes().map(|v| engine.hardware_value(v)).collect();
            let snapshot = engine.clone();

            // --- Base execution E: all rates 1, Φ-directed delays. ---
            self.configure(&mut engine, &graph, ahead, behind, bases.clone(), None);
            engine.run_until(t_end);

            // Choose the oriented segment (v', w') of length n_next with the
            // largest skew; for the base stage the segment is the whole pair
            // and the dichotomy below decides E vs Ē.
            let clocks = engine.logical_values();
            let (v_next, w_next, score) = if stage == 0 {
                (ahead, behind, clocks[ahead] - clocks[behind])
            } else {
                let mut best = (ahead, behind, f64::NEG_INFINITY);
                for m in 0..self.b {
                    let (v_m, w_m) = if ahead < behind {
                        (ahead + m * n_next, ahead + (m + 1) * n_next)
                    } else {
                        (ahead - m * n_next, ahead - (m + 1) * n_next)
                    };
                    let s = clocks[v_m] - clocks[w_m];
                    if s > best.2 {
                        best = (v_m, w_m, s);
                    }
                }
                best
            };

            let threshold = self.alpha * n_next as f64 * self.t_max;
            if stage == 0 && score <= -threshold / 2.0 {
                // E itself already exhibits the skew — with roles switched.
                std::mem::swap(&mut ahead, &mut behind);
                reports.push(StageReport {
                    stage,
                    ahead,
                    behind,
                    distance: span,
                    skew: -score,
                    target: threshold / 2.0,
                    time: t_end,
                    clocks: (clocks[ahead], clocks[behind]),
                });
                t_cur = t_end;
                continue;
            }

            // --- Shifted execution Ē: rewind; grade the v'-side fast. ---
            engine = snapshot;
            self.configure(
                &mut engine,
                &graph,
                ahead,
                behind,
                bases,
                Some((v_next, n_next)),
            );
            engine.run_until(t_end);

            let clocks = engine.logical_values();
            let skew = clocks[v_next] - clocks[w_next];
            let target = (stage as f64 + 1.0) / 2.0 * self.alpha * n_next as f64 * self.t_max;
            reports.push(StageReport {
                stage,
                ahead: v_next,
                behind: w_next,
                distance: n_next,
                skew,
                target,
                time: t_end,
                clocks: (clocks[v_next], clocks[w_next]),
            });
            ahead = v_next;
            behind = w_next;
            t_cur = t_end;
        }
        reports
    }

    /// Configures delays (always) and rates (graded for `Ē`, unit for `E`)
    /// for one stage phase.
    fn configure<P: Protocol>(
        &self,
        engine: &mut Engine<P, StagedDelay>,
        graph: &Graph,
        pair_v: usize,
        pair_w: usize,
        bases: Vec<f64>,
        graded: Option<(usize, usize)>,
    ) {
        engine
            .delay_model_mut()
            .configure(graph, NodeId(pair_v), NodeId(pair_w), bases);
        let dv = graph.distances_from(NodeId(pair_v));
        let dw = graph.distances_from(NodeId(pair_w));
        let phi = |u: usize| dw[u] as i64 - dv[u] as i64;
        for u in 0..graph.len() {
            let rate = match graded {
                None => 1.0,
                Some((v_next, n_next)) => {
                    // Lemma 7.6: h_u = clamp(1 + ε − (Φ(v') − Φ(u))·ε/(2n'), 1, 1 + ε).
                    let delta = (phi(v_next) - phi(u)) as f64;
                    (1.0 + self.epsilon - delta * self.epsilon / (2.0 * n_next as f64))
                        .clamp(1.0, 1.0 + self.epsilon)
                }
            };
            engine.set_hardware_rate(NodeId(u), rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, NoSync, Params};
    use gcs_time::{DriftBounds, RateEnvelope};

    #[test]
    fn construction_meets_targets_against_nosync() {
        // NoSync: α = 1 − ε = 0.8, β = 1 + ε ⇒ required b = ⌈2·0.4/(0.8·0.2)⌉ = 5.
        let eps = 0.2;
        let drift = DriftBounds::new(eps).unwrap();
        let b = RateEnvelope::new(0.8, 1.2).lower_bound_base(drift) as usize;
        assert_eq!(b, 5);
        let lb = LocalLowerBound::new(b, 2, eps, 1.0, 0.8).expect("valid construction");
        let reports = lb.run(|n| vec![NoSync; n]);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(
                r.meets_target(),
                "stage {} skew {} below target {}",
                r.stage,
                r.skew,
                r.target
            );
        }
        let last = reports.last().unwrap();
        assert_eq!(last.distance, 1);
        assert!(last.skew >= lb.guaranteed_final_skew() - 1e-9);
    }

    #[test]
    fn stage_targets_grow_per_level() {
        let lb = LocalLowerBound::new(5, 2, 0.2, 1.0, 0.8).expect("valid construction");
        let reports = lb.run(|n| vec![NoSync; n]);
        // Targets: 0.5·α·n₀𝒯, 1·α·n₁𝒯, 1.5·α·n₂𝒯 — per-edge average grows.
        let averages: Vec<f64> = reports.iter().map(|r| r.skew / r.distance as f64).collect();
        assert!(averages.windows(2).all(|w| w[1] > w[0] - 1e-9));
    }

    #[test]
    fn meets_target_scales_with_the_clocks() {
        // Two clocks one target apart, shifted by 2³² and read as floats:
        // the rounded skew falls short of the target by more than an
        // absolute 1e-9, which the slack rule absorbs. A tenth of the
        // target short at the same magnitude still fails.
        let (shift, target) = (32f64.exp2(), 1.6);
        let report = |ahead: f64| StageReport {
            stage: 0,
            ahead: 0,
            behind: 1,
            distance: 1,
            skew: ahead - shift,
            target,
            time: 0.0,
            clocks: (ahead, shift),
        };
        let mut ahead = shift + target;
        while ahead - shift >= target - 1e-9 {
            ahead = ahead.next_down();
        }
        assert!(ahead - shift >= target - 2.0 * (ahead.next_up() - ahead));
        assert!(report(ahead).meets_target());
        assert!(!report(ahead - target / 10.0).meets_target());
        assert!(!report(f64::NAN).meets_target());
    }

    #[test]
    fn forces_skew_on_a_opt_too() {
        // A^opt's β makes the guaranteed branching large; with a modest b
        // the invariant is not promised, but the construction must still
        // force at least the trivial αD𝒯-average floor on the base stage
        // and a clearly positive local skew at the end.
        let eps = 0.1;
        let t_max = 1.0;
        let params = Params::recommended(eps, t_max).unwrap();
        let lb = LocalLowerBound::new(3, 2, eps, t_max, 1.0 - eps).expect("valid construction");
        let reports = lb.run(|n| vec![AOpt::new(params); n]);
        assert!(reports[0].meets_target());
        let last = reports.last().unwrap();
        assert_eq!(last.distance, 1);
        assert!(
            last.skew > 0.2 * t_max,
            "final skew {} too small",
            last.skew
        );
        // …and A^opt never violates its own guarantees while being attacked.
        assert!(last.skew <= params.local_skew_bound(9) + 1e-9);
    }

    #[test]
    fn d_prime_and_guarantee_formulas() {
        let lb = LocalLowerBound::new(4, 3, 0.1, 2.0, 0.9).expect("valid construction");
        assert_eq!(lb.d_prime(), 64);
        assert!((lb.guaranteed_final_skew() - 2.0 * 0.9 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_parameters_are_errors() {
        let err = |b, stages, eps, t| LocalLowerBound::new(b, stages, eps, t, 0.9).unwrap_err();
        assert!(err(1, 2, 0.1, 1.0).contains("branching factor"));
        assert!(err(4, 0, 0.1, 1.0).contains("at least one stage"));
        assert!(err(4, 2, 0.0, 1.0).contains("invalid ε"));
        assert!(err(4, 2, 0.1, 0.0).contains("invalid 𝒯"));
        assert!(err(4, 2, 0.1, -1.0).contains("invalid 𝒯"));
        // 65536⁴ = 2⁶⁴ would wrap to D' = 0.
        assert!(err(65536, 4, 0.1, 1.0).contains("overflows"));
        assert!(LocalLowerBound::new(4, 2, 0.1, 1.0, f64::NAN).is_err());
    }
}
