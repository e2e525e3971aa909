//! Theorem 7.2: the global-skew lower bound via shifted executions.
//!
//! Three executions that no node can tell apart:
//!
//! * `E₁` — all hardware rates `1 − ε'`; messages toward the reference node
//!   `v₀` take `𝒯'`, all others are instantaneous.
//! * `E₂` — all rates `1 + ε'`; toward-`v₀` delays `(1 − ε')𝒯'/(1 + ε')`.
//! * `E₃` — node `v` runs at `1 + ϱ + (1 − d(v₀,v)/D)·ε̃` until
//!   `t₀ = (1 + ϱ)D𝒯/ε̃`, then at `1 + ϱ`; delays are adjusted so that each
//!   message arrives when the *receiver's* hardware clock shows the same
//!   reading as in `E₁`.
//!
//! All three produce the identical local message pattern: a message sent at
//! sender reading `X` arrives at receiver reading `X + (1 − ε')𝒯'` (toward
//! `v₀`) or `X` (away). An algorithm bound to the real-time envelope
//! (Condition 1) must run its logical clock exactly at its hardware clock
//! in `E₁`/`E₂` — anything slower violates the envelope in `E₁`, anything
//! faster violates it in `E₂` — hence also in `E₃`, where the hardware
//! clocks of `v₀` and `v_D` drift `(1 + ϱ)·D·𝒯` apart by time `t₀`.
//!
//! `ϱ = min{ε, (1 − ε')·𝒯̂/𝒯 − 1}`: with sloppy estimates
//! (`𝒯̂ ≫ 𝒯` or `ε' ≪ ε`) the forced skew reaches `(1 + ε)D𝒯`; even with
//! perfect estimates it is `(1 − ε)D𝒯` (Corollary 7.3).

use gcs_graph::{Graph, NodeId};
use gcs_sim::{DelayCtx, DelayModel, Delivery, Engine, Protocol};
use gcs_time::RateSchedule;

use crate::logged::{logs_consistent, LocalLog, Logged};

/// Which of the three indistinguishable executions to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftExecution {
    /// All rates `1 − ε'`, slow toward-`v₀` delays.
    E1,
    /// All rates `1 + ε'`, proportionally shrunk delays.
    E2,
    /// The graded-rate execution building `(1 + ϱ)D𝒯` of real skew.
    E3,
}

/// The delay rule shared by all three executions: deliver when the
/// receiver's hardware clock reaches the sender's send-time reading plus
/// `(1 − ε')𝒯'` for toward-`v₀` messages (0 otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedDelay {
    dist: Vec<u32>,
    local_lag: f64,
}

impl ShiftedDelay {
    /// Builds the rule for the given reference node and local lag.
    pub fn new(graph: &Graph, reference: NodeId, local_lag: f64) -> Self {
        assert!(local_lag >= 0.0, "negative lag {local_lag}");
        ShiftedDelay {
            dist: graph.distances_from(reference),
            local_lag,
        }
    }
}

impl DelayModel for ShiftedDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let toward = self.dist[ctx.dst.index()] < self.dist[ctx.src.index()];
        let lag = if toward { self.local_lag } else { 0.0 };
        Delivery::AtReceiverHw(ctx.src_hw() + lag)
    }
}

/// Report of one shifted-execution run.
#[derive(Debug, Clone)]
pub struct ShiftReport {
    /// Which execution was run.
    pub execution: ShiftExecution,
    /// `L_{v₀} − L_{v_D}` at the end of the run.
    pub endpoint_skew: f64,
    /// The largest pairwise logical skew observed at the end of the run.
    pub max_skew: f64,
    /// Per-node local observation logs (for indistinguishability checks).
    pub logs: Vec<LocalLog>,
}

/// Harness for the Theorem 7.2 construction on a given graph.
///
/// # Example
///
/// ```
/// use gcs_adversary::GlobalLowerBound;
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
///
/// // True 𝒯 = 0.5 but the algorithm only knows 𝒯̂ = 1.0 (c₁ = ½):
/// let lb = GlobalLowerBound::new(topology::path(5), 0.05, 0.05, 0.5, 1.0, 0.01)?;
/// let params = Params::recommended(0.05, 1.0).map_err(|e| e.to_string())?;
/// let report = lb.run(vec![AOpt::new(params); 5], gcs_adversary::shift::ShiftExecution::E3);
/// // The forced skew is within a whisker of the prediction (1 + ϱ)·D·𝒯.
/// assert!(report.endpoint_skew >= 0.9 * lb.predicted_skew());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct GlobalLowerBound {
    graph: Graph,
    v0: NodeId,
    vd: NodeId,
    d: u32,
    epsilon: f64,
    eps_prime: f64,
    t: f64,
    eps_tilde: f64,
    rho: f64,
    t_prime: f64,
}

impl GlobalLowerBound {
    /// Sets up the construction.
    ///
    /// * `epsilon` — the true drift bound `ε` (rates stay within it),
    /// * `eps_prime` — the adversary's pretended minimal drift `ε' ≤ ε`
    ///   (the paper's `c₂ε̂`),
    /// * `t` — the true delay uncertainty `𝒯`,
    /// * `t_hat` — the bound `𝒯̂ ≥ 𝒯` known to the algorithm,
    /// * `eps_tilde` — the paper's infinitesimal `ε̃ > 0`; smaller values
    ///   are more faithful but make `t₀ = (1 + ϱ)D𝒯/ε̃` (and the run)
    ///   longer. The effective `ϱ` is reduced by `ε̃` so all `E₃` rates
    ///   stay within the *true* drift bound.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range parameter, or the
    /// graph's diameter when it is 0 (there is no far node to skew).
    pub fn new(
        graph: Graph,
        epsilon: f64,
        eps_prime: f64,
        t: f64,
        t_hat: f64,
        eps_tilde: f64,
    ) -> Result<Self, String> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(format!("invalid ε {epsilon}"));
        }
        if !(eps_prime > 0.0 && eps_prime <= epsilon) {
            return Err(format!("need 0 < ε' ≤ ε, got {eps_prime}"));
        }
        if !(t > 0.0 && t_hat >= t) {
            return Err("need 0 < 𝒯 ≤ 𝒯̂".into());
        }
        if !(eps_tilde > 0.0 && eps_tilde < epsilon) {
            return Err(format!("need 0 < ε̃ < ε, got {eps_tilde}"));
        }
        let (v0, vd) = graph.diameter_endpoints();
        let d = graph.distance(v0, vd);
        if d == 0 {
            return Err("the graph has diameter 0; Theorem 7.2 needs D ≥ 1".into());
        }
        let rho_paper = epsilon.min((1.0 - eps_prime) * t_hat / t - 1.0);
        // Stay strictly within the true drift bound instead of the paper's
        // "formally allow ε + ε̃" convention.
        let rho = rho_paper.min(epsilon - eps_tilde).max(-eps_prime);
        let t_prime = (1.0 + rho) * t / (1.0 - eps_prime);
        Ok(GlobalLowerBound {
            graph,
            v0,
            vd,
            d,
            epsilon,
            eps_prime,
            t,
            eps_tilde,
            rho,
            t_prime,
        })
    }

    /// The reference node `v₀` (one diameter endpoint).
    pub fn v0(&self) -> NodeId {
        self.v0
    }

    /// The far node `v_D`.
    pub fn vd(&self) -> NodeId {
        self.vd
    }

    /// The effective `ϱ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The forced skew `(1 + ϱ)·D·𝒯` (Theorem 7.2).
    pub fn predicted_skew(&self) -> f64 {
        (1.0 + self.rho) * self.d as f64 * self.t
    }

    /// The time `t₀ = (1 + ϱ)·D·𝒯/ε̃` at which `E₃`'s rates level off and
    /// the full hardware skew has accumulated.
    pub fn t0(&self) -> f64 {
        self.predicted_skew() / self.eps_tilde
    }

    /// The local message lag `(1 − ε')𝒯'` every receiver observes on
    /// toward-`v₀` messages.
    pub fn local_lag(&self) -> f64 {
        (1.0 - self.eps_prime) * self.t_prime
    }

    fn schedules(&self, execution: ShiftExecution) -> Vec<RateSchedule> {
        match execution {
            ShiftExecution::E1 => {
                vec![
                    RateSchedule::constant(1.0 - self.eps_prime).expect("valid rate");
                    self.graph.len()
                ]
            }
            ShiftExecution::E2 => {
                vec![
                    RateSchedule::constant(1.0 + self.eps_prime).expect("valid rate");
                    self.graph.len()
                ]
            }
            ShiftExecution::E3 => {
                let dist = self.graph.distances_from(self.v0);
                let t0 = self.t0();
                dist.iter()
                    .map(|&dv| {
                        let frac = 1.0 - dv as f64 / self.d as f64;
                        let early = 1.0 + self.rho + frac * self.eps_tilde;
                        debug_assert!(early <= 1.0 + self.epsilon + 1e-12);
                        RateSchedule::from_steps(vec![(0.0, early), (t0, 1.0 + self.rho)])
                            .expect("valid steps")
                    })
                    .collect()
            }
        }
    }

    /// Runs `protocols` (one per node) under the chosen execution until
    /// just past `t₀` (scaled appropriately for `E₁`/`E₂`, which have no
    /// `t₀` of their own) and reports the resulting skews and logs.
    ///
    /// # Panics
    ///
    /// Panics if `protocols.len()` differs from the node count.
    pub fn run<P: Protocol>(&self, protocols: Vec<P>, execution: ShiftExecution) -> ShiftReport {
        let logged: Vec<Logged<P>> = protocols.into_iter().map(Logged::new).collect();
        let delay = ShiftedDelay::new(&self.graph, self.v0, self.local_lag());
        let mut engine = Engine::builder(self.graph.clone())
            .protocols(logged)
            .delay_model(delay)
            .rate_schedules(self.schedules(execution))
            .build();
        engine.wake_all_at(0.0);
        let horizon = match execution {
            // Run E₁/E₂ long enough to cover at least the same local time
            // span as E₃ (whose slowest rate is 1 + ϱ ≥ 1 − ε').
            ShiftExecution::E1 => self.t0() * (1.0 + self.rho) / (1.0 - self.eps_prime),
            ShiftExecution::E2 => self.t0() * (1.0 + self.rho) / (1.0 + self.eps_prime),
            ShiftExecution::E3 => self.t0(),
        };
        engine.run_until(horizon);
        let clocks = engine.logical_values();
        let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
        let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
        ShiftReport {
            execution,
            endpoint_skew: clocks[self.v0.index()] - clocks[self.vd.index()],
            max_skew: max - min,
            logs: self
                .graph
                .nodes()
                .map(|v| engine.protocol(v).log().clone())
                .collect(),
        }
    }

    /// Runs all three executions and checks pairwise indistinguishability:
    /// at every node, one log must be a prefix of the other. Returns the
    /// three reports and the verdict.
    pub fn verify_indistinguishable<P: Protocol>(
        &self,
        make: impl Fn() -> Vec<P>,
    ) -> ([ShiftReport; 3], bool) {
        let r1 = self.run(make(), ShiftExecution::E1);
        let r2 = self.run(make(), ShiftExecution::E2);
        let r3 = self.run(make(), ShiftExecution::E3);
        let consistent = |a: &ShiftReport, b: &ShiftReport| {
            a.logs
                .iter()
                .zip(&b.logs)
                .all(|(x, y)| logs_consistent(x, y))
        };
        let ok = consistent(&r1, &r2) && consistent(&r1, &r3) && consistent(&r2, &r3);
        ([r1, r2, r3], ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, MaxAlgorithm, Params};
    use gcs_graph::topology;

    #[test]
    fn e3_forces_predicted_skew_on_a_opt() {
        // Loose 𝒯̂ (2× the truth): ϱ ≈ ε, forced skew ≈ (1 + ε)D𝒯.
        let (eps, t, t_hat) = (0.05, 0.5, 1.0);
        let lb = GlobalLowerBound::new(topology::path(5), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        assert!(lb.rho() > 0.0);
        let params = Params::recommended(eps, t_hat).unwrap();
        let report = lb.run(vec![AOpt::new(params); 5], ShiftExecution::E3);
        let predicted = lb.predicted_skew();
        assert!(
            report.endpoint_skew >= 0.9 * predicted,
            "forced only {} of predicted {predicted}",
            report.endpoint_skew
        );
        // And A^opt's upper bound is not violated either.
        assert!(report.max_skew <= params.global_skew_bound(4) + 1e-6);
    }

    #[test]
    fn tight_estimates_still_force_one_minus_eps_dt() {
        // Perfect knowledge (𝒯̂ = 𝒯, ε' = ε): ϱ = −ε' ⇒ skew (1 − ε)D𝒯
        // (Corollary 7.3's second statement).
        let (eps, t) = (0.05, 0.5);
        let lb = GlobalLowerBound::new(topology::path(5), eps, eps, t, t, 0.01)
            .expect("valid construction");
        assert!((lb.rho() + eps).abs() < 1e-12);
        let params = Params::recommended(eps, t).unwrap();
        let report = lb.run(vec![AOpt::new(params); 5], ShiftExecution::E3);
        let predicted = lb.predicted_skew();
        assert!((predicted - (1.0 - eps) * 4.0 * t).abs() < 1e-9);
        assert!(report.endpoint_skew >= 0.9 * predicted);
    }

    #[test]
    fn the_three_executions_are_indistinguishable_for_a_opt() {
        let (eps, t, t_hat) = (0.05, 0.5, 1.0);
        let lb = GlobalLowerBound::new(topology::path(4), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        let params = Params::recommended(eps, t_hat).unwrap();
        let (_, ok) = lb.verify_indistinguishable(|| vec![AOpt::new(params); 4]);
        assert!(ok, "E₁/E₂/E₃ must be locally indistinguishable");
    }

    #[test]
    fn even_the_jump_happy_max_algorithm_is_forced() {
        // Theorem 7.2 applies to any envelope-respecting algorithm;
        // MaxAlgorithm respects the envelope (it never overtakes the true
        // maximum), so it too is forced.
        let (eps, t, t_hat) = (0.05, 0.5, 1.0);
        let lb = GlobalLowerBound::new(topology::path(5), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        let report = lb.run(vec![MaxAlgorithm::new(1.0); 5], ShiftExecution::E3);
        assert!(report.endpoint_skew >= 0.9 * lb.predicted_skew());
    }

    #[test]
    fn e1_and_e2_build_no_real_skew() {
        let (eps, t, t_hat) = (0.05, 0.5, 1.0);
        let lb = GlobalLowerBound::new(topology::path(4), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        let params = Params::recommended(eps, t_hat).unwrap();
        for exec in [ShiftExecution::E1, ShiftExecution::E2] {
            let report = lb.run(vec![AOpt::new(params); 4], exec);
            // Identical rates everywhere: logical clocks stay equal.
            assert!(
                report.max_skew < 1e-6,
                "{exec:?} built unexpected skew {}",
                report.max_skew
            );
        }
    }

    #[test]
    fn delay_legality_in_e3() {
        // Every message in E₃ must arrive within [0, 𝒯] real time. The
        // engine would panic on a negative target; here we additionally
        // check the positive side by construction: lag/(1 + ϱ) ≤ 𝒯.
        let (eps, t, t_hat) = (0.05, 0.5, 1.0);
        let lb = GlobalLowerBound::new(topology::path(6), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        assert!(lb.local_lag() / (1.0 + lb.rho()) <= t + 1e-12);
    }

    #[test]
    fn out_of_range_parameters_are_errors() {
        let err = |n, eps, eps_prime, t| {
            GlobalLowerBound::new(topology::path(n), eps, eps_prime, t, 2.0 * t, 0.001).unwrap_err()
        };
        assert!(err(3, 0.01, 0.05, 1.0).contains("need 0 < ε' ≤ ε"));
        assert!(err(3, 0.0, 0.0, 1.0).contains("invalid ε"));
        assert!(err(3, 0.05, 0.05, 0.0).contains("𝒯"));
        assert!(err(3, 0.05, 0.05, -1.0).contains("𝒯"));
        assert!(err(1, 0.05, 0.05, 1.0).contains("diameter 0"));
    }
}
