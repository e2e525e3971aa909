//! The `A^opt` algorithm (paper Section 4, Algorithms 1–4).
//!
//! Every node maintains:
//!
//! * its logical clock `L_v`, run at `ρ_v · h_v` with `ρ_v ∈ {1, 1 + μ}`,
//! * `L_v^max` — its estimate of the largest clock value in the system,
//!   advanced at the hardware rate between updates (represented here as a
//!   constant offset from `H_v`),
//! * per heard-from neighbour `w`: the estimate `L_v^w` (also advanced at
//!   the hardware rate; a constant offset from `H_v`) and `ℓ_v^w`, the
//!   largest raw clock value received from `w` (static between messages).
//!
//! Events:
//!
//! * **Algorithm 1** — when `L_v^max` reaches an integer multiple of `H₀`,
//!   broadcast `⟨L_v, L_v^max⟩` (timer slot [`AOpt::SEND_TIMER`]).
//! * **Algorithm 2** — on receiving `⟨L_w, L_w^max⟩`: adopt and immediately
//!   forward a strictly larger `L_w^max`; adopt a larger `L_w` into
//!   `L_v^w`/`ℓ_v^w`; recompute `Λ↑`, `Λ↓`; call `setClockRate`.
//! * **Algorithm 3** — `setClockRate` (see [`crate::rate_rule`]) decides the
//!   multiplier and, if `R_v > 0`, the hardware value `H_v^R = H_v + R_v/μ`
//!   at which to fall back to the nominal rate.
//! * **Algorithm 4** — when `H_v` reaches `H_v^R`, reset `ρ_v := 1` (timer
//!   slot [`AOpt::RATE_TIMER`]).
//!
//! Initialization follows the paper's scheme: a node waking spontaneously
//! sends `⟨0, 0⟩`; a node initialized by its first received message starts
//! its clocks at 0 and processes that message (forwarding a larger estimate
//! immediately). Until a first message from a neighbour arrives, the node is
//! oblivious to that neighbour.
//!
//! The clock, the neighbour-estimate table with its incremental `Λ↑`/`Λ↓`
//! trackers and Algorithm 3 live in [`AOptCore`](crate::AOptCore), which
//! the variants and the midpoint baseline share. This module adds what is
//! specific to plain `A^opt`: Algorithm 1's `H₀`-multiple send trigger,
//! `L_v^max` as a constant offset from `H_v`, Algorithm 2's flooding of
//! larger estimates, and the jump mode of [`crate::AOptJump`].

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, next_multiple, AOptCore};
use crate::Params;

/// The synchronization message `⟨L_v, L_v^max⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AOptMsg {
    /// The sender's logical clock value at send time.
    pub logical: f64,
    /// The sender's maximum-clock estimate at send time (an integer multiple
    /// of `H₀`).
    pub lmax: f64,
}

/// The `A^opt` protocol state of one node.
///
/// # Example
///
/// ```
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let params = Params::recommended(1e-3, 0.1)?;
/// let graph = topology::path(4);
/// let mut engine = Engine::builder(graph)
///     .protocols(vec![AOpt::new(params); 4])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake(gcs_graph::NodeId(0), 0.0);
/// engine.run_until(50.0);
/// let clocks = engine.logical_values();
/// let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
///     - clocks.iter().cloned().fold(f64::MAX, f64::min);
/// assert!(spread <= params.global_skew_bound(3));
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AOpt {
    params: Params,
    /// `L_v`, the neighbour estimates and Algorithm 3.
    core: AOptCore,
    /// `L_v^max − H_v` (constant between updates); `None` before start.
    lmax_offset: Option<f64>,
    /// Index of the next `H₀` multiple at which to send (Algorithm 1).
    next_multiple: u64,
    /// Count of messages this node broadcast (diagnostics).
    sends: u64,
    /// When set, apply positive `R_v` as an instantaneous jump instead of a
    /// bounded-rate boost (the `β = ∞` regime discussed after Theorem 5.10);
    /// used by [`crate::AOptJump`].
    pub(crate) jump_mode: bool,
}

impl AOpt {
    /// Timer slot for the Algorithm 1 send trigger.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node with the given parameters.
    pub fn new(params: Params) -> Self {
        AOpt {
            params,
            core: AOptCore::new(),
            lmax_offset: None,
            next_multiple: 1,
            sends: 0,
            jump_mode: false,
        }
    }

    /// Ablated variant for the `a2_estimate_ablation` experiment: neighbour
    /// estimates are frozen at the raw received values instead of advancing
    /// at the hardware rate (Algorithm 2's bookkeeping). The paper's κ
    /// (Eq. 4) assumes advancing estimates; freezing them inflates the
    /// staleness from `𝒪(𝒯 + H̄₀)` to `𝒪(𝒯 + H₀)` and the skew with it.
    /// Never use this to *run* a deployment.
    pub fn with_frozen_estimates(params: Params) -> Self {
        AOpt {
            core: AOptCore::frozen(),
            ..Self::new(params)
        }
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The maximum-clock estimate `L_v^max` when the hardware clock reads
    /// `hw` (0 before initialization).
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |offset| hw + offset)
    }

    /// The estimate `L_v^w` of neighbour `w`'s clock at hardware reading
    /// `hw`, if a message from `w` has been received.
    pub fn neighbor_estimate(&self, w: NodeId, hw: f64) -> Option<f64> {
        self.core.estimate(w, hw)
    }

    /// The current rate multiplier `ρ_v`.
    pub fn multiplier(&self) -> f64 {
        self.core.rate_multiplier()
    }

    /// Number of broadcasts this node performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, AOptMsg>, lmax: f64) {
        let logical = self.core.logical_value(ctx.hw());
        self.sends += 1;
        ctx.send_all(AOptMsg { logical, lmax });
    }

    /// Re-arms the Algorithm 1 send trigger for the next multiple of `H₀`
    /// not yet reached by `L_v^max`.
    fn schedule_send(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let offset = self.lmax_offset.expect("scheduled only after start");
        let (k, at) = next_multiple(ctx.hw(), offset, self.params.h0());
        self.next_multiple = k;
        ctx.set_timer(Self::SEND_TIMER, at);
    }

    /// Algorithm 3: `setClockRate`, or its instantaneous jump in
    /// [`crate::AOptJump`]'s mode.
    fn set_clock_rate(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        let (kappa, lmax) = (self.params.kappa(), self.lmax_value(hw));
        if !self.jump_mode {
            self.core.set_clock_rate(ctx, kappa, self.params.mu(), lmax);
            return;
        }
        let r = self.core.increase(hw, kappa, lmax);
        if r > 0.0 {
            self.core.logical.jump(hw, r);
        }
    }
}

impl Protocol for AOpt {
    type Msg = AOptMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        debug_assert_eq!(hw, 0.0, "hardware clocks start at zero");
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        // A node waking up by itself sends ⟨0, 0⟩ (L_v^max = 0 is the 0-th
        // multiple of H₀); a message-initialized node sends the same before
        // processing the initialization message, which subsumes the paper's
        // "trigger a sending event".
        self.broadcast(ctx, 0.0);
        self.schedule_send(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
        let hw = ctx.hw();
        // Algorithm 2, lines 1–4: adopt and forward a strictly larger
        // maximum-clock estimate.
        if adopts(msg.lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(msg.lmax - hw);
            self.broadcast(ctx, msg.lmax);
            self.schedule_send(ctx);
        }
        // Lines 5–7: adopt a larger (hence more recent) clock value of `w`.
        self.core.record_estimate(from, msg.logical, hw);
        // Lines 8–10: recompute skews and adjust the clock rate.
        self.set_clock_rate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                // Algorithm 1: L_v^max reached the multiple; broadcast the
                // exact multiple to keep sent estimates on the H₀ grid.
                let lmax = self.next_multiple as f64 * self.params.h0();
                self.broadcast(ctx, lmax);
                self.schedule_send(ctx);
            }
            // Algorithm 4: H_v reached H_v^R.
            Self::RATE_TIMER => self.core.logical.set_multiplier(ctx.hw(), 1.0),
            other => unreachable!("unknown timer slot {other:?}"),
        }
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.core.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.core.rate_multiplier()
    }

    fn min_rate_multiplier(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, DirectionalDelay, Engine, UniformDelay};

    fn params() -> Params {
        Params::recommended(0.01, 0.1).unwrap()
    }

    fn spread(values: &[f64]) -> f64 {
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    #[test]
    fn single_node_tracks_hardware_clock() {
        let p = params();
        let g = topology::path(1);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p)])
            .delay_model(ConstantDelay::new(0.0))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(10.0);
        assert!((engine.logical_value(NodeId(0)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn initialization_floods_through_path() {
        let p = params();
        let g = topology::path(5);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(ConstantDelay::new(0.05))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(0.3);
        for v in 0..5 {
            assert!(engine.is_started(NodeId(v)), "node {v} not initialized");
        }
        // Node 4 started 4 hops later.
        assert!(engine.logical_value(NodeId(0)) > engine.logical_value(NodeId(4)));
    }

    #[test]
    fn synchronizes_under_benign_conditions() {
        let p = params();
        let g = topology::path(6);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 6])
            .delay_model(ConstantDelay::new(0.02))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let clocks = engine.logical_values();
        assert!(spread(&clocks) <= p.global_skew_bound(5) + 1e-9);
        // With zero drift, clocks should in fact be very tight.
        assert!(spread(&clocks) <= 2.0 * p.kappa());
    }

    #[test]
    fn respects_global_skew_bound_under_adversity() {
        let p = params();
        let g = topology::path(8);
        let schedules =
            gcs_sim::rates::split(8, gcs_time::DriftBounds::new(0.01).unwrap(), |v| v < 4);
        let delay = DirectionalDelay::new(&g, NodeId(0), 0.1, 0.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 8])
            .delay_model(delay)
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let bound = p.global_skew_bound(7);
        let mut worst: f64 = 0.0;
        engine.run_until_observed(200.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        assert!(
            worst <= bound + 1e-9,
            "global skew {worst} exceeded bound {bound}"
        );
        assert!(worst > 0.0);
    }

    #[test]
    fn respects_envelope_condition() {
        // Condition (1): (1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t.
        let p = params();
        let g = topology::binary_tree(7);
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let schedules = gcs_sim::rates::random_walk(7, drift, 5.0, 100.0, 3);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 7])
            .delay_model(UniformDelay::new(0.1, 8))
            .rate_schedules(schedules)
            .build();
        engine.wake(NodeId(0), 0.0);
        let mut checkers: Vec<Option<gcs_time::EnvelopeChecker>> = vec![None; 7];
        engine.run_until_observed(100.0, |e| {
            for (v, slot) in checkers.iter_mut().enumerate() {
                if e.is_started(NodeId(v)) {
                    let checker =
                        slot.get_or_insert_with(|| gcs_time::EnvelopeChecker::new(drift, e.now()));
                    assert!(
                        checker.observe(e.now(), e.logical_value(NodeId(v))),
                        "envelope violated at node {v}, t = {}",
                        e.now()
                    );
                }
            }
        });
    }

    #[test]
    fn respects_progress_condition() {
        // Condition (2): α(t'−t) ≤ L(t') − L(t) ≤ β(t'−t) with
        // α = 1 − ε, β = (1 + ε)(1 + μ) (Corollary 5.3).
        let p = params();
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let g = topology::cycle(5);
        let schedules = gcs_sim::rates::alternating(5, drift, 7.0, 80.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(UniformDelay::new(0.1, 21))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let (alpha, beta) = p.rate_envelope();
        let env = gcs_time::RateEnvelope::new(alpha, beta);
        let mut checkers = [gcs_time::ProgressChecker::new(env); 5];
        engine.run_until_observed(80.0, |e| {
            for (v, checker) in checkers.iter_mut().enumerate() {
                assert!(
                    checker.observe(e.now(), e.logical_value(NodeId(v))),
                    "progress envelope violated at node {v}, t = {}",
                    e.now()
                );
            }
        });
    }

    #[test]
    fn logical_clock_never_exceeds_lmax() {
        // Corollary 5.2 (i): L_v ≤ L_v^max at all times.
        let p = params();
        let g = topology::path(5);
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let schedules = gcs_sim::rates::split(5, drift, |v| v % 2 == 0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(UniformDelay::new(0.1, 4))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(60.0, |e| {
            for v in 0..5 {
                let hw = e.hardware_value(NodeId(v));
                let node = e.protocol(NodeId(v));
                assert!(
                    node.logical_value(hw) <= node.lmax_value(hw) + 1e-9,
                    "L exceeded L^max at node {v}"
                );
            }
        });
    }

    #[test]
    fn sent_lmax_values_stay_on_h0_grid() {
        let p = params();
        let g = topology::path(3);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 3])
            .delay_model(ConstantDelay::new(0.03))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(50.0);
        // All nodes' estimates are multiples of H₀ plus hardware progress;
        // spot-check the next_multiple bookkeeping via lmax at a send event:
        for v in 0..3 {
            let node = engine.protocol(NodeId(v));
            assert!(node.sends() > 10, "node {v} sent too rarely");
        }
    }

    #[test]
    fn amortized_message_frequency_matches_h0() {
        // Section 6.1: amortized frequency Θ(1/H₀) per node.
        let p = params();
        let g = topology::path(4);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 4])
            .delay_model(ConstantDelay::new(0.05))
            .build();
        engine.wake_all_at(0.0);
        let horizon = 200.0;
        engine.run_until(horizon);
        let expected = horizon / p.h0();
        for v in 0..4 {
            let sends = engine.protocol(NodeId(v)).sends() as f64;
            assert!(
                sends <= 3.0 * expected + 5.0,
                "node {v} sent {sends} times, expected Θ({expected})"
            );
            assert!(sends >= expected / 3.0 - 5.0);
        }
    }

    #[test]
    fn fast_mode_engages_on_skew() {
        let p = params();
        let g = topology::path(2);
        // Node 1 drastically slower; node 0 pulls ahead, node 1 must boost.
        let schedules = vec![
            gcs_time::RateSchedule::constant(1.01).unwrap(),
            gcs_time::RateSchedule::constant(0.99).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 2])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut boosted = false;
        engine.run_until_observed(100.0, |e| {
            if e.protocol(NodeId(1)).multiplier() > 1.0 {
                boosted = true;
            }
        });
        assert!(boosted, "slow node never engaged fast mode");
        // And the final skew is small despite the drift.
        let skew = (engine.logical_value(NodeId(0)) - engine.logical_value(NodeId(1))).abs();
        assert!(skew <= p.local_skew_bound(1) + 1e-9);
    }
}
