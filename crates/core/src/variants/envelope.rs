//! The hardware-envelope condition (paper Section 8.6).
//!
//! Condition (1) bounds logical clocks by an *affine* envelope of real
//! time. Section 8.6 sharpens it: every logical clock must stay between the
//! smallest and the largest **hardware** clock value in the system,
//!
//! ```text
//! min_w H_w(t) ≤ L_v(t) ≤ max_w H_w(t).
//! ```
//!
//! The adaptation: whenever a node's maximum-clock estimate `L_v^max`
//! exceeds its own hardware clock, the estimate is advanced at the damped
//! rate `(1 − ε̂)h_v/(1 + ε̂) ≤ 1 − ε̂` — at most the growth rate of
//! `max_w H_w` — and `L_v` is still never raised past `L_v^max`. When the
//! estimate rides `H_v` itself (the node *is* the maximum), it advances at
//! the full hardware rate. The lower side is automatic: the logical rate
//! multiplier never drops below 1 except while riding the (larger)
//! estimate, so `L_v ≥ H_v ≥ min_w H_w`.

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, arm_rate_timer, AOptCore};
use crate::{AOptMsg, Params};

/// `A^opt` under the sharpened hardware-envelope condition of Section 8.6.
///
/// # Example
///
/// ```
/// use gcs_core::{EnvelopeAOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let mut engine = Engine::builder(topology::path(3))
///     .protocols(vec![EnvelopeAOpt::new(p); 3])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until(20.0);
/// // All clocks between the extreme hardware values (here all rates are 1,
/// // so everything sits at 20).
/// for v in 0..3 {
///     let l = engine.logical_value(gcs_graph::NodeId(v));
///     assert!((l - 20.0).abs() < 1e-9);
/// }
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EnvelopeAOpt {
    params: Params,
    core: AOptCore,
    /// `L_v^max` anchored on the hardware clock with a time-varying scale.
    lmax: Option<Scaled>,
    sends: u64,
}

/// A value `anchor + (hw − anchor_hw)·scale`: an `L_v^max` advancing at
/// `scale · h_v` (also [`ExternalAOpt`](super::ExternalAOpt)'s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Scaled {
    pub(super) anchor: f64,
    pub(super) anchor_hw: f64,
    pub(super) scale: f64,
}

impl Scaled {
    pub(super) fn value(&self, hw: f64) -> f64 {
        self.anchor + (hw - self.anchor_hw) * self.scale
    }

    pub(super) fn rebase(&mut self, hw: f64, value: f64, scale: f64) {
        self.anchor = value;
        self.anchor_hw = hw;
        self.scale = scale;
    }

    /// Sets `core`'s multiplier to `desired` without letting `L_v` overtake
    /// this `L_v^max`: when `L_v` has (within floating-point slack) caught
    /// it, `L_v` rides it at its scale; otherwise the `cross` timer is armed
    /// for the moment it would. This is the single place the invariant
    /// `L_v ≤ L_v^max` is enforced between events.
    pub(super) fn cap_multiplier<M>(
        &self,
        core: &mut AOptCore,
        ctx: &mut Context<'_, M>,
        desired: f64,
        cross: TimerId,
    ) {
        let hw = ctx.hw();
        let scale = self.scale;
        let headroom = self.value(hw) - core.logical_value(hw);
        if desired > scale && headroom <= 1e-12 {
            // Riding the estimate: any faster rate would overtake it.
            core.logical.set_multiplier(hw, scale);
            ctx.cancel_timer(cross);
            ctx.cancel_timer(aopt_core::RATE_TIMER);
        } else {
            core.logical.set_multiplier(hw, desired);
            if desired > scale {
                ctx.set_timer(cross, hw + headroom / (desired - scale));
            } else {
                ctx.cancel_timer(cross);
            }
        }
    }
}

impl EnvelopeAOpt {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;
    /// Timer slot for the `L_v = L_v^max` crossing.
    pub const CROSS_TIMER: TimerId = TimerId(2);
    /// Timer slot for the `L_v^max = H_v` crossing (switch the estimate
    /// back to the full hardware rate).
    pub const MAX_CROSS_TIMER: TimerId = TimerId(3);

    /// Creates a node.
    pub fn new(params: Params) -> Self {
        EnvelopeAOpt {
            params,
            core: AOptCore::new(),
            lmax: None,
            sends: 0,
        }
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The damped estimate scale `(1 − ε̂)/(1 + ε̂)`.
    fn damped(&self) -> f64 {
        (1.0 - self.params.epsilon_hat()) / (1.0 + self.params.epsilon_hat())
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax.map_or(0.0, |s| s.value(hw))
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.sends += 1;
        ctx.send_all(AOptMsg {
            logical: self.core.logical_value(hw),
            lmax: self.lmax_value(hw),
        });
    }

    /// Chooses the estimate's growth scale for its current position
    /// relative to `H_v`, re-anchoring it and arming the `L^max = H`
    /// crossing timer when the damped estimate will be caught by the
    /// hardware clock.
    fn retune_lmax(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        let value = self.lmax_value(hw).max(hw); // L^max ≥ H_v invariant
        let above = value > hw + 1e-12;
        let scale = if above { self.damped() } else { 1.0 };
        self.lmax
            .as_mut()
            .expect("initialized at start")
            .rebase(hw, value, scale);
        if above {
            // H grows at rate 1·h, the estimate at scale·h < h: they meet at
            // hw* with value + (hw* − hw)·scale = hw*.
            let cross = (value - hw * scale) / (1.0 - scale);
            ctx.set_timer(Self::MAX_CROSS_TIMER, cross);
        } else {
            ctx.cancel_timer(Self::MAX_CROSS_TIMER);
        }
    }

    /// Sets the logical multiplier, never letting `L_v` overtake `L_v^max`.
    fn apply_multiplier(&mut self, ctx: &mut Context<'_, AOptMsg>, desired: f64) {
        let lmax = self.lmax.expect("initialized at start");
        lmax.cap_multiplier(&mut self.core, ctx, desired, Self::CROSS_TIMER);
    }

    /// Algorithm 3, arming the rate timer *before* the multiplier is
    /// applied (the order the event stream records).
    fn set_clock_rate(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        let r = self
            .core
            .increase(hw, self.params.kappa(), self.lmax_value(hw));
        let desired = arm_rate_timer(ctx, r, self.params.mu());
        self.apply_multiplier(ctx, desired);
    }
}

impl Protocol for EnvelopeAOpt {
    type Msg = AOptMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax = Some(Scaled {
            anchor: 0.0,
            anchor_hw: hw,
            scale: 1.0,
        });
        self.broadcast(ctx);
        ctx.set_timer(Self::SEND_TIMER, hw + self.params.h0());
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
        let hw = ctx.hw();
        if adopts(msg.lmax, self.lmax_value(hw)) {
            self.lmax
                .as_mut()
                .expect("initialized at start")
                .rebase(hw, msg.lmax, 1.0);
            self.retune_lmax(ctx);
            self.broadcast(ctx);
        }
        self.core.record_estimate(from, msg.logical, hw);
        self.set_clock_rate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast(ctx);
                ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.params.h0());
            }
            Self::RATE_TIMER => {
                self.apply_multiplier(ctx, 1.0);
            }
            Self::CROSS_TIMER => {
                // L caught L^max: ride it at the estimate's own scale.
                let scale = self.lmax.expect("initialized at start").scale;
                self.core.logical.set_multiplier(ctx.hw(), scale);
                ctx.cancel_timer(Self::RATE_TIMER);
            }
            Self::MAX_CROSS_TIMER => {
                // H_v caught the damped estimate: L^max rides H_v again.
                self.retune_lmax(ctx);
                // If L was riding L^max, it must pick up the new scale.
                let hw = ctx.hw();
                let headroom = self.lmax_value(hw) - self.core.logical_value(hw);
                if headroom <= 1e-12 {
                    self.core
                        .logical
                        .set_multiplier(hw, self.lmax.expect("initialized").scale);
                }
            }
            other => unreachable!("unknown timer slot {other:?}"),
        }
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.core.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.core.rate_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{Engine, UniformDelay};
    use gcs_time::DriftBounds;

    /// Checks the §8.6 invariant min_w H_w ≤ L_v ≤ max_w H_w over a run.
    fn check_envelope(n: usize, seed: u64, horizon: f64) {
        let eps = 0.02;
        let params = Params::recommended(eps, 0.1).unwrap();
        let drift = DriftBounds::new(eps).unwrap();
        let g = topology::path(n);
        let schedules = gcs_sim::rates::random_walk(n, drift, 4.0, horizon, seed);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(horizon, |e| {
            let hws: Vec<f64> = (0..n).map(|v| e.hardware_value(NodeId(v))).collect();
            let h_min = hws.iter().cloned().fold(f64::MAX, f64::min);
            let h_max = hws.iter().cloned().fold(f64::MIN, f64::max);
            for v in 0..n {
                let l = e.logical_value(NodeId(v));
                assert!(
                    l >= h_min - 1e-9,
                    "node {v}: L = {l} below min H = {h_min} at t = {}",
                    e.now()
                );
                assert!(
                    l <= h_max + 1e-9,
                    "node {v}: L = {l} above max H = {h_max} at t = {}",
                    e.now()
                );
            }
        });
    }

    #[test]
    fn clocks_stay_within_hardware_envelope() {
        check_envelope(5, 3, 120.0);
        check_envelope(4, 11, 120.0);
    }

    #[test]
    fn still_synchronizes() {
        let eps = 0.02;
        let params = Params::recommended(eps, 0.1).unwrap();
        let drift = DriftBounds::new(eps).unwrap();
        let n = 6;
        let g = topology::path(n);
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, 5))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut worst: f64 = 0.0;
        engine.run_until_observed(200.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        // Rate changes are damped by only 1 − 𝒪(ε̂), so the usual bounds
        // hold up to a constant; check against the standard 𝒢 plus slack.
        let slack = 2.0 * eps * 200.0 * 0.1;
        assert!(
            worst <= params.global_skew_bound((n - 1) as u32) + slack,
            "worst skew {worst}"
        );
        assert!(worst > 0.0);
    }

    #[test]
    fn lmax_never_below_own_hardware_clock() {
        let params = Params::recommended(0.02, 0.1).unwrap();
        let n = 4;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::alternating(n, drift, 7.0, 100.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, 9))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(100.0, |e| {
            for v in 0..n {
                let hw = e.hardware_value(NodeId(v));
                let lmax = e.protocol(NodeId(v)).lmax_value(hw);
                assert!(lmax >= hw - 1e-9, "L^max {lmax} fell below H {hw}");
            }
        });
    }
}
