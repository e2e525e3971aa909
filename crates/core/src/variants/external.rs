//! External synchronization (paper Section 8.5).
//!
//! One distinguished node — the *reference* — has access to real time
//! (`L = H = t`); every other node must track it while never overtaking real
//! time: the paper replaces Condition (1) by
//! `t − d(v, v₀)·𝒯 − τ ≤ L_v(t) ≤ t`.
//!
//! The adaptation prescribed by the paper: non-reference nodes behave like
//! `A^opt`, except that they increase `L_v^max` at the *damped* rate
//! `h_v/(1 + ε̂)` (which is at most the real-time rate, so the estimate can
//! never overtake real time on its own), and they also damp `L_v` to that
//! rate whenever `L_v = L_v^max`. Larger received estimates are still
//! adopted and flooded, so nodes catch up quickly.

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use super::envelope::Scaled;
use crate::aopt_core::{self, adopts, arm_rate_timer, AOptCore};
use crate::Params;

/// The synchronization message `⟨L_v, L_v^max⟩` of the external variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
    /// Sender's maximum-clock (here: real-time) estimate at send time.
    pub lmax: f64,
}

/// `A^opt` adapted for external synchronization against a reference node.
///
/// Construct the reference with [`ExternalAOpt::reference`] (its hardware
/// clock should be driven at rate 1 — it *is* real time) and every other
/// node with [`ExternalAOpt::new`].
///
/// # Example
///
/// ```
/// use gcs_core::{ExternalAOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let mut nodes = vec![ExternalAOpt::reference(p)];
/// nodes.extend(vec![ExternalAOpt::new(p); 3]);
/// let mut engine = Engine::builder(topology::path(4))
///     .protocols(nodes)
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until(20.0);
/// // No logical clock exceeds real time.
/// for v in 0..4 {
///     assert!(engine.logical_value(gcs_graph::NodeId(v)) <= 20.0 + 1e-9);
/// }
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExternalAOpt {
    params: Params,
    is_reference: bool,
    core: AOptCore,
    /// `L_v^max`, advancing at the damped scale; `None` at the reference.
    lmax: Option<Scaled>,
    sends: u64,
}

impl ExternalAOpt {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;
    /// Timer slot for the `L_v = L_v^max` crossing (fall back to the damped
    /// rate so the estimate is never overtaken).
    pub const CROSS_TIMER: TimerId = TimerId(2);

    /// Creates a non-reference node.
    pub fn new(params: Params) -> Self {
        ExternalAOpt {
            params,
            is_reference: false,
            core: AOptCore::new(),
            lmax: None,
            sends: 0,
        }
    }

    /// Creates the reference node (run its hardware clock at rate 1).
    pub fn reference(params: Params) -> Self {
        ExternalAOpt {
            is_reference: true,
            ..Self::new(params)
        }
    }

    /// Whether this node is the real-time reference.
    pub fn is_reference(&self) -> bool {
        self.is_reference
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The damped estimate-growth scale `1/(1 + ε̂)`.
    fn scale(&self) -> f64 {
        1.0 / (1.0 + self.params.epsilon_hat())
    }

    /// The real-time estimate `L_v^max` at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax.map_or(0.0, |s| s.value(hw))
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, ExternalMsg>) {
        let hw = ctx.hw();
        let logical = self.core.logical_value(hw);
        let lmax = if self.is_reference {
            logical
        } else {
            self.lmax_value(hw)
        };
        self.sends += 1;
        ctx.send_all(ExternalMsg { logical, lmax });
    }

    fn schedule_send(&mut self, ctx: &mut Context<'_, ExternalMsg>) {
        ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.params.h0());
    }

    /// Sets the logical multiplier, damping to the estimate's own rate when
    /// `L_v` has caught `L_v^max` (non-reference nodes only).
    fn apply_multiplier(&mut self, ctx: &mut Context<'_, ExternalMsg>, desired: f64) {
        let lmax = self.lmax.expect("initialized at start");
        lmax.cap_multiplier(&mut self.core, ctx, desired, Self::CROSS_TIMER);
    }

    /// Algorithm 3, arming the rate timer *before* the multiplier is
    /// applied (the order the event stream records).
    fn set_clock_rate(&mut self, ctx: &mut Context<'_, ExternalMsg>) {
        let hw = ctx.hw();
        let r = self
            .core
            .increase(hw, self.params.kappa(), self.lmax_value(hw));
        let desired = arm_rate_timer(ctx, r, self.params.mu());
        self.apply_multiplier(ctx, desired);
    }
}

impl Protocol for ExternalAOpt {
    type Msg = ExternalMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ExternalMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        if !self.is_reference {
            self.lmax = Some(Scaled {
                anchor: 0.0,
                anchor_hw: hw,
                scale: self.scale(),
            });
            // Start damped: L = L^max = 0 and the estimate must lead.
            self.core.logical.set_multiplier(hw, self.scale());
        }
        self.broadcast(ctx);
        self.schedule_send(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ExternalMsg>, from: NodeId, msg: ExternalMsg) {
        if self.is_reference {
            return; // the reference never adjusts
        }
        let hw = ctx.hw();
        if adopts(msg.lmax, self.lmax_value(hw)) {
            let scale = self.scale();
            self.lmax
                .as_mut()
                .expect("initialized at start")
                .rebase(hw, msg.lmax, scale);
            self.broadcast(ctx);
        }
        self.core.record_estimate(from, msg.logical, hw);
        self.set_clock_rate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ExternalMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast(ctx);
                self.schedule_send(ctx);
            }
            Self::RATE_TIMER => {
                self.apply_multiplier(ctx, 1.0);
            }
            Self::CROSS_TIMER => {
                // L reached L^max: ride it at the damped rate.
                self.core.logical.set_multiplier(ctx.hw(), self.scale());
                ctx.cancel_timer(Self::RATE_TIMER);
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
    use gcs_sim::{ConstantDelay, Engine, UniformDelay};
    use gcs_time::{DriftBounds, RateSchedule};

    fn network(n: usize, t_max: f64, seed: u64) -> Engine<ExternalAOpt, UniformDelay> {
        let p = Params::recommended(0.01, t_max).unwrap();
        let g = topology::path(n);
        let drift = DriftBounds::new(0.01).unwrap();
        let mut schedules = vec![RateSchedule::constant(1.0).unwrap()];
        schedules.extend(gcs_sim::rates::random_walk(n - 1, drift, 5.0, 300.0, seed));
        let mut nodes = vec![ExternalAOpt::reference(p)];
        nodes.extend(vec![ExternalAOpt::new(p); n - 1]);
        let mut engine = Engine::builder(g)
            .protocols(nodes)
            .delay_model(UniformDelay::new(t_max, seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine
    }

    #[test]
    fn logical_clocks_never_exceed_real_time() {
        let mut engine = network(5, 0.1, 7);
        engine.run_until_observed(200.0, |e| {
            for v in 0..5 {
                let l = e.logical_value(NodeId(v));
                assert!(
                    l <= e.now() + 1e-9,
                    "node {v} overtook real time: {l} > {}",
                    e.now()
                );
            }
        });
    }

    #[test]
    fn reference_tracks_real_time_exactly() {
        let mut engine = network(4, 0.1, 3);
        engine.run_until(100.0);
        assert!((engine.logical_value(NodeId(0)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn followers_stay_close_to_reference() {
        let mut engine = network(5, 0.1, 11);
        engine.run_until(300.0);
        let reference = engine.logical_value(NodeId(0));
        for v in 1..5 {
            let lag = reference - engine.logical_value(NodeId(v));
            assert!(lag >= -1e-9, "node {v} ahead of the reference");
            // Linear-in-distance accuracy (paper: t − d·𝒯 − τ ≤ L_v).
            let allowance = v as f64 * 0.1 + 3.0 * 0.01 * 300.0_f64.min(60.0) + 5.0;
            assert!(lag <= allowance, "node {v} lag {lag} too large");
        }
    }

    #[test]
    fn follower_clocks_are_monotone() {
        let mut engine = network(4, 0.05, 9);
        let mut last = [0.0f64; 4];
        engine.run_until_observed(150.0, |e| {
            for (v, prev) in last.iter_mut().enumerate() {
                let l = e.logical_value(NodeId(v));
                assert!(l >= *prev - 1e-12, "clock ran backwards at node {v}");
                *prev = l;
            }
        });
    }

    #[test]
    fn constant_delay_converges_tightly() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let g = topology::path(3);
        let mut nodes = vec![ExternalAOpt::reference(p)];
        nodes.extend(vec![ExternalAOpt::new(p); 2]);
        let mut engine = Engine::builder(g)
            .protocols(nodes)
            .delay_model(ConstantDelay::new(0.05))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let lag = engine.logical_value(NodeId(0)) - engine.logical_value(NodeId(2));
        assert!(lag >= 0.0);
        assert!(lag < 1.0, "lag {lag} too large under benign conditions");
    }
}
