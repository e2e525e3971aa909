//! Lower-bounded delays `[𝒯₁, 𝒯₂]` (paper Section 8.3).
//!
//! When every delay is known to be at least `𝒯₁`, a received clock value is
//! at least `(1 − ε)·𝒯₁` stale, so the receiver may add `(1 − ε̂)·𝒯₁` to
//! everything it receives and only the *uncertainty* `𝒯₂ − 𝒯₁` remains in
//! the skew bounds. Because adjusted estimates no longer sit on the `H₀`
//! grid, this variant sends purely periodically (every `H₀` of hardware
//! time), as the paper suggests; strictly larger maximum estimates are still
//! flooded immediately.

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, AOptCore};
use crate::{AOptMsg, Params};

/// `A^opt` adapted for delays in `[𝒯₁, 𝒯₂]`.
///
/// Construct `params` with `𝒯̂ ≥ 𝒯₂ − 𝒯₁`: only the uncertainty enters
/// Eq. (4); the common part `𝒯₁` is compensated by the receive-side offset.
///
/// # Example
///
/// ```
/// use gcs_core::{OffsetAOpt, Params};
///
/// // Link delay 1.0 ± 0.05: uncertainty 0.1, known floor 0.9.
/// let p = Params::recommended(1e-3, 0.1)?;
/// let node = OffsetAOpt::new(p, 0.9);
/// assert_eq!(node.t1(), 0.9);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OffsetAOpt {
    params: Params,
    t1: f64,
    core: AOptCore,
    lmax_offset: Option<f64>,
    sends: u64,
}

impl OffsetAOpt {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node that assumes every delay is at least `t1`.
    ///
    /// # Panics
    ///
    /// Panics if `t1` is negative or non-finite.
    pub fn new(params: Params, t1: f64) -> Self {
        assert!(t1.is_finite() && t1 >= 0.0, "invalid delay floor {t1}");
        OffsetAOpt {
            params,
            t1,
            core: AOptCore::new(),
            lmax_offset: None,
            sends: 0,
        }
    }

    /// The known delay floor `𝒯₁`.
    pub fn t1(&self) -> f64 {
        self.t1
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The receive-side compensation `(1 − ε̂)·𝒯₁` added to received values.
    fn compensation(&self) -> f64 {
        (1.0 - self.params.epsilon_hat()) * self.t1
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |o| hw + o)
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.sends += 1;
        ctx.send_all(AOptMsg {
            logical: self.core.logical_value(hw),
            lmax: self.lmax_value(hw),
        });
    }
}

impl Protocol for OffsetAOpt {
    type Msg = AOptMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        self.broadcast(ctx);
        ctx.set_timer(Self::SEND_TIMER, hw + self.params.h0());
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
        let hw = ctx.hw();
        let adjusted_logical = msg.logical + self.compensation();
        let adjusted_lmax = msg.lmax + self.compensation();
        if adopts(adjusted_lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(adjusted_lmax - hw);
            self.broadcast(ctx);
        }
        self.core.record_estimate(from, adjusted_logical, hw);
        let lmax = self.lmax_value(hw);
        self.core
            .set_clock_rate(ctx, self.params.kappa(), self.params.mu(), lmax);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast(ctx);
                ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.params.h0());
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{DelayCtx, Delivery, Engine, FnDelay};
    use gcs_time::RateSchedule;
    use rand::{Rng, SeedableRng};

    /// Delays uniform in [t1, t2].
    fn banded_delay(
        t1: f64,
        t2: f64,
        seed: u64,
    ) -> FnDelay<impl FnMut(&DelayCtx<'_>) -> Delivery + Clone> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        FnDelay::new(
            move |_: &DelayCtx<'_>| Delivery::After(rng.gen_range(t1..=t2)),
            Some(t2),
        )
    }

    #[test]
    fn compensation_removes_the_floor() {
        // Delays in [1.0, 1.1]: uncertainty only 0.1. The offset variant
        // must synchronize about as tightly as plain A^opt would with
        // 𝒯 = 0.1, far tighter than D·𝒯₂.
        let t1 = 1.0;
        let p = Params::recommended(0.001, 0.1).unwrap();
        let n = 5;
        let g = topology::path(n);
        let schedules = vec![
            RateSchedule::constant(1.001).unwrap(),
            RateSchedule::constant(0.999).unwrap(),
            RateSchedule::constant(1.001).unwrap(),
            RateSchedule::constant(0.999).unwrap(),
            RateSchedule::constant(1.001).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, t1); n])
            .delay_model(banded_delay(t1, 1.1, 5))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(400.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        // Without compensation the estimates would lag by ≥ (n−1)·𝒯₁ ≈ 4;
        // with it the spread reflects only the 0.1 uncertainty (plus H₀
        // staleness terms).
        assert!(spread < 1.0, "spread {spread} suggests 𝒯₁ not compensated");
    }

    #[test]
    fn estimates_remain_conservative() {
        // The adjusted estimate must never exceed the neighbour's true
        // clock: L_v^w ≤ L_w(t) (the paper's safety direction).
        let t1 = 0.5;
        let p = Params::recommended(0.01, 0.2).unwrap();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, t1); 2])
            .delay_model(banded_delay(t1, 0.7, 8))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(100.0, |e| {
            for (v, w) in [(0usize, 1usize), (1, 0)] {
                let hw = e.hardware_value(NodeId(v));
                let node = e.protocol(NodeId(v));
                if let Some(est) = node.core.estimate(NodeId(w), hw) {
                    let actual = e.logical_value(NodeId(w));
                    assert!(
                        est <= actual + 1e-9,
                        "estimate {est} overtook actual {actual}"
                    );
                }
            }
        });
    }

    #[test]
    fn zero_floor_degenerates_to_periodic_a_opt() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let g = topology::path(3);
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, 0.0); 3])
            .delay_model(gcs_sim::ConstantDelay::new(0.05))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= p.global_skew_bound(2) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid delay floor")]
    fn rejects_negative_floor() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let _ = OffsetAOpt::new(p, -1.0);
    }
}
