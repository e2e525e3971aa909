//! The unbounded-rate (`β = ∞`) variant.

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::{AOpt, AOptMsg, Params};

/// `A^opt` with instantaneous clock jumps.
///
/// The paper remarks after Theorem 5.10 that Theorems 5.5 and 5.10 continue
/// to hold when the increase `R_v` computed by `setClockRate` is applied at
/// once instead of via a bounded rate boost — the more aggressive strategy
/// permitted when Condition (2)'s upper bound `β` is dropped. Theorem 7.12
/// then shows this buys *nothing asymptotically*: even unbounded rates
/// cannot beat `Ω(α𝒯 log_{1/ε} D)` local skew. This variant exists to
/// demonstrate both facts empirically (experiment F8).
///
/// # Example
///
/// ```
/// use gcs_core::{AOptJump, Params};
///
/// let p = Params::recommended(1e-3, 1.0)?;
/// let node = AOptJump::new(p);
/// assert_eq!(node.inner().params().sigma(), 2);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AOptJump {
    inner: AOpt,
}

impl AOptJump {
    /// Creates a node with the given parameters.
    pub fn new(params: Params) -> Self {
        let mut inner = AOpt::new(params);
        inner.jump_mode = true;
        AOptJump { inner }
    }

    /// Access to the shared `A^opt` state (estimates, counters, parameters).
    pub fn inner(&self) -> &AOpt {
        &self.inner
    }
}

impl Protocol for AOptJump {
    type Msg = AOptMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
        self.inner.on_timer(ctx, timer);
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.inner.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.inner.rate_multiplier()
    }

    fn min_rate_multiplier(&self) -> f64 {
        self.inner.min_rate_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, Engine};
    use gcs_time::RateSchedule;

    #[test]
    fn jump_variant_still_respects_global_bound() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let g = topology::path(6);
        let schedules = vec![
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![AOptJump::new(p); 6])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let bound = p.global_skew_bound(5);
        let mut worst: f64 = 0.0;
        engine.run_until_observed(120.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        assert!(worst <= bound + 1e-9, "skew {worst} > bound {bound}");
    }

    #[test]
    fn jump_variant_jumps_instead_of_boosting() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let g = topology::path(2);
        let schedules = vec![
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![AOptJump::new(p); 2])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut multiplier_always_one = true;
        engine.run_until_observed(60.0, |e| {
            for v in 0..2 {
                if e.protocol(NodeId(v)).inner().multiplier() != 1.0 {
                    multiplier_always_one = false;
                }
            }
        });
        assert!(multiplier_always_one, "jump variant must never boost rates");
        // Yet it still synchronizes.
        let skew = (engine.logical_value(NodeId(0)) - engine.logical_value(NodeId(1))).abs();
        assert!(skew <= p.local_skew_bound(1) + 1e-9);
    }
}
