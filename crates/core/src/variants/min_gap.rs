//! Bounded minimum message frequency (paper Section 6.1).
//!
//! Plain `A^opt` guarantees a bounded *amortized* frequency, but a burst of
//! ever-larger `L^max` estimates can trigger up to `Θ(𝒢/H₀)` forwards in a
//! short window. The paper's fix: force at least `H₀` of local hardware
//! time between consecutive sends, and let estimates ride locally in the
//! meantime. The price is that information now travels up to `𝒪(D·H₀)`
//! slower, adding `Θ(ε·D·H₀)` to the global skew — a trade-off the paper
//! calls optimal up to constants (a pair at distance `D` deprived of
//! updates for `Θ(D·H₀)` time can always be driven `Θ(ε·D·H₀)` apart).

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, AOptCore};
use crate::{AOptMsg, Params};

/// `A^opt` with a hard minimum gap of `H₀` local time between sends.
///
/// # Example
///
/// ```
/// use gcs_core::{MinGapAOpt, Params};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let node = MinGapAOpt::new(p);
/// assert_eq!(node.sends(), 0);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MinGapAOpt {
    params: Params,
    core: AOptCore,
    lmax_offset: Option<f64>,
    last_send_hw: f64,
    sends: u64,
}

impl MinGapAOpt {
    /// Timer slot for the (gap-respecting) send trigger.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node.
    pub fn new(params: Params) -> Self {
        MinGapAOpt {
            params,
            core: AOptCore::new(),
            lmax_offset: None,
            last_send_hw: f64::NEG_INFINITY,
            sends: 0,
        }
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |o| hw + o)
    }

    /// Sends immediately if the gap permits; otherwise leaves the armed
    /// SEND timer (always pointing at `last_send + H₀`) to do it. The
    /// message content is computed at actual send time, so deferred sends
    /// carry the freshest values automatically.
    fn request_send(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        if hw - self.last_send_hw >= self.params.h0() - 1e-12 {
            self.send_now(ctx);
        } else {
            ctx.set_timer(Self::SEND_TIMER, self.last_send_hw + self.params.h0());
        }
    }

    fn send_now(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.last_send_hw = hw;
        self.sends += 1;
        ctx.send_all(AOptMsg {
            logical: self.core.logical_value(hw),
            lmax: self.lmax_value(hw),
        });
        // Keep the heartbeat: at most H₀ of silence.
        ctx.set_timer(Self::SEND_TIMER, hw + self.params.h0());
    }
}

impl Protocol for MinGapAOpt {
    type Msg = AOptMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        self.send_now(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
        let hw = ctx.hw();
        if adopts(msg.lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(msg.lmax - hw);
            self.request_send(ctx);
        }
        self.core.record_estimate(from, msg.logical, hw);
        let lmax = self.lmax_value(hw);
        self.core
            .set_clock_rate(ctx, self.params.kappa(), self.params.mu(), lmax);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => self.send_now(ctx),
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
    use gcs_sim::{ConstantDelay, DelayCtx, Delivery, Engine, FnDelay};
    use gcs_time::DriftBounds;

    fn params() -> Params {
        Params::recommended(0.02, 0.1).unwrap()
    }

    #[test]
    fn never_sends_faster_than_one_per_h0() {
        // Even under an estimate storm (zero delays, fast neighbour), the
        // per-node send count is hard-capped by elapsed-hw / H₀ (+1).
        let p = params();
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v == 0);
        let delay = FnDelay::new(|_: &DelayCtx<'_>| Delivery::After(0.0), Some(0.0));
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); n])
            .delay_model(delay)
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let horizon = 100.0;
        engine.run_until(horizon);
        for v in 0..n {
            let hw = engine.hardware_value(NodeId(v));
            let cap = (hw / p.h0()).floor() as u64 + 2;
            let sends = engine.protocol(NodeId(v)).sends();
            assert!(sends <= cap, "node {v} sent {sends} times, hard cap {cap}");
        }
    }

    #[test]
    fn still_synchronizes_with_the_documented_penalty() {
        let p = params();
        let n = 8;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); n])
            .delay_model(ConstantDelay::new(0.05))
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
        let penalty = 2.0 * 0.02 * (n as f64) * p.h0();
        assert!(
            worst <= p.global_skew_bound((n - 1) as u32) + penalty + 1e-9,
            "worst {worst} beyond bound + εDH₀ penalty"
        );
    }

    #[test]
    fn deferred_forward_eventually_happens() {
        // Node 1 receives a large estimate right after sending; it must
        // forward it within H₀ local time.
        let p = params();
        let g = topology::path(3);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(3, drift, |v| v == 0);
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); 3])
            .delay_model(ConstantDelay::new(0.01))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(50.0);
        // Node 2 only learns about node 0's fast clock through node 1's
        // (possibly deferred) forwards; its estimate must stay fresh.
        let hw2 = engine.hardware_value(NodeId(2));
        let lmax2 = engine.protocol(NodeId(2)).lmax_value(hw2);
        let l0 = engine.logical_value(NodeId(0));
        assert!(
            l0 - lmax2 <= 3.0 * p.h0() + 1.0,
            "estimate stale: l0 = {l0}, node 2 lmax = {lmax2}"
        );
    }
}
