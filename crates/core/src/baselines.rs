//! Baseline algorithms `A^opt` is compared against.
//!
//! * [`MaxAlgorithm`] — maximum forwarding in the style of Srikanth & Toueg
//!   (1987): jump to every larger clock value received and forward it.
//!   Asymptotically optimal *global* skew and within the real-time envelope,
//!   but no gradient property: under adversarial delay patterns neighbouring
//!   nodes can differ by `Θ(D·𝒯)` (the paper's Section 1 credits it with a
//!   `Θ(D)` worst-case local skew).
//! * [`MidpointAlgorithm`] — the "obvious" bounded-rate strategy the paper
//!   warns about in Section 4.2: steer toward the midpoint of the fastest
//!   and slowest neighbour estimate. Fails to achieve a sublinear local
//!   skew.
//! * [`NoSync`] — hardware passthrough; the control group.

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};
use gcs_time::LogicalClock;

use crate::aopt_core::{self, arm_rate_timer, AOptCore};

/// Message of [`MaxAlgorithm`]: the sender's logical clock value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
}

/// Maximum-forwarding clock synchronization (Srikanth–Toueg style).
///
/// `L_v = max(own hardware progress, largest value ever received)`; strictly
/// larger received values are adopted by an instantaneous jump and forwarded
/// at once; additionally every node broadcasts its clock every `h0` units of
/// hardware time. Logical clock rates are unbounded above (`β = ∞`).
#[derive(Debug, Clone)]
pub struct MaxAlgorithm {
    h0: f64,
    logical: LogicalClock,
    sends: u64,
}

impl MaxAlgorithm {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);

    /// Creates a node broadcasting every `h0` hardware-time units.
    ///
    /// # Panics
    ///
    /// Panics if `h0 <= 0`.
    pub fn new(h0: f64) -> Self {
        assert!(h0 > 0.0 && h0.is_finite(), "invalid send period {h0}");
        MaxAlgorithm {
            h0,
            logical: LogicalClock::new(),
            sends: 0,
        }
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, MaxMsg>) {
        let logical = self.logical.value_at_hw(ctx.hw());
        self.sends += 1;
        ctx.send_all(MaxMsg { logical });
    }
}

impl Protocol for MaxAlgorithm {
    type Msg = MaxMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, MaxMsg>) {
        self.logical.start(ctx.hw());
        self.broadcast(ctx);
        ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.h0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MaxMsg>, _from: NodeId, msg: MaxMsg) {
        let hw = ctx.hw();
        let mine = self.logical.value_at_hw(hw);
        // 1e-9 slack so equal values reconstructed through different
        // floating-point routes are not treated as increases.
        if msg.logical > mine + 1e-9 {
            self.logical.jump(hw, msg.logical - mine);
            self.broadcast(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, MaxMsg>, timer: TimerId) {
        debug_assert_eq!(timer, Self::SEND_TIMER);
        self.broadcast(ctx);
        ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.h0);
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.logical.value_at_hw(hw)
    }

    /// Jumps happen at events only; in between `L` runs at `H`'s rate.
    fn min_rate_multiplier(&self) -> f64 {
        1.0
    }
}

/// Message of [`MidpointAlgorithm`]: the sender's logical clock value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MidpointMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
}

/// Bounded-rate midpoint averaging — the strategy the paper's Section 4.2
/// shows is *not* enough for a sublinear local skew.
///
/// Nodes keep `A^opt`'s estimates of their neighbours' clocks (an
/// [`AOptCore`] table: advanced at the hardware rate between messages,
/// monotone-guarded). Whenever
/// `Λ↑ > Λ↓` the node runs at `(1 + μ)·h_v` until it has gained
/// `(Λ↑ − Λ↓)/2` — steering toward the midpoint of the extremal neighbour
/// estimates — and at `h_v` otherwise.
#[derive(Debug, Clone)]
pub struct MidpointAlgorithm {
    h0: f64,
    mu: f64,
    core: AOptCore,
    sends: u64,
}

impl MidpointAlgorithm {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the fast-mode reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node broadcasting every `h0` hardware-time units with fast
    /// mode boost `mu`.
    ///
    /// # Panics
    ///
    /// Panics if `h0 <= 0` or `mu <= 0`.
    pub fn new(h0: f64, mu: f64) -> Self {
        assert!(h0 > 0.0 && h0.is_finite(), "invalid send period {h0}");
        assert!(mu > 0.0 && mu.is_finite(), "invalid boost {mu}");
        MidpointAlgorithm {
            h0,
            mu,
            core: AOptCore::new(),
            sends: 0,
        }
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, MidpointMsg>) {
        let logical = self.core.logical_value(ctx.hw());
        self.sends += 1;
        ctx.send_all(MidpointMsg { logical });
    }

    /// Steers toward the midpoint `(Λ↑ − Λ↓)/2`; does nothing before a
    /// neighbour is known.
    fn adjust_rate(&mut self, ctx: &mut Context<'_, MidpointMsg>) {
        let hw = ctx.hw();
        if let Some((up, down)) = self.core.lambda_pair(hw) {
            let multiplier = arm_rate_timer(ctx, (up - down) / 2.0, self.mu);
            self.core.logical.set_multiplier(hw, multiplier);
        }
    }
}

impl Protocol for MidpointAlgorithm {
    type Msg = MidpointMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, MidpointMsg>) {
        self.core.logical.start(ctx.hw());
        self.broadcast(ctx);
        ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.h0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MidpointMsg>, from: NodeId, msg: MidpointMsg) {
        self.core.record_estimate(from, msg.logical, ctx.hw());
        self.adjust_rate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, MidpointMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast(ctx);
                ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.h0);
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

    fn min_rate_multiplier(&self) -> f64 {
        1.0
    }
}

/// The do-nothing control: `L_v = H_v`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSync;

impl Protocol for NoSync {
    type Msg = ();

    fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _timer: TimerId) {}

    fn logical_value(&self, hw: f64) -> f64 {
        hw
    }

    fn min_rate_multiplier(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, DirectionalDelay, Engine};
    use gcs_time::{DriftBounds, RateSchedule};

    #[test]
    fn max_algorithm_adopts_and_forwards_maxima() {
        let g = topology::path(4);
        // Node 0 runs fast; all others must ride its clock.
        let mut schedules = vec![RateSchedule::constant(1.05).unwrap()];
        schedules.extend(vec![RateSchedule::constant(0.95).unwrap(); 3]);
        let mut engine = Engine::builder(g)
            .protocols(vec![MaxAlgorithm::new(1.0); 4])
            .delay_model(ConstantDelay::new(0.01))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(50.0);
        let l0 = engine.logical_value(NodeId(0));
        let l3 = engine.logical_value(NodeId(3));
        // Node 3 trails node 0 by at most the propagation lag, not by drift.
        assert!(l0 - l3 < 0.5, "l0 = {l0}, l3 = {l3}");
        assert!(l0 - l3 >= 0.0);
    }

    #[test]
    fn max_algorithm_never_runs_backwards_or_above_max() {
        let g = topology::cycle(5);
        let drift = DriftBounds::new(0.05).unwrap();
        let schedules = gcs_sim::rates::random_walk(5, drift, 3.0, 60.0, 5);
        let mut engine = Engine::builder(g)
            .protocols(vec![MaxAlgorithm::new(1.0); 5])
            .delay_model(gcs_sim::UniformDelay::new(0.2, 6))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut last = [0.0f64; 5];
        engine.run_until_observed(60.0, |e| {
            for (v, prev) in last.iter_mut().enumerate() {
                let l = e.logical_value(NodeId(v));
                assert!(l >= *prev - 1e-12, "clock ran backwards at {v}");
                // Envelope: never above (1 + ε)t.
                assert!(l <= 1.05 * e.now() + 1e-9);
                *prev = l;
            }
        });
    }

    #[test]
    fn max_algorithm_builds_large_local_skew_at_wavefront() {
        // Delay flip: messages toward the tail crawl at full 𝒯 while node 0
        // runs fast. When the wave of node 0's value sweeps down the path,
        // the node at the front is far ahead of its sleepy neighbour.
        let t_max = 0.5;
        let n = 16;
        let g = topology::path(n);
        let mut schedules = vec![RateSchedule::constant(1.05).unwrap()];
        schedules.extend(vec![RateSchedule::constant(0.95).unwrap(); n - 1]);
        let delay = DirectionalDelay::new(&g, NodeId(n - 1), t_max, t_max);
        let mut engine = Engine::builder(g)
            .protocols(vec![MaxAlgorithm::new(1.0); n])
            .delay_model(delay)
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut worst_local: f64 = 0.0;
        engine.run_until_observed(60.0, |e| {
            for v in 0..n - 1 {
                let skew = (e.logical_value(NodeId(v)) - e.logical_value(NodeId(v + 1))).abs();
                worst_local = worst_local.max(skew);
            }
        });
        // The wavefront jump is at least the per-hop staleness (1+ε)·𝒯 — and
        // grows along the path; require clearly super-𝒯 skew.
        assert!(
            worst_local > 1.01 * t_max,
            "expected wavefront skew, got {worst_local}"
        );
    }

    #[test]
    fn midpoint_converges_on_a_pair() {
        let g = topology::path(2);
        let schedules = vec![
            RateSchedule::constant(1.02).unwrap(),
            RateSchedule::constant(0.98).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![MidpointAlgorithm::new(0.5, 0.2); 2])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let skew = (engine.logical_value(NodeId(0)) - engine.logical_value(NodeId(1))).abs();
        // The slow node chases the fast one; skew stays bounded by O(drift·𝒯 + H₀ terms).
        assert!(skew < 1.0, "midpoint failed to track: skew = {skew}");
    }

    #[test]
    fn no_sync_is_hardware_passthrough() {
        let g = topology::path(2);
        let schedules = vec![
            RateSchedule::constant(1.05).unwrap(),
            RateSchedule::constant(0.95).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync, NoSync])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(10.0);
        assert!((engine.logical_value(NodeId(0)) - 10.5).abs() < 1e-9);
        assert!((engine.logical_value(NodeId(1)) - 9.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid send period")]
    fn max_algorithm_rejects_bad_period() {
        let _ = MaxAlgorithm::new(0.0);
    }
}
