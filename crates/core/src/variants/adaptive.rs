//! Unknown delay bound: adaptive `𝒯̂` (paper Section 8.1).
//!
//! The paper argues that assuming `𝒯` completely unknown is no restriction:
//! nodes acknowledge messages, measure round-trip times on their hardware
//! clocks, convert them to an upper bound on real time by dividing by
//! `1 − ε̂`, and **flood the largest estimate through the system, adjusting
//! `κ` (and `H₀`) whenever it grows**. To keep the number of adjustments
//! logarithmic, estimates grow by doubling.
//!
//! This variant implements the full pipeline inside the synchronization
//! protocol itself: periodic broadcasts double as probes, receivers
//! acknowledge them immediately (the ack carries sync fields too, so it is
//! not wasted), and closed round trips update the estimate; the current
//! `𝒯̂` travels in every message — flooded values are adopted verbatim,
//! measured ones with doubling, keeping the network in lockstep while the
//! number of parameter changes stays logarithmic. Parameter changes (`κ`,
//! `H₀`) take effect immediately and monotonically
//! — underestimation is safe, as the paper notes, because "until the time
//! when larger delays actually occur, the skew bounds hold with respect to
//! the smaller delays and thus the smaller κ".

use std::collections::HashMap;

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, AOptCore};
use crate::Params;

/// The role of an adaptive message in the round-trip measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A periodic broadcast requesting an immediate acknowledgement.
    Probe {
        /// Per-link sequence number of this probe.
        seq: u64,
    },
    /// The immediate reply to a probe (closes the round trip; never
    /// answered itself).
    Ack {
        /// The probe sequence number being acknowledged.
        of: u64,
    },
    /// Any other sync message (e.g. an estimate forward); not probed.
    Plain,
}

/// A sync message with the adaptive machinery attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
    /// Sender's maximum-clock estimate at send time.
    pub lmax: f64,
    /// Sender's current delay-bound estimate `𝒯̂` (the flooded maximum).
    pub t_hat: f64,
    /// Probe/ack role of this message.
    pub kind: MsgKind,
}

/// Per-neighbour probe state (the estimate itself lives in the
/// [`AOptCore`] table).
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Next probe sequence number to use toward this neighbour.
    next_seq: u64,
    /// `(seq, hw at send)` of recent unacknowledged probes.
    in_flight: Vec<(u64, f64)>,
}

/// `A^opt` with a fully adaptive delay bound (Section 8.1).
///
/// # Example
///
/// ```
/// use gcs_core::AdaptiveAOpt;
///
/// // Start with a wild underestimate of the delay bound.
/// let node = AdaptiveAOpt::new(1e-2, 0.001);
/// assert_eq!(node.t_hat(), 0.001);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveAOpt {
    epsilon_hat: f64,
    params: Params,
    core: AOptCore,
    lmax_offset: Option<f64>,
    links: HashMap<NodeId, LinkState>,
    sends: u64,
    /// Number of times the parameters were re-derived.
    adaptations: u64,
}

impl AdaptiveAOpt {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node with drift bound `epsilon_hat` and an *initial* delay
    /// estimate `t_hat_initial` (any positive value; it will grow to fit).
    ///
    /// # Panics
    ///
    /// Panics if the initial parameters are invalid.
    pub fn new(epsilon_hat: f64, t_hat_initial: f64) -> Self {
        let params =
            Params::recommended(epsilon_hat, t_hat_initial).expect("invalid initial parameters");
        AdaptiveAOpt {
            epsilon_hat,
            params,
            core: AOptCore::new(),
            lmax_offset: None,
            links: HashMap::new(),
            sends: 0,
            adaptations: 0,
        }
    }

    /// The current delay-bound estimate `𝒯̂`.
    pub fn t_hat(&self) -> f64 {
        self.params.t_hat()
    }

    /// The current (adaptively derived) parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// How many times this node re-derived its parameters.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |o| hw + o)
    }

    /// Adopts a *flooded* estimate verbatim: another node already holds
    /// this value, so matching it exactly converges the network.
    fn adopt_flooded(&mut self, candidate: f64) {
        if candidate > self.params.t_hat() {
            self.rederive(candidate);
        }
    }

    /// Adopts a *measured* round trip, growing at least by doubling so the
    /// number of parameter changes stays logarithmic in `𝒯/𝒯̂₀`.
    fn adopt_measured(&mut self, rtt_upper: f64) {
        if rtt_upper > self.params.t_hat() {
            self.rederive(rtt_upper.max(2.0 * self.params.t_hat()));
        }
    }

    fn rederive(&mut self, new_t: f64) {
        self.params =
            Params::recommended(self.epsilon_hat, new_t).expect("adapted parameters remain valid");
        self.adaptations += 1;
    }

    /// Sends per-neighbour probe messages (each carries that link's seq).
    fn broadcast_probes(&mut self, ctx: &mut Context<'_, AdaptiveMsg>) {
        let hw = ctx.hw();
        let logical = self.core.logical_value(hw);
        let lmax = self.lmax_value(hw);
        let t_hat = self.params.t_hat();
        self.sends += 1;
        let neighbors: Vec<NodeId> = ctx.neighbors().to_vec();
        for w in neighbors {
            let link = self.links.entry(w).or_default();
            link.next_seq += 1;
            let seq = link.next_seq;
            link.in_flight.push((seq, hw));
            // Keep the in-flight window small; dropping stale unanswered
            // probes is safe (closing them could only grow the estimate,
            // and later probes will measure the same links again).
            if link.in_flight.len() > 32 {
                link.in_flight.remove(0);
            }
            ctx.send(
                w,
                AdaptiveMsg {
                    logical,
                    lmax,
                    t_hat,
                    kind: MsgKind::Probe { seq },
                },
            );
        }
    }

    /// Broadcasts a plain (unprobed) sync message — used for estimate
    /// forwards, which must not trigger ack storms.
    fn broadcast_plain(&mut self, ctx: &mut Context<'_, AdaptiveMsg>) {
        let hw = ctx.hw();
        self.sends += 1;
        ctx.send_all(AdaptiveMsg {
            logical: self.core.logical_value(hw),
            lmax: self.lmax_value(hw),
            t_hat: self.params.t_hat(),
            kind: MsgKind::Plain,
        });
    }

    fn schedule_send(&mut self, ctx: &mut Context<'_, AdaptiveMsg>) {
        ctx.set_timer(Self::SEND_TIMER, ctx.hw() + self.params.h0());
    }
}

impl Protocol for AdaptiveAOpt {
    type Msg = AdaptiveMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AdaptiveMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        self.broadcast_probes(ctx);
        self.schedule_send(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, AdaptiveMsg>, from: NodeId, msg: AdaptiveMsg) {
        let hw = ctx.hw();
        // --- Adaptive machinery: flooded estimate + round-trip closure. ---
        self.adopt_flooded(msg.t_hat);
        match msg.kind {
            MsgKind::Probe { seq } => {
                // Acknowledge immediately; the ack carries our sync fields
                // too (they are nearly free) but is never answered itself.
                ctx.send(
                    from,
                    AdaptiveMsg {
                        logical: self.core.logical_value(hw),
                        lmax: self.lmax_value(hw),
                        t_hat: self.params.t_hat(),
                        kind: MsgKind::Ack { of: seq },
                    },
                );
            }
            MsgKind::Ack { of } => {
                let link = self.links.entry(from).or_default();
                if let Some(pos) = link.in_flight.iter().position(|&(s, _)| s == of) {
                    let (_, sent_hw) = link.in_flight[pos];
                    link.in_flight.drain(..=pos);
                    let rtt_real_upper = (hw - sent_hw) / (1.0 - self.epsilon_hat);
                    // A single delay is at most the round trip containing it.
                    self.adopt_measured(rtt_real_upper);
                }
            }
            MsgKind::Plain => {}
        }
        // --- Plain A^opt from here on. ---
        if adopts(msg.lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(msg.lmax - hw);
            self.broadcast_plain(ctx);
            self.schedule_send(ctx);
        }
        self.core.record_estimate(from, msg.logical, hw);
        let lmax = self.lmax_value(hw);
        self.core
            .set_clock_rate(ctx, self.params.kappa(), self.params.mu(), lmax);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AdaptiveMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast_probes(ctx);
                self.schedule_send(ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{rates, Engine, UniformDelay};
    use gcs_time::DriftBounds;

    #[test]
    fn t_hat_converges_to_an_o_t_upper_bound() {
        let eps = 0.02;
        let t_true = 0.4;
        let n = 5;
        let g = topology::path(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(t_true, 9))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(120.0);
        for v in 0..n {
            let t_hat = engine.protocol(NodeId(v)).t_hat();
            // Upper bound on 2𝒯 after hardware-rate conversion, possibly
            // doubled once more by the doubling rule.
            assert!(
                t_hat <= 4.2 * t_true / (1.0 - eps),
                "node {v}: 𝒯̂ = {t_hat} overshoots O(𝒯)"
            );
            // Large enough to have seen real round trips.
            assert!(t_hat >= 0.05, "node {v}: 𝒯̂ = {t_hat} still tiny");
        }
    }

    #[test]
    fn adaptation_count_is_logarithmic() {
        // Doubling: from 0.001 to ~1.6, at most ~12 adaptations.
        let eps = 0.02;
        let n = 4;
        let g = topology::cycle(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(0.4, 4))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(150.0);
        for v in 0..n {
            let a = engine.protocol(NodeId(v)).adaptations();
            assert!(a >= 1, "node {v} never adapted");
            assert!(a <= 14, "node {v} adapted {a} times — not logarithmic");
        }
    }

    #[test]
    fn estimates_converge_across_the_network() {
        // The flooded maximum makes all nodes agree (within one doubling).
        let eps = 0.02;
        let n = 6;
        let g = topology::path(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.01); n])
            .delay_model(UniformDelay::new(0.3, 5))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(200.0);
        let t_hats: Vec<f64> = (0..n).map(|v| engine.protocol(NodeId(v)).t_hat()).collect();
        let max = t_hats.iter().cloned().fold(f64::MIN, f64::max);
        let min = t_hats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min <= 2.0 + 1e-9, "estimates diverged: {t_hats:?}");
    }

    #[test]
    fn synchronizes_after_convergence() {
        let eps = 0.02;
        let t_true = 0.25;
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(eps).unwrap();
        let schedules = rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(t_true, 6))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        // Let the estimate converge, then measure skews against the bounds
        // of the *converged* parameters.
        engine.run_until(150.0);
        let converged = *engine.protocol(NodeId(0)).params();
        let mut worst: f64 = 0.0;
        engine.run_until_observed(400.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        assert!(
            worst <= converged.global_skew_bound((n - 1) as u32) + 1e-9,
            "worst {worst} beyond converged bound"
        );
    }
}
