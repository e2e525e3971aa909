//! Discretized message encoding with `O(log 1/μ̂)` bit complexity
//! (paper Section 6.2).
//!
//! Instead of unbounded real clock values, nodes transmit per broadcast:
//!
//! * `dl` — the progress of their logical clock since the previous
//!   broadcast, rounded *down* to multiples of the quantum `q = μ·H₀` and
//!   capped at `⌈(1 + μ)/μ⌉` steps (the most the clock can gain in one `H₀`
//!   period), needing `O(log 1/μ)` bits;
//! * `dmax` — how many whole `H₀` units their announced maximum-clock
//!   estimate advanced, capped at `⌈(1 + ε̂)(1 + μ)/(1 − ε̂)⌉` units per
//!   broadcast, needing `O(1)` bits. A larger backlog is carried over to
//!   subsequent broadcasts — the paper's argument is that `L^max` itself
//!   grows at most at rate `1 + ε`, so a capped-but-persistent update stream
//!   never falls behind in the executions that matter for Theorem 5.5.
//!
//! Receivers reconstruct cumulative values (all clocks start at 0, and
//! links are reliable), so rounding errors never accumulate: the receiver's
//! estimate is the sender's true value rounded down by less than one
//! quantum. The quantization is absorbed by enlarging `κ` by two quanta.
//!
//! **FIFO requirement.** Differential encoding requires per-link in-order
//! delivery (in a real deployment the link layer provides this; sequence
//! numbers travel for free). Use FIFO-preserving delay models (e.g.
//! [`gcs_sim::ConstantDelay`]); out-of-order delivery panics.

use std::collections::HashMap;

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, next_multiple, AOptCore};
use crate::Params;

/// The quantized differential message of [`DiscreteAOpt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscreteMsg {
    /// Logical-clock progress since the previous broadcast, in quanta
    /// `q = μ·H₀`.
    pub dl: u32,
    /// Announced maximum-estimate progress, in `H₀` units.
    pub dmax: u32,
    /// Broadcast sequence number (free in a FIFO link layer; not counted
    /// toward the bit complexity).
    pub seq: u64,
}

/// Per-neighbour decoding state (the estimate itself lives in the
/// [`AOptCore`] table).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Reconstruction {
    /// Reconstructed cumulative logical value of the sender.
    cum_logical: f64,
    /// Reconstructed cumulative announced `H₀` units.
    cum_units: u64,
    /// Next expected sequence number.
    next_seq: u64,
}

/// `A^opt` with the paper's low-bit-complexity message encoding.
///
/// # Example
///
/// ```
/// use gcs_core::{DiscreteAOpt, Params};
///
/// let p = Params::recommended(1e-3, 1.0)?;
/// // ~ log2(1/μ) + O(1) bits per message:
/// assert!(DiscreteAOpt::bits_per_message(&p) <= 10);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiscreteAOpt {
    params: Params,
    /// Effective κ: the configured κ plus two quanta of rounding slack.
    kappa_eff: f64,
    core: AOptCore,
    lmax_offset: Option<f64>,
    /// `H₀` units already announced to neighbours.
    announced_units: u64,
    /// Cumulative logical value already conveyed to neighbours.
    sent_logical: f64,
    seq: u64,
    neighbors: HashMap<NodeId, Reconstruction>,
    sends: u64,
}

impl DiscreteAOpt {
    /// Timer slot for the periodic broadcast.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;

    /// Creates a node. `κ` is internally enlarged by `2q = 2μH₀` to absorb
    /// the quantization, per the paper's remark.
    pub fn new(params: Params) -> Self {
        DiscreteAOpt {
            params,
            kappa_eff: params.kappa() + 2.0 * params.mu() * params.h0(),
            core: AOptCore::new(),
            lmax_offset: None,
            announced_units: 0,
            sent_logical: 0.0,
            seq: 0,
            neighbors: HashMap::new(),
            sends: 0,
        }
    }

    /// The logical quantum `q = μ·H₀`.
    pub fn quantum(&self) -> f64 {
        self.params.mu() * self.params.h0()
    }

    /// Maximum `dl` steps per broadcast: `⌈(1 + μ)/μ⌉`.
    pub fn dl_cap(params: &Params) -> u32 {
        ((1.0 + params.mu()) / params.mu()).ceil() as u32
    }

    /// Maximum `dmax` units per broadcast:
    /// `⌈(1 + ε̂)(1 + μ)/(1 − ε̂)⌉`.
    pub fn dmax_cap(params: &Params) -> u32 {
        ((1.0 + params.epsilon_hat()) * (1.0 + params.mu()) / (1.0 - params.epsilon_hat())).ceil()
            as u32
    }

    /// Bits needed per message: `⌈log₂(dl_cap + 1)⌉ + ⌈log₂(dmax_cap + 1)⌉`.
    pub fn bits_per_message(params: &Params) -> u32 {
        let bits = |cap: u32| 32 - (cap + 1).leading_zeros();
        bits(Self::dl_cap(params)) + bits(Self::dmax_cap(params))
    }

    /// Number of broadcasts performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |o| hw + o)
    }

    /// Re-arms the Algorithm 1 send trigger for the next multiple of `H₀`
    /// not yet reached by `L_v^max` (same trigger as base `A^opt`).
    fn schedule_send(&mut self, ctx: &mut Context<'_, DiscreteMsg>) {
        let offset = self.lmax_offset.expect("scheduled only after start");
        let (_, at) = next_multiple(ctx.hw(), offset, self.params.h0());
        ctx.set_timer(Self::SEND_TIMER, at);
    }

    fn broadcast(&mut self, ctx: &mut Context<'_, DiscreteMsg>) {
        let hw = ctx.hw();
        let q = self.quantum();
        let logical = self.core.logical_value(hw);
        let dl_raw = ((logical - self.sent_logical) / q).floor().max(0.0) as u32;
        let dl = dl_raw.min(Self::dl_cap(&self.params));
        self.sent_logical += dl as f64 * q;

        let h0 = self.params.h0();
        let available_units = (self.lmax_value(hw) / h0 + 1e-9).floor().max(0.0) as u64;
        let backlog = available_units.saturating_sub(self.announced_units);
        let dmax = backlog.min(Self::dmax_cap(&self.params) as u64) as u32;
        self.announced_units += dmax as u64;

        let seq = self.seq;
        self.seq += 1;
        self.sends += 1;
        ctx.send_all(DiscreteMsg { dl, dmax, seq });
    }
}

impl Protocol for DiscreteAOpt {
    type Msg = DiscreteMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DiscreteMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        self.broadcast(ctx);
        self.schedule_send(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DiscreteMsg>, from: NodeId, msg: DiscreteMsg) {
        let hw = ctx.hw();
        let q = self.quantum();
        let h0 = self.params.h0();
        let rec = self.neighbors.entry(from).or_default();
        assert_eq!(
            msg.seq, rec.next_seq,
            "DiscreteAOpt requires FIFO links (got seq {} from {from}, expected {})",
            msg.seq, rec.next_seq
        );
        rec.next_seq += 1;
        rec.cum_logical += msg.dl as f64 * q;
        rec.cum_units += msg.dmax as u64;
        let candidate_lmax = rec.cum_units as f64 * h0;
        // The reconstructed value is monotone, so it always refreshes the
        // estimate (it plays the role of both L_w and the ℓ_v^w guard).
        self.core.refresh_estimate(from, rec.cum_logical, hw);
        if adopts(candidate_lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(candidate_lmax - hw);
            // Forward immediately, as in base A^opt — but the *encoded*
            // increment per message stays capped; any excess is carried to
            // subsequent broadcasts (paper Section 6.2).
            self.broadcast(ctx);
            self.schedule_send(ctx);
        }
        let lmax = self.lmax_value(hw);
        self.core
            .set_clock_rate(ctx, self.kappa_eff, self.params.mu(), lmax);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DiscreteMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                self.broadcast(ctx);
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
    use gcs_sim::{ConstantDelay, Engine};
    use gcs_time::RateSchedule;

    fn params() -> Params {
        Params::recommended(0.01, 0.1).unwrap()
    }

    #[test]
    fn bit_complexity_is_logarithmic_in_one_over_mu() {
        // μ ≈ 14ε̂: halving ε̂ adds about one bit to the dl field.
        let coarse = Params::recommended(0.01, 1.0).unwrap();
        let fine = Params::recommended(0.0001, 1.0).unwrap();
        let b_coarse = DiscreteAOpt::bits_per_message(&coarse);
        let b_fine = DiscreteAOpt::bits_per_message(&fine);
        assert!(b_fine > b_coarse);
        assert!(b_fine <= b_coarse + 9, "growth must be logarithmic");
        assert!(b_coarse <= 8);
    }

    #[test]
    fn caps_match_formulas() {
        let p = params();
        assert_eq!(
            DiscreteAOpt::dl_cap(&p),
            ((1.0 + p.mu()) / p.mu()).ceil() as u32
        );
        assert!(DiscreteAOpt::dmax_cap(&p) >= 1);
    }

    #[test]
    fn synchronizes_with_quantized_messages() {
        let p = params();
        let n = 5;
        let g = topology::path(n);
        let schedules = vec![
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); n])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(300.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        // Periodic-only propagation costs O(εDH₀) extra global skew.
        let slack = 2.0 * 0.01 * (n as f64) * p.h0();
        assert!(
            spread <= p.global_skew_bound((n - 1) as u32) + slack + 1e-9,
            "spread {spread} too large"
        );
        assert!(spread < 1.0);
    }

    #[test]
    fn reconstruction_tracks_true_clock_within_quantum_plus_staleness() {
        let p = params();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); 2])
            .delay_model(ConstantDelay::new(0.02))
            .build();
        engine.wake_all_at(0.0);
        let q = p.mu() * p.h0();
        engine.run_until_observed(100.0, |e| {
            let hw0 = e.hardware_value(NodeId(0));
            let node0 = e.protocol(NodeId(0));
            if let Some(est) = node0.core.estimate(NodeId(1), hw0) {
                let actual = e.logical_value(NodeId(1));
                // Conservative: estimate never overtakes the truth…
                assert!(est <= actual + 1e-9);
                // …and is fresh to within delay + send period + quanta.
                let staleness_allowance = (1.0 + p.mu()) * (0.02 + p.h0() / 0.99) + 2.0 * q + 0.1;
                assert!(actual - est <= staleness_allowance);
            }
        });
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    fn out_of_order_delivery_is_rejected() {
        // A delay model that reverses the order of the first two messages.
        use gcs_sim::{DelayCtx, Delivery, FnDelay};
        let mut count = 0;
        let delay = FnDelay::new(
            move |_: &DelayCtx<'_>| {
                count += 1;
                // First transmission slow, second fast: guaranteed reorder.
                if count == 1 {
                    Delivery::After(1.0)
                } else {
                    Delivery::After(0.0)
                }
            },
            Some(1.0),
        );
        let p = params();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); 2])
            .delay_model(delay)
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(5.0);
    }
}
