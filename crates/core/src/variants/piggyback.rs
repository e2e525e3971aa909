//! Piggybacking sync information on application traffic (paper Section 1).
//!
//! The paper motivates its low bit complexity with piggybacking: the few
//! bits of `⟨L_v, L_v^max⟩` "can be included in (or appended to) any message
//! sent by another application". This variant simulates exactly that: the
//! node's application emits messages on its own schedule, every one of them
//! carries the sync fields for free, and a *dedicated* sync message is sent
//! only when Algorithm 1's trigger fires without recent application cover.
//!
//! The sync guarantees are unaffected — neighbours receive `⟨L, L^max⟩` at
//! least as often as under plain `A^opt` — while the dedicated-message rate
//! falls toward zero once the application chatter is denser than `1/H₀`
//! (experiment T3).

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};

use crate::aopt_core::{self, adopts, next_multiple, AOptCore};
use crate::Params;

/// A message of the piggybacking variant: the application payload slot plus
/// the free-riding sync fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiggybackMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
    /// Sender's maximum-clock estimate at send time.
    pub lmax: f64,
    /// Whether this message existed for the application's sake (the sync
    /// fields rode along for free) or was a dedicated sync message.
    pub is_app: bool,
}

/// `A^opt` with its messages piggybacked on application traffic.
///
/// # Example
///
/// ```
/// use gcs_core::{Params, PiggybackAOpt};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// // Application chatter every ~0.5 hardware units on average.
/// let node = PiggybackAOpt::new(p, 0.5, 7);
/// assert_eq!(node.dedicated_sends(), 0);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PiggybackAOpt {
    params: Params,
    core: AOptCore,
    lmax_offset: Option<f64>,
    next_multiple: u64,
    /// Mean application inter-send gap in hardware units.
    app_mean_gap: f64,
    /// xorshift64 state for the application jitter (deterministic per seed).
    rng: u64,
    last_outgoing_hw: f64,
    /// Hardware reading at which the next application message departs.
    next_app_hw: f64,
    dedicated: u64,
    piggybacked: u64,
}

impl PiggybackAOpt {
    /// Timer slot for the Algorithm 1 send trigger.
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = aopt_core::RATE_TIMER;
    /// Timer slot for the application's own traffic.
    pub const APP_TIMER: TimerId = TimerId(2);

    /// Creates a node whose application sends roughly every `app_mean_gap`
    /// hardware units (jittered ±50%, deterministically from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `app_mean_gap` is not positive and finite.
    pub fn new(params: Params, app_mean_gap: f64, seed: u64) -> Self {
        assert!(
            app_mean_gap.is_finite() && app_mean_gap > 0.0,
            "invalid application gap {app_mean_gap}"
        );
        PiggybackAOpt {
            params,
            core: AOptCore::new(),
            lmax_offset: None,
            next_multiple: 1,
            app_mean_gap,
            rng: seed | 1,
            last_outgoing_hw: f64::NEG_INFINITY,
            next_app_hw: f64::INFINITY,
            dedicated: 0,
            piggybacked: 0,
        }
    }

    /// Dedicated (sync-only) broadcasts so far.
    pub fn dedicated_sends(&self) -> u64 {
        self.dedicated
    }

    /// Application broadcasts that carried the sync fields for free.
    pub fn piggybacked_sends(&self) -> u64 {
        self.piggybacked
    }

    /// The maximum-clock estimate at hardware reading `hw`.
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax_offset.map_or(0.0, |o| hw + o)
    }

    fn next_app_gap(&mut self) -> f64 {
        // xorshift64: cheap, deterministic, good enough for jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let frac = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        self.app_mean_gap * (0.5 + frac)
    }

    fn send(&mut self, ctx: &mut Context<'_, PiggybackMsg>, is_app: bool, lmax: f64) {
        let hw = ctx.hw();
        self.last_outgoing_hw = hw;
        if is_app {
            self.piggybacked += 1;
        } else {
            self.dedicated += 1;
        }
        ctx.send_all(PiggybackMsg {
            logical: self.core.logical_value(hw),
            lmax,
            is_app,
        });
    }

    fn schedule_send(&mut self, ctx: &mut Context<'_, PiggybackMsg>) {
        let offset = self.lmax_offset.expect("scheduled only after start");
        let (k, at) = next_multiple(ctx.hw(), offset, self.params.h0());
        self.next_multiple = k;
        ctx.set_timer(Self::SEND_TIMER, at);
    }
}

impl Protocol for PiggybackAOpt {
    type Msg = PiggybackMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, PiggybackMsg>) {
        let hw = ctx.hw();
        self.core.logical.start(hw);
        self.lmax_offset = Some(0.0 - hw);
        self.send(ctx, false, 0.0);
        self.schedule_send(ctx);
        let gap = self.next_app_gap();
        self.next_app_hw = hw + gap;
        ctx.set_timer(Self::APP_TIMER, hw + gap);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PiggybackMsg>, from: NodeId, msg: PiggybackMsg) {
        let hw = ctx.hw();
        if adopts(msg.lmax, self.lmax_value(hw)) {
            self.lmax_offset = Some(msg.lmax - hw);
            // Unlike plain A^opt, incoming estimates are not confined to the
            // H₀ grid (application messages carry continuous values), so
            // forwarding every adoption would storm. Forward dedicated only
            // when the adoption crosses a new H₀ multiple — plain A^opt's
            // effective forwarding rate — and skip even that when an
            // application message departs within the next H₀ anyway (the
            // deferral costs 𝒪(H₀) of propagation latency per hop, the same
            // trade-off as the Section 6.1 minimum-gap variant).
            let k_new = (msg.lmax / self.params.h0() + 1e-9).floor() as u64;
            let app_cover = self.next_app_hw - hw <= self.params.h0();
            if k_new >= self.next_multiple && !app_cover {
                self.send(ctx, false, msg.lmax);
            }
            self.schedule_send(ctx);
        }
        self.core.record_estimate(from, msg.logical, hw);
        let lmax = self.lmax_value(hw);
        self.core
            .set_clock_rate(ctx, self.params.kappa(), self.params.mu(), lmax);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PiggybackMsg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                let hw = ctx.hw();
                let lmax = self.next_multiple as f64 * self.params.h0();
                // Skip the dedicated send if an application message carried
                // the sync fields recently or will do so shortly.
                let covered = hw - self.last_outgoing_hw < self.params.h0()
                    || self.next_app_hw - hw <= self.params.h0();
                if !covered {
                    self.send(ctx, false, lmax);
                }
                self.schedule_send(ctx);
            }
            Self::RATE_TIMER => self.core.logical.set_multiplier(ctx.hw(), 1.0),
            Self::APP_TIMER => {
                let hw = ctx.hw();
                let lmax = self.lmax_value(hw);
                self.send(ctx, true, lmax);
                let gap = self.next_app_gap();
                self.next_app_hw = hw + gap;
                ctx.set_timer(Self::APP_TIMER, hw + gap);
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
    use gcs_sim::{ConstantDelay, Engine};
    use gcs_time::DriftBounds;

    fn params() -> Params {
        Params::recommended(0.02, 0.1).unwrap()
    }

    fn run(app_gap: f64) -> Engine<PiggybackAOpt, ConstantDelay> {
        let p = params();
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let nodes: Vec<PiggybackAOpt> = (0..n)
            .map(|v| PiggybackAOpt::new(p, app_gap, v as u64 + 1))
            .collect();
        let mut engine = Engine::builder(g)
            .protocols(nodes)
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(150.0);
        engine
    }

    #[test]
    fn dense_app_traffic_suppresses_dedicated_sends() {
        let p = params();
        let engine = run(p.h0() / 4.0); // app 4× denser than 1/H₀
        for v in 0..6 {
            let node = engine.protocol(NodeId(v));
            assert!(
                node.dedicated_sends() * 4 < node.piggybacked_sends(),
                "node {v}: {} dedicated vs {} piggybacked",
                node.dedicated_sends(),
                node.piggybacked_sends()
            );
        }
    }

    #[test]
    fn sparse_app_traffic_keeps_the_sync_heartbeat() {
        let p = params();
        let engine = run(p.h0() * 20.0); // app far sparser than 1/H₀
        for v in 0..6 {
            let node = engine.protocol(NodeId(v));
            // The dedicated heartbeat must carry the protocol.
            assert!(node.dedicated_sends() > node.piggybacked_sends());
        }
    }

    #[test]
    fn synchronization_quality_is_unchanged() {
        let p = params();
        for app_gap in [p.h0() / 4.0, p.h0() * 4.0] {
            let engine = run(app_gap);
            let clocks = engine.logical_values();
            let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
                - clocks.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                spread <= p.global_skew_bound(5) + 1e-9,
                "spread {spread} beyond 𝒢 with app gap {app_gap}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid application gap")]
    fn rejects_bad_gap() {
        let _ = PiggybackAOpt::new(params(), 0.0, 1);
    }
}
