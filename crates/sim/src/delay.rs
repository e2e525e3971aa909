//! Message-delay models.
//!
//! The paper's model lets every message delay vary arbitrarily in `[0, 𝒯]`.
//! A [`DelayModel`] chooses each message's delivery; the engine consults it
//! at send time. Two delivery modes exist:
//!
//! * [`Delivery::After`] — an ordinary real-time delay,
//! * [`Delivery::AtReceiverHw`] — deliver when the *receiver's hardware
//!   clock* reaches a given value. This is the primitive behind the paper's
//!   indistinguishable-execution constructions (Definition 7.1 fixes the
//!   message pattern in terms of the receiver's local time); the engine
//!   keeps such deliveries correct across later rate changes.

use gcs_graph::{Graph, NodeId};
use gcs_time::HardwareClock;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Why a transmission was dropped, for per-cause accounting (the engine
/// keeps separate [`MessageStats`](crate::MessageStats) counters so an
/// injected-fault drop is never confused with a lossy-model drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The delay model itself dropped the message (e.g. [`LossyDelay`]'s
    /// i.i.d. loss).
    Model,
    /// An injected fault dropped the message (the chaos layer's drop,
    /// partition, and crash clauses).
    Fault,
}

impl DropCause {
    /// A short stable label (`model` / `fault`), used by the JSONL event
    /// encoding.
    pub fn label(&self) -> &'static str {
        match self {
            DropCause::Model => "model",
            DropCause::Fault => "fault",
        }
    }
}

/// How a message should be delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// Deliver after the given non-negative real-time delay.
    After(f64),
    /// Deliver when the receiver's hardware clock reaches the given value.
    ///
    /// The receiver must already be initialized, and the value must not lie
    /// in the receiver's past.
    AtReceiverHw(f64),
    /// Drop the message.
    ///
    /// **Beyond the paper's model**, which assumes reliable links; used by
    /// the robustness extension ([`LossyDelay`]) and the chaos fault layer
    /// to probe how gracefully the algorithms degrade when that assumption
    /// is broken. The cause keeps the two attributions separate.
    Drop(DropCause),
    /// Deliver the message **twice**: the original copy after `delay` and a
    /// fault-injected duplicate after `echo` (both real-time delays,
    /// `delay <= echo`).
    ///
    /// **Beyond the paper's model**: the chaos layer's duplication fault.
    /// The duplicate counts as its own transmission and delivery in
    /// [`MessageStats`](crate::MessageStats), plus one `duplicated` tick.
    AfterEcho {
        /// Delay of the original copy.
        delay: f64,
        /// Delay of the duplicated copy (`>= delay`).
        echo: f64,
    },
}

/// A hardware-clock reading supplied either precomputed or on demand.
///
/// The engine hands [`DelayCtx`] a clock reference instead of a reading, so
/// delay models that never consult `src_hw`/`dst_hw` (the common case —
/// constant, uniform, wavefront, …) cost zero clock evaluations per
/// transmit.
#[derive(Debug, Clone, Copy)]
enum HwSource<'a> {
    /// An already-evaluated reading.
    Reading(f64),
    /// Evaluate the clock when (and only when) the reading is requested.
    Clock(&'a HardwareClock),
}

impl HwSource<'_> {
    fn resolve(&self, now: f64) -> f64 {
        match self {
            HwSource::Reading(hw) => *hw,
            HwSource::Clock(clock) => clock.value_at(now),
        }
    }
}

/// Information available to a [`DelayModel`] when it prices a message.
#[derive(Debug, Clone, Copy)]
pub struct DelayCtx<'a> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Real send time.
    ///
    /// Real time is *not* visible to protocols, but the delay model plays
    /// the adversary's role, and the paper's adversary schedules delays with
    /// full knowledge of the execution.
    pub now: f64,
    src_hw: HwSource<'a>,
    dst_hw: HwSource<'a>,
    /// The network graph.
    pub graph: &'a Graph,
}

impl<'a> DelayCtx<'a> {
    /// Creates a context from precomputed hardware readings — for driving a
    /// [`DelayModel`] outside the engine (tests, analysis tools).
    pub fn new(
        src: NodeId,
        dst: NodeId,
        now: f64,
        src_hw: f64,
        dst_hw: f64,
        graph: &'a Graph,
    ) -> Self {
        DelayCtx {
            src,
            dst,
            now,
            src_hw: HwSource::Reading(src_hw),
            dst_hw: HwSource::Reading(dst_hw),
            graph,
        }
    }

    /// Creates a context that evaluates the clocks lazily (engine hot path).
    pub(crate) fn from_clocks(
        src: NodeId,
        dst: NodeId,
        now: f64,
        src_clock: &'a HardwareClock,
        dst_clock: &'a HardwareClock,
        graph: &'a Graph,
    ) -> Self {
        DelayCtx {
            src,
            dst,
            now,
            src_hw: HwSource::Clock(src_clock),
            dst_hw: HwSource::Clock(dst_clock),
            graph,
        }
    }

    /// Sender's hardware-clock reading at send time.
    pub fn src_hw(&self) -> f64 {
        self.src_hw.resolve(self.now)
    }

    /// Receiver's hardware-clock reading at send time (0 if unstarted).
    pub fn dst_hw(&self) -> f64 {
        self.dst_hw.resolve(self.now)
    }
}

/// A lower bound on message delays over a span of time, as answered by
/// [`DelayModel::lookahead_at`].
///
/// Nothing in the engine consumes it; it stays public because the
/// benchmark's traced pass forwards `lookahead_at` through its delay-model
/// wrapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookahead {
    /// Positive lower bound on every delay in the validity span.
    pub floor: f64,
    /// First instant at which the bound expires (`f64::INFINITY` for
    /// time-invariant models).
    pub valid_until: f64,
}

/// Chooses message deliveries. Implementations play the adversary (or a
/// benign randomized environment) of the paper's model.
pub trait DelayModel {
    /// Decides the delivery of a message sent under the given context.
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery;

    /// The delay-uncertainty bound `𝒯` this model respects, if fixed.
    ///
    /// Used by analysis code to compare observed skews against bounds; a
    /// model returning `None` makes no static promise.
    fn uncertainty(&self) -> Option<f64> {
        None
    }

    /// A static lower bound on every delay this model will ever produce,
    /// or `None` if the model makes no promise (it may return `0` or use
    /// [`Delivery::AtReceiverHw`]).
    ///
    /// `Some(0.0)` is a valid answer ("delays are bounded below by zero").
    /// The engine does not read it; it only feeds
    /// [`DelayModel::lookahead_at`]. The default is `None`.
    fn min_delay(&self) -> Option<f64> {
        None
    }

    /// The delay floor in effect at time `now`, derived from
    /// [`DelayModel::min_delay`]: a strictly positive static floor holds
    /// forever.
    ///
    /// The engine never calls this; it stays because the benchmark's traced
    /// pass forwards it through its delay-model wrapper.
    fn lookahead_at(&self, now: f64) -> Option<Lookahead> {
        let _ = now;
        self.min_delay()
            .filter(|floor| *floor > 0.0)
            .map(|floor| Lookahead {
                floor,
                valid_until: f64::INFINITY,
            })
    }
}

/// Every message takes exactly `delay` time.
///
/// With equal constant delays the system looks synchronous; this is the
/// benign baseline environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantDelay {
    delay: f64,
}

impl ConstantDelay {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or non-finite.
    pub fn new(delay: f64) -> Self {
        assert!(delay.is_finite() && delay >= 0.0, "invalid delay {delay}");
        ConstantDelay { delay }
    }
}

impl DelayModel for ConstantDelay {
    fn delivery(&mut self, _ctx: &DelayCtx<'_>) -> Delivery {
        Delivery::After(self.delay)
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.delay)
    }

    fn min_delay(&self) -> Option<f64> {
        Some(self.delay)
    }
}

/// Delays drawn i.i.d. uniformly from `[0, 𝒯]`.
///
/// The "random delays" regime of wireless sensor networks discussed in the
/// paper's related work: observed skews under this model are far below the
/// worst case (experiment F11).
#[derive(Debug, Clone)]
pub struct UniformDelay {
    t_max: f64,
    rng: ChaCha8Rng,
}

impl UniformDelay {
    /// Creates the model with uncertainty `t_max` and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `t_max` is negative or non-finite.
    pub fn new(t_max: f64, seed: u64) -> Self {
        assert!(t_max.is_finite() && t_max >= 0.0, "invalid 𝒯 {t_max}");
        use rand::SeedableRng;
        UniformDelay {
            t_max,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for UniformDelay {
    fn delivery(&mut self, _ctx: &DelayCtx<'_>) -> Delivery {
        Delivery::After(self.rng.gen_range(0.0..=self.t_max))
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.t_max)
    }
}

/// Direction-dependent delays relative to a reference node, the shape used
/// by the paper's execution `E₁` (proof of Theorem 7.2): messages moving
/// *toward* the reference node take `toward`, messages moving away (or
/// sideways) take `away`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionalDelay {
    dist: Vec<u32>,
    toward: f64,
    away: f64,
    t_max: f64,
}

impl DirectionalDelay {
    /// Creates the model with distances measured from `reference` in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if either delay is negative or non-finite.
    pub fn new(graph: &Graph, reference: NodeId, toward: f64, away: f64) -> Self {
        assert!(
            toward.is_finite() && toward >= 0.0,
            "invalid delay {toward}"
        );
        assert!(away.is_finite() && away >= 0.0, "invalid delay {away}");
        DirectionalDelay {
            dist: graph.distances_from(reference),
            toward,
            away,
            t_max: toward.max(away),
        }
    }
}

impl DelayModel for DirectionalDelay {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let toward_ref = self.dist[ctx.dst.index()] < self.dist[ctx.src.index()];
        Delivery::After(if toward_ref { self.toward } else { self.away })
    }

    fn uncertainty(&self) -> Option<f64> {
        Some(self.t_max)
    }

    fn min_delay(&self) -> Option<f64> {
        // Pure function of the edge direction; the floor is the smaller leg.
        // The paper's `E₁` sets one leg to 0, so this usually stays
        // sequential — correctly so, since 0-delay messages defeat any
        // window width.
        Some(self.toward.min(self.away))
    }
}

/// Wraps any delay model with i.i.d. message loss.
///
/// **Beyond the paper's model** (its links are reliable): the robustness
/// extension X1 uses this to measure how gracefully the algorithms degrade
/// under loss — `A^opt`'s periodic broadcasts make it self-healing, at the
/// cost of staler estimates.
#[derive(Debug, Clone)]
pub struct LossyDelay<D> {
    inner: D,
    loss: f64,
    rng: ChaCha8Rng,
}

impl<D: DelayModel> LossyDelay<D> {
    /// Wraps `inner`, dropping each transmission independently with
    /// probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics unless `loss ∈ [0, 1)`.
    pub fn new(inner: D, loss: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss), "invalid loss rate {loss}");
        use rand::SeedableRng;
        LossyDelay {
            inner,
            loss,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: DelayModel> DelayModel for LossyDelay<D> {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        if self.loss > 0.0 && self.rng.gen_bool(self.loss) {
            Delivery::Drop(DropCause::Model)
        } else {
            self.inner.delivery(ctx)
        }
    }

    fn uncertainty(&self) -> Option<f64> {
        self.inner.uncertainty()
    }
}

/// A delay model defined by a closure — the escape hatch with which the
/// adversary crate implements the paper's bespoke execution constructions.
#[derive(Debug, Clone)]
pub struct FnDelay<F> {
    f: F,
    t_max: Option<f64>,
}

impl<F> FnDelay<F>
where
    F: FnMut(&DelayCtx<'_>) -> Delivery,
{
    /// Wraps `f`; `t_max` is the advertised uncertainty bound (if any).
    pub fn new(f: F, t_max: Option<f64>) -> Self {
        FnDelay { f, t_max }
    }
}

impl<F> DelayModel for FnDelay<F>
where
    F: FnMut(&DelayCtx<'_>) -> Delivery,
{
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        (self.f)(ctx)
    }

    fn uncertainty(&self) -> Option<f64> {
        self.t_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;

    fn ctx<'a>(graph: &'a Graph, src: usize, dst: usize) -> DelayCtx<'a> {
        DelayCtx::new(NodeId(src), NodeId(dst), 1.0, 1.0, 1.0, graph)
    }

    #[test]
    fn constant_delay_is_constant() {
        let g = topology::path(2);
        let mut m = ConstantDelay::new(0.25);
        assert_eq!(m.delivery(&ctx(&g, 0, 1)), Delivery::After(0.25));
        assert_eq!(m.uncertainty(), Some(0.25));
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn constant_delay_rejects_negative() {
        let _ = ConstantDelay::new(-1.0);
    }

    #[test]
    fn uniform_delay_is_seeded_and_in_range() {
        let g = topology::path(2);
        let mut a = UniformDelay::new(0.5, 9);
        let mut b = UniformDelay::new(0.5, 9);
        for _ in 0..100 {
            let da = a.delivery(&ctx(&g, 0, 1));
            let db = b.delivery(&ctx(&g, 0, 1));
            assert_eq!(da, db);
            match da {
                Delivery::After(d) => assert!((0.0..=0.5).contains(&d)),
                _ => panic!("uniform model only uses After"),
            }
        }
    }

    #[test]
    fn directional_delay_distinguishes_direction() {
        let g = topology::path(3);
        let mut m = DirectionalDelay::new(&g, NodeId(0), 0.5, 0.0);
        // 2 -> 1 moves toward node 0.
        assert_eq!(m.delivery(&ctx(&g, 2, 1)), Delivery::After(0.5));
        // 1 -> 2 moves away.
        assert_eq!(m.delivery(&ctx(&g, 1, 2)), Delivery::After(0.0));
        assert_eq!(m.uncertainty(), Some(0.5));
    }

    #[test]
    fn lossy_delay_drops_at_the_configured_rate() {
        let g = topology::path(2);
        let mut m = LossyDelay::new(ConstantDelay::new(0.1), 0.3, 5);
        let mut dropped = 0;
        let trials = 2000;
        for _ in 0..trials {
            if m.delivery(&ctx(&g, 0, 1)) == Delivery::Drop(DropCause::Model) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed loss rate {rate}");
        assert_eq!(m.uncertainty(), Some(0.1));
    }

    #[test]
    fn lossy_delay_with_zero_loss_is_transparent() {
        let g = topology::path(2);
        let mut m = LossyDelay::new(ConstantDelay::new(0.2), 0.0, 5);
        for _ in 0..50 {
            assert_eq!(m.delivery(&ctx(&g, 0, 1)), Delivery::After(0.2));
        }
    }

    #[test]
    #[should_panic(expected = "invalid loss rate")]
    fn lossy_delay_rejects_certain_loss() {
        let _ = LossyDelay::new(ConstantDelay::new(0.1), 1.0, 5);
    }

    #[test]
    fn min_delay_reports_each_static_floor() {
        let g = topology::path(3);
        assert_eq!(ConstantDelay::new(0.25).min_delay(), Some(0.25));
        assert_eq!(ConstantDelay::new(0.0).min_delay(), Some(0.0));
        // The smaller leg bounds a directional model; the paper's E₁ shape
        // (one leg at 0) truthfully reports 0.
        assert_eq!(
            DirectionalDelay::new(&g, NodeId(0), 0.5, 0.2).min_delay(),
            Some(0.2)
        );
        assert_eq!(
            DirectionalDelay::new(&g, NodeId(0), 0.5, 0.0).min_delay(),
            Some(0.0)
        );
        // Randomized and closure models make no promise.
        assert_eq!(UniformDelay::new(0.5, 9).min_delay(), None);
        assert_eq!(
            LossyDelay::new(ConstantDelay::new(0.2), 0.3, 5).min_delay(),
            None
        );
        let f = FnDelay::new(
            |c: &DelayCtx<'_>| Delivery::AtReceiverHw(c.src_hw() + 1.0),
            Some(1.0),
        );
        assert_eq!(f.min_delay(), None);
    }

    #[test]
    fn fn_delay_invokes_closure() {
        let g = topology::path(2);
        let mut m = FnDelay::new(
            |c: &DelayCtx<'_>| Delivery::AtReceiverHw(c.src_hw() + 1.0),
            Some(1.0),
        );
        assert_eq!(m.delivery(&ctx(&g, 0, 1)), Delivery::AtReceiverHw(2.0));
        assert_eq!(m.uncertainty(), Some(1.0));
    }
}
