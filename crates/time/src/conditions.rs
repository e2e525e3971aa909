//! Checkers for the paper's correctness conditions on logical clocks.
//!
//! Condition (1) (the *affine linear envelope* of real time):
//! `(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε) t` for all `t`.
//!
//! Condition (2) (bounded progress): there are constants
//! `0 < α ≤ 1 − ε` and `β ≥ 1 + ε` with
//! `α (t' − t) ≤ L_v(t') − L_v(t) ≤ β (t' − t)` for all `t' ≥ t ≥ t_v`.
//!
//! Both checkers decide through the [slack rule](crate#one-slack-rule).

use crate::{slack, DriftBounds};

/// The admissible logical-clock progress-rate interval `[α, β]` of the
/// paper's Condition (2).
///
/// For `A^opt`, Corollary 5.3 gives `α = 1 − ε` and `β = (1 + ε)(1 + μ)`.
///
/// # Example
///
/// ```
/// use gcs_time::{DriftBounds, RateEnvelope};
///
/// let eps = DriftBounds::new(1e-3)?;
/// let env = RateEnvelope::for_a_opt(eps, 14.0 * 1e-3);
/// assert!(env.alpha() <= 1.0 - 1e-3);
/// assert!(env.beta() >= 1.0 + 1e-3);
/// # Ok::<(), gcs_time::ScheduleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEnvelope {
    alpha: f64,
    beta: f64,
}

impl RateEnvelope {
    /// Creates an envelope with explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= beta` (`beta` may be `f64::INFINITY` for
    /// jump-capable algorithms).
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= beta,
            "invalid rate envelope [{alpha}, {beta}]"
        );
        RateEnvelope { alpha, beta }
    }

    /// The envelope guaranteed by `A^opt` per Corollary 5.3:
    /// `α = 1 − ε`, `β = (1 + ε)(1 + μ)`.
    pub fn for_a_opt(drift: DriftBounds, mu: f64) -> Self {
        RateEnvelope::new(drift.min_rate(), drift.max_rate() * (1.0 + mu))
    }

    /// Minimum progress rate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maximum progress rate `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The base `b = ⌈2(β − α)/(αε)⌉` of the local-skew lower bound of
    /// Theorem 7.7.
    pub fn lower_bound_base(&self, drift: DriftBounds) -> f64 {
        ((2.0 * (self.beta - self.alpha)) / (self.alpha * drift.epsilon())).ceil()
    }

    /// Condition (2)'s margins on the increment from sample `from` to
    /// sample `to`, each `(t, L(t))`: `(ΔL − αΔt, βΔt − ΔL)`, the second
    /// `+∞` for an unbounded `β`. Negative means too slow or too fast.
    pub fn progress_margins(&self, from: (f64, f64), to: (f64, f64)) -> (f64, f64) {
        let dt = to.0 - from.0;
        let dl = to.1 - from.1;
        let min_margin = dl - self.alpha * dt;
        let max_margin = if self.beta.is_finite() {
            self.beta * dt - dl
        } else {
            f64::INFINITY
        };
        (min_margin, max_margin)
    }

    /// The [`slack`] at `|L₀| + |L₁| + (α + β)|Δt|` (`β` when finite).
    pub fn progress_slack(&self, from: (f64, f64), to: (f64, f64)) -> f64 {
        let beta = Some(self.beta).filter(|b| b.is_finite()).unwrap_or(0.0);
        slack(from.1.abs() + to.1.abs() + (self.alpha + beta) * (to.0 - from.0).abs())
    }

    /// The increment's margins if either is below minus its slack, or NaN.
    #[inline]
    pub fn progress_violation(&self, from: (f64, f64), to: (f64, f64)) -> Option<(f64, f64)> {
        let margins = self.progress_margins(from, to);
        beyond(margins, || self.progress_slack(from, to))
    }
}

/// `margins` if either is below `−slack()` or NaN. The slack is positive,
/// so it is read only for a negative margin.
fn beyond((low, high): (f64, f64), slack: impl FnOnce() -> f64) -> Option<(f64, f64)> {
    let holds = low >= 0.0 && high >= 0.0 || {
        let s = slack();
        low >= -s && high >= -s
    };
    (!holds).then_some((low, high))
}

/// Streaming checker for the envelope Condition (1).
///
/// Feed it samples `(t, L_v(t))`; it verifies
/// `(1 − ε)(t − t_v) − s ≤ L_v(t) ≤ (1 + ε) t + s` at the sample's slack `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeChecker {
    drift: DriftBounds,
    start_time: f64,
}

impl EnvelopeChecker {
    /// Creates a checker for a node initialized at `start_time` under the
    /// given drift bounds.
    pub fn new(drift: DriftBounds, start_time: f64) -> Self {
        EnvelopeChecker { drift, start_time }
    }

    /// The node's initialization time `t_v`.
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// The envelope `((1 − ε)·max(t − t_v, 0), (1 + ε)t)`.
    fn bounds(&self, t: f64) -> (f64, f64) {
        let low = self.drift.min_rate() * (t - self.start_time).max(0.0);
        (low, self.drift.max_rate() * t)
    }

    /// The margins of sample `(t, logical)` against the lower and the
    /// upper envelope (negative means outside), without recording it.
    pub fn margins(&self, t: f64, logical: f64) -> (f64, f64) {
        let (low, high) = self.bounds(t);
        (logical - low, high - logical)
    }

    /// The [`slack`] at `|L|` plus both envelope values.
    pub fn slack(&self, t: f64, logical: f64) -> f64 {
        let (low, high) = self.bounds(t);
        slack(logical.abs() + low.abs() + high.abs())
    }

    /// The sample's margins if either is below minus its slack, or NaN.
    #[inline]
    pub fn violation(&self, t: f64, logical: f64) -> Option<(f64, f64)> {
        beyond(self.margins(t, logical), || self.slack(t, logical))
    }

    /// Whether sample `(t, logical)` satisfies the envelope.
    pub fn observe(&self, t: f64, logical: f64) -> bool {
        self.violation(t, logical).is_none()
    }
}

/// Streaming checker for the progress Condition (2).
///
/// Feed it successive samples `(t, L_v(t))` of one node's logical clock; it
/// verifies `α(t' − t) − s ≤ L(t') − L(t) ≤ β(t' − t) + s` for each
/// consecutive pair at its slack `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressChecker {
    envelope: RateEnvelope,
    last: Option<(f64, f64)>,
}

impl ProgressChecker {
    /// Creates a checker for the given envelope.
    pub fn new(envelope: RateEnvelope) -> Self {
        ProgressChecker {
            envelope,
            last: None,
        }
    }

    /// Records the next sample; returns `false` if the increment from the
    /// previous sample violates the envelope.
    ///
    /// # Panics
    ///
    /// Panics if samples go backwards in time.
    pub fn observe(&mut self, t: f64, logical: f64) -> bool {
        let ok = self.last.is_none_or(|(t0, l0)| {
            assert!(t >= t0, "progress samples must be time-ordered");
            self.envelope
                .progress_violation((t0, l0), (t, logical))
                .is_none()
        });
        self.last = Some((t, logical));
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift() -> DriftBounds {
        DriftBounds::new(0.1).unwrap()
    }

    #[test]
    fn the_slack_outgrows_every_checks_rounding_from_2_pow_0_to_2_pow_60() {
        // Clocks exactly on each bound, computed in two segments as the
        // engine computes a clock across a rate step, in every binade: the
        // checkers must accept them. An absolute 1e-9 alone rejects some
        // from 2²⁴ on, and none below 2²⁰.
        let (m, big_m) = (drift().min_rate(), drift().max_rate());
        let env = RateEnvelope::new(0.9, 1.2);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut prev = slack(0.0);
        assert_eq!(prev, 1e-9);
        for e in 0..=60 {
            let mut floor_fails = 0;
            for _ in 0..400 {
                let t = f64::from(e).exp2() * (1.0 + unit());
                let (t_v, mid) = (t * unit() / 2.0, t * (0.5 + unit() / 2.0));
                let segments = |rate: f64, from: f64| rate * (mid - from) + rate * (t - mid);
                let mut margins = Vec::new();
                // Condition (1): on the lower envelope from a late start,
                // and on the upper one from 0.
                for (start, logical) in [(t_v, segments(m, t_v)), (0.0, segments(big_m, 0.0))] {
                    let c = EnvelopeChecker::new(drift(), start);
                    assert!(c.observe(t, logical), "2^{e}: {:?}", c.margins(t, logical));
                    let (low, high) = c.margins(t, logical);
                    margins.extend([low, high]);
                }
                // Condition (2): an increment at either rate.
                let (t0, l0) = (mid - t * unit() / 4.0, t * (1.0 + unit()));
                for rate in [env.alpha(), env.beta()] {
                    let to = (t, l0 + rate * (mid - t0) + rate * (t - mid));
                    assert!(env.progress_violation((t0, l0), to).is_none(), "2^{e}");
                    let (low, high) = env.progress_margins((t0, l0), to);
                    margins.extend([low, high]);
                }
                floor_fails += margins.iter().filter(|&&x| x < -1e-9).count();
            }
            assert!(e < 24 || floor_fails > 0, "2^{e}: the floor alone held");
            assert!(
                e >= 20 || floor_fails == 0,
                "2^{e}: {floor_fails} past the floor"
            );
            // Non-decreasing, and above the derivation's rounding bound.
            let magnitude = f64::from(e).exp2();
            let u = f64::EPSILON / 2.0;
            assert!(slack(magnitude) >= prev);
            assert!(slack(magnitude) > (2.0 / 17_592_186_044_416.0 + 3.02 * u) * magnitude);
            prev = slack(magnitude);
        }
        // An infinite clock still fails.
        assert_eq!(slack(f64::INFINITY), f64::MAX);
        assert!(!EnvelopeChecker::new(drift(), 0.0).observe(1.0, f64::INFINITY));
    }

    #[test]
    fn envelope_accepts_perfect_clock() {
        let c = EnvelopeChecker::new(drift(), 0.0);
        for i in 0..100 {
            let t = i as f64;
            assert!(c.observe(t, t));
        }
    }

    #[test]
    fn envelope_rejects_too_fast_clock() {
        let c = EnvelopeChecker::new(drift(), 0.0);
        assert!(!c.observe(10.0, 11.5)); // above (1+ε)t = 11
    }

    #[test]
    fn envelope_rejects_too_slow_clock() {
        let c = EnvelopeChecker::new(drift(), 0.0);
        assert!(!c.observe(10.0, 8.5)); // below (1-ε)t = 9
    }

    #[test]
    fn envelope_accounts_for_late_start() {
        let c = EnvelopeChecker::new(drift(), 5.0);
        // At t = 10 a node started at 5 must only reach 0.9 * 5 = 4.5.
        assert!(c.observe(10.0, 4.6));
    }

    #[test]
    fn progress_accepts_within_envelope() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env);
        assert!(c.observe(0.0, 0.0));
        assert!(c.observe(1.0, 1.0));
        assert!(c.observe(3.0, 3.3));
    }

    #[test]
    fn progress_rejects_stalled_clock() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env);
        c.observe(0.0, 0.0);
        assert!(!c.observe(1.0, 0.5));
    }

    #[test]
    fn progress_rejects_jumping_clock() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env);
        c.observe(0.0, 0.0);
        assert!(!c.observe(1.0, 2.0));
    }

    #[test]
    fn infinite_beta_permits_jumps() {
        let env = RateEnvelope::new(0.9, f64::INFINITY);
        let mut c = ProgressChecker::new(env);
        c.observe(0.0, 0.0);
        assert!(c.observe(1.0, 100.0));
    }

    #[test]
    fn a_opt_envelope_matches_corollary_5_3() {
        let eps = DriftBounds::new(0.01).unwrap();
        let env = RateEnvelope::for_a_opt(eps, 0.14);
        assert!((env.alpha() - 0.99).abs() < 1e-12);
        assert!((env.beta() - 1.01 * 1.14).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_base_matches_theorem_7_7() {
        // b = ceil(2(β−α)/(αε))
        let eps = DriftBounds::new(0.1).unwrap();
        let env = RateEnvelope::new(1.0, 1.5);
        assert_eq!(env.lower_bound_base(eps), 10.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate envelope")]
    fn envelope_rejects_reversed_bounds() {
        let _ = RateEnvelope::new(1.2, 0.9);
    }
}
