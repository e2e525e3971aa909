//! Checkers for the paper's correctness conditions on logical clocks.
//!
//! Condition (1) (the *affine linear envelope* of real time):
//! `(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε) t` for all `t`.
//!
//! Condition (2) (bounded progress): there are constants
//! `0 < α ≤ 1 − ε` and `β ≥ 1 + ε` with
//! `α (t' − t) ≤ L_v(t') − L_v(t) ≤ β (t' − t)` for all `t' ≥ t ≥ t_v`.
//!
//! Both checkers take an absolute `f64` tolerance. The online oracles
//! (`gcs_analysis`'s invariant watchdog and legal-state checker) pass
//! 1e-9. An absolute slack is sound only while it exceeds the rounding
//! of the values compared: from clock values L ≥ 2²³ ≈ 8.4·10⁶, one ulp
//! of L (2⁻²⁹ ≈ 1.9·10⁻⁹) is larger than 1e-9, and an ulp-relative
//! tolerance is needed before a run reaches that scale.

use crate::DriftBounds;

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
}

/// Streaming checker for the envelope Condition (1).
///
/// Feed it samples `(t, L_v(t))`; it verifies
/// `(1 − ε)(t − t_v) − tol ≤ L_v(t) ≤ (1 + ε) t + tol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeChecker {
    drift: DriftBounds,
    start_time: f64,
    tolerance: f64,
    worst_low_margin: f64,
    worst_high_margin: f64,
    samples: u64,
}

impl EnvelopeChecker {
    /// Creates a checker for a node initialized at `start_time` under the
    /// given drift bounds, with absolute tolerance `tolerance` for
    /// floating-point slack.
    pub fn new(drift: DriftBounds, start_time: f64, tolerance: f64) -> Self {
        EnvelopeChecker {
            drift,
            start_time,
            tolerance,
            worst_low_margin: f64::INFINITY,
            worst_high_margin: f64::INFINITY,
            samples: 0,
        }
    }

    /// Records a sample; returns `false` if it violates the envelope.
    pub fn observe(&mut self, t: f64, logical: f64) -> bool {
        self.samples += 1;
        let low = self.drift.min_rate() * (t - self.start_time).max(0.0);
        let high = self.drift.max_rate() * t;
        let low_margin = logical - low;
        let high_margin = high - logical;
        self.worst_low_margin = self.worst_low_margin.min(low_margin);
        self.worst_high_margin = self.worst_high_margin.min(high_margin);
        low_margin >= -self.tolerance && high_margin >= -self.tolerance
    }

    /// Whether every sample so far satisfied the envelope.
    pub fn all_ok(&self) -> bool {
        self.samples == 0
            || (self.worst_low_margin >= -self.tolerance
                && self.worst_high_margin >= -self.tolerance)
    }

    /// The smallest slack observed against the lower envelope (negative
    /// means a violation).
    pub fn worst_low_margin(&self) -> f64 {
        self.worst_low_margin
    }

    /// The smallest slack observed against the upper envelope.
    pub fn worst_high_margin(&self) -> f64 {
        self.worst_high_margin
    }

    /// Number of samples observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Streaming checker for the progress Condition (2).
///
/// Feed it successive samples `(t, L_v(t))` of one node's logical clock; it
/// verifies `α(t' − t) − tol ≤ L(t') − L(t) ≤ β(t' − t) + tol` for each
/// consecutive pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressChecker {
    envelope: RateEnvelope,
    tolerance: f64,
    last: Option<(f64, f64)>,
    worst_min_margin: f64,
    worst_max_margin: f64,
    violations: u64,
}

impl ProgressChecker {
    /// Creates a checker for the given envelope with absolute tolerance
    /// `tolerance` per interval.
    pub fn new(envelope: RateEnvelope, tolerance: f64) -> Self {
        ProgressChecker {
            envelope,
            tolerance,
            last: None,
            worst_min_margin: f64::INFINITY,
            worst_max_margin: f64::INFINITY,
            violations: 0,
        }
    }

    /// Records the next sample; returns `false` if the increment from the
    /// previous sample violates the envelope.
    ///
    /// # Panics
    ///
    /// Panics if samples go backwards in time.
    pub fn observe(&mut self, t: f64, logical: f64) -> bool {
        let ok = if let Some((t0, l0)) = self.last {
            assert!(t >= t0, "progress samples must be time-ordered");
            let dt = t - t0;
            let dl = logical - l0;
            let min_margin = dl - self.envelope.alpha() * dt;
            let max_margin = if self.envelope.beta().is_finite() {
                self.envelope.beta() * dt - dl
            } else {
                f64::INFINITY
            };
            self.worst_min_margin = self.worst_min_margin.min(min_margin);
            self.worst_max_margin = self.worst_max_margin.min(max_margin);
            let ok = min_margin >= -self.tolerance && max_margin >= -self.tolerance;
            if !ok {
                self.violations += 1;
            }
            ok
        } else {
            true
        };
        self.last = Some((t, logical));
        ok
    }

    /// Whether every increment so far satisfied the envelope.
    pub fn all_ok(&self) -> bool {
        self.violations == 0
    }

    /// The smallest slack observed against the minimum progress rate.
    pub fn worst_min_margin(&self) -> f64 {
        self.worst_min_margin
    }

    /// The smallest slack observed against the maximum progress rate.
    pub fn worst_max_margin(&self) -> f64 {
        self.worst_max_margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift() -> DriftBounds {
        DriftBounds::new(0.1).unwrap()
    }

    #[test]
    fn the_oracles_absolute_tolerance_outgrows_one_ulp_only_below_2_pow_23() {
        // The 1e-9 the watchdog passes exceeds one ulp of every clock
        // value below 2²³ and falls short of it from 2²³ on.
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1) - x;
        let edge = 23f64.exp2();
        let below = f64::from_bits(edge.to_bits() - 1);
        assert!(ulp(below) < 1e-9);
        assert_eq!(ulp(edge), (-29f64).exp2());
        assert!(ulp(edge) > 1e-9);
    }

    #[test]
    fn envelope_accepts_perfect_clock() {
        let mut c = EnvelopeChecker::new(drift(), 0.0, 1e-9);
        for i in 0..100 {
            let t = i as f64;
            assert!(c.observe(t, t));
        }
        assert!(c.all_ok());
    }

    #[test]
    fn envelope_rejects_too_fast_clock() {
        let mut c = EnvelopeChecker::new(drift(), 0.0, 1e-9);
        assert!(!c.observe(10.0, 11.5)); // above (1+ε)t = 11
        assert!(!c.all_ok());
        assert!(c.worst_high_margin() < 0.0);
    }

    #[test]
    fn envelope_rejects_too_slow_clock() {
        let mut c = EnvelopeChecker::new(drift(), 0.0, 1e-9);
        assert!(!c.observe(10.0, 8.5)); // below (1-ε)t = 9
        assert!(c.worst_low_margin() < 0.0);
    }

    #[test]
    fn envelope_accounts_for_late_start() {
        let mut c = EnvelopeChecker::new(drift(), 5.0, 1e-9);
        // At t = 10 a node started at 5 must only reach 0.9 * 5 = 4.5.
        assert!(c.observe(10.0, 4.6));
        assert!(c.all_ok());
    }

    #[test]
    fn progress_accepts_within_envelope() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env, 1e-9);
        assert!(c.observe(0.0, 0.0));
        assert!(c.observe(1.0, 1.0));
        assert!(c.observe(3.0, 3.3));
        assert!(c.all_ok());
    }

    #[test]
    fn progress_rejects_stalled_clock() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env, 1e-9);
        c.observe(0.0, 0.0);
        assert!(!c.observe(1.0, 0.5));
        assert!(!c.all_ok());
    }

    #[test]
    fn progress_rejects_jumping_clock() {
        let env = RateEnvelope::new(0.9, 1.2);
        let mut c = ProgressChecker::new(env, 1e-9);
        c.observe(0.0, 0.0);
        assert!(!c.observe(1.0, 2.0));
    }

    #[test]
    fn infinite_beta_permits_jumps() {
        let env = RateEnvelope::new(0.9, f64::INFINITY);
        let mut c = ProgressChecker::new(env, 1e-9);
        c.observe(0.0, 0.0);
        assert!(c.observe(1.0, 100.0));
        assert!(c.all_ok());
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
