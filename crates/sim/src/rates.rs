//! Builders for per-node hardware-rate schedules.
//!
//! The paper allows hardware rates to vary arbitrarily in `[1 − ε, 1 + ε]`.
//! These helpers construct the standard environments used by the experiment
//! harness: benign (all nominal), adversarial splits (the rate pattern that
//! builds skew fastest), oscillating rates, and seeded random drift walks.

use gcs_time::{DriftBounds, RateSchedule};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// All nodes run at exactly rate 1 forever.
pub fn nominal(n: usize) -> Vec<RateSchedule> {
    vec![RateSchedule::default(); n]
}

/// All nodes run at the given constant rate.
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub fn constant(n: usize, rate: f64) -> Vec<RateSchedule> {
    vec![RateSchedule::constant(rate).expect("validated by caller contract"); n]
}

/// Maximum-drift split: nodes for which `fast(v)` holds run at `1 + ε`, the
/// rest at `1 − ε`, forever.
///
/// Against two groups split this way, clock skew grows at `2ε` per unit
/// time — the fastest possible divergence, used by the greedy adversaries.
pub fn split(n: usize, drift: DriftBounds, fast: impl Fn(usize) -> bool) -> Vec<RateSchedule> {
    (0..n)
        .map(|v| {
            let rate = if fast(v) {
                drift.max_rate()
            } else {
                drift.min_rate()
            };
            RateSchedule::constant(rate).expect("drift bounds give valid rates")
        })
        .collect()
}

/// A linear rate gradient along node index: node `v` of `n` runs at
/// `1 − ε + 2ε·v/(n−1)` (node 0 slowest, node `n−1` fastest).
///
/// This is the shape of the paper's execution `E₃` (proof of Theorem 7.2),
/// which smears maximal skew along a path so gradually that no node can
/// detect it.
pub fn gradient(n: usize, drift: DriftBounds) -> Vec<RateSchedule> {
    (0..n)
        .map(|v| {
            let frac = if n <= 1 {
                0.0
            } else {
                v as f64 / (n - 1) as f64
            };
            let rate = drift.min_rate() + 2.0 * drift.epsilon() * frac;
            RateSchedule::constant(rate).expect("rates within drift bounds")
        })
        .collect()
}

/// Square-wave rates: each node alternates between `1 + ε` and `1 − ε`
/// every `period`, with odd-indexed nodes in opposite phase.
///
/// # Panics
///
/// Panics if `period <= 0`, `horizon < 0`, or `horizon + period` rounds
/// to `horizon` (the steps would never pass the horizon).
pub fn alternating(n: usize, drift: DriftBounds, period: f64, horizon: f64) -> Vec<RateSchedule> {
    assert!(period > 0.0, "period must be positive");
    assert!(horizon >= 0.0, "horizon must be non-negative");
    assert!(
        horizon + period > horizon,
        "period too small to pass the horizon"
    );
    (0..n)
        .map(|v| {
            let mut steps = Vec::new();
            let mut t = 0.0;
            let mut high = v % 2 == 0;
            while t <= horizon {
                let rate = if high {
                    drift.max_rate()
                } else {
                    drift.min_rate()
                };
                steps.push((t, rate));
                high = !high;
                t += period;
            }
            RateSchedule::from_steps(steps).expect("constructed valid steps")
        })
        .collect()
}

/// Seeded random drift: each node's rate is redrawn uniformly from
/// `[1 − ε, 1 + ε]` every `step` time until `horizon`.
///
/// # Panics
///
/// Panics if `step <= 0`, `horizon < 0`, or `horizon + step` rounds to
/// `horizon` (the steps would never pass the horizon).
pub fn random_walk(
    n: usize,
    drift: DriftBounds,
    step: f64,
    horizon: f64,
    seed: u64,
) -> Vec<RateSchedule> {
    assert!(step > 0.0, "step must be positive");
    assert!(horizon >= 0.0, "horizon must be non-negative");
    assert!(
        horizon + step > horizon,
        "step too small to pass the horizon"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut steps = Vec::new();
            let mut t = 0.0;
            while t <= horizon {
                steps.push((t, rng.gen_range(drift.min_rate()..=drift.max_rate())));
                t += step;
            }
            RateSchedule::from_steps(steps).expect("constructed valid steps")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift() -> DriftBounds {
        DriftBounds::new(0.05).unwrap()
    }

    #[test]
    fn nominal_is_unit_rate() {
        let s = nominal(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].rate_at(17.0), 1.0);
    }

    #[test]
    fn split_assigns_extremes() {
        let s = split(4, drift(), |v| v < 2);
        assert_eq!(s[0].rate_at(0.0), 1.05);
        assert_eq!(s[1].rate_at(0.0), 1.05);
        assert_eq!(s[2].rate_at(0.0), 0.95);
        assert_eq!(s[3].rate_at(0.0), 0.95);
    }

    #[test]
    fn gradient_interpolates_linearly() {
        let s = gradient(3, drift());
        assert!((s[0].rate_at(0.0) - 0.95).abs() < 1e-12);
        assert!((s[1].rate_at(0.0) - 1.0).abs() < 1e-12);
        assert!((s[2].rate_at(0.0) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn gradient_handles_single_node() {
        let s = gradient(1, drift());
        assert!((s[0].rate_at(0.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn alternating_flips_phase_and_parity() {
        let s = alternating(2, drift(), 1.0, 3.0);
        assert_eq!(s[0].rate_at(0.5), 1.05);
        assert_eq!(s[0].rate_at(1.5), 0.95);
        assert_eq!(s[1].rate_at(0.5), 0.95);
        assert_eq!(s[1].rate_at(1.5), 1.05);
    }

    #[test]
    #[should_panic(expected = "too small to pass the horizon")]
    fn alternating_rejects_a_period_below_the_horizon_resolution() {
        let _ = alternating(2, drift(), 1e-300, 5.0);
    }

    #[test]
    #[should_panic(expected = "too small to pass the horizon")]
    fn random_walk_rejects_a_step_below_the_horizon_resolution() {
        let _ = random_walk(2, drift(), 5.0, 2f64.powi(56), 1);
    }

    #[test]
    fn random_walk_respects_bounds_and_seed() {
        let a = random_walk(3, drift(), 0.5, 10.0, 11);
        let b = random_walk(3, drift(), 0.5, 10.0, 11);
        assert_eq!(a, b);
        for schedule in &a {
            assert!(schedule.respects(drift()));
        }
    }
}
