//! Time, hardware-clock, and logical-clock primitives for the reproduction of
//! Lenzen, Locher & Wattenhofer, *Tight Bounds for Clock Synchronization*
//! (PODC 2009 / J. ACM 2010).
//!
//! The paper's model (its Section 3) describes every node `v` of a distributed
//! system as owning a **hardware clock** `H_v(t) = ∫ h_v(τ) dτ` whose rate
//! `h_v(t)` varies arbitrarily within `[1 − ε, 1 + ε]`, and a **logical
//! clock** `L_v` the algorithm derives from it. This crate provides those two
//! objects plus the supporting pieces:
//!
//! * [`RateSchedule`] — a validated piecewise-constant rate function, the
//!   representation used both by random drift models and by the adversarial
//!   executions of the paper's Section 7,
//! * [`HardwareClock`] — exact forward evaluation `H_v(t)` and inverse lookup
//!   ("at which real time does `H_v` reach value x?"), the primitive on which
//!   the event engine's hardware-value timers are built,
//! * [`LogicalClock`] — a clock driven at `ρ_v · h_v` for a rate multiplier
//!   `ρ_v` (the paper's Algorithm 3 switches `ρ_v` between `1` and `1 + μ`),
//! * [`DriftBounds`] and the envelope/progress condition checkers of the
//!   paper's Conditions (1) and (2).
//!
//! Real time, hardware-clock values, and logical-clock values are all plain
//! `f64` seconds.
//!
//! # Example
//!
//! ```
//! use gcs_time::{HardwareClock, RateSchedule};
//!
//! // A clock that runs 1% fast for 10s, then 1% slow.
//! let schedule = RateSchedule::from_steps(vec![(0.0, 1.01), (10.0, 0.99)])?;
//! let mut hw = HardwareClock::new();
//! hw.start(0.0, schedule.rate_at(0.0));
//! hw.set_rate(10.0, schedule.rate_at(10.0));
//! assert!((hw.value_at(20.0) - 20.0).abs() < 1e-12);
//! # Ok::<(), gcs_time::ScheduleError>(())
//! ```
//!
//! # One slack rule
//!
//! Every oracle — the Condition (1)/(2) checkers here, and `gcs_analysis`'s
//! legal-state checker (Def. 5.6) and invariant watchdog — reports a
//! margin as a violation only below `−`[`slack`]`(Λ) = −max(10⁻⁹, ρΛ)`,
//! `ρ = 2⁻⁴⁰`, where `Λ` sums the magnitudes the check reads:
//! `|L| + m·max(t − t_v, 0) + M|t|` for Condition (1), `|L₀| + |L₁| +
//! (α + β)|Δt|` for Condition (2) (`β` only when finite), and
//! `|L_v| + |L_w| + d(s + ½)κ` for Def. 5.6. With unit roundoff `u = 2⁻⁵³`:
//!
//! * each margin is at most four correctly rounded operations on its
//!   readings, so it is computed within `3.02u·Λ` of its exact value;
//! * the readings are float clocks, affine in `t` between events up to a
//!   relative `δ = 2⁻⁴⁴` (`gcs_sim`'s `ClockView::rate_floor` promise), so
//!   a clock exactly on a bound reads at most `2δ·Λ` past it;
//! * `ρ = 16δ` is about eight times `(2δ + 3.02u)Λ`. The rest is room for
//!   the event-local certificates' own rounding: the watchdog charges
//!   `ρ/2` per unit of clock, and the skew observer's margin `ρΛ` covers
//!   its `(2δ + 5u)Λ`;
//! * below `Λ = 10⁻⁹/ρ ≈ 1100` the floor decides, exactly as an absolute
//!   `10⁻⁹`. Above, the slack keeps pace with the rounding, where `10⁻⁹`
//!   falls below one ulp of `L` from `L ≥ 2²³`;
//! * `slack` and each `Λ` are non-decreasing along a clock after its wake
//!   (clocks are non-negative and non-decreasing), so a certificate may
//!   prove a window's margins against the slack at the window's start.
//!
//! An infinite `Λ` gets `f64::MAX`, so an infinite margin still fails. A
//! NaN margin fails Conditions (1)/(2); the Def. 5.6 scan skips NaN pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conditions;
mod drift;
mod hardware;
mod logical;
mod rate;

pub use conditions::{EnvelopeChecker, ProgressChecker, RateEnvelope};
pub use drift::DriftBounds;
pub use hardware::HardwareClock;
pub use logical::LogicalClock;
pub use rate::{RateSchedule, ScheduleError};

/// The slack rule, `max(10⁻⁹, ρ·magnitude)` (see the [crate
/// docs](crate#one-slack-rule)).
pub fn slack(magnitude: f64) -> f64 {
    (RELATIVE_SLACK * magnitude).clamp(1e-9, f64::MAX)
}

/// The slack rule's `ρ = 2⁻⁴⁰` per unit of magnitude read.
pub const RELATIVE_SLACK: f64 = 1.0 / 1_099_511_627_776.0;

/// Convenience result alias for fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, ScheduleError>;
