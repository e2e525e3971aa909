//! Piecewise-constant clock-rate functions.

use std::error::Error;
use std::fmt;

/// Error returned when constructing or extending an ill-formed
/// [`RateSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The step list was empty; a schedule must define a rate from time zero.
    Empty,
    /// The first step did not start at time `0.0`.
    MissingOrigin {
        /// Start time of the first step that was supplied.
        first_start: f64,
    },
    /// Step start times were not strictly increasing.
    UnorderedSteps {
        /// Index of the offending step.
        index: usize,
    },
    /// A rate was non-positive or non-finite; hardware clocks must make
    /// strictly positive progress (`ε < 1` in the paper's model).
    InvalidRate {
        /// The offending rate value.
        rate: f64,
    },
    /// A step time was non-finite.
    InvalidTime {
        /// The offending time value.
        time: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "rate schedule has no steps"),
            ScheduleError::MissingOrigin { first_start } => write!(
                f,
                "rate schedule must start at time 0, first step starts at {first_start}"
            ),
            ScheduleError::UnorderedSteps { index } => write!(
                f,
                "rate schedule step {index} does not strictly follow its predecessor"
            ),
            ScheduleError::InvalidRate { rate } => {
                write!(f, "clock rate {rate} is not strictly positive and finite")
            }
            ScheduleError::InvalidTime { time } => {
                write!(f, "step time {time} is not finite")
            }
        }
    }
}

impl Error for ScheduleError {}

/// A piecewise-constant rate function `h(t)`.
///
/// This is the representation of the paper's variable hardware-clock rates:
/// an execution (its Section 3) assigns every node a measurable rate function
/// with values in `[1 − ε, 1 + ε]`; all of the paper's adversarial
/// constructions — and any simulation with finitely many decision points —
/// use piecewise-constant rates, which also admit exact integration.
///
/// The step starting at time `tᵢ` applies on the half-open interval
/// `[tᵢ, tᵢ₊₁)`; the final step extends to `+∞`.
///
/// # Example
///
/// ```
/// use gcs_time::RateSchedule;
///
/// let s = RateSchedule::from_steps(vec![(0.0, 1.0), (5.0, 1.1)])?;
/// assert_eq!(s.rate_at(4.999), 1.0);
/// assert_eq!(s.rate_at(5.0), 1.1);
/// assert!((s.integrate(0.0, 10.0) - (5.0 + 5.5)).abs() < 1e-12);
/// # Ok::<(), gcs_time::ScheduleError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// Strictly increasing step start times; `starts[0] == 0.0`.
    starts: Vec<f64>,
    /// `rates[i]` applies on `[starts[i], starts[i + 1])`.
    rates: Vec<f64>,
}

impl RateSchedule {
    /// A schedule that runs at `rate` forever.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidRate`] if `rate` is not strictly
    /// positive and finite.
    pub fn constant(rate: f64) -> crate::Result<Self> {
        Self::from_steps(vec![(0.0, rate)])
    }

    /// Builds a schedule from `(start_time, rate)` steps.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, does not start at time zero,
    /// is not strictly increasing in time, or contains a rate that is not
    /// strictly positive and finite.
    pub fn from_steps(steps: Vec<(f64, f64)>) -> crate::Result<Self> {
        if steps.is_empty() {
            return Err(ScheduleError::Empty);
        }
        if steps[0].0 != 0.0 {
            return Err(ScheduleError::MissingOrigin {
                first_start: steps[0].0,
            });
        }
        let mut starts = Vec::with_capacity(steps.len());
        let mut rates = Vec::with_capacity(steps.len());
        for (index, &(time, rate)) in steps.iter().enumerate() {
            if !time.is_finite() {
                return Err(ScheduleError::InvalidTime { time });
            }
            if !(rate.is_finite() && rate > 0.0) {
                return Err(ScheduleError::InvalidRate { rate });
            }
            if index > 0 && time <= steps[index - 1].0 {
                return Err(ScheduleError::UnorderedSteps { index });
            }
            starts.push(time);
            rates.push(rate);
        }
        Ok(RateSchedule { starts, rates })
    }

    /// Appends a step starting at `time` with the given `rate`.
    ///
    /// Adversaries extend schedules online as the execution unfolds.
    ///
    /// # Errors
    ///
    /// Returns an error if `time` does not strictly follow the last step or
    /// `rate` is invalid.
    pub fn push_step(&mut self, time: f64, rate: f64) -> crate::Result<()> {
        if !time.is_finite() {
            return Err(ScheduleError::InvalidTime { time });
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ScheduleError::InvalidRate { rate });
        }
        if time <= *self.starts.last().expect("schedule is never empty") {
            return Err(ScheduleError::UnorderedSteps {
                index: self.starts.len(),
            });
        }
        self.starts.push(time);
        self.rates.push(rate);
        Ok(())
    }

    /// The rate in force at time `t` (clamped to the first step for `t < 0`).
    pub fn rate_at(&self, t: f64) -> f64 {
        self.rates[self.segment_index(t)]
    }

    /// The first step-change time strictly after `t`, if any.
    pub fn next_change_after(&self, t: f64) -> Option<f64> {
        let idx = self.segment_index(t);
        self.starts.get(idx + 1).copied()
    }

    /// Exact integral `∫_{t0}^{t1} h(τ) dτ` (requires `t0 <= t1`).
    ///
    /// # Panics
    ///
    /// Panics if `t0 > t1`.
    pub fn integrate(&self, t0: f64, t1: f64) -> f64 {
        assert!(t0 <= t1, "integrate requires t0 <= t1, got {t0} > {t1}");
        let mut total = 0.0;
        let mut cursor = t0;
        let mut idx = self.segment_index(t0);
        while cursor < t1 {
            let seg_end = self.starts.get(idx + 1).copied().unwrap_or(f64::INFINITY);
            let upper = seg_end.min(t1);
            total += self.rates[idx] * (upper - cursor);
            cursor = upper;
            idx += 1;
        }
        total
    }

    /// Smallest rate appearing anywhere in the schedule.
    pub fn min_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest rate appearing anywhere in the schedule.
    pub fn max_rate(&self) -> f64 {
        self.rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Number of constant-rate segments.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the schedule consists of a single segment.
    ///
    /// Schedules are never empty, so this reports "no rate change ever
    /// happens" rather than literal emptiness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(start_time, rate)` segments.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.starts.iter().copied().zip(self.rates.iter().copied())
    }

    /// Checks that every rate lies within `bounds` (the paper's
    /// `h_v(t) ∈ [1 − ε, 1 + ε]`).
    pub fn respects(&self, bounds: crate::DriftBounds) -> bool {
        self.rates.iter().all(|&r| bounds.contains(r))
    }

    fn segment_index(&self, t: f64) -> usize {
        match self
            .starts
            .binary_search_by(|s| s.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

impl Default for RateSchedule {
    /// The unit-rate schedule (a perfect clock).
    fn default() -> Self {
        RateSchedule::constant(1.0).expect("1.0 is a valid rate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftBounds;

    #[test]
    fn constant_schedule_reports_single_rate() {
        let s = RateSchedule::constant(1.25).unwrap();
        assert_eq!(s.rate_at(0.0), 1.25);
        assert_eq!(s.rate_at(1e9), 1.25);
        assert_eq!(s.next_change_after(0.0), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_steps_rejects_empty() {
        assert_eq!(RateSchedule::from_steps(vec![]), Err(ScheduleError::Empty));
    }

    #[test]
    fn from_steps_rejects_missing_origin() {
        let err = RateSchedule::from_steps(vec![(1.0, 1.0)]).unwrap_err();
        assert!(matches!(err, ScheduleError::MissingOrigin { .. }));
    }

    #[test]
    fn from_steps_rejects_unordered() {
        let err = RateSchedule::from_steps(vec![(0.0, 1.0), (2.0, 1.1), (2.0, 1.2)]).unwrap_err();
        assert_eq!(err, ScheduleError::UnorderedSteps { index: 2 });
    }

    #[test]
    fn from_steps_rejects_zero_negative_or_nan_rate() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = RateSchedule::from_steps(vec![(0.0, bad)]).unwrap_err();
            assert!(matches!(err, ScheduleError::InvalidRate { .. }), "{bad}");
        }
    }

    #[test]
    fn rate_lookup_uses_half_open_segments() {
        let s = RateSchedule::from_steps(vec![(0.0, 1.0), (3.0, 2.0), (7.0, 0.5)]).unwrap();
        assert_eq!(s.rate_at(0.0), 1.0);
        assert_eq!(s.rate_at(2.999_999), 1.0);
        assert_eq!(s.rate_at(3.0), 2.0);
        assert_eq!(s.rate_at(6.5), 2.0);
        assert_eq!(s.rate_at(7.0), 0.5);
        assert_eq!(s.rate_at(100.0), 0.5);
    }

    #[test]
    fn next_change_after_finds_following_breakpoint() {
        let s = RateSchedule::from_steps(vec![(0.0, 1.0), (3.0, 2.0), (7.0, 0.5)]).unwrap();
        assert_eq!(s.next_change_after(0.0), Some(3.0));
        assert_eq!(s.next_change_after(3.0), Some(7.0));
        assert_eq!(s.next_change_after(6.9), Some(7.0));
        assert_eq!(s.next_change_after(7.0), None);
    }

    #[test]
    fn integrate_is_exact_across_segments() {
        let s = RateSchedule::from_steps(vec![(0.0, 1.0), (3.0, 2.0), (7.0, 0.5)]).unwrap();
        // [1, 3): rate 1 -> 2; [3, 7): rate 2 -> 8; [7, 9]: rate 0.5 -> 1.
        assert!((s.integrate(1.0, 9.0) - 11.0).abs() < 1e-12);
        assert_eq!(s.integrate(4.0, 4.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "integrate requires t0 <= t1")]
    fn integrate_panics_on_reversed_interval() {
        let s = RateSchedule::default();
        let _ = s.integrate(2.0, 1.0);
    }

    #[test]
    fn push_step_appends_and_validates() {
        let mut s = RateSchedule::constant(1.0).unwrap();
        s.push_step(5.0, 1.5).unwrap();
        assert_eq!(s.rate_at(6.0), 1.5);
        assert!(s.push_step(5.0, 2.0).is_err());
        assert!(s.push_step(6.0, -2.0).is_err());
    }

    #[test]
    fn min_max_rates() {
        let s = RateSchedule::from_steps(vec![(0.0, 0.9), (1.0, 1.1), (2.0, 1.05)]).unwrap();
        assert_eq!(s.min_rate(), 0.9);
        assert_eq!(s.max_rate(), 1.1);
    }

    #[test]
    fn respects_checks_drift_bounds() {
        let s = RateSchedule::from_steps(vec![(0.0, 0.95), (1.0, 1.05)]).unwrap();
        assert!(s.respects(DriftBounds::new(0.05).unwrap()));
        assert!(!s.respects(DriftBounds::new(0.01).unwrap()));
    }

    #[test]
    fn default_is_unit_rate() {
        let s = RateSchedule::default();
        assert_eq!(s.rate_at(42.0), 1.0);
    }

    #[test]
    fn steps_iterates_in_order() {
        let s = RateSchedule::from_steps(vec![(0.0, 1.0), (3.0, 2.0)]).unwrap();
        let collected: Vec<_> = s.steps().collect();
        assert_eq!(collected, vec![(0.0, 1.0), (3.0, 2.0)]);
    }
}
