//! Hardware clocks with exact forward and inverse evaluation.

/// A node's hardware clock `H_v`.
///
/// Per the paper's model, `H_v(t) = 0` until the node's initialization time
/// `t_v` and `H_v(t) = ∫_{t_v}^t h_v(τ) dτ` afterwards. The clock is advanced
/// by the simulation engine: the engine informs it of every rate change
/// (piecewise-constant rates), and between changes the clock evaluates
/// exactly.
///
/// The *inverse* lookup [`HardwareClock::time_when`] — "assuming the current
/// rate persists, at which real time does `H_v` reach value `x`?" — is the
/// primitive behind hardware-value timers: the paper's Algorithm 1 fires when
/// `L_v^max` (which advances at rate `h_v`) reaches a multiple of `H₀`, and
/// Algorithm 4 fires when `H_v` reaches `H_v^R`. When the rate changes, the
/// engine re-queries and reschedules.
///
/// # Example
///
/// ```
/// let mut hw = gcs_time::HardwareClock::new();
/// assert!(!hw.is_started());
/// hw.start(2.0, 0.5); // initialized at t = 2 running at half speed
/// assert_eq!(hw.value_at(2.0), 0.0);
/// assert_eq!(hw.value_at(6.0), 2.0);
/// assert_eq!(hw.time_when(3.0), Some(8.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareClock {
    /// `None` until the node is initialized (its `t_v`).
    anchor: Option<Anchor>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Anchor {
    /// Real time of the last rate change (or start).
    t: f64,
    /// Clock value at the anchor.
    h: f64,
    /// Rate in force since the anchor.
    rate: f64,
}

impl HardwareClock {
    /// A clock that has not been started: its value is 0 everywhere and it
    /// has no rate.
    pub fn new() -> Self {
        HardwareClock { anchor: None }
    }

    /// Whether the node owning this clock has been initialized.
    pub fn is_started(&self) -> bool {
        self.anchor.is_some()
    }

    /// Starts the clock at real time `t` (the node's `t_v`) with the given
    /// initial rate.
    ///
    /// # Panics
    ///
    /// Panics if the clock is already started or `rate <= 0`.
    pub fn start(&mut self, t: f64, rate: f64) {
        assert!(self.anchor.is_none(), "hardware clock started twice");
        assert!(rate > 0.0, "hardware rate must be positive, got {rate}");
        self.anchor = Some(Anchor { t, h: 0.0, rate });
    }

    /// Changes the rate at real time `t ≥` the last anchor.
    ///
    /// # Panics
    ///
    /// Panics if the clock is unstarted, `t` precedes the current anchor, or
    /// `rate <= 0`.
    pub fn set_rate(&mut self, t: f64, rate: f64) {
        assert!(rate > 0.0, "hardware rate must be positive, got {rate}");
        let anchor = self.anchor.as_mut().expect("set_rate on unstarted clock");
        assert!(
            t >= anchor.t,
            "rate change at {t} precedes anchor {}",
            anchor.t
        );
        anchor.h += anchor.rate * (t - anchor.t);
        anchor.t = t;
        anchor.rate = rate;
    }

    /// The clock value `H_v(t)`; zero before the start time. `t` must not
    /// precede the last rate change.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the current anchor (the engine only evaluates
    /// forward in time).
    pub fn value_at(&self, t: f64) -> f64 {
        match self.anchor {
            None => 0.0,
            Some(a) => {
                assert!(t >= a.t, "value_at({t}) precedes anchor {}", a.t);
                a.h + a.rate * (t - a.t)
            }
        }
    }

    /// Assuming the current rate persists, the real time at which the clock
    /// value reaches `target`; `None` if the clock is unstarted or the target
    /// is already reached (in which case "now" is the answer and the caller
    /// should act immediately).
    pub fn time_when(&self, target: f64) -> Option<f64> {
        let a = self.anchor?;
        if target <= a.h {
            return Some(a.t);
        }
        Some(a.t + (target - a.h) / a.rate)
    }
}

impl Default for HardwareClock {
    fn default() -> Self {
        HardwareClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstarted_clock_reads_zero() {
        let hw = HardwareClock::new();
        assert_eq!(hw.value_at(100.0), 0.0);
        assert_eq!(hw.time_when(1.0), None);
        assert!(!hw.is_started());
    }

    #[test]
    fn value_integrates_across_rate_changes() {
        let mut hw = HardwareClock::new();
        hw.start(0.0, 1.0);
        hw.set_rate(10.0, 2.0);
        hw.set_rate(15.0, 0.5);
        // 10*1 + 5*2 + 4*0.5 = 22
        assert!((hw.value_at(19.0) - 22.0).abs() < 1e-12);
    }

    #[test]
    fn start_offset_is_respected() {
        let mut hw = HardwareClock::new();
        hw.start(5.0, 1.5);
        assert_eq!(hw.value_at(5.0), 0.0);
        assert!((hw.value_at(7.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_when_inverts_value_at() {
        let mut hw = HardwareClock::new();
        hw.start(0.0, 1.0);
        hw.set_rate(4.0, 0.25);
        let t = hw.time_when(5.0).unwrap();
        assert!((hw.value_at(t) - 5.0).abs() < 1e-12);
        assert!((t - 8.0).abs() < 1e-12);
    }

    #[test]
    fn time_when_already_reached_returns_anchor() {
        let mut hw = HardwareClock::new();
        hw.start(0.0, 1.0);
        hw.set_rate(3.0, 1.0);
        assert_eq!(hw.time_when(2.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        let mut hw = HardwareClock::new();
        hw.start(0.0, 1.0);
        hw.start(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "precedes anchor")]
    fn backwards_rate_change_panics() {
        let mut hw = HardwareClock::new();
        hw.start(5.0, 1.0);
        hw.set_rate(4.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "precedes anchor")]
    fn backwards_evaluation_panics() {
        let mut hw = HardwareClock::new();
        hw.start(0.0, 1.0);
        hw.set_rate(5.0, 1.0);
        let _ = hw.value_at(4.0);
    }
}
