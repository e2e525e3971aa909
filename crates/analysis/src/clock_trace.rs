//! Full clock-trajectory recording for offline analysis/plotting.

use std::io::Write as _;
use std::path::Path;

use gcs_graph::NodeId;
use gcs_sim::{ClockView, DelayModel, Engine, EngineEvent, EventSink, Protocol};

/// Records every node's logical clock (and its offset from real time) on a
/// fixed sampling grid, for CSV export.
///
/// Unlike [`crate::SkewObserver`] — which captures exact worst cases — this
/// trace is for *plotting*: a bounded number of evenly spaced rows.
///
/// # Example
///
/// ```
/// use gcs_analysis::ClockTrace;
/// use gcs_core::NoSync;
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let g = topology::path(2);
/// let mut trace = ClockTrace::new(2, 1.0);
/// let mut engine = Engine::builder(g)
///     .protocols(vec![NoSync; 2])
///     .delay_model(ConstantDelay::new(0.0))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until_observed(5.0, |e| trace.observe(e));
/// let csv = trace.to_csv();
/// assert!(csv.starts_with("t,"));
/// // NoSync generates no events between the wakes and the horizon, so the
/// // trace holds the two endpoint rows (denser protocols sample the grid).
/// assert!(csv.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct ClockTrace {
    n: usize,
    interval: f64,
    next_sample: f64,
    rows: Vec<(f64, Vec<f64>)>,
}

impl ClockTrace {
    /// Creates a trace for `n` nodes sampling every `interval` of real time.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `interval <= 0`.
    pub fn new(n: usize, interval: f64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(
            interval.is_finite() && interval > 0.0,
            "invalid interval {interval}"
        );
        ClockTrace {
            n,
            interval,
            next_sample: 0.0,
            rows: Vec::new(),
        }
    }

    /// Records a row if the sampling grid is due.
    pub fn observe<P: Protocol, D: DelayModel, S: EventSink>(&mut self, engine: &Engine<P, D, S>) {
        self.observe_clocks(engine.now(), &engine.logical_values());
    }

    /// Records a clock vector sampled at time `t` if the sampling grid is
    /// due.
    pub fn observe_clocks(&mut self, t: f64, clocks: &[f64]) {
        if !self.due(t) {
            return;
        }
        debug_assert_eq!(clocks.len(), self.n);
        self.rows.push((t, clocks.to_vec()));
        self.next_sample = t + self.interval;
    }

    /// Whether a sample at `t` records a row.
    fn due(&self, t: f64) -> bool {
        t + 1e-12 >= self.next_sample
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the trace as CSV: `t, L_v0, …, L_v{n−1}, spread`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,");
        out.push_str(
            &(0..self.n)
                .map(|v| format!("L_v{v}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str(",spread\n");
        for (t, clocks) in &self.rows {
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            out.push_str(&format!("{t:.9}"));
            for c in clocks {
                out.push_str(&format!(",{c:.9}"));
            }
            out.push_str(&format!(",{:.9}\n", max - min));
        }
        out
    }

    /// Writes the CSV to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// As a sink, the trace ignores the event stream and samples rows on its
/// grid, reading the clock vector only at the samples that record one.
impl EventSink for ClockTrace {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &EngineEvent) {}

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn sample(&mut self, t: f64, _touched: &[NodeId], clocks: &dyn ClockView, _queue_depth: usize) {
        if self.due(t) {
            self.observe_clocks(t, clocks.values());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::NoSync;
    use gcs_graph::topology;
    use gcs_sim::ConstantDelay;
    use gcs_time::RateSchedule;

    #[test]
    fn samples_on_the_grid() {
        // Sampling rides on event observations, so use a protocol with a
        // steady event stream (MaxAlgorithm broadcasts every 1.0).
        let g = topology::path(3);
        let mut trace = ClockTrace::new(3, 2.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![gcs_core::MaxAlgorithm::new(1.0); 3])
            .delay_model(ConstantDelay::new(0.1))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(10.0, |e| trace.observe(e));
        // Roughly one sample per 2.0 of real time plus the endpoints; the
        // grid shifts slightly when no event lands exactly on it.
        assert!(trace.len() >= 5 && trace.len() <= 8, "{} rows", trace.len());
        assert!(!trace.is_empty());
    }

    #[test]
    fn sparse_event_streams_yield_sparse_traces() {
        // NoSync produces no events beyond the wakes: only the first and
        // final observations land on the grid.
        let g = topology::path(3);
        let mut trace = ClockTrace::new(3, 2.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 3])
            .delay_model(ConstantDelay::new(0.0))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(10.0, |e| trace.observe(e));
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn csv_has_expected_shape_and_values() {
        let g = topology::path(2);
        let schedules = vec![
            RateSchedule::constant(1.1).unwrap(),
            RateSchedule::constant(0.9).unwrap(),
        ];
        let mut trace = ClockTrace::new(2, 1.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 2])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(5.0, |e| trace.observe(e));
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,L_v0,L_v1,spread");
        let last: Vec<f64> = lines
            .last()
            .unwrap()
            .split(',')
            .map(|x| x.parse().unwrap())
            .collect();
        assert!((last[0] - 5.0).abs() < 1e-9);
        assert!((last[1] - 5.5).abs() < 1e-9);
        assert!((last[2] - 4.5).abs() < 1e-9);
        assert!((last[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_bad_interval() {
        let _ = ClockTrace::new(2, 0.0);
    }
}
