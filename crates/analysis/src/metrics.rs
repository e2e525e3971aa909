//! The engine metrics of one run: the [`MetricsRegistry`] of event counts,
//! gauges and fixed-bucket histograms, and the [`MetricsSink`] that records
//! into it from an engine's event stream.
//!
//! The metric names are fixed. Each is listed once it has its first
//! observation:
//!
//! | name | kind | listed after |
//! |------|------|--------------|
//! | `events.total` | counter | the first event |
//! | `events.<kind>`, one per [`gcs_sim::KIND_LABELS`] entry | counter | the first event of that kind |
//! | `queue_depth.last`, `time.last` | gauge | the first sample |
//! | `events_per_time` | histogram | the first closed rate window |
//! | `global_skew` | histogram | the first sample with a clock |
//! | `message_delay` | histogram | the first transmit with a chosen delay |
//! | `queue_depth` | histogram | the first sample |
//!
//! A *sample* is the state after one event ([`MetricsSink::observe`]). A
//! rate window is one unit of simulated time; it closes when a later event
//! arrives or at [`MetricsSink::flush_rate_window`]. The registry is
//! readable at any point of an execution, and [`MetricsRegistry::render`]
//! and [`MetricsRegistry::to_json`] list it sorted by name: deterministic
//! for the CLI's `--metrics` flag.

use gcs_sim::{EngineEvent, EventSink, KIND_COUNT, KIND_LABELS};

use crate::json::push_f64;

/// A fixed-bucket histogram over `f64` observations.
///
/// Buckets are defined by an ascending list of upper bounds; an observation
/// `v` lands in the first bucket whose bound satisfies `v <= bound`
/// (less-or-equal semantics, so a value exactly on a boundary belongs to
/// the bucket it bounds). Values above the last bound land in an implicit
/// overflow bucket. Count, sum, min, and max are tracked exactly regardless
/// of bucketing.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not strictly ascending or not finite.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `count` geometrically growing buckets: bounds
    /// `first, first·factor, first·factor², …`.
    ///
    /// # Panics
    ///
    /// Panics if `first <= 0`, `factor <= 1`, or `count == 0`.
    pub fn exponential(first: f64, factor: f64, count: usize) -> Self {
        assert!(
            first > 0.0 && factor > 1.0 && count > 0,
            "invalid exponential histogram shape"
        );
        let mut bounds = Vec::with_capacity(count);
        let mut b = first;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN (a NaN observation is always an upstream bug).
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot record NaN");
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// An upper estimate of the `q`-quantile (`0 ≤ q ≤ 1`): the upper bound
    /// of the bucket in which the quantile falls (exact max for values in
    /// the overflow bucket). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }
}

/// The engine metrics of one run, one field each (see the module doc for
/// the names).
///
/// [`MetricsSink`] records straight into the fields; the read side lists
/// the metrics that have an observation, sorted by name, so that
/// [`MetricsRegistry::render`] and [`MetricsRegistry::to_json`] are
/// deterministic — same execution, byte-identical output.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    events_total: u64,
    /// Per-kind event counts, indexed by [`EngineEvent::kind_index`].
    kind_counts: [u64; KIND_COUNT],
    message_delay: Histogram,
    queue_depth: Histogram,
    global_skew: Histogram,
    events_per_time: Histogram,
    /// The last sample's `(time, queue depth)`; `None` before the first.
    last: Option<(f64, f64)>,
}

impl MetricsRegistry {
    /// The listed counters as `(kind, count)`, sorted by kind: the counter
    /// `events.<kind>`, with `total` for `events.total`.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters: Vec<_> = KIND_LABELS
            .into_iter()
            .zip(self.kind_counts)
            .chain([("total", self.events_total)])
            .filter(|&(_, n)| n > 0)
            .collect();
        counters.sort_unstable_by_key(|&(kind, _)| kind);
        counters
    }

    /// The listed gauges, sorted by name.
    fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> {
        self.last
            .into_iter()
            .flat_map(|(t, depth)| [("queue_depth.last", depth), ("time.last", t)])
    }

    /// The listed histograms, sorted by name.
    fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        [
            ("events_per_time", &self.events_per_time),
            ("global_skew", &self.global_skew),
            ("message_delay", &self.message_delay),
            ("queue_depth", &self.queue_depth),
        ]
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
    }

    /// The counter named `name`, if listed.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let kind = name.strip_prefix("events.")?;
        self.counters()
            .into_iter()
            .find_map(|(k, n)| (k == kind).then_some(n))
    }

    /// The gauge named `name`, if listed.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges().find_map(|(g, v)| (g == name).then_some(v))
    }

    /// The histogram named `name`, if listed.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms()
            .find_map(|(h, v)| (h == name).then_some(v))
    }

    /// Renders every listed metric as sorted `name value` lines — counters
    /// first, then gauges, then histogram summaries
    /// (`name count/mean/p50/p99/max`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, n) in self.counters() {
            out.push_str(&format!("counter events.{kind} {n}\n"));
        }
        for (name, v) in self.gauges() {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "histogram {name} count={} mean={:.6} p50={:.6} p99={:.6} max={:.6}\n",
                h.count(),
                h.mean().expect("listed"),
                h.quantile(0.5).expect("listed"),
                h.quantile(0.99).expect("listed"),
                h.max().expect("listed"),
            ));
        }
        out
    }

    /// Renders the registry as a `gcs-metrics/v1` JSON document: sorted
    /// maps of counters and gauges, and per-histogram summaries with the
    /// full bucket layout. Deterministic — same registry state,
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"gcs-metrics/v1\",\"counters\":{");
        for (i, (kind, n)) in self.counters().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"events.{kind}\":{n}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            push_f64(&mut out, v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{\"count\":{},\"sum\":", h.count()));
            push_f64(&mut out, h.sum());
            for (key, v) in [
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5)),
                ("p99", h.quantile(0.99)),
            ] {
                out.push_str(&format!(",\"{key}\":"));
                push_f64(&mut out, v.expect("listed"));
            }
            out.push_str(",\"bounds\":[");
            for (j, &b) in h.bounds().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_f64(&mut out, b);
            }
            out.push_str("],\"buckets\":[");
            for (j, &c) in h.bucket_counts().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }
}

/// An [`EventSink`] recording the engine metrics into a
/// [`MetricsRegistry`].
///
/// Events arrive through [`EventSink::record`]; the post-event state
/// arrives through [`MetricsSink::observe`]: the time, the global skew
/// `max − min`, and the queue depth. Inside `gcs_sweep::SinkSet` the sink
/// is fed event-locally: the set's skew observer already tracks the
/// current extremes ([`crate::SkewObserver::current_global`]), so the
/// metrics never ask the engine for a clock vector. Installed on its own,
/// the sink asks for snapshots and folds each clock vector into
/// `max − min` itself ([`EventSink::snapshot`]); both feeds give
/// bit-identical registries.
///
/// Recording touches only the registry's fields: no name lookup and no
/// allocation per event.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: MetricsRegistry,
    window_start: f64,
    window_events: u64,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// Creates the sink.
    pub fn new() -> Self {
        MetricsSink {
            registry: MetricsRegistry {
                events_total: 0,
                kind_counts: [0; KIND_COUNT],
                message_delay: Histogram::exponential(1e-3, 2.0, 16),
                queue_depth: Histogram::exponential(1.0, 2.0, 12),
                global_skew: Histogram::exponential(1e-6, 4.0, 20),
                events_per_time: Histogram::exponential(1.0, 2.0, 20),
                last: None,
            },
            window_start: 0.0,
            window_events: 0,
        }
    }

    /// The live registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Renders the current snapshot (see [`MetricsRegistry::render`]).
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Folds any events counted in the still-open rate window into the
    /// `events_per_time` histogram. Call once at the end of a run; the
    /// sink's automatic windowing only closes windows that filled up.
    pub fn flush_rate_window(&mut self, t: f64) {
        let elapsed = t - self.window_start;
        if self.window_events > 0 && elapsed > 0.0 {
            let rate = self.window_events as f64 / elapsed;
            self.registry.events_per_time.record(rate);
        }
        self.window_start = t;
        self.window_events = 0;
    }

    /// Records the state after one event: real time `t`, the global skew
    /// `max − min` over all clocks (`None` for an empty clock vector, which
    /// records no skew sample) and the event-queue depth.
    #[inline]
    pub fn observe(&mut self, t: f64, global: Option<f64>, queue_depth: usize) {
        let r = &mut self.registry;
        r.last = Some((t, queue_depth as f64));
        r.queue_depth.record(queue_depth as f64);
        if let Some(global) = global {
            r.global_skew.record(global);
        }
    }

    fn roll_rate_window(&mut self, t: f64) {
        while t >= self.window_start + RATE_WINDOW {
            let rate = self.window_events as f64 / RATE_WINDOW;
            self.registry.events_per_time.record(rate);
            self.window_start += RATE_WINDOW;
            self.window_events = 0;
        }
    }
}

/// Width of the `events_per_time` window, in units of simulated time.
const RATE_WINDOW: f64 = 1.0;

impl EventSink for MetricsSink {
    #[inline]
    fn record(&mut self, event: &EngineEvent) {
        self.roll_rate_window(event.time());
        self.window_events += 1;
        let r = &mut self.registry;
        r.events_total += 1;
        r.kind_counts[event.kind_index()] += 1;
        if let EngineEvent::Transmit { delay: Some(d), .. } = event {
            r.message_delay.record(*d);
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    #[inline]
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for &c in clocks {
            max = max.max(c);
            min = min.min(c);
        }
        self.observe(t, (max >= min).then_some(max - min), queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_boundary_goes_to_lower_bucket() {
        // Bounds 1, 2, 4: a value exactly on a bound belongs to the bucket
        // that bound closes (less-or-equal semantics).
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        h.record(1.0);
        h.record(2.0);
        h.record(4.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 0]);
    }

    #[test]
    fn histogram_overflow_and_underflow() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.record(-5.0); // below the first bound: first bucket
        h.record(100.0); // above the last bound: overflow
        assert_eq!(h.bucket_counts(), &[1, 0, 1]);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(100.0));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::new(vec![1.0, 2.0, 3.0]);
        for _ in 0..9 {
            h.record(0.5);
        }
        h.record(2.5);
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0)); // rank clamps to 1
    }

    #[test]
    fn quantile_of_overflow_values_is_exact_max() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(7.0);
        h.record(9.0);
        assert_eq!(h.quantile(1.0), Some(9.0));
    }

    #[test]
    fn exponential_shape() {
        let exp = Histogram::exponential(1.0, 2.0, 4);
        assert_eq!(exp.bounds(), &[1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let mut h = Histogram::new(vec![1.0]);
        h.record(f64::NAN);
    }

    #[test]
    fn listings_are_sorted_by_name_and_skip_unseen_metrics() {
        use gcs_graph::NodeId;
        let mut sink = MetricsSink::new();
        assert_eq!(sink.render(), "");
        for event in [
            EngineEvent::Transmit {
                src: NodeId(0),
                dst: NodeId(1),
                t: 0.0,
                delay: Some(0.5),
            },
            EngineEvent::Wake {
                node: NodeId(1),
                t: 0.25,
                hw: 0.25,
            },
            EngineEvent::TimerSet {
                node: NodeId(1),
                timer: gcs_sim::TimerId(0),
                target_hw: 1.0,
                t: 0.25,
            },
        ] {
            sink.record(&event);
        }
        sink.snapshot(0.25, &[0.25, 0.5], 2);
        let text = sink.render();
        let names: Vec<&str> = text
            .lines()
            .map(|line| line.split(' ').nth(1).unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "events.timer_set",
                "events.total",
                "events.transmit",
                "events.wake",
                "queue_depth.last",
                "time.last",
                "global_skew",
                "message_delay",
                "queue_depth",
            ]
        );
        // No event has closed a rate window and no event was a delivery.
        let r = sink.registry();
        assert_eq!(r.histogram_ref("events_per_time"), None);
        assert_eq!(r.counter_value("events.deliver"), None);
        assert!(!r.to_json().contains("events_per_time"));
    }

    #[test]
    fn metrics_sink_counts_events() {
        use gcs_graph::NodeId;
        let mut sink = MetricsSink::new();
        sink.record(&EngineEvent::Wake {
            node: NodeId(0),
            t: 0.0,
            hw: 0.0,
        });
        sink.record(&EngineEvent::Transmit {
            src: NodeId(0),
            dst: NodeId(1),
            t: 0.5,
            delay: Some(0.1),
        });
        sink.snapshot(0.5, &[1.0, 1.25], 3);
        let r = sink.registry();
        assert_eq!(r.counter_value("events.total"), Some(2));
        assert_eq!(r.counter_value("events.wake"), Some(1));
        assert_eq!(r.counter_value("events.transmit"), Some(1));
        assert_eq!(r.histogram_ref("message_delay").unwrap().count(), 1);
        assert_eq!(r.gauge_value("queue_depth.last"), Some(3.0));
        let skew = r.histogram_ref("global_skew").unwrap();
        assert_eq!(skew.max(), Some(0.25));
    }

    #[test]
    fn observe_matches_a_clock_vector_snapshot() {
        let mut vector = MetricsSink::new();
        let mut local = MetricsSink::new();
        for (t, clocks, depth) in [
            (0.0, &[0.0, 0.0][..], 2),
            (0.5, &[0.75, 0.5][..], 4),
            (1.5, &[][..], 0),
        ] {
            vector.snapshot(t, clocks, depth);
            let global = match clocks {
                [] => None,
                _ => Some(clocks[0].max(clocks[1]) - clocks[0].min(clocks[1])),
            };
            local.observe(t, global, depth);
        }
        assert_eq!(vector.registry().to_json(), local.registry().to_json());
        assert_eq!(vector.render(), local.render());
    }

    #[test]
    fn rate_window_rolls_with_simulated_time() {
        use gcs_graph::NodeId;
        let mut sink = MetricsSink::new();
        for i in 0..10 {
            sink.record(&EngineEvent::Wake {
                node: NodeId(0),
                t: i as f64 * 0.3,
                hw: 0.0,
            });
        }
        sink.flush_rate_window(3.0);
        let h = sink.registry().histogram_ref("events_per_time").unwrap();
        assert!(h.count() >= 2);
        assert!(h.mean().unwrap() > 0.0);
    }
}
