//! A small metrics registry (counters, gauges, fixed-bucket histograms) and
//! the [`MetricsSink`] that fills it from an engine's event stream.
//!
//! The registry is snapshotable at any point during an execution: every
//! accessor works on live state, and [`MetricsRegistry::render`] produces a
//! deterministic, sorted text rendering for the CLI's `--metrics` flag.

use std::collections::BTreeMap;

use gcs_sim::{EngineEvent, EventSink};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Folds another counter in: counts add.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        self.0
    }

    /// Folds another gauge in. Gauges are last-value-wins, which is not
    /// reconstructible from independent shards; the merge is right-biased by
    /// convention — `other` is the later shard and its value stands.
    pub fn merge(&mut self, other: &Gauge) {
        self.0 = other.0;
    }
}

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

    /// `count` buckets of equal `width` starting at `start`:
    /// bounds `start + width, start + 2·width, …`.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 0` or `count == 0`.
    pub fn linear(start: f64, width: f64, count: usize) -> Self {
        assert!(width > 0.0 && count > 0, "invalid linear histogram shape");
        Histogram::new((1..=count).map(|i| start + width * i as f64).collect())
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

    /// Folds another histogram in: bucket counts, count, and sum add;
    /// min/max take the extremes. Merging the per-shard histograms of a
    /// partitioned stream yields exactly the histogram of the interleaved
    /// stream — bucketing is order-independent (pinned by the property
    /// tests in `tests/metrics_merge.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ: histograms of different shapes
    /// measure different things, and folding them silently would corrupt
    /// both.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (acc, &c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Uses `BTreeMap`s throughout so that [`MetricsRegistry::render`] is
/// deterministic — same execution, byte-identical rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero if absent.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_owned()).or_default()
    }

    /// The gauge named `name`, created at zero if absent.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_owned()).or_default()
    }

    /// The histogram named `name`; `make` builds it on first use.
    pub fn histogram(&mut self, name: &str, make: impl FnOnce() -> Histogram) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_insert_with(make)
    }

    /// Reads a counter without creating it.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(Counter::get)
    }

    /// Reads a gauge without creating it.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(Gauge::get)
    }

    /// Reads a histogram without creating it.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Renders every metric as sorted `name value` lines — counters first,
    /// then gauges, then histogram summaries
    /// (`name count/mean/p50/p99/max`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, c) in &self.counters {
            out.push_str(&format!("counter {name} {}\n", c.get()));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!("gauge {name} {}\n", g.get()));
        }
        for (name, h) in &self.histograms {
            match h.mean() {
                Some(mean) => out.push_str(&format!(
                    "histogram {name} count={} mean={mean:.6} p50={:.6} p99={:.6} max={:.6}\n",
                    h.count(),
                    h.quantile(0.5).expect("non-empty"),
                    h.quantile(0.99).expect("non-empty"),
                    h.max().expect("non-empty"),
                )),
                None => out.push_str(&format!("histogram {name} count=0\n")),
            }
        }
        out
    }

    /// Folds another registry in: counters add, histograms merge
    /// (see [`Histogram::merge`] — bounds must agree name-by-name), and
    /// gauges are right-biased (`other`, the later shard, wins). Metrics
    /// present in only one side are kept as-is.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, c) in &other.counters {
            self.counters.entry(name.clone()).or_default().merge(c);
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name.clone()).or_default().merge(g);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the registry as a `gcs-metrics/v1` JSON document: sorted
    /// maps of counters and gauges, and per-histogram summaries with the
    /// full bucket layout. Deterministic — same registry state,
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        fn num(out: &mut String, v: f64) {
            // `f64::to_string` never emits exponents, infinities only by
            // explicit "inf": guard non-finite values as null.
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        let mut out = String::from("{\"schema\":\"gcs-metrics/v1\",\"counters\":{");
        for (i, (name, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", c.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            num(&mut out, g.get());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{\"count\":{},\"sum\":", h.count()));
            num(&mut out, h.sum());
            for (key, v) in [
                ("min", h.min()),
                ("max", h.max()),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5)),
                ("p99", h.quantile(0.99)),
            ] {
                out.push_str(&format!(",\"{key}\":"));
                match v {
                    Some(v) => num(&mut out, v),
                    None => out.push_str("null"),
                }
            }
            out.push_str(",\"bounds\":[");
            for (j, &b) in h.bounds().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                num(&mut out, b);
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

/// An [`EventSink`] maintaining the standard engine metrics:
///
/// * `events.<kind>` counters for every [`EngineEvent`] kind plus an
///   `events.total` roll-up,
/// * a `message_delay` histogram over the delays the delay model chose,
/// * a `queue_depth` histogram plus `queue_depth.last` gauge (event-queue
///   pressure),
/// * an `events_per_time` histogram: events per unit of *simulated* time,
///   windowed at a configurable width,
/// * a `global_skew` histogram sampling the clock spread after every event,
/// * `time.last` — the real time of the latest observation.
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
/// The hot path touches **no registry maps**: the standard metrics live in
/// preresolved fields (an `events.*` counter array indexed by
/// [`EngineEvent::kind_index`], owned histograms) and are folded into the
/// registry lazily when it is read — the per-event name lookups and
/// `format!` allocations that made this sink cost 6× an uninstrumented
/// engine are gone from the recording path entirely.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// Synced view plus any custom metrics added via
    /// [`MetricsSink::registry_mut`]. The standard metric names listed
    /// above are owned by the sink: external writes to them are
    /// overwritten at the next sync.
    registry: MetricsRegistry,
    window: f64,
    window_start: f64,
    window_events: u64,
    // Preresolved hot-path handles.
    events_total: u64,
    kind_counts: [u64; gcs_sim::KIND_COUNT],
    message_delay: Histogram,
    queue_depth: Histogram,
    global_skew: Histogram,
    events_per_time: Histogram,
    time_last: f64,
    queue_last: f64,
    seen_snapshot: bool,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// Creates the sink with a rate window of 1 unit of simulated time.
    pub fn new() -> Self {
        MetricsSink::with_rate_window(1.0)
    }

    /// Creates the sink with an explicit events-per-time window width.
    ///
    /// # Panics
    ///
    /// Panics if `window <= 0`.
    pub fn with_rate_window(window: f64) -> Self {
        assert!(window > 0.0, "invalid rate window {window}");
        MetricsSink {
            registry: MetricsRegistry::new(),
            window,
            window_start: 0.0,
            window_events: 0,
            events_total: 0,
            kind_counts: [0; gcs_sim::KIND_COUNT],
            message_delay: Histogram::exponential(1e-3, 2.0, 16),
            queue_depth: Histogram::exponential(1.0, 2.0, 12),
            global_skew: Histogram::exponential(1e-6, 4.0, 20),
            events_per_time: Histogram::exponential(1.0, 2.0, 20),
            time_last: 0.0,
            queue_last: 0.0,
            seen_snapshot: false,
        }
    }

    /// Folds the preresolved hot-path state into the registry so every
    /// read-side accessor sees a consistent view. Idempotent; standard
    /// metric names appear only once their first observation exists,
    /// exactly as the old lazily-created entries did.
    fn sync(&mut self) {
        if self.events_total > 0 {
            let c = self.registry.counter("events.total");
            c.add(self.events_total - c.get());
        }
        for (i, &n) in self.kind_counts.iter().enumerate() {
            if n > 0 {
                let c = self.registry.counter(KIND_COUNTER_NAMES[i]);
                c.add(n - c.get());
            }
        }
        for (name, h) in [
            ("message_delay", &self.message_delay),
            ("queue_depth", &self.queue_depth),
            ("global_skew", &self.global_skew),
            ("events_per_time", &self.events_per_time),
        ] {
            if h.count() > 0 {
                *self.registry.histogram(name, || h.clone()) = h.clone();
            }
        }
        if self.seen_snapshot {
            self.registry.gauge("time.last").set(self.time_last);
            self.registry.gauge("queue_depth.last").set(self.queue_last);
        }
    }

    /// The live registry (synced with the hot-path state on every call).
    pub fn registry(&mut self) -> &MetricsRegistry {
        self.sync();
        &self.registry
    }

    /// Mutable registry access (to add custom metrics alongside).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        self.sync();
        &mut self.registry
    }

    /// Renders the current snapshot (see [`MetricsRegistry::render`]).
    pub fn render(&mut self) -> String {
        self.sync();
        self.registry.render()
    }

    /// Folds any events counted in the still-open rate window into the
    /// `events_per_time` histogram. Call once at the end of a run; the
    /// sink's automatic windowing only closes windows that filled up.
    pub fn flush_rate_window(&mut self, t: f64) {
        let elapsed = t - self.window_start;
        if self.window_events > 0 && elapsed > 0.0 {
            let rate = self.window_events as f64 / elapsed;
            self.events_per_time.record(rate);
        }
        self.window_start = t;
        self.window_events = 0;
    }

    /// Records the state after one event: real time `t`, the global skew
    /// `max − min` over all clocks (`None` for an empty clock vector, which
    /// records no skew sample) and the event-queue depth.
    #[inline]
    pub fn observe(&mut self, t: f64, global: Option<f64>, queue_depth: usize) {
        self.time_last = t;
        self.queue_last = queue_depth as f64;
        self.seen_snapshot = true;
        self.queue_depth.record(queue_depth as f64);
        if let Some(global) = global {
            self.global_skew.record(global);
        }
    }

    fn roll_rate_window(&mut self, t: f64) {
        while t >= self.window_start + self.window {
            let rate = self.window_events as f64 / self.window;
            self.events_per_time.record(rate);
            self.window_start += self.window;
            self.window_events = 0;
        }
    }
}

/// `events.*` counter names, indexed by [`EngineEvent::kind_index`] — the
/// preresolved replacement for the old per-event `format!` lookups.
const KIND_COUNTER_NAMES: [&str; gcs_sim::KIND_COUNT] = [
    "events.wake",
    "events.send",
    "events.transmit",
    "events.drop",
    "events.deliver",
    "events.timer_set",
    "events.timer_cancel",
    "events.timer_fire",
    "events.rate_step",
    "events.multiplier",
];

impl EventSink for MetricsSink {
    #[inline]
    fn record(&mut self, event: &EngineEvent) {
        self.roll_rate_window(event.time());
        self.window_events += 1;
        self.events_total += 1;
        self.kind_counts[event.kind_index()] += 1;
        if let EngineEvent::Transmit { delay: Some(d), .. } = event {
            self.message_delay.record(*d);
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
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        r.gauge("b").set(1.5);
        assert_eq!(r.counter_value("a"), Some(3));
        assert_eq!(r.gauge_value("b"), Some(1.5));
        assert_eq!(r.counter_value("missing"), None);
    }

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
    fn linear_and_exponential_shapes() {
        let lin = Histogram::linear(0.0, 0.5, 4);
        assert_eq!(lin.bounds(), &[0.5, 1.0, 1.5, 2.0]);
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
    fn render_is_sorted_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.gauge("m").set(2.0);
        let text = r.render();
        let a = text.find("counter a").unwrap();
        let z = text.find("counter z").unwrap();
        assert!(a < z);
        assert_eq!(text, r.clone().render());
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
        let mut sink = MetricsSink::with_rate_window(1.0);
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
