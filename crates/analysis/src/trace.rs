//! Exact skew observation over an execution.

use gcs_graph::{Graph, NodeId};
use gcs_sim::{ClockView, DelayModel, Engine, EventSink, Protocol};

use crate::kinetic::Kinetic;

/// Observations per cost check of the event-local path.
const WINDOW: u32 = 64;

/// Clocks a full scan reads for the cost of one certificate the
/// event-local path re-examines (a heap re-key plus a few clock reads:
/// about 150 ns against 12 ns per scanned clock on `path:1024`).
const SCAN_PER_CERT: usize = 12;

/// Observations the first full-scan stint lasts; each further stint in a
/// row doubles, up to [`MAX_STINT`]. A stint ends with an `O(n + m)`
/// rebuild of every certificate, which 256 observations amortize.
const FIRST_STINT: u32 = 256;

/// Cap on a full-scan stint.
const MAX_STINT: u32 = 1 << 16;

/// Tracks the worst-case global and local skew of an execution.
///
/// Install it as the engine's event sink
/// ([`EngineBuilder::event_sink`](gcs_sim::EngineBuilder::event_sink)):
/// because logical clocks are piecewise linear between events, per-event
/// observation captures exact worst cases. As a sink it observes
/// *event-locally* ([`SkewObserver::observe_local`]): certificates, exact
/// in `f64`, that each node stays below the current maximum or above the
/// current minimum and that each edge stays within the local record sit in
/// alarm heaps, and an event re-examines only the nodes it touched and the
/// certificates that expired — not all `n` clocks and `m` edges.
/// [`SkewObserver::observe_clocks`] is the full-scan path for a clock
/// vector that already exists; both paths report bit-identical worst
/// values, times and pairs.
///
/// # Example
///
/// ```
/// use gcs_analysis::SkewObserver;
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let g = topology::path(4);
/// let mut engine = Engine::builder(g.clone())
///     .protocols(vec![AOpt::new(p); 4])
///     .delay_model(ConstantDelay::new(0.05))
///     .event_sink(SkewObserver::new(&g))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until(30.0);
/// let obs = engine.sink();
/// assert!(obs.worst_global() <= p.global_skew_bound(3));
/// assert!(obs.worst_local() <= obs.worst_global() + 1e-12);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SkewObserver {
    edges: Vec<(usize, usize)>,
    worst_global: f64,
    worst_local: f64,
    worst_global_at: f64,
    worst_local_at: f64,
    worst_global_pair: (usize, usize),
    worst_local_pair: (usize, usize),
    /// `max − min` at the latest observation (`None` before the first one
    /// and on an empty clock vector).
    current_global: Option<f64>,
    observations: u64,
    /// Reused clock vector of [`SkewObserver::observe`].
    scratch: Vec<f64>,
    /// Event-local state, built on the first [`SkewObserver::observe_local`].
    kinetic: Option<Box<Kinetic>>,
    /// The event-local path's cost check: certificates re-examined and
    /// observations in the current window.
    window_work: usize,
    window_observations: u32,
    /// Event-local observations still to serve by a full scan, and the
    /// length of the next such stint.
    scan_left: u32,
    stint: u32,
}

impl SkewObserver {
    /// Creates an observer for executions on `graph`.
    pub fn new(graph: &Graph) -> Self {
        SkewObserver {
            edges: graph.edges().map(|(a, b)| (a.index(), b.index())).collect(),
            worst_global: 0.0,
            worst_local: 0.0,
            worst_global_at: 0.0,
            worst_local_at: 0.0,
            worst_global_pair: (0, 0),
            worst_local_pair: (0, 0),
            current_global: None,
            observations: 0,
            scratch: Vec::new(),
            kinetic: None,
            window_work: 0,
            window_observations: 0,
            scan_left: 0,
            stint: FIRST_STINT,
        }
    }

    /// Records the engine's current state (the full-scan path, into a
    /// reused buffer).
    pub fn observe<P: Protocol, D: DelayModel, S: EventSink>(&mut self, engine: &Engine<P, D, S>) {
        let mut clocks = std::mem::take(&mut self.scratch);
        engine.logical_values_into(&mut clocks);
        self.observe_clocks(engine.now(), &clocks);
        self.scratch = clocks;
    }

    /// Records a clock vector sampled at time `t` (e.g. from an
    /// [`EventSink::snapshot`] callback): a full `O(n + m)` scan.
    pub fn observe_clocks(&mut self, t: f64, clocks: &[f64]) {
        if let Some(kinetic) = self.kinetic.as_mut() {
            // The event-local state did not see the events behind this
            // vector; it must not trust its certificates any more.
            kinetic.stale = true;
        }
        self.observations += 1;
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        let mut argmax = 0;
        let mut argmin = 0;
        for (i, &c) in clocks.iter().enumerate() {
            if c > max {
                max = c;
                argmax = i;
            }
            if c < min {
                min = c;
                argmin = i;
            }
        }
        let global = max - min;
        self.current_global = (max >= min).then_some(global);
        let mut local: f64 = 0.0;
        let mut local_pair = (0, 0);
        for &(a, b) in &self.edges {
            let skew = (clocks[a] - clocks[b]).abs();
            if skew > local {
                local = skew;
                local_pair = if clocks[a] >= clocks[b] {
                    (a, b)
                } else {
                    (b, a)
                };
            }
        }
        if global > self.worst_global {
            self.worst_global = global;
            self.worst_global_at = t;
            self.worst_global_pair = (argmax, argmin);
        }
        if local > self.worst_local {
            self.worst_local = local;
            self.worst_local_at = t;
            self.worst_local_pair = local_pair;
        }
    }

    /// Records the state after an event at time `t` that changed the clock
    /// trajectories of `touched` (see [`EventSink::local_snapshot`]),
    /// reading clocks lazily from `clocks`. Costs `O(log n)` per touched
    /// node, incident edge and expired certificate instead of a scan, and
    /// reports exactly what [`SkewObserver::observe_clocks`] would on the
    /// full vector: same worst values, times and pairs, bit for bit,
    /// including its tie rules.
    ///
    /// Where certificates lapse faster than a scan reads clocks — small
    /// graphs, high-degree hubs, clocks still fanning out from a common
    /// start — the observer notices (over each window of 64 observations
    /// it re-examined more than `(n + m) / 12` certificates per
    /// observation) and serves the following observations by reading
    /// every clock and scanning, for a stint that doubles while the
    /// event-local path keeps losing. Both ways give the same results;
    /// only the cost differs.
    ///
    /// Every event since the previous observation must be accounted for in
    /// `touched` (the engine guarantees this for a sink it serves).
    pub fn observe_local(&mut self, t: f64, touched: &[NodeId], clocks: &dyn ClockView) {
        let n = clocks.len();
        if n == 0 || self.scan_left > 0 {
            self.scan_left = self.scan_left.saturating_sub(1);
            let mut values = std::mem::take(&mut self.scratch);
            values.clear();
            values.extend((0..n).map(|v| clocks.value(NodeId(v))));
            self.observe_clocks(t, &values);
            self.scratch = values;
            return;
        }
        self.observations += 1;
        // A (re)build re-examines everything; it is not the steady cost.
        let rebuild = self.kinetic.as_ref().is_none_or(|k| k.stale);
        let edges = &self.edges;
        let kinetic = self
            .kinetic
            .get_or_insert_with(|| Box::new(Kinetic::new(n, edges)));
        let reading = kinetic.observe(t, touched, clocks, &self.edges, self.worst_local);
        if !rebuild {
            self.pace(reading.work, n);
        }
        let global = reading.max - reading.min;
        self.current_global = Some(global);
        if global > self.worst_global {
            self.worst_global = global;
            self.worst_global_at = t;
            self.worst_global_pair = (reading.argmax, reading.argmin);
        }
        if let Some((local, ahead, behind)) = reading.local_record {
            self.worst_local = local;
            self.worst_local_at = t;
            self.worst_local_pair = (ahead, behind);
        }
    }

    /// Adds one event-local observation's work to the cost window, and
    /// starts a full-scan stint as soon as the window costs more than
    /// scanning it would have.
    fn pace(&mut self, work: usize, n: usize) {
        self.window_work += work;
        self.window_observations += 1;
        let scan_cost = WINDOW as usize * (n + self.edges.len()) / SCAN_PER_CERT;
        if self.window_work > scan_cost {
            // Costlier than a whole window of scans already: hand over now.
            self.scan_left = self.stint;
            self.stint = (self.stint * 2).min(MAX_STINT);
        } else if self.window_observations == WINDOW {
            self.stint = FIRST_STINT;
        } else {
            return;
        }
        self.window_work = 0;
        self.window_observations = 0;
    }

    /// The largest pairwise skew seen so far.
    pub fn worst_global(&self) -> f64 {
        self.worst_global
    }

    /// The largest neighbour skew seen so far.
    pub fn worst_local(&self) -> f64 {
        self.worst_local
    }

    /// The global skew `max − min` over all clocks at the latest
    /// observation, as either path computed it — bit-identical to a fold
    /// over the full clock vector. `None` before the first observation and
    /// for an empty graph.
    pub fn current_global(&self) -> Option<f64> {
        self.current_global
    }

    /// When the worst global skew occurred.
    pub fn worst_global_at(&self) -> f64 {
        self.worst_global_at
    }

    /// When the worst local skew occurred.
    pub fn worst_local_at(&self) -> f64 {
        self.worst_local_at
    }

    /// The `(argmax, argmin)` node pair attaining the worst global skew
    /// (`(0, 0)` before any observation).
    pub fn worst_global_pair(&self) -> (usize, usize) {
        self.worst_global_pair
    }

    /// The `(ahead, behind)` edge attaining the worst local skew
    /// (`(0, 0)` before any observation).
    pub fn worst_local_pair(&self) -> (usize, usize) {
        self.worst_local_pair
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// As a sink, the observer ignores the event stream and observes exact
/// skew after every event: event-locally, except during a full-scan stint
/// (see [`SkewObserver::observe_local`]), when it asks the engine for the
/// clock vector instead — the engine builds it more cheaply than a scan
/// through a [`ClockView`] reads it.
impl EventSink for SkewObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn wants_snapshots(&self) -> bool {
        self.scan_left > 0
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], _queue_depth: usize) {
        self.scan_left = self.scan_left.saturating_sub(1);
        self.observe_clocks(t, clocks);
    }

    fn wants_local_snapshots(&self) -> bool {
        self.scan_left == 0
    }

    fn local_snapshot(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        _queue_depth: usize,
    ) {
        self.observe_local(t, touched, clocks);
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
    fn tracks_divergence_of_unsynchronized_clocks() {
        let g = topology::path(3);
        let schedules = vec![
            RateSchedule::constant(1.1).unwrap(),
            RateSchedule::constant(1.0).unwrap(),
            RateSchedule::constant(0.9).unwrap(),
        ];
        let mut obs = SkewObserver::new(&g);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 3])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(10.0, |e| obs.observe(e));
        assert!((obs.worst_global() - 2.0).abs() < 1e-9); // 0.2/s for 10s
        assert!((obs.worst_local() - 1.0).abs() < 1e-9); // 0.1/s per edge
        assert!((obs.worst_global_at() - 10.0).abs() < 1e-9);
        assert_eq!(obs.worst_global_pair(), (0, 2), "fastest vs slowest");
        let (ahead, behind) = obs.worst_local_pair();
        assert!(ahead < behind, "earlier node drifts ahead on this path");
    }

    /// Piecewise-linear clocks under test control: node `v` reads
    /// `l0[v] + slope[v] · (t − t0[v])`.
    struct Lines {
        l0: Vec<f64>,
        t0: Vec<f64>,
        slope: Vec<f64>,
        now: f64,
    }

    impl ClockView for Lines {
        fn len(&self) -> usize {
            self.l0.len()
        }

        fn value(&self, v: NodeId) -> f64 {
            self.value_at(v, self.now)
        }

        fn value_at(&self, v: NodeId, t: f64) -> f64 {
            let i = v.index();
            self.l0[i] + self.slope[i] * (t - self.t0[i])
        }
    }

    /// Drives a twin pair of observers through random piecewise-linear
    /// clocks — coarse slopes, values and time steps, so ties and
    /// same-instant observations are frequent — and checks that the
    /// event-local path reports the full scan's results bit for bit.
    /// `backward` lets touched clocks jump back (breaking Condition 2), which
    /// forces the leader-certificate rescan.
    fn random_lines_agree(graph: &Graph, seed: u64, backward: bool) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        let n = graph.len();
        let mut lines = Lines {
            l0: vec![0.0; n],
            t0: vec![0.0; n],
            slope: vec![0.0; n],
            now: 0.0,
        };
        let mut full = SkewObserver::new(graph);
        let mut local = SkewObserver::new(graph);
        let mut clocks = Vec::with_capacity(n);
        let mut touched = Vec::new();
        for _ in 0..400 {
            lines.now += [0.0, 0.25, 0.5, 1.0][next(4) as usize];
            touched.clear();
            for _ in 0..next(3) {
                let v = next(n as u64) as usize;
                let at = lines.now;
                let mut l = lines.value(NodeId(v));
                l += match next(6) {
                    0 => 0.5,
                    1 if backward => -0.5,
                    _ => 0.0,
                };
                lines.l0[v] = l;
                lines.t0[v] = at;
                lines.slope[v] = [0.0, 0.5, 1.0, 1.5][next(4) as usize];
                touched.push(NodeId(v));
            }
            clocks.clear();
            clocks.extend((0..n).map(|v| lines.value(NodeId(v))));
            full.observe_clocks(lines.now, &clocks);
            // Keep the event-local path on: these graphs are small enough
            // that its cost check would hand most observations to a scan.
            local.scan_left = 0;
            local.observe_local(lines.now, &touched, &lines);
            let ctx = format!("seed {seed}, t = {}", lines.now);
            assert_eq!(
                full.worst_global().to_bits(),
                local.worst_global().to_bits(),
                "{ctx}"
            );
            assert_eq!(full.worst_global_at(), local.worst_global_at(), "{ctx}");
            assert_eq!(full.worst_global_pair(), local.worst_global_pair(), "{ctx}");
            assert_eq!(
                full.worst_local().to_bits(),
                local.worst_local().to_bits(),
                "{ctx}"
            );
            assert_eq!(full.worst_local_at(), local.worst_local_at(), "{ctx}");
            assert_eq!(full.worst_local_pair(), local.worst_local_pair(), "{ctx}");
            assert_eq!(
                full.current_global().map(f64::to_bits),
                local.current_global().map(f64::to_bits),
                "{ctx}"
            );
        }
        assert_eq!(full.observations(), local.observations());
    }

    #[test]
    fn event_local_path_matches_full_scan_on_random_lines() {
        for seed in 0..40 {
            for graph in [
                topology::path(1),
                topology::path(2),
                topology::path(7),
                topology::cycle(6),
                topology::star(9),
                topology::grid(4, 3),
            ] {
                random_lines_agree(&graph, seed, false);
            }
        }
    }

    #[test]
    fn event_local_path_rescans_when_clocks_run_backwards() {
        for seed in 0..40 {
            random_lines_agree(&topology::path(6), seed, true);
            random_lines_agree(&topology::cycle(5), seed, true);
        }
    }

    #[test]
    fn vector_observations_reset_the_event_local_state() {
        // Alternating paths: the vector observations skip touches the
        // local path never hears about, so it must start over afterwards.
        let g = topology::path(4);
        let mut lines = Lines {
            l0: vec![0.0; 4],
            t0: vec![0.0; 4],
            slope: vec![1.0, 1.0, 1.0, 1.0],
            now: 0.0,
        };
        let mut mixed = SkewObserver::new(&g);
        let mut full = SkewObserver::new(&g);
        for step in 1..=12 {
            lines.now = step as f64;
            let v = step % 4;
            lines.l0[v] = lines.value(NodeId(v));
            lines.t0[v] = lines.now;
            lines.slope[v] = 1.0 + 0.25 * (step % 3) as f64;
            let clocks: Vec<f64> = (0..4).map(|v| lines.value(NodeId(v))).collect();
            full.observe_clocks(lines.now, &clocks);
            if step % 3 == 0 {
                mixed.observe_clocks(lines.now, &clocks);
            } else {
                mixed.scan_left = 0;
                mixed.observe_local(lines.now, &[NodeId(v)], &lines);
            }
            assert_eq!(full.worst_global_pair(), mixed.worst_global_pair());
            assert_eq!(full.worst_local_pair(), mixed.worst_local_pair());
            assert_eq!(
                full.worst_global().to_bits(),
                mixed.worst_global().to_bits()
            );
            assert_eq!(full.worst_local().to_bits(), mixed.worst_local().to_bits());
        }
    }

    #[test]
    fn costly_event_local_windows_hand_over_to_scan_stints() {
        // Every node touched at every observation: the event-local path
        // re-examines far more than a scan reads, so after one window the
        // observer scans for a stint, rebuilds, and loses again — with
        // results matching the full scan throughout.
        let g = topology::star(16);
        let n = g.len();
        let mut lines = Lines {
            l0: vec![0.0; n],
            t0: vec![0.0; n],
            slope: (0..n).map(|v| 1.0 + 0.01 * v as f64).collect(),
            now: 0.0,
        };
        let all: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut full = SkewObserver::new(&g);
        let mut local = SkewObserver::new(&g);
        let mut stints = 0;
        for step in 1..=2000 {
            lines.now = step as f64 * 0.01;
            let clocks: Vec<f64> = (0..n).map(|v| lines.value(NodeId(v))).collect();
            full.observe_clocks(lines.now, &clocks);
            let scanning = local.scan_left > 0;
            local.observe_local(lines.now, &all, &lines);
            if !scanning && local.scan_left > 0 {
                stints += 1;
            }
            assert_eq!(full.worst_global_pair(), local.worst_global_pair());
            assert_eq!(full.worst_local_pair(), local.worst_local_pair());
            assert_eq!(
                full.worst_global().to_bits(),
                local.worst_global().to_bits()
            );
            assert_eq!(full.worst_local().to_bits(), local.worst_local().to_bits());
        }
        assert!(stints >= 2, "expected repeated scan stints, saw {stints}");
        assert!(
            local.stint > FIRST_STINT,
            "stints double while scanning wins"
        );
        assert_eq!(full.observations(), local.observations());
    }

    #[test]
    fn local_never_exceeds_global() {
        let g = topology::cycle(5);
        let mut obs = SkewObserver::new(&g);
        let drift = gcs_time::DriftBounds::new(0.1).unwrap();
        let schedules = gcs_sim::rates::random_walk(5, drift, 1.0, 30.0, 9);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 5])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(30.0, |e| obs.observe(e));
        assert!(obs.worst_local() <= obs.worst_global() + 1e-12);
        assert!(obs.observations() > 0);
    }
}
