//! Online invariant watchdog: checks the paper's correctness conditions
//! *while the execution runs* and keeps a flight recorder of the events
//! leading up to the first violation.
//!
//! Three invariants are monitored, all on the per-event snapshot cadence
//! (exact, because logical clocks are piecewise linear between events):
//!
//! * **Condition (1)** — the affine envelope
//!   `(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t`, per node, via
//!   [`EnvelopeChecker`];
//! * **Condition (2)** — bounded progress
//!   `α(t' − t) ≤ L_v(t') − L_v(t) ≤ β(t' − t)`, per node, via
//!   [`ProgressChecker`] with `A^opt`'s Corollary 5.3 envelope;
//! * **Definition 5.6** — the legal-state invariant
//!   `L_v − L_w ≤ d(v,w)(s + ½)κ` at every level, via
//!   [`LegalStateChecker`].
//!
//! On the first violation the watchdog *trips*: it freezes a
//! [`WatchdogTrip`] carrying the violation and the last `N` engine events
//! from its ring buffer, then stops checking (the first broken invariant is
//! the diagnostic signal; everything after it is noise).

use gcs_core::Params;
use gcs_graph::Graph;
use gcs_sim::{EngineEvent, EventSink, RingBufferSink};
use gcs_time::{DriftBounds, EnvelopeChecker, ProgressChecker, RateEnvelope};

use crate::legal::{LegalStateChecker, LegalStateViolation};

/// Which invariant broke, with the observations that broke it.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchdogViolation {
    /// Condition (1): a logical clock left the affine envelope of real time.
    Envelope {
        /// The offending node.
        node: usize,
        /// Real time of the violating sample.
        t: f64,
        /// The logical value observed.
        logical: f64,
        /// Slack against the lower envelope (negative = too slow).
        low_margin: f64,
        /// Slack against the upper envelope (negative = too fast).
        high_margin: f64,
    },
    /// Condition (2): a logical clock's increment left `[α, β]` per unit
    /// of real time.
    Progress {
        /// The offending node.
        node: usize,
        /// Real time of the violating sample.
        t: f64,
        /// Slack against the minimum rate `α` (negative = stalled).
        min_margin: f64,
        /// Slack against the maximum rate `β` (negative = jumped).
        max_margin: f64,
    },
    /// Definition 5.6: a pair exceeded its legal-state bound.
    LegalState(LegalStateViolation),
}

impl WatchdogViolation {
    /// A short stable tag (`envelope` / `progress` / `legal`), used by the
    /// chaos engine's verdict plumbing and fixture format.
    pub fn kind(&self) -> &'static str {
        match self {
            WatchdogViolation::Envelope { .. } => "envelope",
            WatchdogViolation::Progress { .. } => "progress",
            WatchdogViolation::LegalState(_) => "legal",
        }
    }

    /// The (primary) offending node — the ahead node for a legal-state
    /// violation.
    pub fn node(&self) -> usize {
        match self {
            WatchdogViolation::Envelope { node, .. } | WatchdogViolation::Progress { node, .. } => {
                *node
            }
            WatchdogViolation::LegalState(v) => v.v,
        }
    }

    /// Real time of the violating sample.
    pub fn time(&self) -> f64 {
        match self {
            WatchdogViolation::Envelope { t, .. } | WatchdogViolation::Progress { t, .. } => *t,
            WatchdogViolation::LegalState(v) => v.t,
        }
    }
}

/// The frozen diagnosis of the first violation.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogTrip {
    /// What broke.
    pub violation: WatchdogViolation,
    /// The last events before (and including the instant of) the
    /// violation, oldest first — the flight-recorder context.
    pub recent_events: Vec<EngineEvent>,
    /// Total events recorded before the trip (including evicted ones).
    pub events_recorded: u64,
}

impl WatchdogTrip {
    /// Renders the trip as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.violation {
            WatchdogViolation::Envelope {
                node,
                t,
                logical,
                low_margin,
                high_margin,
            } => {
                out.push_str(&format!(
                    "watchdog: Condition (1) violated at t={t}: node {node} has \
                     L={logical} (low margin {low_margin:.6}, high margin {high_margin:.6})\n"
                ));
            }
            WatchdogViolation::Progress {
                node,
                t,
                min_margin,
                max_margin,
            } => {
                out.push_str(&format!(
                    "watchdog: Condition (2) violated at t={t}: node {node} progress \
                     out of [α, β] (min margin {min_margin:.6}, max margin {max_margin:.6})\n"
                ));
            }
            WatchdogViolation::LegalState(v) => {
                out.push_str(&format!(
                    "watchdog: legal state (Def. 5.6) violated at t={}: \
                     L_v{} − L_v{} = {:.6} > bound {:.6} (distance {}, level {})\n",
                    v.t, v.v, v.w, v.skew, v.bound, v.distance, v.level
                ));
            }
        }
        out.push_str(&format!(
            "last {} of {} events before the violation:\n",
            self.recent_events.len(),
            self.events_recorded
        ));
        for e in &self.recent_events {
            out.push_str("  ");
            out.push_str(&crate::events::encode_event(e));
            out.push('\n');
        }
        out
    }
}

/// The online invariant watchdog sink. See the module docs.
#[derive(Debug, Clone)]
pub struct InvariantWatchdog {
    drift: DriftBounds,
    envelope: RateEnvelope,
    /// The Condition (1)/(2) checkers' slack: 1e-9 absolute, the same as
    /// the legal-state checker's, and with the same limit — from clock
    /// values L ≥ 2²³ ≈ 8.4·10⁶ one ulp (1.9·10⁻⁹) exceeds it.
    tolerance: f64,
    /// Per-node Condition (1) checker, created when the node wakes (the
    /// envelope needs the initialization time `t_v`).
    envelopes: Vec<Option<EnvelopeChecker>>,
    /// Per-node Condition (2) checker (only fed once the node is started).
    progress: Vec<ProgressChecker>,
    legal: LegalStateChecker,
    ring: RingBufferSink,
    trip: Option<Box<WatchdogTrip>>,
    snapshots: u64,
}

impl InvariantWatchdog {
    /// Default flight-recorder depth.
    pub const DEFAULT_RING_CAPACITY: usize = 64;

    /// Creates a watchdog for executions of `A^opt`(-like) protocols with
    /// parameters `params` on `graph`, under hardware drift at most
    /// `drift`. Conditions (1)/(2) use the Corollary 5.3 envelope
    /// `[1 − ε, (1 + ε)(1 + μ)]`.
    pub fn new(graph: &Graph, params: Params, drift: DriftBounds) -> Self {
        InvariantWatchdog::with_ring_capacity(graph, params, drift, Self::DEFAULT_RING_CAPACITY)
    }

    /// Like [`InvariantWatchdog::new`] with an explicit flight-recorder
    /// depth.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity == 0`.
    pub fn with_ring_capacity(
        graph: &Graph,
        params: Params,
        drift: DriftBounds,
        ring_capacity: usize,
    ) -> Self {
        let n = graph.len();
        let envelope = RateEnvelope::for_a_opt(drift, params.mu());
        InvariantWatchdog {
            drift,
            envelope,
            tolerance: 1e-9,
            envelopes: vec![None; n],
            progress: vec![ProgressChecker::new(envelope, 1e-9); n],
            legal: LegalStateChecker::new(graph, params),
            ring: RingBufferSink::new(ring_capacity),
            trip: None,
            snapshots: 0,
        }
    }

    /// Whether a violation has been detected.
    pub fn tripped(&self) -> bool {
        self.trip.is_some()
    }

    /// The frozen diagnosis, if the watchdog tripped.
    pub fn trip(&self) -> Option<&WatchdogTrip> {
        self.trip.as_ref().map(Box::as_ref)
    }

    /// Number of state snapshots checked.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// The legal-state checker (margins, first violation).
    pub fn legal_state(&self) -> &LegalStateChecker {
        &self.legal
    }

    /// The Condition (2) progress envelope the watchdog enforces.
    pub fn rate_envelope(&self) -> RateEnvelope {
        self.envelope
    }

    fn trip_with(&mut self, violation: WatchdogViolation) {
        self.trip = Some(Box::new(WatchdogTrip {
            violation,
            recent_events: self.ring.events().copied().collect(),
            events_recorded: self.ring.recorded(),
        }));
    }
}

impl EventSink for InvariantWatchdog {
    fn record(&mut self, event: &EngineEvent) {
        if self.trip.is_some() {
            return;
        }
        self.ring.record(event);
        if let EngineEvent::Wake { node, t, .. } = event {
            self.envelopes[node.index()] =
                Some(EnvelopeChecker::new(self.drift, *t, self.tolerance));
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], _queue_depth: usize) {
        if self.trip.is_some() {
            return;
        }
        self.snapshots += 1;
        for (node, &logical) in clocks.iter().enumerate() {
            // Unstarted nodes hold L = 0 and are exempt from every
            // condition until their wake event creates their checker.
            let Some(env) = self.envelopes[node].as_mut() else {
                continue;
            };
            if !env.observe(t, logical) {
                let (low, high) = (env.worst_low_margin(), env.worst_high_margin());
                self.trip_with(WatchdogViolation::Envelope {
                    node,
                    t,
                    logical,
                    low_margin: low,
                    high_margin: high,
                });
                return;
            }
            let prog = &mut self.progress[node];
            if !prog.observe(t, logical) {
                let (min, max) = (prog.worst_min_margin(), prog.worst_max_margin());
                self.trip_with(WatchdogViolation::Progress {
                    node,
                    t,
                    min_margin: min,
                    max_margin: max,
                });
                return;
            }
        }
        if !self.legal.observe_clocks(t, clocks) {
            let v = self
                .legal
                .first_violation()
                .expect("observe returned false");
            self.trip_with(WatchdogViolation::LegalState(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, NoSync, Params};
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, Engine, UniformDelay};

    fn drift() -> DriftBounds {
        DriftBounds::new(0.02).unwrap()
    }

    #[test]
    fn healthy_a_opt_run_never_trips() {
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(5);
        let watchdog = InvariantWatchdog::new(&g, params, drift());
        let schedules = gcs_sim::rates::split(5, drift(), |v| v < 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); 5])
            .delay_model(UniformDelay::new(0.2, 7))
            .rate_schedules(schedules)
            .event_sink(watchdog)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(80.0);
        let watchdog = engine.into_sink();
        assert!(!watchdog.tripped(), "{:?}", watchdog.trip());
        assert!(watchdog.snapshots() > 0);
    }

    #[test]
    fn unsynchronized_clocks_trip_with_event_context() {
        // NoSync under maximal drift split eventually breaks the
        // neighbour-level legal-state constraint; the trip must carry the
        // flight-recorder context.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let n = 7;
        let g = topology::path(n);
        let watchdog = InvariantWatchdog::new(&g, params, drift());
        let schedules = gcs_sim::rates::split(n, drift(), |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; n])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .event_sink(watchdog)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(3000.0);
        let watchdog = engine.into_sink();
        assert!(watchdog.tripped());
        let trip = watchdog.trip().unwrap();
        assert!(matches!(
            trip.violation,
            WatchdogViolation::LegalState(_) | WatchdogViolation::Envelope { .. }
        ));
        assert!(!trip.recent_events.is_empty());
        assert!(trip.events_recorded >= trip.recent_events.len() as u64);
        let report = trip.render();
        assert!(report.contains("watchdog:"));
        assert!(report.contains("events before the violation"));
    }

    #[test]
    fn stalled_clock_trips_progress_condition() {
        // NoSync's L = H obeys Condition (1) under correct drift bounds,
        // but a *stalled* clock (rate far below α) breaks Condition (2)
        // against the A^opt envelope... and Condition (1)'s lower envelope
        // too; whichever fires, the watchdog must trip on a slow clock.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(2);
        let watchdog = InvariantWatchdog::new(&g, params, drift());
        // Rate 0.9 is far below 1 − ε = 0.98: illegal hardware for these
        // bounds, so the logical clock must leave the envelope.
        let schedules = vec![
            gcs_time::RateSchedule::constant(0.9).unwrap(),
            gcs_time::RateSchedule::constant(1.0).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 2])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .event_sink(watchdog)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(50.0);
        let watchdog = engine.into_sink();
        assert!(watchdog.tripped());
        assert!(matches!(
            watchdog.trip().unwrap().violation,
            WatchdogViolation::Envelope { .. } | WatchdogViolation::Progress { .. }
        ));
    }

    #[test]
    fn checking_stops_after_the_trip() {
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(2);
        let mut watchdog = InvariantWatchdog::new(&g, params, drift());
        watchdog.record(&EngineEvent::Wake {
            node: gcs_graph::NodeId(0),
            t: 0.0,
            hw: 0.0,
        });
        watchdog.record(&EngineEvent::Wake {
            node: gcs_graph::NodeId(1),
            t: 0.0,
            hw: 0.0,
        });
        // Violates the upper envelope immediately (L far above (1+ε)t).
        watchdog.snapshot(1.0, &[100.0, 0.0], 0);
        assert!(watchdog.tripped());
        let count = watchdog.snapshots();
        watchdog.snapshot(2.0, &[200.0, 0.0], 0);
        assert_eq!(watchdog.snapshots(), count);
    }
}
