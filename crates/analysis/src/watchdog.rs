//! Online invariant watchdog: checks the paper's correctness conditions
//! *while the execution runs* and keeps a flight recorder of the events
//! leading up to the first violation.
//!
//! Three invariants are decided at every sample — after every processed
//! event and at the horizon, which is exact, because logical clocks are
//! piecewise linear between events:
//!
//! * **Condition (1)** — the affine envelope
//!   `(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t`, per node, via
//!   [`EnvelopeChecker::margins`];
//! * **Condition (2)** — bounded progress
//!   `α(t' − t) ≤ L_v(t') − L_v(t) ≤ β(t' − t)`, per node and pair of
//!   consecutive samples, via [`RateEnvelope::progress_margins`] with
//!   `A^opt`'s Corollary 5.3 envelope, its `α` scaled by the protocol's
//!   multiplier floor ([`InvariantWatchdog::with_multiplier_floor`]);
//! * **Definition 5.6** — the legal-state invariant
//!   `L_v − L_w ≤ d(v,w)(s + ½)κ` at every level, via
//!   [`LegalStateChecker`].
//!
//! Each condition holds within an absolute `f64` tolerance of 1e-9. A
//! sample comes either as the full clock vector ([`EventSink::snapshot`])
//! or event-locally ([`InvariantWatchdog::observe_local`]); both decide
//! the same trip at the same sample, with the same fields.
//!
//! # Definition 5.6 from the edge skews
//!
//! Every level bounds a pair at distance `d` by at least `d·κ/2`, so if
//! every *edge* skew is at most `κ/2`, every pair is legal by the triangle
//! inequality. The vector path first takes `E`, the largest computed
//! `|L_a − L_b|` over the graph's edges (O(|E|)), and skips the all-pairs
//! scan when `E ≤ τ = (κ/2)(1 − 4·f64::EPSILON)`. Only when an edge
//! exceeds `τ` (or reads NaN) does it run
//! [`LegalStateChecker::observe_clocks`], built at that first need, so the
//! violation reported is exactly the scan's.
//!
//! The margin is stated in f64, with unit roundoff `u = 2⁻⁵³`
//! (`4·f64::EPSILON = 8u`), and assumes `κ/2` is a normal float:
//!
//! * a computed edge skew is `≥ |L_a − L_b|(1 − u)`, so the real skew of a
//!   pair at distance `d` is `≤ d·E/(1 − u)`, and the scan's computed skew
//!   `≤ d·E(1 + u)/(1 − u)`;
//! * the scan's computed bound `fl(fl(d(s + ½))·κ) ≥ d(κ/2)(1 − u)²`;
//! * the computed `τ ≤ (κ/2)(1 − 8u)(1 + u)`;
//! * `(1 − 8u)(1 + u)² ≤ (1 − u)³`, so `E ≤ τ` puts every computed skew at
//!   or below its computed bound: no margin goes negative, without leaning
//!   on the checker's 1e-9 tolerance.
//!
//! The event-local path takes `E` from the skew observer instead: its
//! local record is the largest `|L_a − L_b|` over every sampled edge so
//! far, the same expression on both of the observer's paths, so while it
//! stays `≤ τ` every sample so far passed the vector path's test.
//!
//! Unstarted nodes hold `L = 0` and are exempt from Conditions (1)/(2)
//! until their wake, on both paths alike.
//!
//! # The event-local path
//!
//! A node the event touched is checked exactly: its clock now, paired for
//! Condition (2) with its clock at the previous sample, which the engine
//! read before the event changed it ([`ClockView::previous_sample`]).
//! Between touches a node's clock is affine up to a relative error
//! `δ = 2⁻⁴⁴` (the [`ClockView::rate_floor`] promise) and non-decreasing,
//! so after each exact check the node is *certified* until a time `T`: one
//! far read gives its slope, each Condition (1) margin and the Condition (2)
//! band close at their rates against half the tolerance, and the window's
//! end is read and verified. A certificate claims every sample in
//! `(t_c, T]` passes both conditions; it sits in an alarm heap, and a node
//! whose alarm has passed is read, checked exactly (its previous sample is
//! read back through [`ClockView::value_at`]) and certified again. A node
//! that cannot be certified past `t_c` — its slope out of band, a margin
//! about to close, or no rate floor — is watched: checked exactly at every
//! later sample until a touch or a check certifies it. The first violating
//! node in index order trips, as in the vector scan.
//!
//! The verification is stated in f64, with `A = max(|L_c|, |L_T|)` the
//! largest clock on the window (by monotonicity), ρ = `VALUE_SLACK` =
//! `2⁻⁴¹` and σ = `TIME_SLACK` = `2⁻⁴⁹ = 16u`:
//!
//! * Condition (1): each margin is within `(δ + u)A + 3.02u·R₁` of an
//!   affine function, `R₁ = (m + M)(|t_c| + |T|) + m|t_v|` bounding the
//!   rate-times-time terms. Both computed margins at `t_c` and at `T` must
//!   reach the floor `−tol + ρA + σ(R₁ + tol)`. A sample inside can read
//!   at most `2(δ + u)A + 6.04u·R₁ + u·tol` below the ends (rounding at an
//!   end, at the sample and of the floor), less than the floor's charge.
//! * Condition (2): over `W = T − t_c`, the computed window increment's
//!   margins `(X, Y)` bound the slope's: `(s − α)D ≥ min(0, X) − 2δA` for
//!   every pair `D ≤ W` inside, and a sample pair's own rounding costs at
//!   most `(2δ + 4.02u)A + 3.03u(α + β)W`. `X` and `Y` must reach
//!   `−tol + ρA + σ((α + β)W + tol)`, and that floor must be at most `0`;
//!   `ρ ≥ 4δ + 8.04u` covers the sum.
//!
//! So a certificate may lapse early, never late: every decision still
//! comes from exact reads. The floor `ρA ≤ tol` caps the certificates'
//! reach at clocks of about `tol/(2ρ) ≈ 1100`; a node read past that sends
//! the watchdog back to vectors for the rest of the run, as does the first
//! edge record past `τ`. Either switch checks the current sample's
//! Definition 5.6 on the view's clock vector ([`ClockView::values`]), and
//! seeds every node's previous sample with it. A vector sample, which the
//! certificates do not see, switches the watchdog to vectors as well.
//!
//! On the first violation the watchdog *trips*: it freezes a
//! [`WatchdogTrip`] carrying the violation and the last `N` engine events
//! from its ring buffer, then stops checking (the first broken invariant is
//! the diagnostic signal; everything after it is noise).

use gcs_core::Params;
use gcs_graph::{Graph, NodeId};
use gcs_sim::{ClockView, EngineEvent, EventSink, RingBufferSink};
use gcs_time::{DriftBounds, EnvelopeChecker, RateEnvelope};

use crate::kinetic::{AlarmHeap, CLAIM, FAR};
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
        /// Slack against the lower envelope at this sample (negative = too
        /// slow).
        low_margin: f64,
        /// Slack against the upper envelope at this sample (negative = too
        /// fast).
        high_margin: f64,
    },
    /// Condition (2): a logical clock's increment left `[α, β]` per unit
    /// of real time.
    Progress {
        /// The offending node.
        node: usize,
        /// Real time of the violating sample.
        t: f64,
        /// Slack of the increment from the previous sample against the
        /// minimum rate `α` (negative = stalled).
        min_margin: f64,
        /// Slack of the same increment against the maximum rate `β`
        /// (negative = jumped).
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

/// One node's Condition (1)/(2) state.
#[derive(Debug, Clone, Copy, Default)]
struct NodeCheck {
    /// Condition (1)'s envelope, created when the node wakes (it needs the
    /// initialization time `t_v`).
    envelope: Option<EnvelopeChecker>,
    /// The previous sample `(t, L)` that Condition (2) pairs the next one
    /// with; none until the first sample after the wake. The event-local
    /// path keeps only whether there is one.
    last: Option<(f64, f64)>,
}

/// The certificates' margin per unit of clock magnitude, `2⁻⁴¹` (see the
/// module doc).
const VALUE_SLACK: f64 = 1.0 / 2_199_023_255_552.0;

/// The certificates' margin per unit of rate times time, `2⁻⁴⁹`.
const TIME_SLACK: f64 = 1.0 / 562_949_953_421_312.0;

/// The event-local path's state, built at its first sample.
#[derive(Debug, Clone)]
struct Local {
    /// Per node: the last sample its certificate covers (`+∞` before the
    /// wake; the issuing sample itself when it could not be certified, so
    /// the next later sample checks it again).
    alarms: AlarmHeap,
    /// Scratch: the nodes to check exactly at this sample, each with its
    /// clock at the previous sample (then at this one); per-node stamps
    /// keep the first entry of a node.
    hot: Vec<(u32, f64)>,
    queued: Vec<u64>,
    stamp: u64,
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
    /// Per-node Condition (1)/(2) state.
    nodes: Vec<NodeCheck>,
    params: Params,
    /// The graph's edges: the certificate's domain, and what rebuilds the
    /// graph for the legal-state checker.
    edges: Vec<(usize, usize)>,
    /// The certificate threshold `τ = (κ/2)(1 − 4·f64::EPSILON)`.
    edge_skew_limit: f64,
    /// The all-pairs checker, built at the first snapshot the certificate
    /// does not cover.
    legal: Option<LegalStateChecker>,
    /// The event-local path's certificates, once it has run.
    local: Option<Box<Local>>,
    /// Set once the watchdog reads clock vectors: a vector snapshot, or the
    /// event-local path's fallback. It never goes back.
    vectors: bool,
    ring: RingBufferSink,
    trip: Option<Box<WatchdogTrip>>,
    snapshots: u64,
    exact_scans: u64,
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
            nodes: vec![NodeCheck::default(); n],
            params,
            edges: graph.edges().map(|(a, b)| (a.index(), b.index())).collect(),
            edge_skew_limit: params.kappa() / 2.0 * (1.0 - 4.0 * f64::EPSILON),
            legal: None,
            local: None,
            vectors: false,
            ring: RingBufferSink::new(ring_capacity),
            trip: None,
            snapshots: 0,
            exact_scans: 0,
        }
    }

    /// Scales Condition (2)'s lower rate to `α = (1 − ε)·floor`, for a
    /// protocol whose logical multiplier may drop to `floor` (its
    /// [`Protocol::min_rate_multiplier`]). The envelope variant rides at
    /// `(1 − ε̂)/(1 + ε̂)`, below `A^opt`'s floor of `1`; a floor of `1`
    /// leaves the envelope bit for bit as it was.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < floor` and the scaled `α` stays at most `β`.
    ///
    /// [`Protocol::min_rate_multiplier`]: gcs_sim::Protocol::min_rate_multiplier
    pub fn with_multiplier_floor(mut self, floor: f64) -> Self {
        self.envelope = RateEnvelope::new(self.drift.min_rate() * floor, self.envelope.beta());
        self
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

    /// Number of snapshots whose edge skews exceeded the `κ/2` certificate,
    /// so the all-pairs Definition 5.6 scan ran. The scan's checker is
    /// built at the first, so 0 means it was never built.
    pub fn exact_scans(&self) -> u64 {
        self.exact_scans
    }

    /// The Condition (2) progress envelope the watchdog enforces.
    pub fn rate_envelope(&self) -> RateEnvelope {
        self.envelope
    }

    /// Whether the next sample should come as a clock vector
    /// ([`EventSink::snapshot`]) rather than through
    /// [`InvariantWatchdog::observe_local`]: once the watchdog has read a
    /// vector or fallen back to reading them, until it trips.
    pub fn wants_vectors(&self) -> bool {
        self.vectors && self.trip.is_none()
    }

    /// Checks the state after an event at time `t` that changed the clock
    /// trajectories of `touched` (see [`EventSink::sample`]),
    /// reading clocks lazily from `clocks`, where `worst_local` is the
    /// largest edge skew `|L_a − L_b|` any sample so far showed, this one
    /// included ([`SkewObserver::worst_local`] of an observer fed the same
    /// samples). Decides exactly what [`EventSink::snapshot`] would on the
    /// full clock vector — the same trip, at the same sample, with the
    /// same fields — in `O(log n)` per touched node and lapsed certificate
    /// (see the module doc).
    ///
    /// Every event since the previous sample must be accounted for in
    /// `touched`, and every sample must come through here until
    /// [`InvariantWatchdog::wants_vectors`]; after that this reads
    /// [`ClockView::values`].
    ///
    /// # Panics
    ///
    /// Panics if `clocks` does not record [`ClockView::previous_sample`]
    /// (the engine's view does for a sink that asks,
    /// [`EventSink::wants_previous_sample`]).
    ///
    /// [`SkewObserver::worst_local`]: crate::SkewObserver::worst_local
    pub fn observe_local(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        worst_local: f64,
    ) {
        if self.trip.is_some() {
            return;
        }
        if self.vectors {
            self.snapshot(t, clocks.values(), 0);
            return;
        }
        self.snapshots += 1;
        let (t0, before) = clocks
            .previous_sample()
            .expect("the event-local watchdog reads touched clocks at the previous sample");
        let n = self.nodes.len();
        let nodes = &self.nodes;
        let mut local = self.local.take().unwrap_or_else(|| {
            // Nodes awake already are checked at this first sample.
            let mut alarms = AlarmHeap::new(n, f64::INFINITY);
            for (v, node) in nodes.iter().enumerate() {
                if node.envelope.is_some() {
                    alarms.set(v as u32, f64::NEG_INFINITY);
                }
            }
            Box::new(Local {
                alarms,
                hot: Vec::with_capacity(n),
                queued: vec![0; n],
                stamp: 0,
            })
        });
        local.stamp += 1;
        let Local {
            alarms,
            hot,
            queued,
            stamp,
        } = &mut *local;
        hot.clear();
        for (&v, &value) in touched.iter().zip(before) {
            let i = v.index();
            if queued[i] != *stamp {
                queued[i] = *stamp;
                hot.push((i as u32, value));
            }
        }
        alarms.for_each_before((t, 0), &mut |v| {
            if queued[v as usize] != *stamp {
                queued[v as usize] = *stamp;
                hot.push((v, clocks.value_at(NodeId(v as usize), t0)));
            }
        });

        // Conditions (1)/(2), exactly, wherever no certificate covers this
        // sample; the first violating node in index order trips, as in the
        // vector scan.
        let mut first: Option<WatchdogViolation> = None;
        for entry in hot.iter_mut() {
            let node = entry.0 as usize;
            let Some(envelope) = self.nodes[node].envelope else {
                continue;
            };
            let logical = clocks.value(NodeId(node));
            let prev = self.nodes[node].last.map(|_| (t0, entry.1));
            entry.1 = logical;
            if let Some(violation) = self.check_node(node, &envelope, prev, t, logical) {
                if first.as_ref().is_none_or(|f| node < f.node()) {
                    first = Some(violation);
                }
            }
        }
        if let Some(violation) = first {
            self.trip_with(violation);
            return;
        }
        let mut out_of_reach = false;
        for &(v, logical) in hot.iter() {
            let node = v as usize;
            let Some(envelope) = self.nodes[node].envelope else {
                continue;
            };
            self.nodes[node].last = Some((t, logical));
            let until = self.certify(&envelope, t, logical, NodeId(node), clocks);
            out_of_reach |= until.is_none();
            alarms.set(v, until.unwrap_or(t));
        }
        self.local = Some(local);
        // While no sampled edge went past τ, Def. 5.6 holds at this sample
        // exactly as the vector path's certificate decides it.
        if worst_local <= self.edge_skew_limit && !out_of_reach {
            return;
        }
        // Fall back to vectors for the rest of the run, from this sample.
        self.vectors = true;
        let values = clocks.values();
        for (node, &logical) in self.nodes.iter_mut().zip(values) {
            if node.envelope.is_some() {
                node.last = Some((t, logical));
            }
        }
        self.check_legal(t, values);
    }

    /// The last sample time through which `node`, read at `L = logical`
    /// at sample `t` and untouched from then on, provably passes
    /// Conditions (1)/(2) at every sample (`t` itself when that cannot be
    /// shown for any later one), or `None` once its clock is too large for
    /// the tolerance to cover the certificates' rounding. See the module
    /// doc for the margins.
    fn certify(
        &self,
        envelope: &EnvelopeChecker,
        t: f64,
        logical: f64,
        node: NodeId,
        clocks: &dyn ClockView,
    ) -> Option<f64> {
        let tol = self.tolerance;
        if VALUE_SLACK * logical.abs() > tol / 2.0 {
            return None;
        }
        let rate_floor = clocks.rate_floor();
        if rate_floor.is_nan() || rate_floor <= 0.0 {
            // No affinity promise: nothing to certify with.
            return Some(t);
        }
        let (m, big_m) = (self.drift.min_rate(), self.drift.max_rate());
        let (alpha, beta) = (self.envelope.alpha(), self.envelope.beta());
        let beta_f = if beta.is_finite() { beta } else { 0.0 };
        let start = envelope.start_time();
        // The window estimate: the slope from one far read, each margin
        // closing at its rate against half the tolerance, and the
        // certificates' own margin held to the other half.
        let slope = (clocks.value_at(node, t + FAR) - logical) / FAR;
        let (low, high) = envelope.margins(t, logical);
        let half = tol / 2.0;
        let fixed = VALUE_SLACK * logical.abs()
            + TIME_SLACK * ((m + big_m) * 2.0 * t.abs() + m * start.abs() + tol);
        let growth = VALUE_SLACK * slope.abs() + TIME_SLACK * (alpha + beta_f + 2.0 * (m + big_m));
        let mut width = (half - fixed) / growth;
        let mut close = |gap: f64, rate: f64| {
            if rate > 0.0 {
                width = width.min(gap / rate);
            }
        };
        close(low + half, m - slope);
        close(high + half, slope - big_m);
        close(half, alpha - slope);
        close(half, slope - beta);
        let until = t + width * CLAIM;
        if until.is_nan() || until <= t {
            return Some(t);
        }
        let at_end = clocks.value_at(node, until);
        let value_slack = VALUE_SLACK * logical.abs().max(at_end.abs());
        // Condition (1) at both ends of the window.
        let times = (m + big_m) * (t.abs() + until.abs()) + m * start.abs();
        let floor = -tol + (value_slack + TIME_SLACK * (times + tol));
        let (low_end, high_end) = envelope.margins(until, at_end);
        let envelope_holds = low >= floor && high >= floor && low_end >= floor && high_end >= floor;
        // Condition (2) over the window, which bounds every pair inside it.
        let floor = -tol + (value_slack + TIME_SLACK * ((alpha + beta_f) * (until - t) + tol));
        let (min_margin, max_margin) = self
            .envelope
            .progress_margins((t, logical), (until, at_end));
        let progress_holds = floor <= 0.0 && min_margin >= floor && max_margin >= floor;
        Some(if envelope_holds && progress_holds {
            until
        } else {
            t
        })
    }

    /// Conditions (1)/(2) at sample `(t, logical)` of `node`, which woke
    /// under `envelope`, paired with its previous sample `prev` (none at
    /// the first sample after the wake): the violation, with both sides'
    /// margins at this sample, if either condition fails. Condition (1) is
    /// checked first.
    fn check_node(
        &self,
        node: usize,
        envelope: &EnvelopeChecker,
        prev: Option<(f64, f64)>,
        t: f64,
        logical: f64,
    ) -> Option<WatchdogViolation> {
        let tol = self.tolerance;
        let (low_margin, high_margin) = envelope.margins(t, logical);
        if !(low_margin >= -tol && high_margin >= -tol) {
            return Some(WatchdogViolation::Envelope {
                node,
                t,
                logical,
                low_margin,
                high_margin,
            });
        }
        let (min_margin, max_margin) = self.envelope.progress_margins(prev?, (t, logical));
        (!(min_margin >= -tol && max_margin >= -tol)).then_some(WatchdogViolation::Progress {
            node,
            t,
            min_margin,
            max_margin,
        })
    }

    /// Definition 5.6 at the sampled vector `clocks`: the edge
    /// certificate, then the all-pairs scan where it fails.
    fn check_legal(&mut self, t: f64, clocks: &[f64]) {
        // `<=` fails on NaN, which falls through to the scan.
        if self
            .edges
            .iter()
            .all(|&(a, b)| (clocks[a] - clocks[b]).abs() <= self.edge_skew_limit)
        {
            return;
        }
        self.exact_scans += 1;
        let (n, edges, params) = (self.nodes.len(), &self.edges, self.params);
        let legal = self.legal.get_or_insert_with(|| {
            let graph = Graph::from_edges(n, edges).expect("the edges of a connected graph");
            LegalStateChecker::new(&graph, params)
        });
        if !legal.observe_clocks(t, clocks) {
            let v = legal.first_violation().expect("observe returned false");
            self.trip_with(WatchdogViolation::LegalState(v));
        }
    }

    fn trip_with(&mut self, violation: WatchdogViolation) {
        self.trip = Some(Box::new(WatchdogTrip {
            violation,
            recent_events: self.ring.events().copied().collect(),
            events_recorded: self.ring.recorded(),
        }));
    }
}

/// As a sink on its own, the watchdog reads the full clock vector after
/// every event; [`InvariantWatchdog::observe_local`] is its event-local
/// path, for a caller that also observes edge skews.
impl EventSink for InvariantWatchdog {
    fn record(&mut self, event: &EngineEvent) {
        if self.trip.is_some() {
            return;
        }
        self.ring.record(event);
        if let EngineEvent::Wake { node, t, .. } = event {
            self.nodes[node.index()].envelope =
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
        // Certificates of the event-local path did not see this sample.
        self.vectors = true;
        self.snapshots += 1;
        for (node, &logical) in clocks.iter().enumerate() {
            // Unstarted nodes hold L = 0 and are exempt from every
            // condition until their wake event creates their envelope.
            let Some(envelope) = self.nodes[node].envelope else {
                continue;
            };
            let prev = self.nodes[node].last.replace((t, logical));
            if let Some(violation) = self.check_node(node, &envelope, prev, t, logical) {
                self.trip_with(violation);
                return;
            }
        }
        self.check_legal(t, clocks);
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
    fn certificate_edge_decides_whether_the_scan_runs() {
        // Unstarted nodes skip Conditions (1)/(2), so only Def. 5.6 runs.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let mut watchdog = InvariantWatchdog::new(&topology::path(3), params, drift());
        let tau = watchdog.edge_skew_limit;
        assert!(tau < params.kappa() / 2.0);
        watchdog.snapshot(1.0, &[0.0, tau, 0.0], 0);
        assert_eq!(watchdog.exact_scans(), 0);
        assert!(watchdog.legal.is_none());
        watchdog.snapshot(2.0, &[0.0, tau.next_up(), 0.0], 0);
        assert_eq!(watchdog.exact_scans(), 1);
        assert!(watchdog.legal.is_some());
        // Just above τ is still legal: the scan runs and finds nothing.
        assert!(!watchdog.tripped());
        // A NaN edge fails the certificate; the scan ignores NaN pairs.
        watchdog.snapshot(3.0, &[0.0, f64::NAN, 0.0], 0);
        assert_eq!(watchdog.exact_scans(), 2);
        assert!(!watchdog.tripped());
        assert_eq!(watchdog.snapshots(), 3);
    }

    /// One clock `l0 + slope·t` under a declared rate floor.
    struct Line {
        l0: f64,
        slope: f64,
        now: f64,
    }

    impl ClockView for Line {
        fn len(&self) -> usize {
            1
        }

        fn value(&self, v: NodeId) -> f64 {
            self.value_at(v, self.now)
        }

        fn values(&self) -> &[f64] {
            unreachable!("a certificate reads its one clock")
        }

        fn value_at(&self, _v: NodeId, t: f64) -> f64 {
            self.l0 + self.slope * t
        }

        fn rate_floor(&self) -> f64 {
            0.9
        }
    }

    #[test]
    fn certificates_hold_at_every_sample_they_cover() {
        // Clocks near both envelopes, with slopes inside and outside the
        // progress band: wherever a certificate claims a window, every
        // chain of samples through it must pass both conditions exactly.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let watchdog = InvariantWatchdog::new(&topology::path(1), params, drift());
        let (m, big_m) = (drift().min_rate(), drift().max_rate());
        let band = watchdog.rate_envelope();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut certified, mut short) = (0, 0);
        for case in 0..4_000 {
            let t_v = 3.0 * unit();
            let t = t_v + 50.0 * unit();
            let envelope = EnvelopeChecker::new(drift(), t_v, watchdog.tolerance);
            // Start a hair inside one envelope or the other.
            let gap = [0.0, 1e-10, 1e-7, 1e-3][case % 4] * unit();
            let logical = if case % 2 == 0 {
                m * (t - t_v) + gap
            } else {
                big_m * t - gap
            };
            let slope = [
                m * (1.0 - 1e-3 * unit()),
                m,
                band.alpha() - 1e-9 * unit(),
                1.0,
                big_m,
                big_m * (1.0 + 1e-3 * unit()),
                band.beta() * (1.0 + 1e-6 * unit()),
            ][case % 7];
            let view = Line {
                l0: logical - slope * t,
                slope,
                now: t,
            };
            let logical = view.value(NodeId(0));
            if watchdog
                .check_node(0, &envelope, None, t, logical)
                .is_some()
            {
                continue;
            }
            let until = watchdog
                .certify(&envelope, t, logical, NodeId(0), &view)
                .expect("small clocks are in reach");
            assert!(until >= t);
            if until == t {
                continue;
            }
            certified += 1;
            short += usize::from(until - t < 1.0);
            let mut prev = (t, logical);
            for k in 1..=64 {
                let at = if k == 64 {
                    until
                } else {
                    t + (until - t) * (k as f64 / 64.0) * unit()
                };
                let at = at.max(prev.0);
                let l = view.value_at(NodeId(0), at);
                let violation = watchdog.check_node(0, &envelope, Some(prev), at, l);
                assert!(
                    violation.is_none(),
                    "case {case}: certified to {until} from {t}, {violation:?}"
                );
                prev = (at, l);
            }
            // The one pair spanning the whole window.
            let l = view.value_at(NodeId(0), until);
            let violation = watchdog.check_node(0, &envelope, Some((t, logical)), until, l);
            assert!(violation.is_none(), "case {case}: {violation:?}");
        }
        assert!(
            certified > 1_000 && short > 100,
            "{certified} certified, {short} short"
        );
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
