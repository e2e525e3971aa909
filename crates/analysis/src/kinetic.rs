//! Kinetic skew extrema: the event-local half of [`crate::SkewObserver`].
//!
//! Between two events of node `v` the float clock
//! `L_v(t) = logical_value(hw.value_at(t))` is a chain of correctly rounded
//! operations, each monotone for positive rates and multipliers, so it is
//! non-decreasing in `t` (the [`gcs_sim::Protocol::logical_value`]
//! contract). The observer keeps three kinds of *certificate*. Each holds
//! until an event touches one of its nodes, and the time-bounded ones
//! until their expiry:
//!
//! * **below the leader** — `v`'s clock stays under a line of slope `α̃`
//!   through the maximum `C` at issue time `t₀`, `C + α̃(t − t₀)`; while the
//!   current maximum is still on or above that line, `v` is not the argmax;
//! * **above the trailer** — `L_v(t) − α̃·t` stays at or above a key, so `v`
//!   cannot be the argmin until `min − α̃·now`, the minimum clock in the
//!   same shifted frame, catches up with the key;
//! * **edge** — `|L_a − L_b|` stays within the local record `W`, so the edge
//!   cannot beat it before the certificate's expiry.
//!
//! `α̃` is the view's [`ClockView::rate_floor`] `α` (Condition 2's lower
//! rate) less one part in 2²⁰, so a clock running exactly at the floor
//! still gains on the line faster than rounding can hide. With `α = 0`
//! (the default) the lines are constants, every margin below is zero, and
//! the certificates are exact in `f64` by monotonicity alone: `value_at(v,
//! T) < C` proves `L_v < C` on `[t₀, T]`; `L_v(now)` is a lower bound from
//! now on; `fl(value_at(a, T) − value(b, now)) ≤ W` and its mirror bound the
//! edge (correctly rounded subtraction is monotone in both arguments).
//!
//! With `α > 0` the view also promises that each clock is affine in `t`
//! between its events up to a relative error `δ = 2⁻⁴⁴`. Then a certificate
//! checked at both ends of its window holds inside it (an affine function
//! attains its extremes at the ends), and the edge certificate follows
//! `d₀ + (s_a − s_b)(t − now)` from the two slopes, without `α`. Every check
//! carries the margin `ρ·Λ`, `ρ = 2⁻⁴⁰`, where `Λ` sums the magnitudes the
//! check reads (clock readings, `α̃·|t|` at both ends, and the threshold
//! it compares with). With unit roundoff `u = 2⁻⁵³`, so `δ = 512u` and
//! `ρ = 16δ`:
//!
//! * a shifted reading `y = fl(L − fl(α̃·t))` is within `2.01u(|L| + α̃|t|)`
//!   of `L − α̃·t`, and a check's final add or compare costs at most
//!   `u·Λ`;
//! * the affine `f_v` is within `δ|L_v|` of each reading, and `|L_v|` on the
//!   window is at most its value at one end (monotonicity), so what the
//!   two end checks prove about `f_v` carries to every instant in between
//!   with a further `2δ·Λ`;
//! * so each check needs at most `(2δ + 5u)Λ < ρΛ(1 − 4u)` of margin
//!   (the computed margin's own rounding): a certificate may lapse early,
//!   never late. `ρ` is not a tolerance on the results — worst values,
//!   times and pairs still come from exact reads of the clocks.
//!
//! The leader certificates need the maximum to stay on its line: each
//! observation checks that `y − ρ(|max| + α̃·now)` has not fallen below the
//! highest issued intercept and rescans every node if it has. A new
//! intercept is issued at `y − 2ρ(…)`, which leaves a clock climbing at
//! `α` room for the next observation's rounding. A clock that runs
//! backwards across an event, or slower than the view's α, trips the
//! rescan; neither can make a certificate wrong.
//!
//! A trailer key needs `v`'s slope to be at least `α̃`: the observer reads
//! `v` once far ahead (`2⁴⁰` time units, which also gives the slope for
//! expiry estimates) and credits the shifted frame only if `v` gains at
//! least `ρ·Λ` on it by then. That proves `s_v − α̃ ≥ 13δ·s_v`, enough for
//! the key `y − ρ(|L_v| + α̃|now|)` to stay below `L_v(t) − α̃·t` for as long
//! as `v` is untouched. A node without the credit — not started, or slower
//! than the view claims — keeps the constant key `L_v(now)` instead, in a
//! second heap gathered against the minimum itself, as without a floor.
//!
//! Each node is certified against the current extreme itself rather than
//! against a tournament neighbour, so a certificate lasts as long as the
//! node's distance to the maximum (or minimum) takes to close, not its
//! distance to the nearest clock. Expiry times are estimated from each
//! node's slope; the estimate only decides how long a certificate lasts,
//! never whether it holds — every issued certificate is verified by
//! evaluation. A certificate that cannot be extended past `now` (ties:
//! equal clocks) stays *hot*: it is re-checked at the next later
//! observation.

use gcs_graph::NodeId;
use gcs_sim::ClockView;

/// How far ahead a node's clock is read once per state: its slope for
/// expiry estimates, and the far end of a trailer key's slope check.
pub(crate) const FAR: f64 = 1_099_511_627_776.0; // 2⁴⁰

/// How much of the estimated certificate window is claimed: a little under
/// all of it, so rounding in the verifying evaluation rarely rejects it.
pub(crate) const CLAIM: f64 = 0.999;

/// `α̃ = α·SHAVE`: the rate floor less one part in 2²⁰.
const SHAVE: f64 = 1.0 - 1.0 / 1_048_576.0;

/// The closing rate an expiry estimate assumes is at least this fraction
/// of the clocks' own rates, so a clock that runs parallel to its line
/// (or to its neighbour) still gets a finite, long certificate to verify.
const CREEP: f64 = 1.0 / 1_048_576.0;

/// The certificates' margin factor `ρ = 2⁻⁴⁰` when `α > 0` (see the
/// module doc).
const SLACK: f64 = 1.0 / FAR;

/// The rate floor as the certificates use it: the line slope `α̃` and the
/// margin factor, both zero when the view claims no floor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Floor {
    alpha: f64,
    slack: f64,
}

impl Floor {
    fn new(rate_floor: f64) -> Self {
        if rate_floor > 0.0 && rate_floor.is_finite() {
            Floor {
                alpha: rate_floor * SHAVE,
                slack: SLACK,
            }
        } else {
            Floor {
                alpha: 0.0,
                slack: 0.0,
            }
        }
    }

    /// A reading `value` at time `t` in the shifted frame, `L − α̃·t`, and
    /// its margin `ρ(|L| + α̃|t|)`. With `α = 0`: `(value, 0)` exactly.
    fn frame(self, value: f64, t: f64) -> (f64, f64) {
        let shift = self.alpha * t;
        (value - shift, self.slack * (value.abs() + shift.abs()))
    }

    /// `ρ·Λ` for a check reading the magnitudes in `parts`.
    fn margin(self, parts: &[f64]) -> f64 {
        self.slack * parts.iter().map(|x| x.abs()).sum::<f64>()
    }
}

/// The certificate's expiry: `guess` if `check(guess)` verifies it, else
/// `now`, which every caller's certificate satisfies by construction (a
/// hot certificate, re-checked at the next later observation).
fn certify(now: f64, guess: f64, check: impl FnOnce(f64) -> bool) -> f64 {
    if guess > now && check(guess) {
        guess
    } else {
        now
    }
}

/// When a quantity closing at `rate` covers `gap` from `now`.
fn window(now: f64, gap: f64, rate: f64) -> f64 {
    if rate > 0.0 {
        now + gap * CLAIM / rate
    } else {
        f64::INFINITY
    }
}

/// Whether `(x, i)` ranks strictly above `(y, j)` in the full scan's argmax
/// order: a larger clock, or an equal clock at a smaller index.
fn ranks_above(x: f64, i: u32, y: f64, j: u32) -> bool {
    x > y || (x == y && i < j)
}

/// Children per heap node: re-keys are most of the observer's work, and a
/// 4-ary heap is half as deep as a binary one while a node's four 16-byte
/// children still share a cache line.
const ARITY: usize = 4;

/// One heap entry: a key and the item it belongs to.
type Entry = (f64, u32);

/// The heap order: by key, ties by item.
#[inline]
fn before(a: Entry, b: Entry) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// An indexed 4-ary min-heap holding every item `0..len` exactly once,
/// keyed by an `f64` and ordered by `(key, item)`. Items are never removed,
/// only re-keyed. Entries carry their keys inline, so a sift reads
/// contiguous memory.
#[derive(Debug, Clone)]
pub(crate) struct AlarmHeap {
    heap: Vec<Entry>,
    pos: Vec<u32>,
}

impl AlarmHeap {
    /// Every item keyed at `key`.
    pub(crate) fn new(len: usize, key: f64) -> Self {
        AlarmHeap {
            heap: (0..len as u32).map(|i| (key, i)).collect(),
            pos: (0..len as u32).collect(),
        }
    }

    /// Re-keys every item at `key`, in place.
    fn fill(&mut self, key: f64) {
        for (i, entry) in self.heap.iter_mut().enumerate() {
            *entry = (key, i as u32);
            self.pos[i] = i as u32;
        }
    }

    /// Calls `f` on every item whose `(key, item)` orders before `bound`,
    /// without re-keying any (heap order prunes the walk to those entries
    /// and their children). `(t, 0)` selects the keys below `t`.
    pub(crate) fn for_each_before(&self, bound: Entry, f: &mut impl FnMut(u32)) {
        self.walk(0, bound, f);
    }

    fn walk(&self, i: usize, bound: Entry, f: &mut impl FnMut(u32)) {
        if let Some(&entry) = self.heap.get(i) {
            if before(entry, bound) {
                f(entry.1);
                for child in ARITY * i + 1..=ARITY * i + ARITY {
                    self.walk(child, bound, f);
                }
            }
        }
    }

    /// Re-keys `item`.
    pub(crate) fn set(&mut self, item: u32, key: f64) {
        let i = self.pos[item as usize] as usize;
        let old = self.heap[i];
        let entry = (key, item);
        if before(entry, old) {
            self.sift_up(i, entry);
        } else {
            self.sift_down(i, entry);
        }
    }

    /// Moves `entry` from the hole at `i` towards the root.
    fn sift_up(&mut self, mut i: usize, entry: Entry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !before(entry, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Moves `entry` from the hole at `i` towards the leaves.
    fn sift_down(&mut self, mut i: usize, entry: Entry) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(len) {
                if before(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if !before(self.heap[best], entry) {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, entry);
    }

    #[inline]
    fn place(&mut self, i: usize, entry: Entry) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

/// Collects into `hot`, once each, the `touched` nodes and the items of
/// each heap ordered before its bound; `queued` remembers which node was
/// last collected under which `stamp`.
fn gather(
    hot: &mut Vec<u32>,
    queued: &mut [u64],
    stamp: u64,
    touched: &[NodeId],
    heaps: &[(&AlarmHeap, Entry)],
) {
    hot.clear();
    let mut push = |v: u32| {
        if queued[v as usize] != stamp {
            queued[v as usize] = stamp;
            hot.push(v);
        }
    };
    for &v in touched {
        push(v.index() as u32);
    }
    for &(heap, bound) in heaps {
        heap.for_each_before(bound, &mut push);
    }
}

/// The trailer side's keys. A node with the slope credit (every node when
/// `α = 0`) sits in `shifted`, keyed by a lower bound on `L_v(t) − α̃·t`; a
/// node without it sits in `flat`, keyed by a lower bound on `L_v` itself,
/// exactly as when `α = 0`. Its entry in the other heap is `+∞`, and so
/// are both of the trailer's. Keys carry their node's index for
/// first-index ties.
#[derive(Debug, Clone)]
struct LowerBounds {
    shifted: AlarmHeap,
    flat: AlarmHeap,
    in_flat: Vec<bool>,
}

impl LowerBounds {
    /// Every node hot in `shifted`.
    fn new(n: usize) -> Self {
        LowerBounds {
            shifted: AlarmHeap::new(n, f64::NEG_INFINITY),
            flat: AlarmHeap::new(n, f64::INFINITY),
            in_flat: vec![false; n],
        }
    }

    fn reset(&mut self) {
        self.shifted.fill(f64::NEG_INFINITY);
        self.flat.fill(f64::INFINITY);
        self.in_flat.fill(false);
    }

    /// Keys `v` in the shifted frame (`Ok`) or flat (`Err`).
    fn set(&mut self, v: u32, key: Result<f64, f64>) {
        let i = v as usize;
        match key {
            Ok(key) => {
                self.shifted.set(v, key);
                if self.in_flat[i] {
                    self.flat.set(v, f64::INFINITY);
                    self.in_flat[i] = false;
                }
            }
            Err(key) => {
                self.flat.set(v, key);
                if !self.in_flat[i] {
                    self.shifted.set(v, f64::INFINITY);
                    self.in_flat[i] = true;
                }
            }
        }
    }
}

/// Clock reads at one observation, memoized per node (a node is usually
/// read by several certificates at once), plus the per-node far reads. A
/// node's trajectory is fixed between its events, so a far read is dropped
/// only when the node is touched.
struct Reads<'a> {
    clocks: &'a dyn ClockView,
    now: f64,
    stamp: u64,
    values: &'a mut [f64],
    read_at: &'a mut [u64],
    far: &'a mut [Far],
}

/// One far read of a node's clock: `value` at time `at`, [`FAR`] after the
/// observation that took it, and the slope from that observation's reading
/// to it.
#[derive(Debug, Clone, Copy)]
struct Far {
    at: f64,
    value: f64,
    slope: f64,
}

impl Far {
    /// Not read yet (under the node's current state).
    const NONE: Far = Far {
        at: f64::NAN,
        value: f64::NAN,
        slope: f64::NAN,
    };
}

impl Reads<'_> {
    /// `L_v(now)`.
    #[inline]
    fn value(&mut self, v: u32) -> f64 {
        let i = v as usize;
        if self.read_at[i] != self.stamp {
            self.read_at[i] = self.stamp;
            self.values[i] = self.clocks.value(NodeId(i));
        }
        self.values[i]
    }

    /// `L_v(t)` under `v`'s current state.
    #[inline]
    fn value_at(&self, v: u32, t: f64) -> f64 {
        self.clocks.value_at(NodeId(v as usize), t)
    }

    /// `v`'s clock read [`FAR`] ahead of the first observation that asks
    /// under its current state.
    fn far(&mut self, v: u32) -> Far {
        let cached = self.far[v as usize];
        if !cached.at.is_nan() {
            return cached;
        }
        let at = self.now + FAR;
        let value = self.value_at(v, at);
        let read = Far {
            at,
            value,
            slope: (value - self.value(v)) / FAR,
        };
        self.far[v as usize] = read;
        read
    }

    /// `L_v`'s rate under its current state.
    fn slope(&mut self, v: u32) -> f64 {
        self.far(v).slope
    }
}

/// What one event-local observation found: the current global extremes
/// and, when some edge beats the local record, the first such edge (in
/// graph order) of largest skew.
pub(crate) struct Reading {
    /// First-index argmax and its clock.
    pub(crate) argmax: usize,
    pub(crate) max: f64,
    /// First-index argmin and its clock.
    pub(crate) argmin: usize,
    pub(crate) min: f64,
    /// `(skew, ahead, behind)` of the new local record, if any.
    pub(crate) local_record: Option<(f64, usize, usize)>,
    /// Certificates re-examined (nodes on both sides, plus edges).
    pub(crate) work: usize,
}

/// The kinetic state of one observer. Built on the first event-local
/// observation; every buffer is sized then, so steady-state observations
/// allocate nothing.
#[derive(Debug, Clone)]
pub(crate) struct Kinetic {
    /// The rate floor the live certificates were issued under.
    floor: Floor,
    /// The current argmax; holds no certificate of its own.
    leader: u32,
    /// Per node: until when it provably stays below the leader's line
    /// (`+∞` for the leader, `-∞` when touched).
    below: AlarmHeap,
    /// The highest `(intercept, node)` rank a live below-the-leader
    /// certificate was issued against: the line `intercept + α̃·t`.
    issued: Option<(f64, u32)>,
    /// The current argmin.
    trailer: u32,
    /// Per node: a lower bound on its clock while it is untouched (`-∞`
    /// when touched, `+∞` for the trailer).
    above: LowerBounds,
    /// Per edge: until when it provably stays within the local record.
    edges: AlarmHeap,
    /// Node → incident edge ids (CSR).
    incident_start: Vec<u32>,
    incident: Vec<u32>,
    values: Vec<f64>,
    read_at: Vec<u64>,
    /// Per node: its far read under its current state, if taken.
    far: Vec<Far>,
    /// Scratch: the nodes and edges to re-examine at this observation,
    /// with per-node and per-edge stamps for deduplication.
    hot_nodes: Vec<u32>,
    hot_edges: Vec<u32>,
    node_queued: Vec<u64>,
    queued: Vec<u64>,
    stamp: u64,
    /// Set when the observer saw clock vectors instead: every certificate
    /// is then forgotten before the next event-local observation.
    pub(crate) stale: bool,
}

impl Kinetic {
    pub(crate) fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut incident_start = vec![0u32; n + 1];
        for &(a, b) in edges {
            incident_start[a + 1] += 1;
            incident_start[b + 1] += 1;
        }
        for v in 0..n {
            incident_start[v + 1] += incident_start[v];
        }
        let mut fill = incident_start.clone();
        let mut incident = vec![0u32; 2 * edges.len()];
        for (e, &(a, b)) in edges.iter().enumerate() {
            for v in [a, b] {
                incident[fill[v] as usize] = e as u32;
                fill[v] += 1;
            }
        }
        Kinetic {
            floor: Floor::new(0.0),
            leader: 0,
            below: AlarmHeap::new(n, f64::NEG_INFINITY),
            issued: None,
            trailer: 0,
            above: LowerBounds::new(n),
            edges: AlarmHeap::new(edges.len(), f64::NEG_INFINITY),
            incident_start,
            incident,
            values: vec![0.0; n],
            read_at: vec![0; n],
            far: vec![Far::NONE; n],
            hot_nodes: Vec::with_capacity(n),
            hot_edges: Vec::with_capacity(edges.len()),
            node_queued: vec![0; n],
            queued: vec![0; edges.len()],
            stamp: 0,
            stale: false,
        }
    }

    /// Forgets every certificate: the next observation re-reads everything.
    fn reset(&mut self) {
        self.below.fill(f64::NEG_INFINITY);
        self.above.reset();
        self.edges.fill(f64::NEG_INFINITY);
        self.far.fill(Far::NONE);
        self.issued = None;
    }

    /// Advances to time `t` after events that touched `touched`, and reads
    /// the current extremes. `worst_local` is the local record before this
    /// observation; `edges` the observer's edge list.
    pub(crate) fn observe(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn ClockView,
        edges: &[(usize, usize)],
        worst_local: f64,
    ) -> Reading {
        let floor = Floor::new(clocks.rate_floor());
        if std::mem::take(&mut self.stale) || floor != self.floor {
            self.reset();
            self.floor = floor;
        }
        // Touched nodes join both sides' hot lists directly (their stale
        // keys are overwritten before this observation ends), so a touch
        // costs no extra heap re-key. The two sides stamp with the two
        // parities of `2 · stamp`.
        self.stamp += 1;
        self.hot_edges.clear();
        for &v in touched {
            let i = v.index();
            self.far[i] = Far::NONE;
            let span = self.incident_start[i] as usize..self.incident_start[i + 1] as usize;
            for &e in &self.incident[span] {
                if self.queued[e as usize] != self.stamp {
                    self.queued[e as usize] = self.stamp;
                    self.hot_edges.push(e);
                }
            }
        }
        let mut r = Reads {
            clocks,
            now: t,
            stamp: self.stamp,
            values: &mut self.values,
            read_at: &mut self.read_at,
            far: &mut self.far,
        };

        // Argmax: the leader, a touched node, or a node whose certificate
        // lapsed.
        let hot = &mut self.hot_nodes;
        let node_queued = &mut self.node_queued;
        gather(
            hot,
            node_queued,
            2 * self.stamp,
            touched,
            &[(&self.below, (t, 0))],
        );
        let (mut max, mut argmax) = (r.value(self.leader), self.leader);
        for &v in hot.iter() {
            let x = r.value(v);
            if ranks_above(x, v, max, argmax) {
                (max, argmax) = (x, v);
            }
        }
        let (y, m) = floor.frame(max, t);
        if self
            .issued
            .is_some_and(|(c, j)| ranks_above(c, j, y - m, argmax))
        {
            // The maximum fell below a certificate's line: a clock ran
            // backwards across an event, or slower than the rate floor.
            // Re-read every node.
            hot.clear();
            hot.extend(0..r.far.len() as u32);
            node_queued.fill(2 * self.stamp);
            for &v in hot.iter() {
                let x = r.value(v);
                if ranks_above(x, v, max, argmax) {
                    (max, argmax) = (x, v);
                }
            }
            self.issued = None;
        }
        if argmax != self.leader && node_queued[self.leader as usize] != 2 * self.stamp {
            hot.push(self.leader);
        }
        self.leader = argmax;
        self.below.set(argmax, f64::INFINITY);
        let (y, m) = floor.frame(max, t);
        let (c, _) = *self.issued.insert(match self.issued {
            Some((c, j)) if ranks_above(c, j, y - 2.0 * m, argmax) => (c, j),
            _ => (y - 2.0 * m, argmax),
        });
        for &v in hot.iter() {
            if v == argmax {
                continue;
            }
            let x = r.value(v);
            let (yx, _) = floor.frame(x, t);
            let s = r.slope(v);
            let closing = (s - floor.alpha).max(s * CREEP);
            // Claim the gap less what the check at the expiry will charge.
            let gap = c - yx - floor.margin(&[2.0 * x, c, 2.0 * floor.alpha * t]);
            let guess = window(t, gap, closing);
            let until = certify(t, guess, |at| {
                let l = r.value_at(v, at);
                let (yl, _) = floor.frame(l, at);
                let m = floor.margin(&[x, l, floor.alpha * t, floor.alpha * at, c]);
                yx + m < c && yl + m < c
            });
            self.below.set(v, until);
        }
        let mut work = hot.len();

        // Argmin: the trailer or a node whose key the trailer's clock has
        // reached, in the key's frame.
        let (mut min, mut argmin) = (r.value(self.trailer), self.trailer);
        let (y, m) = floor.frame(min, t);
        let stamp = 2 * self.stamp + 1;
        let above = &mut self.above;
        let heaps = [
            (&above.shifted, (y + m, argmin)),
            (&above.flat, (min, argmin)),
        ];
        gather(hot, node_queued, stamp, touched, &heaps);
        for &v in hot.iter() {
            let x = r.value(v);
            above.set(v, trailer_key(floor, &mut r, v, x));
            if (x, v) < (min, argmin) {
                (min, argmin) = (x, v);
            }
        }
        if argmin != self.trailer {
            let old = self.trailer;
            let x = r.value(old);
            above.set(old, trailer_key(floor, &mut r, old, x));
            self.trailer = argmin;
        }
        // Like the leader, the trailer is read at every observation anyway.
        above.set(argmin, Ok(f64::INFINITY));
        work += hot.len();

        // Edges: only a hot edge's skew may exceed the record, since every
        // other edge holds a certificate against it. Ties go to the first
        // edge in graph order, as in the full scan.
        let (queued, hot_edges, stamp) = (&mut self.queued, &mut self.hot_edges, self.stamp);
        self.edges.for_each_before((t, 0), &mut |e| {
            if queued[e as usize] != stamp {
                queued[e as usize] = stamp;
                hot_edges.push(e);
            }
        });
        let mut best: Option<(f64, u32)> = None;
        for &e in hot_edges.iter() {
            let (a, b) = edges[e as usize];
            let skew = (r.value(a as u32) - r.value(b as u32)).abs();
            if skew > worst_local && best.is_none_or(|(s, be)| skew > s || (skew == s && e < be)) {
                best = Some((skew, e));
            }
        }
        let local_record = best.map(|(skew, e)| {
            let (a, b) = edges[e as usize];
            if r.value(a as u32) >= r.value(b as u32) {
                (skew, a, b)
            } else {
                (skew, b, a)
            }
        });
        let bound = local_record.map_or(worst_local, |(skew, _, _)| skew);
        for &e in hot_edges.iter() {
            let (a, b) = edges[e as usize];
            let until = edge_expiry(floor, &mut r, (a as u32, b as u32), bound);
            self.edges.set(e, until);
        }
        work += hot_edges.len();
        Reading {
            argmax: argmax as usize,
            max,
            argmin: argmin as usize,
            min,
            local_record,
            work,
        }
    }
}

/// `v`'s trailer-side key after reading `L_v(now) = x`, valid while `v`
/// stays untouched: `Ok` a lower bound on `L_v(t) − α̃·t`, credited only if
/// `v`'s far read shows it climbing on that frame (see the module doc), or
/// else `Err(x)`, a lower bound on `L_v(t)` itself. With `α = 0` every
/// monotone clock gets `Ok(x)`.
fn trailer_key(floor: Floor, r: &mut Reads<'_>, v: u32, x: f64) -> Result<f64, f64> {
    let (y, m) = floor.frame(x, r.now);
    let far = r.far(v);
    let (y_far, _) = floor.frame(far.value, far.at);
    let gain = floor.margin(&[x, far.value, floor.alpha * r.now, floor.alpha * far.at]);
    if y_far - y >= gain {
        Ok(y - m)
    } else {
        Err(x)
    }
}

/// Until when edge `(a, b)` provably stays within the local record
/// `bound`. With `α = 0` each endpoint is bounded by monotonicity alone
/// (`a` at most its value at the expiry, `b` at least its value now, and
/// the mirror); otherwise the skew follows the line `d₀ + (s_a − s_b)(t −
/// now)` and is checked at both ends of the window.
fn edge_expiry(floor: Floor, r: &mut Reads<'_>, (a, b): (u32, u32), bound: f64) -> f64 {
    let t = r.now;
    let (va, vb) = (r.value(a), r.value(b));
    let (sa, sb) = (r.slope(a), r.slope(b));
    if floor.alpha == 0.0 {
        let guess = window(t, bound - (va - vb), sa).min(window(t, bound - (vb - va), sb));
        return certify(t, guess, |at| {
            r.value_at(a, at) - vb <= bound && r.value_at(b, at) - va <= bound
        });
    }
    let d = va - vb;
    let ds = sa - sb;
    let gap = if ds >= 0.0 { bound - d } else { bound + d };
    let gap = gap - floor.margin(&[2.0 * va, 2.0 * vb, bound]);
    let guess = window(t, gap, ds.abs().max((sa.abs() + sb.abs()) * CREEP));
    certify(t, guess, |at| {
        let (la, lb) = (r.value_at(a, at), r.value_at(b, at));
        let m = floor.margin(&[va, vb, la, lb, bound]);
        d.abs() + m <= bound && (la - lb).abs() + m <= bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clocks `l0[v] + slope[v]·t` under a declared rate floor.
    struct Affine {
        l0: Vec<f64>,
        slope: Vec<f64>,
        now: f64,
        floor: f64,
    }

    impl ClockView for Affine {
        fn len(&self) -> usize {
            self.l0.len()
        }

        fn value(&self, v: NodeId) -> f64 {
            self.value_at(v, self.now)
        }

        fn values(&self) -> &[f64] {
            unreachable!("the certificates read clocks one at a time")
        }

        fn value_at(&self, v: NodeId, t: f64) -> f64 {
            self.l0[v.index()] + self.slope[v.index()] * t
        }

        fn rate_floor(&self) -> f64 {
            self.floor
        }
    }

    fn key(heap: &AlarmHeap, item: u32) -> f64 {
        heap.heap[heap.pos[item as usize] as usize].0
    }

    /// One observation of `view` at its `now` with every node touched.
    fn observe_all(view: &Affine, edges: &[(usize, usize)]) -> Kinetic {
        let n = view.len();
        let mut kinetic = Kinetic::new(n, edges);
        let all: Vec<NodeId> = (0..n).map(NodeId).collect();
        kinetic.observe(view.now, &all, view, edges, 0.0);
        kinetic
    }

    #[test]
    fn without_a_floor_the_certificates_are_the_constant_ones() {
        // Leader 0 at 10, node 1 at 8 (slope 1.5), trailer 2 at 5.
        let mut view = Affine {
            l0: vec![9.0, 6.5, 4.5],
            slope: vec![1.0, 1.5, 0.5],
            now: 1.0,
            floor: 0.0,
        };
        let kinetic = observe_all(&view, &[(0, 1), (1, 2)]);
        assert_eq!((kinetic.leader, kinetic.trailer), (0, 2));
        // Below the leader: the window to the constant maximum C = 10 at
        // node 1's own slope, and the trailer side keys its value.
        let below = 1.0 + (10.0 - 8.0) * CLAIM / 1.5;
        assert_eq!(key(&kinetic.below, 1).to_bits(), below.to_bits());
        assert!(view.value_at(NodeId(1), below) < 10.0);
        assert_eq!(kinetic.issued, Some((10.0, 0)));
        let above = &kinetic.above;
        assert_eq!(key(&above.shifted, 0).to_bits(), 10.0f64.to_bits());
        assert_eq!(key(&above.shifted, 1).to_bits(), 8.0f64.to_bits());
        assert_eq!(key(&above.shifted, 2), f64::INFINITY);
        assert_eq!(above.in_flat, [false; 3]);

        // Under a floor the line climbs with the clocks: node 1 closes on
        // it at 1.5 − α̃ instead of 1.5, and the keys move to the frame.
        view.floor = 0.5;
        let kinetic = observe_all(&view, &[(0, 1), (1, 2)]);
        let alpha = 0.5 * SHAVE;
        assert!(key(&kinetic.below, 1) > 1.0 + 2.0 * CLAIM / (1.5 - alpha) * 0.99);
        let (c, j) = kinetic.issued.expect("issued");
        assert_eq!(j, 0);
        assert!(c < 10.0 - alpha && c > 10.0 - alpha - 1e-9);
        let shifted = key(&kinetic.above.shifted, 1);
        assert!(shifted < 8.0 - alpha && shifted > 8.0 - alpha - 1e-9);
    }

    #[test]
    fn a_rate_floor_makes_certificates_outlast_the_constant_ones() {
        // 64 clocks on a path fan out from a common start at rates in
        // [0.99, 1.01]; each observation re-rates one of them. Against
        // lines of slope α̃ the certificates close at s − α̃ instead of s,
        // so far fewer lapse.
        let n = 64;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        let rates = [0.99, 1.0, 1.01, 0.995, 1.005];
        let work = |floor: f64| {
            let mut view = Affine {
                l0: vec![0.0; n],
                slope: (0..n).map(|v| rates[v % rates.len()]).collect(),
                now: 0.0,
                floor,
            };
            let mut kinetic = Kinetic::new(n, &edges);
            let all: Vec<NodeId> = (0..n).map(NodeId).collect();
            let (mut worst_local, mut work) = (0.0, 0);
            for step in 0..2_000usize {
                view.now = step as f64 * 0.01;
                let v = (step * 37) % n;
                let value = view.value(NodeId(v));
                view.slope[v] = rates[step % rates.len()];
                view.l0[v] = value - view.slope[v] * view.now;
                let touched = if step == 0 { &all[..] } else { &all[v..=v] };
                let reading = kinetic.observe(view.now, touched, &view, &edges, worst_local);
                if let Some((skew, _, _)) = reading.local_record {
                    worst_local = skew;
                }
                work += reading.work;
            }
            work
        };
        let (flat, lines) = (work(0.0), work(0.99));
        assert!(
            8 * lines < flat,
            "work {lines} under the floor vs {flat} without"
        );
    }

    #[test]
    fn leader_certificates_begin_at_the_margins_edge() {
        // The leader climbs exactly at the floor from C = 2²⁰; node 1
        // starts `gap` below it and climbs faster. Whatever the gap, a
        // certificate must hold over its whole window. The line is issued
        // 2ρC under C and a check charges about 3ρC more, so node 1 must
        // stay hot up to a gap of 4ρC and be certified from 6ρC on.
        let c = 1_048_576.0;
        let rho_c = SLACK * c;
        for k in 0..=64 {
            let gap = k as f64 * rho_c / 4.0;
            let view = Affine {
                l0: vec![c, c - gap],
                slope: vec![0.75, 1.25],
                now: 0.0,
                floor: 0.75,
            };
            let kinetic = observe_all(&view, &[]);
            assert_eq!(kinetic.leader, 0, "gap {k}/4 ρC");
            let until = key(&kinetic.below, 1);
            // A hot certificate (`until` = now) claims nothing.
            for step in (until > 0.0).then_some(0..=256).into_iter().flatten() {
                let t = until * step as f64 / 256.0;
                assert!(
                    view.value_at(NodeId(1), t) < view.value_at(NodeId(0), t),
                    "gap {k}/4 ρC: node 1 reaches the leader at {t} < {until}"
                );
            }
            if k <= 16 {
                assert_eq!(until, 0.0, "gap {k}/4 ρC: certified inside the margin");
            }
            if k >= 24 {
                assert!(until > 0.0, "gap {k}/4 ρC: not certified");
            }
        }
    }

    #[test]
    fn alarm_heap_walk_matches_a_linear_scan_after_random_rekeys() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        for len in [1usize, 2, 3, 5, 17, 64, 257] {
            let mut heap = AlarmHeap::new(len, f64::NEG_INFINITY);
            let mut keys = vec![f64::NEG_INFINITY; len];
            for _ in 0..2_000 {
                let item = next(len as u64) as u32;
                // Coarse keys make ties (broken by item) common.
                let key = [f64::NEG_INFINITY, f64::INFINITY, 0.0, 1.0, 2.0][next(5) as usize]
                    + next(4) as f64;
                heap.set(item, key);
                keys[item as usize] = key;
                for (i, &(k, it)) in heap.heap.iter().enumerate() {
                    assert_eq!(heap.pos[it as usize] as usize, i, "position index");
                    assert_eq!(keys[it as usize], k, "stored key");
                    if i > 0 {
                        assert!(!before((k, it), heap.heap[(i - 1) / ARITY]), "heap order");
                    }
                }
                let bound = (next(5) as f64, next(len as u64) as u32);
                let mut walked = Vec::new();
                heap.for_each_before(bound, &mut |it| walked.push(it));
                walked.sort_unstable();
                let expected: Vec<u32> = (0..len as u32)
                    .filter(|&it| before((keys[it as usize], it), bound))
                    .collect();
                assert_eq!(walked, expected);
            }
        }
    }
}
