//! Kinetic skew extrema: the event-local half of [`crate::SkewObserver`].
//!
//! Between two events of node `v` the float clock
//! `L_v(t) = logical_value(hw.value_at(t))` is a chain of correctly rounded
//! operations, each monotone for positive rates and multipliers, so it is
//! non-decreasing in `t` (the [`gcs_sim::Protocol::logical_value`]
//! contract). That makes three kinds of *certificate* exact in `f64`, with
//! no error margin. Each holds until an event touches one of its nodes, and
//! the time-bounded ones until their expiry:
//!
//! * **below the leader** — `value_at(v, T) < C`, where `C` is the maximum
//!   clock at issue time, proves `L_v(t) < C` on `[now, T]`; while the
//!   current maximum is still at least `C`, `v` is not the argmax;
//! * **above the trailer** — `L_v(now)` is a lower bound on `L_v` from now
//!   on, so `v` cannot be the argmin until the minimum clock catches up
//!   with it;
//! * **edge** — `fl(value_at(a, T) − value(b, now)) ≤ W` and its mirror
//!   prove `fl(|L_a(t) − L_b(t)|) ≤ W` on `[now, T]` (correctly rounded
//!   subtraction is monotone in both arguments), so the edge cannot beat
//!   the local record `W` before `T`.
//!
//! Each node is certified against the current extreme itself rather than
//! against a tournament neighbour, so a certificate lasts as long as the
//! node's distance to the maximum (or minimum) takes to close, not its
//! distance to the nearest clock. Expiry times are estimated from each
//! node's slope; the estimate only decides how long a certificate lasts,
//! never whether it holds — every issued certificate is verified by
//! evaluation. A certificate that cannot be extended past `now` (ties:
//! equal slopes, nominal rates) stays *hot*: it is re-checked at the next
//! later observation.
//!
//! The leader certificates additionally need the maximum not to fall below
//! the `C` they were issued against. Under the model's Condition 2 (clocks
//! never run backwards, also across a node's own events) it never does;
//! the observer checks it at every observation anyway and rescans all
//! nodes if a protocol breaks it.

use gcs_graph::NodeId;
use gcs_sim::ClockView;

/// The slope probe's step in real time.
const PROBE: f64 = 1.0;

/// How much of the estimated certificate window is claimed: a little under
/// all of it, so rounding in the verifying evaluation rarely rejects it.
const CLAIM: f64 = 0.999;

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

/// When a clock of slope `slope` climbs `gap` above where it is `now`.
fn window(now: f64, gap: f64, slope: f64) -> f64 {
    if slope > 0.0 {
        now + gap * CLAIM / slope
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
struct AlarmHeap {
    heap: Vec<Entry>,
    pos: Vec<u32>,
}

impl AlarmHeap {
    /// Every item keyed at `-∞`.
    fn new(len: usize) -> Self {
        AlarmHeap {
            heap: (0..len as u32).map(|i| (f64::NEG_INFINITY, i)).collect(),
            pos: (0..len as u32).collect(),
        }
    }

    /// Calls `f` on every item whose `(key, item)` orders before `bound`,
    /// without re-keying any (heap order prunes the walk to those entries
    /// and their children). `(t, 0)` selects the keys below `t`.
    fn for_each_before(&self, bound: Entry, f: &mut impl FnMut(u32)) {
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
    fn set(&mut self, item: u32, key: f64) {
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
/// `heap` ordered before `bound`; `queued` remembers which node was last
/// collected under which `stamp`.
fn gather(
    hot: &mut Vec<u32>,
    queued: &mut [u64],
    stamp: u64,
    touched: &[NodeId],
    heap: &AlarmHeap,
    bound: Entry,
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
    heap.for_each_before(bound, &mut push);
}

/// Clock reads at one observation, memoized per node (a node is usually
/// read by several certificates at once), plus the per-node slope cache. A
/// node's slope is fixed between its events, so a slope entry is dropped
/// only when the node is touched.
struct Reads<'a> {
    clocks: &'a dyn ClockView,
    now: f64,
    stamp: u64,
    values: &'a mut [f64],
    read_at: &'a mut [u64],
    slopes: &'a mut [f64],
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

    /// `L_v`'s rate under its current state (probed once per state).
    fn slope(&mut self, v: u32) -> f64 {
        let cached = self.slopes[v as usize];
        if !cached.is_nan() {
            return cached;
        }
        let s = (self.value_at(v, self.now + PROBE) - self.value(v)) / PROBE;
        self.slopes[v as usize] = s;
        s
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
    /// The current argmax; holds no certificate of its own.
    leader: u32,
    /// Per node: until when it provably stays below the leader's clock
    /// (`+∞` for the leader, `-∞` when touched).
    below: AlarmHeap,
    /// The highest `(clock, node)` rank a live below-the-leader
    /// certificate was issued against.
    issued: Option<(f64, u32)>,
    /// The current argmin.
    trailer: u32,
    /// Per node: a lower bound on its clock (its value when last read;
    /// `-∞` when touched, `+∞` for the trailer), keyed with its index for
    /// first-index ties.
    above: AlarmHeap,
    /// Per edge: until when it provably stays within the local record.
    edges: AlarmHeap,
    /// Node → incident edge ids (CSR).
    incident_start: Vec<u32>,
    incident: Vec<u32>,
    values: Vec<f64>,
    read_at: Vec<u64>,
    /// Slope per node under its current state; `NaN` = not yet probed.
    slopes: Vec<f64>,
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
            leader: 0,
            below: AlarmHeap::new(n),
            issued: None,
            trailer: 0,
            above: AlarmHeap::new(n),
            edges: AlarmHeap::new(edges.len()),
            incident_start,
            incident,
            values: vec![0.0; n],
            read_at: vec![0; n],
            slopes: vec![f64::NAN; n],
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
        for v in 0..self.slopes.len() as u32 {
            self.below.set(v, f64::NEG_INFINITY);
            self.above.set(v, f64::NEG_INFINITY);
        }
        for e in 0..self.queued.len() as u32 {
            self.edges.set(e, f64::NEG_INFINITY);
        }
        self.slopes.fill(f64::NAN);
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
        if std::mem::take(&mut self.stale) {
            self.reset();
        }
        // Touched nodes join both sides' hot lists directly (their stale
        // keys are overwritten before this observation ends), so a touch
        // costs no extra heap re-key. The two sides stamp with the two
        // parities of `2 · stamp`.
        self.stamp += 1;
        self.hot_edges.clear();
        for &v in touched {
            let i = v.index();
            self.slopes[i] = f64::NAN;
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
            slopes: &mut self.slopes,
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
            &self.below,
            (t, 0),
        );
        let (mut max, mut argmax) = (r.value(self.leader), self.leader);
        for &v in hot.iter() {
            let x = r.value(v);
            if ranks_above(x, v, max, argmax) {
                (max, argmax) = (x, v);
            }
        }
        if self
            .issued
            .is_some_and(|(c, j)| ranks_above(c, j, max, argmax))
        {
            // The maximum fell below a certificate's premise: a clock ran
            // backwards across an event. Re-read every node.
            hot.clear();
            hot.extend(0..r.slopes.len() as u32);
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
        for &v in hot.iter() {
            if v == argmax {
                continue;
            }
            let x = r.value(v);
            let guess = window(t, max - x, r.slope(v));
            let until = certify(t, guess, |at| r.value_at(v, at) < max);
            self.below.set(v, until);
        }
        self.issued = Some(match self.issued {
            Some((c, j)) if ranks_above(c, j, max, argmax) => (c, j),
            _ => (max, argmax),
        });
        let mut work = hot.len();

        // Argmin: the trailer or a node whose lower bound the trailer's
        // clock has reached.
        let (mut min, mut argmin) = (r.value(self.trailer), self.trailer);
        let stamp = 2 * self.stamp + 1;
        gather(hot, node_queued, stamp, touched, &self.above, (min, argmin));
        for &v in hot.iter() {
            let x = r.value(v);
            self.above.set(v, x);
            if (x, v) < (min, argmin) {
                (min, argmin) = (x, v);
            }
        }
        if argmin != self.trailer {
            let old = self.trailer;
            self.above.set(old, r.value(old));
            self.trailer = argmin;
        }
        // Like the leader, the trailer is read at every observation anyway.
        self.above.set(argmin, f64::INFINITY);
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
            let (a, b) = (a as u32, b as u32);
            let (va, vb) = (r.value(a), r.value(b));
            let guess = window(t, bound - (va - vb), r.slope(a)).min(window(
                t,
                bound - (vb - va),
                r.slope(b),
            ));
            let until = certify(t, guess, |at| {
                r.value_at(a, at) - vb <= bound && r.value_at(b, at) - va <= bound
            });
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

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut heap = AlarmHeap::new(len);
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
