//! The engine's event queue: a calendar-queue/timing-wheel hybrid over
//! `(time, seq)` keys with payloads parked in a free-list slab.
//!
//! `seq` is unique per engine, so the key is a *strict total order* and
//! the pop sequence is simply the sorted order of the keys — independent
//! of the queue's internal shape. Swapping structures therefore cannot
//! change an event stream (`tests/golden_event_stream.rs` pins that
//! byte-for-byte). What changes is the constant factor:
//!
//! * **Packed keys.** `(time, seq)` is packed into one `u128`: the high
//!   64 bits are the time's bits mapped through an order-preserving
//!   involution (unsigned order == `total_cmp` order, the ordering the
//!   engine has always used), the low 64 bits are `seq`. One integer
//!   compare replaces a float `total_cmp` plus a tie-break branch.
//! * **Keys sift, payloads stay put.** Sift operations move 16-byte keys
//!   (with a parallel `u32` slot array); the event payload is written
//!   once into a slab slot and moved only when popped. The key array is
//!   dense, so the sibling keys of the 8-ary heap span two adjacent
//!   cache lines.
//! * **Calendar sharding.** When the delay model promises a strictly
//!   positive floor `w` ([`DelayModel::min_delay`]), the far future is
//!   sharded into a timing wheel of `w`-wide buckets: pushes beyond the
//!   current bucket are an O(1) append into their bucket (or an overflow
//!   heap beyond the wheel horizon), and only the **near region** — the
//!   events at or before the current bucket — lives in the sift-able
//!   heap, keeping it a fraction of the queue's population. Without a
//!   positive floor (`None` or `0` — e.g. an adversary that may deliver
//!   instantaneously), every event goes straight to the near heap and
//!   the queue *is* a plain 8-ary heap: same pop order either way, the
//!   calendar is purely a routing layer. The fallback rule is documented
//!   in `docs/DESIGN.md`.
//!
//! Region routing keys each event by `bucket(t) = ⌊t / w⌋` (monotone in
//! `t`): bucket ≤ `cur` → near heap; within the wheel horizon → its ring
//! bucket; beyond → overflow heap. The queue maintains the invariant
//! *"non-empty ⇒ near heap non-empty"* eagerly (advancing `cur`,
//! draining ring buckets, and migrating overflow on pops), so
//! [`EventQueue::peek_time`] stays a borrow of the near-heap root.
//! Because routing is monotone in time, everything outside the near heap
//! is strictly later than everything inside it — the near root is the
//! global minimum, and pop order is byte-identical to the heap's.
//!
//! The heap vectors, ring buckets, and slab all reuse their storage, so
//! a queue whose population oscillates around a steady size performs no
//! heap allocation (asserted process-wide by `tests/zero_alloc.rs`).
//!
//! [`DelayModel::min_delay`]: crate::DelayModel::min_delay

/// Heap arity. Eight keys per node: a tree shallow enough that a pop at
/// n = 10⁶ sifts through a handful of levels, while the eight 16-byte
/// sibling keys span just two adjacent cache lines (measured faster than
/// arity 4 on the hotpath fixture at every n).
const ARITY: usize = 8;

/// Ring buckets in the timing wheel: events up to `RING` floor-widths
/// ahead go to a bucket, later ones to the overflow heap. 256 buckets of
/// a typical floor cover the engine's scheduling horizon (timers and
/// deliveries land within a few floors) while keeping the wheel small
/// enough to scan when advancing across a quiet stretch.
const RING: usize = 256;

/// Maps a time to the high key half: unsigned order of the result equals
/// `f64::total_cmp` order of the inputs (flip all bits for negatives, set
/// the sign bit for non-negatives).
#[inline]
fn time_ord(time: f64) -> u64 {
    let b = time.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`time_ord`] (it is an involution on the two half-ranges).
#[inline]
fn ord_time(ord: u64) -> f64 {
    f64::from_bits(if ord >> 63 == 1 {
        ord & !(1 << 63)
    } else {
        !ord
    })
}

/// Packs `(time, seq)` into one integer whose unsigned order is the
/// queue's total order.
#[inline]
fn pack(time: f64, seq: u64) -> u128 {
    ((time_ord(time) as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> f64 {
    ord_time((key >> 64) as u64)
}

#[inline]
fn unpack_seq(key: u128) -> u64 {
    key as u64
}

/// An [`ARITY`]-ary min-heap of packed keys with a parallel payload-slot
/// array. Compares touch only the dense key array; holes are moved
/// instead of swapped, so a sift writes each visited level once.
#[derive(Debug, Clone, Default)]
struct PackedHeap {
    keys: Vec<u128>,
    slots: Vec<u32>,
}

impl PackedHeap {
    fn with_capacity(cap: usize) -> Self {
        PackedHeap {
            keys: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
        }
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn peek(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, slot: u32) {
        self.keys.push(key);
        self.slots.push(slot);
        // Sift the hole up from the new leaf.
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let p = (i - 1) / ARITY;
            if self.keys[p] <= key {
                break;
            }
            self.keys[i] = self.keys[p];
            self.slots[i] = self.slots[p];
            i = p;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    fn pop(&mut self) -> Option<(u128, u32)> {
        let last = self.keys.len().checked_sub(1)?;
        let root = (self.keys[0], self.slots[0]);
        let key = self.keys[last];
        let slot = self.slots[last];
        self.keys.truncate(last);
        self.slots.truncate(last);
        if last == 0 {
            return Some(root);
        }
        // Sift the detached last entry down from the root hole.
        let len = last;
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let stop = (first + ARITY).min(len);
            let mut m = first;
            let mut mk = self.keys[first];
            for c in first + 1..stop {
                let ck = self.keys[c];
                if ck < mk {
                    m = c;
                    mk = ck;
                }
            }
            if mk >= key {
                break;
            }
            self.keys[i] = mk;
            self.slots[i] = self.slots[m];
            i = m;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
        Some(root)
    }
}

/// The timing-wheel layer, present only when the delay model promised a
/// strictly positive floor.
#[derive(Debug, Clone)]
struct Calendar {
    /// `1 / w` — multiplied, not divided, on every push.
    inv_width: f64,
    /// Absolute index of the current bucket; events at or before it live
    /// in the near heap.
    cur: u64,
    /// `RING` unsorted buckets of `(key, slot)` entries for buckets in
    /// `(cur, cur + RING)`, addressed modulo `RING`.
    ring: Vec<Vec<(u128, u32)>>,
    /// Entries in all ring buckets combined.
    ring_len: usize,
    /// Events at bucket `cur + RING` or beyond.
    overflow: PackedHeap,
}

impl Calendar {
    /// The absolute bucket of `time`: `⌊time / w⌋`, computed by
    /// multiplication. Monotone in `time` (saturating at the `u64` ends),
    /// which is all region routing needs.
    #[inline]
    fn bucket(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }
}

/// Min-ordered event queue; `T` is the event payload.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<T> {
    /// The sift-able region holding (at least) every event of the current
    /// bucket; the only region `pop` and `peek_time` look at.
    near: PackedHeap,
    /// The wheel; `None` runs the queue as a plain 4-ary heap.
    calendar: Option<Calendar>,
    /// Slab of payloads addressed by heap/ring slots; `None` marks a free
    /// slot.
    payload: Vec<Option<T>>,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// Total events across near + ring + overflow.
    len: usize,
}

impl<T> EventQueue<T> {
    /// A plain-heap queue (no calendar layer).
    #[cfg(test)]
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_floor(cap, None)
    }

    /// A queue sharded by the delay floor `w`: `Some(w)` with `w > 0`
    /// enables the timing wheel with `w`-wide buckets; `None` or a
    /// non-positive floor falls back to the plain heap (same pop order,
    /// see the module docs for the rule).
    pub fn with_capacity_and_floor(cap: usize, floor: Option<f64>) -> Self {
        let calendar = floor
            .filter(|w| *w > 0.0 && w.is_finite())
            .map(|w| Calendar {
                inv_width: w.recip(),
                cur: 0,
                ring: (0..RING).map(|_| Vec::new()).collect(),
                ring_len: 0,
                overflow: PackedHeap::default(),
            });
        Self {
            near: PackedHeap::with_capacity(cap),
            calendar,
            payload: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Time of the earliest queued event, if any. The eager invariant
    /// ("non-empty ⇒ near heap non-empty") makes this a borrow of the
    /// near-heap root even in calendar mode.
    pub fn peek_time(&self) -> Option<f64> {
        self.near.peek().map(unpack_time)
    }

    /// Enqueues `item` at `(time, seq)`. `seq` must be unique (the engine
    /// stamps a monotone counter) — ties in `time` break by `seq`.
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payload[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.payload.len()).expect("queue slots fit in u32");
                self.payload.push(Some(item));
                slot
            }
        };
        let key = pack(time, seq);
        match &mut self.calendar {
            None => self.near.push(key, slot),
            Some(cal) => {
                let b = cal.bucket(time);
                if self.len == 0 {
                    // Empty queue: re-anchor the wheel at this event so it
                    // lands in the near heap (the invariant's base case).
                    cal.cur = b;
                    self.near.push(key, slot);
                } else if b <= cal.cur {
                    self.near.push(key, slot);
                } else if b - cal.cur < RING as u64 {
                    cal.ring[(b % RING as u64) as usize].push((key, slot));
                    cal.ring_len += 1;
                } else {
                    cal.overflow.push(key, slot);
                }
            }
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_entry().map(|(time, _, item)| (time, item))
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    pub fn pop_entry(&mut self) -> Option<(f64, u64, T)> {
        let (key, slot) = self.near.pop()?;
        self.len -= 1;
        if self.near.is_empty() && self.len > 0 {
            self.refill();
        }
        let item = self.payload[slot as usize]
            .take()
            .expect("queue keys always address a live slot");
        self.free.push(slot);
        Some((unpack_time(key), unpack_seq(key), item))
    }

    /// Restores the eager invariant after the near heap drained: advance
    /// the wheel (or jump it across a quiet stretch), migrating overflow
    /// entries that enter the horizon and draining ring buckets into the
    /// near heap until it holds an event again.
    #[cold]
    fn refill(&mut self) {
        let cal = self
            .calendar
            .as_mut()
            .expect("a plain heap drains exactly when the queue is empty");
        while self.near.is_empty() {
            if cal.ring_len == 0 {
                // Quiet wheel: jump straight to the overflow minimum's
                // bucket (`len > 0` guarantees overflow is non-empty).
                let key = cal.overflow.peek().expect("len > 0 with empty ring");
                cal.cur = cal.bucket(unpack_time(key));
            } else {
                cal.cur += 1;
            }
            // Entries now within the horizon leave the overflow heap; the
            // jump case routes its minimum (bucket == cur) into near.
            while let Some(key) = cal.overflow.peek() {
                let b = cal.bucket(unpack_time(key));
                if b - cal.cur >= RING as u64 {
                    break;
                }
                let (key, slot) = cal.overflow.pop().expect("peeked entry exists");
                if b <= cal.cur {
                    self.near.push(key, slot);
                } else {
                    cal.ring[(b % RING as u64) as usize].push((key, slot));
                    cal.ring_len += 1;
                }
            }
            let bucket = &mut cal.ring[(cal.cur % RING as u64) as usize];
            cal.ring_len -= bucket.len();
            for (key, slot) in bucket.drain(..) {
                self.near.push(key, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_key_order_matches_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.0,
            1e300,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(time_ord(a).cmp(&time_ord(b)), a.total_cmp(&b), "{a} vs {b}");
            }
            assert_eq!(ord_time(time_ord(a)).to_bits(), a.to_bits());
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::with_capacity(4);
        q.push(2.0, 0, "a");
        q.push(1.0, 1, "b");
        q.push(1.0, 2, "c");
        q.push(0.5, 3, "d");
        assert_eq!(q.peek_time(), Some(0.5));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0.5, "d"), (1.0, "b"), (1.0, "c"), (2.0, "a")]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_reuses_slots() {
        let mut q = EventQueue::with_capacity(2);
        for round in 0..100u64 {
            q.push(round as f64, 2 * round, round);
            q.push(round as f64 + 0.5, 2 * round + 1, round + 1000);
            // Pops drain the merged stream in global sorted order, so the
            // r-th pop returns time r/2: an on-the-round entry when r is
            // even, the +0.5 entry of round r/2 when r is odd.
            let (t, v) = q.pop().unwrap();
            if round % 2 == 0 {
                assert_eq!(t, (round / 2) as f64);
                assert_eq!(v, round / 2);
            } else {
                assert_eq!(t, (round / 2) as f64 + 0.5);
                assert_eq!(v, round / 2 + 1000);
            }
        }
        assert_eq!(q.len(), 100);
        // Slab never grew past the high-water mark of live entries.
        assert!(q.payload.len() <= 101);
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn pop_entry_reports_the_seq() {
        let mut q = EventQueue::with_capacity(2);
        q.push(1.0, 7, "x");
        q.push(1.0, 3, "y");
        assert_eq!(q.pop_entry(), Some((1.0, 3, "y")));
        assert_eq!(q.pop_entry(), Some((1.0, 7, "x")));
        assert_eq!(q.pop_entry(), None);
    }

    #[test]
    fn matches_a_sorted_reference_on_mixed_times() {
        let mut q = EventQueue::with_capacity(0);
        // Deterministic pseudo-random times with duplicates.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut expect = Vec::new();
        for seq in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let time = (x >> 40) as f64 / 256.0; // coarse grid -> many ties
            q.push(time, seq, seq);
            expect.push((time, seq));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (time, seq) in expect {
            assert_eq!(q.pop(), Some((time, seq)));
        }
        assert_eq!(q.pop(), None);
    }

    /// The calendar twin of the reference test: identical pop order with
    /// the wheel engaged, with pushes interleaved into the drain so the
    /// advancing wheel keeps receiving near-, ring-, and overflow-bound
    /// events.
    #[test]
    fn calendar_matches_a_sorted_reference_on_mixed_times() {
        let mut q = EventQueue::with_capacity_and_floor(0, Some(0.25));
        let mut x: u64 = 0x243f6a8885a308d3;
        let mut expect = Vec::new();
        let mut step = |q: &mut EventQueue<u64>, seq: u64, base: f64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mixed horizons: same-bucket, in-ring, and beyond-the-wheel
            // times (up to 512 floor-widths = 2 * RING buckets ahead).
            let time = base + (x >> 44) as f64 / 8.0;
            q.push(time, seq, seq);
            expect.push((time, seq));
        };
        for seq in 0..400u64 {
            step(&mut q, seq, 0.0);
        }
        let mut popped = Vec::new();
        for seq in 400..800u64 {
            let (t, _, v) = q.pop_entry().unwrap();
            popped.push((t, v));
            step(&mut q, seq, t); // never push into the popped past
        }
        while let Some((t, _, v)) = q.pop_entry() {
            popped.push((t, v));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        assert_eq!(popped, expect);
    }

    /// `len()` — the number the engine reports to observers as the
    /// heartbeat `queue_depth` — counts all three calendar regions, not
    /// just the near heap, and stays exact while pops migrate entries
    /// between regions.
    #[test]
    fn len_spans_near_ring_and_overflow_regions() {
        let mut q = EventQueue::with_capacity_and_floor(4, Some(1.0));
        let regions = |q: &EventQueue<&str>| {
            let cal = q.calendar.as_ref().unwrap();
            (q.near.keys.len(), cal.ring_len, cal.overflow.keys.len())
        };
        // First push re-anchors the wheel at bucket 10.
        q.push(10.0, 0, "anchor");
        q.push(10.2, 1, "near"); // same bucket -> near heap
        q.push(12.5, 2, "ring"); // 2 buckets ahead -> ring
        q.push(500.0, 3, "overflow"); // past the wheel horizon -> overflow
        assert_eq!(regions(&q), (2, 1, 1));
        assert_eq!(q.len(), 4, "depth must count every region");
        // Draining keeps the count exact as entries migrate ring -> near
        // and overflow -> near on refills.
        let mut expect = 4;
        for name in ["anchor", "near", "ring", "overflow"] {
            let (near, ring, over) = regions(&q);
            assert_eq!(q.len(), near + ring + over);
            assert_eq!(q.pop().map(|(_, v)| v), Some(name));
            expect -= 1;
            assert_eq!(q.len(), expect);
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    /// A long quiet stretch exercises the jump path: the wheel re-anchors
    /// at the overflow minimum instead of stepping through empty buckets.
    #[test]
    fn calendar_jumps_across_quiet_stretches() {
        let mut q = EventQueue::with_capacity_and_floor(4, Some(0.5));
        q.push(0.0, 0, "now");
        q.push(1e6, 1, "far");
        q.push(1e6 + 0.25, 2, "far+");
        q.push(2e9, 3, "farther");
        assert_eq!(q.pop(), Some((0.0, "now")));
        assert_eq!(q.peek_time(), Some(1e6));
        assert_eq!(q.pop(), Some((1e6, "far")));
        assert_eq!(q.pop(), Some((1e6 + 0.25, "far+")));
        assert_eq!(q.pop(), Some((2e9, "farther")));
        assert_eq!(q.pop(), None);
        // Re-anchoring after a full drain works too.
        q.push(5.0, 4, "later");
        assert_eq!(q.pop(), Some((5.0, "later")));
    }

    /// Steady-state churn in calendar mode reuses slab slots and ring
    /// capacity: the backing stores stop growing at the high-water mark.
    #[test]
    fn calendar_churn_reuses_storage() {
        let mut q = EventQueue::with_capacity_and_floor(2, Some(0.1));
        // Warm up to the steady population.
        for seq in 0..8u64 {
            q.push(seq as f64 * 0.05, seq, seq);
        }
        let payload_high_water = q.payload.len();
        for round in 0..10_000u64 {
            let (t, _, _) = q.pop_entry().unwrap();
            q.push(t + 3.7, 100 + round, round);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.payload.len(), payload_high_water);
    }
}
