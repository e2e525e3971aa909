//! The engine's event queue: an 8-ary min-heap over `(time, seq)` keys
//! with payloads parked in a free-list slab.
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
//!
//! The heap vectors and the slab reuse their storage, so a queue whose
//! population oscillates around a steady size performs no heap
//! allocation (asserted process-wide by `tests/zero_alloc.rs`).

/// Heap arity. Eight keys per node: a tree shallow enough that a pop at
/// n = 10⁶ sifts through a handful of levels, while the eight 16-byte
/// sibling keys span just two adjacent cache lines (measured faster than
/// arity 4 on the hotpath fixture at every n).
const ARITY: usize = 8;

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
#[derive(Debug, Clone)]
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

/// Min-ordered event queue; `T` is the event payload.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<T> {
    heap: PackedHeap,
    /// Slab of payloads addressed by heap slots; `None` marks a free slot.
    payload: Vec<Option<T>>,
    /// Free slots available for reuse.
    free: Vec<u32>,
}

impl<T> EventQueue<T> {
    /// An empty queue with room for `cap` events before it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: PackedHeap::with_capacity(cap),
            payload: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.keys.len()
    }

    /// Time of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(unpack_time)
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
        self.heap.push(pack(time, seq), slot);
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_entry().map(|(time, _, item)| (time, item))
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    pub fn pop_entry(&mut self) -> Option<(f64, u64, T)> {
        let (key, slot) = self.heap.pop()?;
        let item = self.payload[slot as usize]
            .take()
            .expect("queue keys always address a live slot");
        self.free.push(slot);
        Some((unpack_time(key), unpack_seq(key), item))
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

    /// The reference test with pushes interleaved into the drain: as in
    /// the engine, every push lands at or after the last popped time, here
    /// a pseudo-random distance ahead of it.
    #[test]
    fn interleaved_pushes_match_a_sorted_reference() {
        let mut q = EventQueue::with_capacity(0);
        let mut x: u64 = 0x243f6a8885a308d3;
        let mut expect = Vec::new();
        let mut step = |q: &mut EventQueue<u64>, seq: u64, base: f64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
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
}
