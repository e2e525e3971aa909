//! The rule `A^opt` and every variant of it share (paper Algorithms 2–4).
//!
//! [`AOptCore`] holds a node's logical clock `L_v` and its table of
//! neighbour estimates `L_v^w` with their guards `ℓ_v^w`. It implements
//! Algorithm 2's estimate bookkeeping (lines 5–7) and Algorithm 3's
//! decision (`setClockRate`). [`AOpt`](crate::AOpt), its seven variants and
//! the midpoint baseline all run on it. Each protocol keeps only what the
//! paper changes for it: when it sends, how it represents `L_v^max`, how it
//! applies the multiplier, its `κ`, and its message encoding or probes.
//!
//! The module also holds three small rules the protocols share:
//! [`adopts`] (Algorithm 2's "strictly larger" test), [`next_multiple`]
//! (Algorithm 1's `H₀`-multiple trigger) and [`arm_rate_timer`]
//! (Algorithms 3–4's fast-mode timer).

use gcs_graph::NodeId;
use gcs_sim::{Context, TimerId};
use gcs_time::LogicalClock;

use crate::rate_rule::clamped_increase;

/// Sentinel for "no tracked entry" in the incremental Λ trackers.
const NO_ENTRY: u32 = u32::MAX;

/// The timer slot every protocol on the core uses for the Algorithm 4 rate
/// reset.
pub(crate) const RATE_TIMER: TimerId = TimerId(1);

/// Per-neighbour bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NeighborEstimate {
    /// `L_v^w − H_v`: the estimate advances at the hardware rate, so its
    /// offset from the hardware clock is constant between messages.
    offset: f64,
    /// `ℓ_v^w`: largest raw clock value received from `w` (monotone guard —
    /// only more recent, larger values update the estimate).
    ell: f64,
}

/// A node's logical clock and neighbour-estimate table, with `Λ↑`/`Λ↓`
/// tracked incrementally.
///
/// # Example
///
/// ```
/// use gcs_core::AOptCore;
/// use gcs_graph::NodeId;
///
/// let mut core = AOptCore::new();
/// core.record_estimate(NodeId(1), 5.0, 1.0);
/// core.record_estimate(NodeId(2), 2.0, 1.0);
/// // The unstarted clock reads 0: Λ↑ = 5 − 0, Λ↓ = 0 − 2.
/// assert_eq!(core.lambda_pair(1.0), Some((5.0, -2.0)));
/// ```
#[derive(Debug, Clone)]
pub struct AOptCore {
    /// The logical clock `L_v`, run at `ρ_v · h_v`.
    pub(crate) logical: LogicalClock,
    /// Per-neighbour estimates, keyed by a linear scan: node degrees are
    /// small, so this beats hashing on the engine's per-message hot path
    /// (and the skew folds over it are order-insensitive `max`es).
    estimates: Vec<(NodeId, NeighborEstimate)>,
    /// Index into `estimates` of the entry with the **largest** fold key
    /// (see [`AOptCore::fold_key`]) — the argmax behind `Λ↑`.
    /// Incrementally maintained: entries only change when a message is
    /// recorded, and between messages every estimate advances by the same
    /// hardware offset, so the cached argmax stays the argmax and yields a
    /// `Λ↑` bit-identical to the linear fold. [`NO_ENTRY`] until a
    /// neighbour is heard from.
    arg_hi: u32,
    /// Argmin twin of `arg_hi` (the entry behind `Λ↓`).
    arg_lo: u32,
    /// Ablation switch: when set, neighbour estimates are *not* advanced at
    /// the hardware rate between messages (they stay at the raw received
    /// value `ℓ_v^w`). See [`crate::AOpt::with_frozen_estimates`].
    freeze_estimates: bool,
}

impl Default for AOptCore {
    fn default() -> Self {
        Self::new()
    }
}

impl AOptCore {
    /// An unstarted clock and an empty estimate table.
    pub fn new() -> Self {
        AOptCore {
            logical: LogicalClock::new(),
            estimates: Vec::new(),
            arg_hi: NO_ENTRY,
            arg_lo: NO_ENTRY,
            freeze_estimates: false,
        }
    }

    /// The ablated table of [`crate::AOpt::with_frozen_estimates`]:
    /// estimates stay at the raw received values `ℓ_v^w`.
    pub fn frozen() -> Self {
        AOptCore {
            freeze_estimates: true,
            ..Self::new()
        }
    }

    /// The logical clock value `L_v` when the hardware clock reads `hw`
    /// (0 before start).
    pub(crate) fn logical_value(&self, hw: f64) -> f64 {
        self.logical.value_at_hw(hw)
    }

    /// The current rate multiplier `ρ_v`; `1` before start.
    pub(crate) fn rate_multiplier(&self) -> f64 {
        if self.logical.is_started() {
            self.logical.multiplier()
        } else {
            1.0
        }
    }

    /// The estimate `L_v^w` of neighbour `w`'s clock at hardware reading
    /// `hw`, if a message from `w` has been recorded.
    pub(crate) fn estimate(&self, w: NodeId, hw: f64) -> Option<f64> {
        self.estimates
            .iter()
            .find(|&&(v, _)| v == w)
            .map(|(_, e)| self.estimate_value(e, hw))
    }

    /// The estimate value for one neighbour entry (honours the ablation
    /// switch: frozen estimates stay at the raw `ℓ_v^w`).
    fn estimate_value(&self, e: &NeighborEstimate, hw: f64) -> f64 {
        if self.freeze_estimates {
            e.ell
        } else {
            hw + e.offset
        }
    }

    /// The key the incremental Λ trackers order entries by: `offset`, or
    /// the raw `ℓ_v^w` when frozen. At any hardware reading the estimate
    /// value is `hw + offset` (resp. `ell` itself) — a weakly monotone
    /// function of this key — so the entry with the largest (smallest) key
    /// realizes the maximal (minimal) estimate, and `Λ↑`/`Λ↓` computed from
    /// the winners are **bit-for-bit** the linear fold's values: the
    /// winning entry's contribution is the exact expression the fold would
    /// have evaluated for it.
    fn fold_key(&self, e: &NeighborEstimate) -> f64 {
        if self.freeze_estimates {
            e.ell
        } else {
            e.offset
        }
    }

    /// Re-points the Λ tracker caches after `estimates[i]` moved away from
    /// `old_key`. O(1) except when the updated entry owned a cache and
    /// moved *against* it (its decrease-path), which rescans the neighbour
    /// table — rare in steady state, making a wake O(1) amortized instead
    /// of a per-wake O(deg) fold.
    fn note_estimate_update(&mut self, i: usize, old_key: f64) {
        let new_key = self.fold_key(&self.estimates[i].1);
        let i = i as u32;
        if self.arg_hi == NO_ENTRY {
            self.arg_hi = i;
            self.arg_lo = i;
            return;
        }
        if i == self.arg_hi {
            if new_key < old_key {
                self.rescan_trackers();
                return;
            }
        } else if new_key > self.fold_key(&self.estimates[self.arg_hi as usize].1) {
            self.arg_hi = i;
        }
        if i == self.arg_lo {
            if new_key > old_key {
                self.rescan_trackers();
            }
        } else if new_key < self.fold_key(&self.estimates[self.arg_lo as usize].1) {
            self.arg_lo = i;
        }
    }

    /// Full O(deg) rescan of both trackers (the owning entry's
    /// decrease-path fallback).
    fn rescan_trackers(&mut self) {
        let (mut hi, mut lo) = (0u32, 0u32);
        let (mut hi_key, mut lo_key) = (f64::NEG_INFINITY, f64::INFINITY);
        for (idx, (_, e)) in self.estimates.iter().enumerate() {
            let k = self.fold_key(e);
            if k > hi_key {
                hi_key = k;
                hi = idx as u32;
            }
            if k < lo_key {
                lo_key = k;
                lo = idx as u32;
            }
        }
        self.arg_hi = hi;
        self.arg_lo = lo;
    }

    /// `Λ↑ = max_w (L_v^w − L_v)` over heard-from neighbours by a linear
    /// fold; `None` if none. The oracle [`AOptCore::lambda_pair`] is
    /// checked against.
    pub fn lambda_up(&self, hw: f64) -> Option<f64> {
        let l = self.logical.value_at_hw(hw);
        self.estimates
            .iter()
            .map(|(_, e)| self.estimate_value(e, hw) - l)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// `Λ↓ = max_w (L_v − L_v^w)` over heard-from neighbours by a linear
    /// fold; `None` if none.
    pub fn lambda_down(&self, hw: f64) -> Option<f64> {
        let l = self.logical.value_at_hw(hw);
        self.estimates
            .iter()
            .map(|(_, e)| l - self.estimate_value(e, hw))
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// `(Λ↑, Λ↓)` in O(1) from the incremental trackers — bit-identical to
    /// [`AOptCore::lambda_up`]/[`AOptCore::lambda_down`]. `None` before any
    /// neighbour is heard from.
    pub fn lambda_pair(&self, hw: f64) -> Option<(f64, f64)> {
        if self.estimates.is_empty() {
            return None;
        }
        let l = self.logical.value_at_hw(hw);
        let hi = self.estimates[self.arg_hi as usize].1;
        let lo = self.estimates[self.arg_lo as usize].1;
        Some((
            self.estimate_value(&hi, hw) - l,
            l - self.estimate_value(&lo, hw),
        ))
    }

    /// The table index of `from`'s entry, inserting an empty one (which
    /// any finite value updates) on first contact.
    fn entry(&mut self, from: NodeId) -> usize {
        match self.estimates.iter().position(|&(v, _)| v == from) {
            Some(i) => i,
            None => {
                self.estimates.push((
                    from,
                    NeighborEstimate {
                        offset: f64::NEG_INFINITY,
                        ell: f64::NEG_INFINITY,
                    },
                ));
                self.estimates.len() - 1
            }
        }
    }

    /// Algorithm 2, lines 5–7: adopt a larger (hence more recent) clock
    /// value of `from` received when this node's hardware clock read `hw`.
    pub fn record_estimate(&mut self, from: NodeId, logical: f64, hw: f64) {
        let idx = self.entry(from);
        if logical > self.estimates[idx].1.ell {
            self.refresh(idx, logical, hw);
        }
    }

    /// Sets `from`'s estimate to `logical` at hardware reading `hw` without
    /// the `ℓ_v^w` guard — for a sender whose reconstructed clock value is
    /// monotone by construction but re-anchors on every message.
    pub(crate) fn refresh_estimate(&mut self, from: NodeId, logical: f64, hw: f64) {
        let idx = self.entry(from);
        self.refresh(idx, logical, hw);
    }

    fn refresh(&mut self, idx: usize, logical: f64, hw: f64) {
        let old_key = self.fold_key(&self.estimates[idx].1);
        let entry = &mut self.estimates[idx].1;
        entry.ell = logical;
        entry.offset = logical - hw;
        self.note_estimate_update(idx, old_key);
    }

    /// Algorithm 3, lines 1–2: the increase
    /// `R_v = clamped_increase(Λ↑, Λ↓, κ, L_v^max − L_v)` at hardware
    /// reading `hw`, where `lmax` is `L_v^max` at that reading. With no
    /// neighbour heard from, `Λ↑ = Λ↓ = 0`: the `κ` tolerance toward
    /// `L_v^max` still applies (line 2 uses `max{κ − Λ↓, ·}`).
    pub(crate) fn increase(&self, hw: f64, kappa: f64, lmax: f64) -> f64 {
        let (up, down) = match self.lambda_pair(hw) {
            Some((up, down)) => {
                debug_assert_eq!(Some(up), self.lambda_up(hw));
                debug_assert_eq!(Some(down), self.lambda_down(hw));
                (up, down)
            }
            None => (0.0, 0.0),
        };
        clamped_increase(up, down, kappa, lmax - self.logical.value_at_hw(hw))
    }

    /// Algorithm 3 with the bounded-rate boost: decides `R_v` (see
    /// [`AOptCore::increase`]), arms or cancels the rate timer and switches
    /// `ρ_v` to the matching multiplier.
    pub(crate) fn set_clock_rate<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        kappa: f64,
        mu: f64,
        lmax: f64,
    ) {
        let hw = ctx.hw();
        let r = self.increase(hw, kappa, lmax);
        let multiplier = arm_rate_timer(ctx, r, mu);
        self.logical.set_multiplier(hw, multiplier);
    }
}

/// Algorithms 3–4's fast mode for an increase `r`: if `r > 0`, arms
/// [`RATE_TIMER`] for `H_v^R = H_v + r/μ` and returns the multiplier
/// `1 + μ`; otherwise cancels the timer and returns `1`.
pub(crate) fn arm_rate_timer<M>(ctx: &mut Context<'_, M>, r: f64, mu: f64) -> f64 {
    if r > 0.0 {
        ctx.set_timer(RATE_TIMER, ctx.hw() + r / mu);
        1.0 + mu
    } else {
        ctx.cancel_timer(RATE_TIMER);
        1.0
    }
}

/// Algorithm 2, line 1: whether a received maximum-clock estimate is
/// strictly larger than the node's own. "Strictly larger" carries a 1e-9
/// slack so that equal estimates reconstructed through different
/// floating-point routes are not treated as increases (which would
/// duplicate sends).
pub(crate) fn adopts(candidate: f64, current: f64) -> bool {
    candidate > current + 1e-9
}

/// Algorithm 1's trigger for an estimate `L_v^max = H_v + offset` at
/// hardware reading `hw`: the index `k` of the next `H₀` multiple strictly
/// above it (tolerating floating-point error at an exact hit), and the
/// hardware reading `k·H₀ − offset` at which the estimate reaches it.
pub(crate) fn next_multiple(hw: f64, offset: f64, h0: f64) -> (u64, f64) {
    let k = ((hw + offset) / h0 + 1e-9).floor() as u64 + 1;
    (k, k as f64 * h0 - offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_refreshes_keep_the_trackers_exact() {
        // A refreshed entry moves both ways (its offset shrinks while the
        // hardware clock outruns the reconstructed value), so both tracker
        // rescans run; Λ↑/Λ↓ must still equal the linear fold bit for bit.
        let mut core = AOptCore::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % k
        };
        let (mut hw, mut sent) = (0.0, [0.0f64; 5]);
        for _ in 0..2000 {
            hw += next(4) as f64 * 0.25;
            let w = next(5) as usize;
            sent[w] += next(3) as f64 * 0.5;
            if next(2) == 0 {
                core.refresh_estimate(NodeId(w), sent[w], hw);
            } else {
                core.record_estimate(NodeId(w), sent[w], hw);
            }
            let (up, down) = core.lambda_pair(hw).unwrap();
            assert_eq!(Some(up.to_bits()), core.lambda_up(hw).map(f64::to_bits));
            assert_eq!(Some(down.to_bits()), core.lambda_down(hw).map(f64::to_bits));
        }
    }

    #[test]
    fn refresh_re_anchors_where_record_keeps_the_estimate() {
        // A repeated value two hardware units later: the ℓ-guarded record
        // keeps advancing the old estimate, the unguarded refresh (the
        // discrete variant's reconstruction) re-anchors it at the value.
        let (w, mut guarded, mut unguarded) = (NodeId(1), AOptCore::new(), AOptCore::new());
        for hw in [1.0, 3.0] {
            guarded.record_estimate(w, 2.0, hw);
            unguarded.refresh_estimate(w, 2.0, hw);
        }
        assert_eq!(guarded.estimate(w, 3.0), Some(4.0));
        assert_eq!(unguarded.estimate(w, 3.0), Some(2.0));
        assert_eq!(unguarded.estimate(NodeId(2), 3.0), None);
    }

    #[test]
    fn next_multiple_is_strictly_ahead_even_at_an_exact_hit() {
        // L^max = 0.5 + 2.5 = 3·H₀ exactly: the next multiple is the 4th,
        // which L^max = H + 2.5 reaches at H = 1.5.
        assert_eq!(next_multiple(0.5, 2.5, 1.0), (4, 1.5));
        assert_eq!(next_multiple(0.5, 2.25, 1.0), (3, 0.75));
        assert_eq!(next_multiple(0.0, 0.0, 0.1), (1, 0.1));
    }
}
