//! Property tests of the incremental Λ↑/Λ↓ trackers against the retained
//! linear-scan fold.
//!
//! `AOptCore` (the estimate table `AOpt`, its variants and the midpoint
//! baseline share) does not fold over its whole neighbour table on every
//! wake: `lambda_pair` reads two incrementally maintained arg-extremes instead.
//! The claim is not "approximately equal" but **bit-identical** — the
//! tracked entry's contribution is computed by the exact expression the
//! fold would have evaluated for it, and the fold key is a weakly monotone
//! image of the estimate value at every hardware reading. These tests
//! drive randomized estimate-update/wake sequences (including the
//! owner-decrease rescans: a neighbour's offset shrinks whenever the
//! hardware clock outruns its reported logical value) through
//! `record_estimate` and check the equality at every step.

use gcs_core::AOptCore;
use gcs_graph::NodeId;
use proptest::prelude::*;

/// A randomized estimate-update schedule: per step, which neighbour
/// reports, the raw logical value it reports, and how far the local
/// hardware clock advanced since the previous step.
fn update_schedule() -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    prop::collection::vec((0usize..6, 0.0f64..100.0, 0.0f64..3.0), 1..120)
}

fn oracle(node: &AOptCore, hw: f64) -> Option<(u64, u64)> {
    match (node.lambda_up(hw), node.lambda_down(hw)) {
        (Some(up), Some(down)) => Some((up.to_bits(), down.to_bits())),
        _ => None,
    }
}

fn tracked(node: &AOptCore, hw: f64) -> Option<(u64, u64)> {
    node.lambda_pair(hw)
        .map(|(up, down)| (up.to_bits(), down.to_bits()))
}

proptest! {
    #[test]
    fn tracker_matches_fold_bit_for_bit(ops in update_schedule()) {
        let mut node = AOptCore::new();
        let mut hw = 0.0;
        for (w, logical, dhw) in ops {
            hw += dhw;
            node.record_estimate(NodeId(w), logical, hw);
            prop_assert_eq!(tracked(&node, hw), oracle(&node, hw));
        }
        // Wakes strictly between messages see the same equality: offsets
        // are static, so the argmax is hardware-reading-independent.
        prop_assert_eq!(tracked(&node, hw + 1.0), oracle(&node, hw + 1.0));
    }

    #[test]
    fn frozen_estimate_tracker_matches_fold(ops in update_schedule()) {
        // The ablated variant tracks the raw `ℓ_v^w` instead of the
        // hardware-relative offset; the monotone-image argument holds for
        // the identity map too.
        let mut node = AOptCore::frozen();
        let mut hw = 0.0;
        for (w, logical, dhw) in ops {
            hw += dhw;
            node.record_estimate(NodeId(w), logical, hw);
            prop_assert_eq!(tracked(&node, hw), oracle(&node, hw));
        }
    }
}
