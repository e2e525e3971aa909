//! Property tests for the metrics merge fold: merging per-shard state must
//! be indistinguishable from feeding one registry the interleaved stream.
//! This is the algebra any sharded metrics fold rests on.

use gcs_analysis::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Observations stay within a few orders of magnitude of the bucket range
/// so every bucket — underflow, interior, boundary, overflow — gets hit.
fn obs() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Arbitrary magnitudes across the bucket range.
        -2.0..50.0_f64,
        // Exact bucket boundaries: the ≤-semantics edge case.
        prop::sample::select(vec![1.0, 2.0, 4.0, 8.0, 16.0]),
        // Deep overflow.
        100.0..1e6_f64,
    ]
}

fn shards() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(obs(), 0..40), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram: shard-and-merge ≡ one histogram fed everything. Bucket
    /// counts, count, min, max, and every quantile are exact; only `sum`
    /// (float accumulation order) is approximate.
    #[test]
    fn histogram_merge_equals_interleaved(shards in shards()) {
        let make = || Histogram::exponential(1.0, 2.0, 5);
        let mut merged = make();
        let mut reference = make();
        for shard in &shards {
            let mut h = make();
            for &v in shard {
                h.record(v);
                reference.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.count(), reference.count());
        prop_assert_eq!(merged.bucket_counts(), reference.bucket_counts());
        prop_assert_eq!(merged.min(), reference.min());
        prop_assert_eq!(merged.max(), reference.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), reference.quantile(q));
        }
        match (merged.mean(), reference.mean()) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "means diverged: {} vs {}", a, b
            ),
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    /// Merge must be associative in the way the sweep fold uses it:
    /// left-fold over shards ≡ one flat merge of everything.
    #[test]
    fn histogram_merge_fold_order_is_irrelevant_for_counts(shards in shards()) {
        let make = || Histogram::exponential(1.0, 2.0, 5);
        let built: Vec<Histogram> = shards
            .iter()
            .map(|s| {
                let mut h = make();
                s.iter().for_each(|&v| h.record(v));
                h
            })
            .collect();
        let mut left_fold = make();
        for h in &built {
            left_fold.merge(h);
        }
        let mut pairwise = built.clone();
        while pairwise.len() > 1 {
            let h = pairwise.pop().unwrap();
            pairwise.last_mut().unwrap().merge(&h);
        }
        let tree = pairwise.pop().unwrap();
        prop_assert_eq!(left_fold.bucket_counts(), tree.bucket_counts());
        prop_assert_eq!(left_fold.count(), tree.count());
        prop_assert_eq!(left_fold.min(), tree.min());
        prop_assert_eq!(left_fold.max(), tree.max());
    }

    /// Registry: counters add across shards, histograms fold exactly, and
    /// gauges take the last shard's value — the documented right bias.
    /// Observations are dyadic (multiples of 0.25) so float sums are exact
    /// in any accumulation order and the text/JSON renderings must be
    /// **byte-identical**, not merely close.
    #[test]
    fn registry_merge_equals_interleaved(
        shard_counts in prop::collection::vec(0u64..100, 1..5),
        shard_obs in prop::collection::vec(
            prop::collection::vec((-8i32..200).prop_map(|i| f64::from(i) * 0.25), 0..20),
            1..5,
        ),
    ) {
        let mut merged = MetricsRegistry::new();
        let mut reference = MetricsRegistry::new();
        let make = || Histogram::linear(0.0, 4.0, 6);
        let shards = shard_counts.len().max(shard_obs.len());
        for i in 0..shards {
            let mut r = MetricsRegistry::new();
            if let Some(&n) = shard_counts.get(i) {
                r.counter("events.total").add(n);
                reference.counter("events.total").add(n);
            }
            for &v in shard_obs.get(i).map(Vec::as_slice).unwrap_or(&[]) {
                r.histogram("delay", make).record(v);
                reference.histogram("delay", make).record(v);
            }
            r.gauge("time.last").set(i as f64);
            reference.gauge("time.last").set(i as f64);
            merged.merge(&r);
        }
        prop_assert_eq!(
            merged.counter_value("events.total"),
            reference.counter_value("events.total")
        );
        prop_assert_eq!(merged.gauge_value("time.last"), Some(shards as f64 - 1.0));
        match (merged.histogram_ref("delay"), reference.histogram_ref("delay")) {
            (Some(m), Some(r)) => {
                prop_assert_eq!(m.bucket_counts(), r.bucket_counts());
                prop_assert_eq!(m.count(), r.count());
            }
            (m, r) => prop_assert_eq!(m.is_some(), r.is_some()),
        }
        // Dyadic observations make sums exact, so the full renderings —
        // means included — must match byte-for-byte.
        prop_assert_eq!(merged.render(), reference.render());
        prop_assert_eq!(merged.to_json(), reference.to_json());
    }
}

#[test]
#[should_panic(expected = "different bounds")]
fn merging_mismatched_bounds_panics() {
    let mut a = Histogram::new(vec![1.0, 2.0]);
    let b = Histogram::new(vec![1.0, 3.0]);
    a.merge(&b);
}

#[test]
fn merge_with_empty_shard_is_identity() {
    let mut h = Histogram::exponential(1.0, 2.0, 4);
    h.record(3.0);
    h.record(100.0);
    let before = h.clone();
    h.merge(&Histogram::exponential(1.0, 2.0, 4));
    assert_eq!(h, before);
    let mut empty = Histogram::exponential(1.0, 2.0, 4);
    empty.merge(&before);
    assert_eq!(empty, before);
}

#[test]
fn registry_json_is_deterministic_and_merge_stable() {
    let mut a = MetricsRegistry::new();
    a.counter("events.total").add(7);
    a.gauge("time.last").set(1.5);
    a.histogram("delay", || Histogram::linear(0.0, 1.0, 3))
        .record(0.5);
    let mut b = MetricsRegistry::new();
    b.counter("events.total").add(3);
    b.histogram("delay", || Histogram::linear(0.0, 1.0, 3))
        .record(2.5);
    let mut merged = a.clone();
    merged.merge(&b);

    let json = merged.to_json();
    assert_eq!(json, merged.to_json(), "to_json must be deterministic");
    assert!(json.starts_with("{\"schema\":\"gcs-metrics/v1\""));
    assert!(json.contains("\"events.total\":10"));
    assert!(json.contains("\"buckets\":[1,0,1,0]"));
    assert!(json.ends_with("}\n"));
}
