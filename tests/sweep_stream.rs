//! Determinism property tests for the sweep orchestrator.
//!
//! `gcs sweep` promises that a fixed [`SweepSpec`] produces *byte-identical*
//! aggregated CSV/JSONL output at every `--jobs` value: jobs are pure
//! functions of their spec, and the pool emits results in job-index order
//! regardless of completion order. These tests pin that promise down in the
//! style of `tests/event_stream.rs`, reusing `diff_streams` so a divergence
//! reports the exact line.

use clock_sync::analysis::diff_streams;
use clock_sync::sweep::{report, run_sweep, PoolProgress, SweepSpec};
use proptest::prelude::*;

/// Runs a sweep at the given worker count and returns its full output
/// stream: CSV header + per-job CSV rows + per-job JSONL rows + the final
/// JSONL summary, exactly as the `gcs sweep --csv/--jsonl` files would be
/// laid out end to end.
fn sweep_output(spec: &SweepSpec, workers: usize) -> String {
    let mut out = String::from(report::CSV_HEADER);
    out.push('\n');
    let (aggregate, _) = run_sweep(
        spec,
        workers,
        |job, outcome| {
            out.push_str(&report::csv_row(&job, &outcome));
            out.push('\n');
            out.push_str(&report::jsonl_row(&job, &outcome));
            out.push('\n');
        },
        None::<fn(PoolProgress)>,
    );
    out.push_str(&report::jsonl_summary(&aggregate));
    out.push('\n');
    out
}

/// The fixed F-style grid: serial and 8-worker runs must agree byte for
/// byte, including the order-sensitive aggregate means.
#[test]
fn fixed_grid_output_identical_at_1_and_8_workers() {
    let spec = SweepSpec {
        topologies: vec!["path:5".into(), "ring:6".into(), "er:8:0.4".into()],
        eps: vec![0.01, 0.02],
        seeds: 0..2,
        horizon: 15.0,
        watchdog: true,
        ..SweepSpec::default()
    };
    assert_eq!(spec.len(), 12);
    let serial = sweep_output(&spec, 1);
    let parallel = sweep_output(&spec, 8);
    assert!(serial.contains(r#""status":"completed""#));
    assert_eq!(diff_streams(&serial, &parallel), None);
}

/// Different seed ranges must diverge — the identity above is not vacuous.
#[test]
fn different_seed_ranges_diverge() {
    let mut spec = SweepSpec {
        topologies: vec!["path:5".into()],
        horizon: 15.0,
        seeds: 0..2,
        ..SweepSpec::default()
    };
    let a = sweep_output(&spec, 2);
    spec.seeds = 2..4;
    let b = sweep_output(&spec, 2);
    assert!(diff_streams(&a, &b).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Worker count never leaks into the output, across random grids over
    /// random topologies. This is the contract the `sweep_scaling` bench
    /// and the CI smoke sweep rely on.
    #[test]
    fn sweep_output_independent_of_worker_count(
        n in 3usize..7,
        p_edge in 2u32..7,
        seed_count in 1u64..4,
        workers in 2usize..9,
    ) {
        // Format the edge probability from an integer so the topology
        // spec string itself is reproducible.
        let spec = SweepSpec {
            topologies: vec![format!("path:{n}"), format!("er:{n}:0.{p_edge}")],
            eps: vec![0.01],
            seeds: 0..seed_count,
            horizon: 10.0,
            ..SweepSpec::default()
        };
        let serial = sweep_output(&spec, 1);
        let parallel = sweep_output(&spec, workers);
        prop_assert!(serial.contains(r#""kind":"summary""#));
        prop_assert_eq!(diff_streams(&serial, &parallel), None);
    }
}
