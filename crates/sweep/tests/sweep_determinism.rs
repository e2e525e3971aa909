//! `run_sweep` is observationally independent of its worker count and of
//! its progress callback: same outcomes, same emit order, byte-identical
//! CSV/JSONL. The timing and progress machinery behind
//! `gcs sweep --profile` / `--progress` is pure observation.

use std::sync::Mutex;

use gcs_sweep::{report, run_sweep, JobOutcome, JobResult, PoolProgress, SweepSpec};

fn spec() -> SweepSpec {
    SweepSpec {
        topologies: vec!["path:5".into(), "ring:6".into()],
        eps: vec![0.01, 0.02],
        seeds: 0..3,
        horizon: 25.0,
        ..SweepSpec::default()
    }
}

/// What one sweep emitted: each job's outcome, and the full deterministic
/// output (CSV rows + JSONL rows + summary) the way `gcs sweep` streams it.
struct Emitted {
    outcomes: Vec<JobOutcome<JobResult>>,
    output: String,
}

fn sweep(workers: usize, progress: Option<impl FnMut(PoolProgress) + Send>) -> Emitted {
    let spec = spec();
    let mut outcomes = Vec::new();
    let mut output = String::from(report::CSV_HEADER);
    output.push('\n');
    let (aggregate, stats) = run_sweep(
        &spec,
        workers,
        |job, outcome| {
            assert_eq!(job, spec.job(outcomes.len()), "emitted out of order");
            output.push_str(&report::csv_row(&job, &outcome));
            output.push('\n');
            output.push_str(&report::jsonl_row(&job, &outcome));
            output.push('\n');
            outcomes.push(outcome);
        },
        progress,
    );
    output.push_str(&report::jsonl_summary(&aggregate));
    output.push('\n');
    assert_eq!(stats.workers, workers);
    assert_eq!(stats.job_wall.len(), spec.len());
    assert!(stats.utilization() > 0.0);
    Emitted { outcomes, output }
}

#[test]
fn sweep_output_is_byte_identical_at_1_and_2_workers_with_or_without_progress() {
    assert_eq!(spec().len(), 12);
    let reference = sweep(1, None::<fn(PoolProgress)>);
    assert!(reference.output.contains(r#""status":"completed""#));

    let plain = sweep(2, None::<fn(PoolProgress)>);
    assert_eq!(plain.outcomes, reference.outcomes);
    assert_eq!(plain.output, reference.output);

    // With a live progress callback.
    let progress = Mutex::new(Vec::new());
    let watched = sweep(
        2,
        Some(|p: PoolProgress| progress.lock().unwrap().push(p.done)),
    );
    assert_eq!(watched.outcomes, reference.outcomes);
    assert_eq!(watched.output, reference.output);

    let progress = progress.into_inner().unwrap();
    assert!(
        progress.windows(2).all(|w| w[0] < w[1]),
        "progress counts must be strictly monotone: {progress:?}"
    );
    assert_eq!(progress.last(), Some(&spec().len()));
}
