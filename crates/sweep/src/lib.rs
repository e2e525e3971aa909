//! `gcs-sweep` — parallel, deterministic experiment-sweep orchestration.
//!
//! Every quantitative claim of *Tight Bounds for Clock Synchronization* is
//! checked by sweeping parameters: topology families × `(ε̂, 𝒯̂, σ)` axes ×
//! seeds × adversary strategies. This crate turns such a grid into
//! independent jobs and runs them on a [`std::thread`] worker pool:
//!
//! * [`SweepSpec`] — the grid. Expanded by [`SweepSpec::expand`] into
//!   [`JobSpec`]s in a fixed nesting order; the job index is the job's
//!   identity in every output stream.
//! * [`Scenario`] / [`SinkSet`] / [`Scenario::run`] — the one execution
//!   path shared with `gcs run` and chaos scenarios: build the substrate
//!   once, pick the protocol from the registry ([`with_protocols`]),
//!   observe through one sink set, get one [`Outcome`].
//! * [`run_job`] — one job on a **fresh engine** with a fresh per-job
//!   observability stack (exact [`gcs_analysis::SkewObserver`],
//!   [`gcs_analysis::MetricsSink`], optional
//!   [`gcs_analysis::InvariantWatchdog`]). A job's result is a pure
//!   function of its spec.
//! * [`run_pool`] — the shared work queue. Panics are caught per job
//!   ([`JobOutcome::Failed`]) and the pool keeps draining; completed
//!   results are emitted **in job-index order regardless of worker
//!   count**, streamed as the completed prefix grows.
//! * [`SweepAggregate`] / [`report`] — order-stable statistics
//!   (count/mean/min/max/p50/p95/p99) and deterministic CSV + JSONL rows:
//!   the same spec produces byte-identical output at any `--jobs` value.
//!
//! # Example
//!
//! ```
//! use gcs_sweep::{run_sweep, SweepSpec};
//!
//! let mut spec = SweepSpec::default();
//! spec.topologies = vec!["path:5".into(), "ring:6".into()];
//! spec.seeds = 0..2;
//! spec.horizon = 20.0;
//! let jobs = spec.expand();
//! let (outcomes, agg) = run_sweep(&jobs, 2, |_job, _outcome| {});
//! assert_eq!(outcomes.len(), 4);
//! assert_eq!(agg.completed, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod dedupe;
pub mod hash;
mod job;
pub mod parse;
mod pool;
pub mod report;
pub mod scenario;
mod spec;

pub use agg::{Stat, SweepAggregate};
pub use dedupe::{run_sweep_deduped, DedupePlan};
pub use job::{run_job, run_job_full, JobExecution, JobResult};
pub use parse::{build_delay, build_rates, parse_topology, SweepDelay};
pub use pool::{run_pool, run_pool_timed, JobOutcome, PoolProgress, PoolStats};
pub use scenario::{
    with_protocols, Outcome, ProtocolVisitor, Scenario, ScenarioSpec, SinkSet, ALGOS,
};
pub use spec::{JobSpec, SweepSpec};

/// Runs the given jobs on `workers` threads and aggregates the results.
///
/// `emit` is invoked once per job in strictly increasing job-index order
/// (see [`run_pool`]) — the place to stream CSV/JSONL rows. The aggregate
/// ingests outcomes in the same order, so its statistics are independent
/// of `workers`.
pub fn run_sweep(
    jobs: &[JobSpec],
    workers: usize,
    emit: impl FnMut(&JobSpec, &JobOutcome<JobResult>) + Send,
) -> (Vec<JobOutcome<JobResult>>, SweepAggregate) {
    let (outcomes, aggregate, _) = run_sweep_timed(jobs, workers, emit, None::<fn(PoolProgress)>);
    (outcomes, aggregate)
}

/// Like [`run_sweep`], additionally returning the pool's wall-time
/// accounting ([`PoolStats`]) and optionally invoking `progress` after
/// each completed job (the hook behind `gcs sweep --progress`).
///
/// Timing is observational: outcomes, emit order, and the aggregate are
/// byte-identical to [`run_sweep`]'s (property-tested in
/// `tests/sweep_determinism.rs`).
pub fn run_sweep_timed(
    jobs: &[JobSpec],
    workers: usize,
    mut emit: impl FnMut(&JobSpec, &JobOutcome<JobResult>) + Send,
    progress: Option<impl FnMut(PoolProgress) + Send>,
) -> (Vec<JobOutcome<JobResult>>, SweepAggregate, PoolStats) {
    let mut aggregate = SweepAggregate::new();
    let (outcomes, stats) = run_pool_timed(
        jobs.len(),
        workers,
        |index| run_job(&jobs[index]),
        |index, outcome| {
            aggregate.ingest(index, outcome);
            emit(&jobs[index], outcome);
        },
        progress,
    );
    (outcomes, aggregate, stats)
}
