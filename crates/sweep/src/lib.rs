//! `gcs-sweep` — parallel, deterministic experiment-sweep orchestration.
//!
//! Every quantitative claim of *Tight Bounds for Clock Synchronization* is
//! checked by sweeping parameters: topology families × `(ε̂, 𝒯̂, σ)` axes ×
//! seeds × adversary strategies. This crate turns such a grid into
//! independent jobs and runs them on a [`std::thread`] worker pool:
//!
//! * [`SweepSpec`] — the grid. [`SweepSpec::job`] builds job `i` on demand,
//!   in a fixed nesting order; the job index is the job's identity in every
//!   output stream.
//! * [`Scenario`] / [`SinkSet`] / [`Scenario::run`] — the one execution
//!   path shared with `gcs run` and chaos scenarios: build the substrate
//!   once, pick the protocol from the registry ([`with_protocols`]),
//!   observe through one sink set, get one [`Outcome`].
//! * [`run_job`] — one job on a **fresh engine** with a fresh per-job
//!   [`SinkSet`]: the exact [`gcs_analysis::SkewObserver`], the flight
//!   recorder, the set's event counter (the `events` column) and, with
//!   `watchdog = true`, the [`gcs_analysis::InvariantWatchdog`]. Without
//!   the watchdog a job never asks the engine for a clock vector outside
//!   the observer's own full-scan stints. A job's result is a pure
//!   function of its spec.
//! * [`stream_pool`] — the shared work queue. Panics are caught per job
//!   ([`JobOutcome::Failed`]) and the pool keeps draining; finished jobs
//!   are emitted **in job-index order regardless of worker count**, as the
//!   finished prefix grows, and dropped once emitted. [`run_sweep`] runs a
//!   whole [`SweepSpec`] through it.
//! * [`SweepAggregate`] / [`report`] — order-stable statistics
//!   (count/mean/min/max/p50/p95/p99) and deterministic CSV + JSONL rows:
//!   the same spec produces byte-identical output at any `--jobs` value.
//!
//! # Example
//!
//! ```
//! use gcs_sweep::{run_sweep, PoolProgress, SweepSpec};
//!
//! let mut spec = SweepSpec::default();
//! spec.topologies = vec!["path:5".into(), "ring:6".into()];
//! spec.seeds = 0..2;
//! spec.horizon = 20.0;
//! let mut outcomes = Vec::new();
//! let (agg, _) = run_sweep(
//!     &spec,
//!     2,
//!     |job, outcome| outcomes.push((job, outcome)),
//!     None::<fn(PoolProgress)>,
//! );
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
pub use job::{run_job, JobResult};
pub use parse::{build_delay, build_rates, parse_topology, SweepDelay};
pub use pool::{run_pool, run_pool_timed, stream_pool, JobOutcome, PoolProgress, PoolStats};
pub use scenario::{
    with_protocols, Outcome, ProtocolVisitor, Scenario, ScenarioSpec, SinkSet, ALGOS,
};
pub use spec::{JobSpec, SweepSpec};

/// Runs every job of `spec` on `workers` threads and aggregates the
/// results.
///
/// Each worker builds its job from the spec ([`SweepSpec::job`]) and runs
/// it ([`run_job`]). `emit` receives each job and its outcome once, in
/// strictly increasing job-index order (see [`stream_pool`]), after the
/// aggregate has ingested it — the place to stream CSV/JSONL rows, or to
/// collect the outcomes. Nothing else keeps them, so the sweep's memory is
/// set by its workers; only the aggregate's samples and
/// [`PoolStats::job_wall`] grow with the job count. The aggregate's
/// statistics are independent of `workers`.
///
/// `progress` is invoked after each completed job (the hook behind
/// `gcs sweep --progress`). Timing is observational: emit order, outcomes
/// and the aggregate are byte-identical with or without it
/// (`tests/sweep_determinism.rs`).
///
/// # Panics
///
/// If the grid's job count overflows `usize` ([`SweepSpec::validate`]
/// reports that as an error).
pub fn run_sweep(
    spec: &SweepSpec,
    workers: usize,
    mut emit: impl FnMut(JobSpec, JobOutcome<JobResult>) + Send,
    progress: Option<impl FnMut(PoolProgress) + Send>,
) -> (SweepAggregate, PoolStats) {
    let mut aggregate = SweepAggregate::new();
    let stats = stream_pool(
        spec.len(),
        workers,
        |index| spec.job(index),
        run_job,
        |job, outcome| {
            aggregate.ingest(job.index, &outcome);
            emit(job, outcome);
        },
        progress,
    );
    (aggregate, stats)
}
