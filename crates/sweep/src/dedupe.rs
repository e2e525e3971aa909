//! Deduplicating identical grid points inside one expanded job list.
//!
//! Duplicate axis values (`eps = 0.01,0.01`, overlapping topology lists,
//! a repeated chaos clause) expand to jobs that are identical in every
//! result-bearing field. A job's result is a pure function of its spec
//! (see [`crate::run_job`]), so recomputing such duplicates is pure waste.
//! [`DedupePlan`] groups jobs by their [canonical hash](crate::hash) —
//! with a full byte-equality guard against hash collisions — and
//! [`run_sweep_deduped`] runs one execution per distinct spec while
//! emitting results for **every** original job, in original index order,
//! byte-identical to the undeduped sweep.
//!
//! `gcs sweep` does not use it: [`crate::SweepSpec::validate`] rejects a
//! repeated axis value, so a validated grid has no duplicates. Its one
//! user is `benchmark/traced`, which checks with [`DedupePlan`] that a
//! spec has none and takes its reference outcomes from
//! [`run_sweep_deduped`].

use std::collections::HashMap;

use crate::agg::SweepAggregate;
use crate::job::{run_job, JobResult};
use crate::pool::{run_pool_timed, JobOutcome, PoolProgress, PoolStats};
use crate::spec::JobSpec;

/// The dedupe mapping for one expanded job list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupePlan {
    /// Original indices of the representative (first) occurrence of each
    /// distinct spec, in increasing order.
    unique: Vec<usize>,
    /// For every original job index, the position in `unique` of
    /// its representative.
    rep: Vec<usize>,
}

impl DedupePlan {
    /// Groups `jobs` by canonical hash. Hash collisions are disambiguated
    /// by comparing the full canonical byte strings, so the plan is exact
    /// even if two distinct specs ever collide on the 64-bit digest.
    pub fn new(jobs: &[JobSpec]) -> Self {
        let mut unique: Vec<usize> = Vec::new();
        let mut rep: Vec<usize> = Vec::with_capacity(jobs.len());
        // hash → positions in `unique` sharing it (usually exactly one).
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut canon: Vec<Vec<u8>> = Vec::new();
        for job in jobs {
            let bytes = job.canonical_bytes();
            let hash = crate::hash::digest(&bytes);
            let bucket = by_hash.entry(hash).or_default();
            match bucket.iter().find(|&&u| canon[u] == bytes) {
                Some(&u) => rep.push(u),
                None => {
                    let u = unique.len();
                    unique.push(job.index);
                    canon.push(bytes);
                    bucket.push(u);
                    rep.push(u);
                }
            }
        }
        DedupePlan { unique, rep }
    }

    /// Number of jobs that reuse another job's execution.
    pub fn duplicates(&self) -> usize {
        self.rep.len() - self.unique.len()
    }
}

/// Like [`crate::run_sweep`] over an expanded job list, but each distinct
/// spec is executed once and its outcome is replayed for every duplicate.
///
/// The emit callback still fires exactly once per **original** job, in
/// strictly increasing original index order, with outcomes identical to
/// the undeduped sweep — so CSV/JSONL streams and the aggregate are
/// byte-for-byte unchanged. Only `progress` differs: it reports executed
/// (distinct) jobs, since those are what take wall time.
///
/// Returns the per-original-job outcomes, the aggregate, the pool stats
/// (sized by distinct jobs), and the number of deduplicated jobs.
pub fn run_sweep_deduped(
    jobs: &[JobSpec],
    workers: usize,
    mut emit: impl FnMut(&JobSpec, &JobOutcome<JobResult>) + Send,
    progress: Option<impl FnMut(PoolProgress) + Send>,
) -> (Vec<JobOutcome<JobResult>>, SweepAggregate, PoolStats, usize) {
    let plan = DedupePlan::new(jobs);
    let mut aggregate = SweepAggregate::new();
    // Emission state, mutated under the pool's result lock: outcomes of
    // already-emitted distinct jobs, and the original-order watermark.
    let mut unique_done: Vec<Option<JobOutcome<JobResult>>> = vec![None; plan.unique.len()];
    let mut orig_watermark = 0usize;
    let (_, stats) = run_pool_timed(
        plan.unique.len(),
        workers,
        |u| run_job(&jobs[plan.unique[u]]),
        |u, outcome| {
            unique_done[u] = Some(outcome.clone());
            // Distinct jobs are emitted in increasing `u`; an original job
            // is ready as soon as its representative is. Representatives
            // appear in original order, so the original watermark advances
            // precisely to the next not-yet-executed representative.
            while orig_watermark < jobs.len() && plan.rep[orig_watermark] <= u {
                let ready = unique_done[plan.rep[orig_watermark]]
                    .as_ref()
                    .expect("representative emitted before its duplicates");
                aggregate.ingest(orig_watermark, ready);
                emit(&jobs[orig_watermark], ready);
                orig_watermark += 1;
            }
        },
        progress,
    );
    debug_assert_eq!(orig_watermark, jobs.len(), "every original job emitted");
    let outcomes = plan
        .rep
        .iter()
        .map(|&u| unique_done[u].clone().expect("all distinct jobs completed"))
        .collect();
    (outcomes, aggregate, stats, plan.duplicates())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;
    use crate::spec::SweepSpec;

    fn duplicated_spec() -> SweepSpec {
        SweepSpec {
            topologies: vec!["path:4".into(), "ring:4".into(), "path:4".into()],
            eps: vec![0.01, 0.01],
            seeds: 0..2,
            horizon: 10.0,
            ..SweepSpec::default()
        }
    }

    fn duplicated_grid() -> Vec<JobSpec> {
        duplicated_spec().expand()
    }

    #[test]
    fn plan_groups_identical_specs() {
        let jobs = duplicated_grid();
        assert_eq!(jobs.len(), 12);
        let plan = DedupePlan::new(&jobs);
        // 2 distinct topologies × 1 distinct eps × 2 seeds = 4 executions.
        assert_eq!(plan.unique.len(), 4);
        assert_eq!(plan.duplicates(), 8);
        for (i, job) in jobs.iter().enumerate() {
            let rep = &jobs[plan.unique[plan.rep[i]]];
            assert_eq!(rep.canonical_bytes(), job.canonical_bytes());
            assert!(rep.index <= job.index, "representative is first occurrence");
        }
        // A duplicate-free grid plans the identity.
        let clean = SweepSpec::default().expand();
        let plan = DedupePlan::new(&clean);
        assert_eq!(plan.duplicates(), 0);
        assert_eq!(plan.unique, [0]);
    }

    #[test]
    fn deduped_sweep_is_byte_identical_to_plain_sweep() {
        let jobs = duplicated_grid();
        let mut plain_rows = Vec::new();
        let mut plain_outcomes = Vec::new();
        let (plain_agg, _) = run_sweep(
            &duplicated_spec(),
            2,
            |job, outcome| {
                plain_rows.push(crate::report::csv_row(&job, &outcome));
                plain_outcomes.push(outcome);
            },
            None::<fn(PoolProgress)>,
        );
        for workers in [1, 3] {
            let mut rows = Vec::new();
            let (outcomes, agg, stats, deduped) = run_sweep_deduped(
                &jobs,
                workers,
                |job, outcome| rows.push(crate::report::csv_row(job, outcome)),
                None::<fn(PoolProgress)>,
            );
            assert_eq!(rows, plain_rows, "workers={workers}");
            assert_eq!(outcomes, plain_outcomes);
            assert_eq!(
                agg.render_table().to_string(),
                plain_agg.render_table().to_string()
            );
            assert_eq!(deduped, 8);
            assert_eq!(stats.job_wall.len(), 4, "only distinct jobs executed");
        }
    }

    #[test]
    fn failures_replay_to_duplicates_too() {
        let jobs = SweepSpec {
            topologies: vec!["moebius:4".into(), "moebius:4".into()],
            horizon: 1.0,
            ..SweepSpec::default()
        }
        .expand();
        let (outcomes, agg, _, deduped) =
            run_sweep_deduped(&jobs, 2, |_, _| {}, None::<fn(PoolProgress)>);
        assert_eq!(deduped, 1);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].failure().is_some());
        assert_eq!(agg.failed, 2, "aggregate counts original jobs");
    }
}
