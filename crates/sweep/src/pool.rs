//! The worker pool: a shared work queue over `std::thread`, panic
//! isolation per job, and **in-order streaming emission** of results.
//!
//! Workers claim job indices from an atomic counter, build each job's input
//! and run it independently. Each finished (or failed, or panicked) job
//! waits in a reorder buffer only until every earlier job has finished;
//! then the caller's emit callback receives it **in index order** and owns
//! it — so consumers (aggregators, CSV/JSONL writers) see the exact same
//! sequence whether the pool ran with 1 worker or 16, and the pool keeps
//! nothing of an emitted job but its wall time. The buffer holds only the
//! jobs that finished ahead of the oldest running one: a slow job holds
//! back emission but not execution.
//!
//! [`stream_pool`] is that core. What still grows with the job count is
//! [`PoolStats::job_wall`], 16 bytes a job, and whatever the callbacks
//! keep; [`run_pool`] and [`run_pool_timed`] keep every outcome, for
//! callers that want them all.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// What became of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job returned an error, or its code panicked (the panic is
    /// caught; the message records it). Other jobs are unaffected.
    Failed(String),
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The failure message, if any.
    pub fn failure(&self) -> Option<&str> {
        match self {
            JobOutcome::Completed(_) => None,
            JobOutcome::Failed(e) => Some(e),
        }
    }
}

/// Wall-time accounting for one pool run.
///
/// Collected by [`stream_pool`]; purely observational — the job
/// results and the emit order are byte-identical with or without it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (after clamping to the job count).
    pub workers: usize,
    /// Wall time of the whole pool run.
    pub wall: Duration,
    /// Per-job wall times, indexed by job; one is pushed as each job is
    /// emitted.
    pub job_wall: Vec<Duration>,
}

impl PoolStats {
    /// Summed job wall time (total useful work).
    pub fn busy(&self) -> Duration {
        self.job_wall.iter().sum()
    }

    /// Fraction of worker capacity spent running jobs:
    /// `busy / (wall × workers)`, in `[0, 1]` up to timer noise.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity > 0.0 {
            self.busy().as_secs_f64() / capacity
        } else {
            0.0
        }
    }

    /// Mean per-job wall time.
    pub fn mean_job(&self) -> Duration {
        if self.job_wall.is_empty() {
            Duration::ZERO
        } else {
            self.busy() / self.job_wall.len() as u32
        }
    }

    /// Longest single job.
    pub fn max_job(&self) -> Duration {
        self.job_wall
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Renders the accounting block appended to sweep aggregate output.
    pub fn render(&self) -> String {
        format!(
            "pool: {} jobs on {} workers in {:.3}s  (busy {:.3}s, utilization {:.1}%, \
             job mean {:.4}s, max {:.4}s)\n",
            self.job_wall.len(),
            self.workers,
            self.wall.as_secs_f64(),
            self.busy().as_secs_f64(),
            100.0 * self.utilization(),
            self.mean_job().as_secs_f64(),
            self.max_job().as_secs_f64(),
        )
    }
}

/// A progress snapshot handed to the live-progress callback after each
/// job completes (in completion order, under the pool's result lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolProgress {
    /// Jobs finished so far.
    pub done: usize,
    /// Total jobs.
    pub total: usize,
    /// Wall time since the pool started.
    pub elapsed: Duration,
}

impl PoolProgress {
    /// Estimated time to completion, extrapolating the mean job rate.
    pub fn eta(&self) -> Duration {
        if self.done == 0 || self.done >= self.total {
            Duration::ZERO
        } else {
            self.elapsed
                .mul_f64((self.total - self.done) as f64 / self.done as f64)
        }
    }
}

/// The emission side of [`stream_pool`], under the pool's lock.
struct Emitter<I, T, E> {
    /// Finished jobs from index `next` on: slot `k` holds job `next + k`
    /// once it has finished, with its input and wall time.
    ahead: VecDeque<Option<(I, JobOutcome<T>, Duration)>>,
    /// The oldest job not yet emitted.
    next: usize,
    emit: E,
    job_wall: Vec<Duration>,
    done: usize,
}

/// Runs jobs `0..count` on `workers` threads, handing each outcome to
/// `emit` in index order as soon as every earlier job has been emitted.
///
/// A worker builds job `i`'s input with `input(i)` and runs it with `run`;
/// both are called from worker threads. A panic inside `run` is caught and
/// converted into [`JobOutcome::Failed`] — the pool keeps draining the
/// remaining jobs. `input` should not panic: a panic there ends the pool.
///
/// `emit` receives each job's input and outcome exactly once, **in
/// strictly increasing index order** regardless of completion order or
/// worker count, and owns them from then on: the pool holds a finished job
/// only while an earlier one is still running. `emit` runs under the
/// pool's lock, so it should do cheap work (aggregation, buffered writes).
///
/// `progress` is invoked after each job completes, in completion order —
/// *not* emit order — so a live display updates immediately. Timing is
/// observational only: everything `emit` sees is independent of it and of
/// `workers`.
pub fn stream_pool<I, T, B, F, E, G>(
    count: usize,
    workers: usize,
    input: B,
    run: F,
    emit: E,
    mut progress: Option<G>,
) -> PoolStats
where
    I: Send,
    T: Send,
    B: Fn(usize) -> I + Sync,
    F: Fn(&I) -> Result<T, String> + Sync,
    E: FnMut(I, JobOutcome<T>) + Send,
    G: FnMut(PoolProgress) + Send,
{
    let workers = workers.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let pool_started = Instant::now();
    let state = Mutex::new(Emitter {
        ahead: VecDeque::new(),
        next: 0,
        emit,
        job_wall: Vec::new(),
        done: 0,
    });
    // Paired with the highest done-count already reported, so the live
    // display never goes backwards when completions race.
    let progress = Mutex::new((0usize, progress.as_mut()));

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let input = input(index);
                let job_started = Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(|| run(&input))) {
                    Ok(Ok(value)) => JobOutcome::Completed(value),
                    Ok(Err(message)) => JobOutcome::Failed(message),
                    Err(payload) => JobOutcome::Failed(panic_message(payload.as_ref())),
                };
                let job_wall = job_started.elapsed();
                let done = {
                    let mut guard = state.lock().expect("pool state poisoned");
                    let state = &mut *guard;
                    let slot = index - state.next;
                    if state.ahead.len() <= slot {
                        state.ahead.resize_with(slot + 1, || None);
                    }
                    state.ahead[slot] = Some((input, outcome, job_wall));
                    // Emit the finished prefix, in index order.
                    while let Some((input, outcome, wall)) =
                        state.ahead.front_mut().and_then(Option::take)
                    {
                        state.ahead.pop_front();
                        state.next += 1;
                        state.job_wall.push(wall);
                        (state.emit)(input, outcome);
                    }
                    state.done += 1;
                    state.done
                };
                let mut guard = progress.lock().expect("progress poisoned");
                let (reported, callback) = &mut *guard;
                if done > *reported {
                    *reported = done;
                    if let Some(callback) = callback.as_deref_mut() {
                        callback(PoolProgress {
                            done,
                            total: count,
                            elapsed: pool_started.elapsed(),
                        });
                    }
                }
            });
        }
    });

    let state = state.into_inner().expect("pool state poisoned");
    debug_assert_eq!(state.next, count, "every job must have been emitted");
    PoolStats {
        workers,
        wall: pool_started.elapsed(),
        job_wall: state.job_wall,
    }
}

/// Runs jobs `0..count` on `workers` threads and returns all outcomes in
/// index order: [`stream_pool`], with `emit` seeing each outcome by
/// reference before it is collected.
///
/// `run` executes one job. A panic inside it is caught and converted into
/// [`JobOutcome::Failed`] — the pool keeps draining the remaining jobs.
/// `emit` is invoked exactly once per job, **in strictly increasing index
/// order**, under the pool's lock.
pub fn run_pool<T, F, E>(count: usize, workers: usize, run: F, emit: E) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
    E: FnMut(usize, &JobOutcome<T>) + Send,
{
    run_pool_timed(count, workers, run, emit, None::<fn(PoolProgress)>).0
}

/// Like [`run_pool`], additionally returning wall-time accounting and
/// optionally invoking `progress` after each job completes (in completion
/// order — *not* emit order — so a live display updates immediately).
///
/// Timing is observational only: results, emit order, and everything the
/// emit callback sees are identical to [`run_pool`]'s.
pub fn run_pool_timed<T, F, E, G>(
    count: usize,
    workers: usize,
    run: F,
    mut emit: E,
    progress: Option<G>,
) -> (Vec<JobOutcome<T>>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
    E: FnMut(usize, &JobOutcome<T>) + Send,
    G: FnMut(PoolProgress) + Send,
{
    let mut outcomes = Vec::with_capacity(count);
    let stats = stream_pool(
        count,
        workers,
        |index| index,
        |&index| run(index),
        |index, outcome| {
            emit(index, &outcome);
            outcomes.push(outcome);
        },
        progress,
    );
    (outcomes, stats)
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn emits_in_index_order_under_out_of_order_completion() {
        let count = 24;
        // Early jobs sleep longest, so high indices finish first under
        // parallelism — the watermark must still emit 0, 1, 2, …
        let run = |i: usize| {
            thread::sleep(Duration::from_millis(((count - i) % 5) as u64));
            Ok(i * 10)
        };
        let mut seen = Vec::new();
        let outcomes = run_pool(count, 8, run, |i, _| seen.push(i));
        assert_eq!(seen, (0..count).collect::<Vec<_>>());
        assert_eq!(outcomes.len(), count);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.completed(), Some(&(i * 10)));
        }
    }

    #[test]
    fn pool_drains_every_job_once() {
        let ran = AtomicU64::new(0);
        let outcomes = run_pool(
            100,
            7,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i % 3 == 0 {
                    Err(format!("job {i} declined"))
                } else {
                    Ok(i)
                }
            },
            |_, _| {},
        );
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(
            outcomes.iter().filter(|o| o.failure().is_some()).count(),
            34
        );
    }

    #[test]
    fn concurrency_never_exceeds_requested_workers() {
        // The pool is the sweep's *only* source of parallelism: jobs run
        // their engines with the sequential loop (see `job::exec`), so the
        // machine-wide thread budget is exactly `--jobs`. A high-water
        // counter over simulated engine runs pins that: even with far more
        // jobs than workers, no more than `workers` jobs are ever inside
        // `run` at once.
        let workers = 3;
        let live = AtomicU64::new(0);
        let high_water = AtomicU64::new(0);
        let run = |i: usize| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            // A real (if tiny) engine run, standing in for a sweep job.
            let graph = gcs_graph::topology::path(4);
            let params = gcs_core::Params::recommended(0.01, 0.1).unwrap();
            let mut engine = gcs_sim::Engine::builder(graph)
                .protocols(vec![gcs_core::AOpt::new(params); 4])
                .delay_model(gcs_sim::ConstantDelay::new(0.05))
                .build();
            engine.wake_all_at(0.0);
            engine.run_until(2.0);
            live.fetch_sub(1, Ordering::SeqCst);
            Ok(i)
        };
        let outcomes = run_pool(32, workers, run, |_, _| {});
        assert_eq!(outcomes.len(), 32);
        assert!(outcomes.iter().all(|o| o.completed().is_some()));
        let peak = high_water.load(Ordering::SeqCst);
        assert!(
            peak <= workers as u64,
            "pool oversubscribed: {peak} concurrent jobs > {workers} workers"
        );
        assert!(peak >= 1);
    }

    /// An outcome that counts its live instances.
    struct Counted<'a>(&'a AtomicU64);

    impl<'a> Counted<'a> {
        fn new(live: &'a AtomicU64) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(live)
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn streaming_drops_each_outcome_once_emitted() {
        // An outcome is alive while its job runs (at most `workers`), while
        // it waits behind an earlier job (finished, not yet emitted), or
        // while `emit` holds it. Nothing else may keep one.
        for workers in [1, 3] {
            let live = AtomicU64::new(0);
            let finished = AtomicU64::new(0);
            let mut emitted = 0u64;
            let mut order = Vec::new();
            let stats = stream_pool(
                64,
                workers,
                |i| i,
                |&i| {
                    let outcome = Counted::new(&live);
                    thread::sleep(Duration::from_micros((i % 7) as u64 * 300));
                    finished.fetch_add(1, Ordering::SeqCst);
                    Ok(outcome)
                },
                |i, outcome| {
                    assert!(outcome.completed().is_some());
                    let alive = live.load(Ordering::SeqCst);
                    let waiting = finished.load(Ordering::SeqCst) - emitted;
                    assert!(
                        alive <= workers as u64 + waiting,
                        "{alive} outcomes alive at job {i}: {workers} workers, \
                         {waiting} finished and not yet emitted"
                    );
                    emitted += 1;
                    order.push(i);
                },
                None::<fn(PoolProgress)>,
            );
            assert_eq!(order, (0..64).collect::<Vec<_>>());
            assert_eq!(stats.job_wall.len(), 64);
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "an outcome outlived the pool"
            );
        }
    }

    #[test]
    fn zero_jobs_and_zero_workers_are_fine() {
        let outcomes = run_pool(0, 0, |_| Ok(()), |_, _| {});
        assert!(outcomes.is_empty());
        let outcomes = run_pool(3, 0, Ok, |_, _| {});
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn timed_pool_accounts_every_job_and_reports_progress() {
        let mut seen = Vec::new();
        let progress = Mutex::new(Vec::new());
        let (outcomes, stats) = run_pool_timed(
            10,
            3,
            |i| {
                thread::sleep(Duration::from_millis(2));
                Ok(i)
            },
            |i, _| seen.push(i),
            Some(|p: PoolProgress| progress.lock().unwrap().push(p.done)),
        );
        assert_eq!(outcomes.len(), 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.job_wall.len(), 10);
        assert!(stats
            .job_wall
            .iter()
            .all(|d| *d >= Duration::from_millis(1)));
        assert!(stats.busy() <= stats.wall * 3 + Duration::from_millis(50));
        assert!(stats.utilization() > 0.0);
        assert!(stats.render().contains("10 jobs on 3 workers"));

        let progress = progress.into_inner().unwrap();
        // Monotone, ends at the full count (intermediate counts may be
        // skipped when completions race).
        assert!(progress.windows(2).all(|w| w[0] < w[1]), "{progress:?}");
        assert_eq!(progress.last(), Some(&10));
    }

    #[test]
    fn eta_extrapolates_mean_rate() {
        let p = PoolProgress {
            done: 4,
            total: 12,
            elapsed: Duration::from_secs(2),
        };
        assert_eq!(p.eta(), Duration::from_secs(4));
        let done = PoolProgress {
            done: 12,
            total: 12,
            elapsed: Duration::from_secs(6),
        };
        assert_eq!(done.eta(), Duration::ZERO);
    }
}
