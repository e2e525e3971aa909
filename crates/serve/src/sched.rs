//! The daemon's scheduler: admission control, per-session fair queueing,
//! worker threads, live-job streaming state, and artifact freezing.
//!
//! # Lifecycle of a job
//!
//! A submission is parsed and canonically hashed ([`crate::artifact`]); the
//! hash is checked against the result cache (hit ⇒ the frozen artifact is
//! returned immediately, no execution) and against the live-job map (same
//! id in flight ⇒ the caller attaches to the running job). A genuinely new
//! job is admitted only below the live-job watermark — past it the daemon
//! sheds load with a `429` + `Retry-After` estimate instead of queueing
//! unboundedly.
//!
//! An admitted job is split into *execution units* (one per unique grid
//! point after dedupe; one for a chaos batch) that are queued per session
//! and drained round-robin across sessions, so one client's 10k-job sweep
//! cannot starve another client's interactive run: each worker pass takes
//! one unit from the next session in the ring.
//!
//! # Determinism
//!
//! Units complete in arbitrary order, but results are emitted in original
//! job-index order behind a watermark (the same discipline as
//! [`gcs_sweep::run_sweep_deduped`]), and per-job heartbeats fire at fixed
//! job-count thresholds — so the result and heartbeat streams are
//! byte-identical across worker counts, cache hits vs misses, and
//! subscriber counts.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcs_analysis::json;
use gcs_sim::EngineEvent;
use gcs_sweep::report::{jsonl_row, jsonl_summary};
use gcs_sweep::{run_job_full, JobOutcome, JobResult, JobSpec, SweepAggregate};
use gcs_telemetry::HeartbeatEmitter;

use crate::artifact::{job_id, ChaosBatchSpec, JobArtifact, JobKind, ParsedJob};
use crate::cache::{CacheStats, ResultCache};

/// Daemon configuration (the `gcs serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing jobs (`0` ⇒ available parallelism).
    pub workers: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Admission watermark: at this many live (queued or running) jobs,
    /// new submissions are rejected with `429` until the backlog drains.
    pub max_live: usize,
    /// Directory receiving per-job flight-recorder dump subdirectories.
    pub dump_dir: PathBuf,
    /// Zero the wall-clock fields in heartbeat streams so responses are
    /// byte-reproducible (the default; live deployments may disable it).
    pub deterministic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7431".to_string(),
            workers: 0,
            cache_bytes: 64 << 20,
            max_live: 64,
            dump_dir: PathBuf::from("dumps"),
            deterministic: true,
        }
    }
}

impl ServeConfig {
    /// The worker-thread count after resolving `0` ⇒ available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Per-job heartbeat cadence: beat once per this fraction of the grid, so
/// even a 100k-job sweep emits a bounded stream.
const BEATS_PER_JOB: usize = 64;

/// At most this many flight-recorder dumps per job, bounding disk use when
/// a whole sweep trips the watchdog.
const MAX_DUMPS_PER_JOB: usize = 32;

/// A `Write` adapter over a shared byte buffer, letting the heartbeat
/// emitter append while streaming subscribers read. Always accessed under
/// the owning job's state lock, so the inner lock never contends.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Blame-window retention rank: tripped/panicked units beat clean ones,
/// then higher local skew, then lower job index. The maximum under this
/// order is unique per job, so the retained window is independent of unit
/// completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rank {
    class: u8,
    skew: f64,
    index: usize,
}

impl Rank {
    fn better_than(&self, other: Option<&Rank>) -> bool {
        let Some(o) = other else { return true };
        match self.class.cmp(&o.class) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => match self.skew.total_cmp(&o.skew) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => self.index < o.index,
            },
        }
    }
}

/// Mutable state of an in-flight job, guarded by [`LiveJob::state`].
struct LiveState {
    done: bool,
    units_done: usize,
    orig_wm: usize,
    unique_outcomes: Vec<Option<JobOutcome<JobResult>>>,
    results: Vec<u8>,
    hb: HeartbeatEmitter<SharedBuf>,
    hb_buf: SharedBuf,
    agg: SweepAggregate,
    events_total: u64,
    window: Vec<EngineEvent>,
    window_rank: Option<Rank>,
    dumps: Vec<(usize, String)>,
    note: Option<String>,
}

/// An admitted job: immutable identity plus streaming state.
pub struct LiveJob {
    /// Content-addressed job id (`<kind>-<hex16>`).
    pub id: String,
    /// The job kind.
    pub kind: JobKind,
    /// Kind-salted canonical spec hash.
    pub hash: u64,
    /// Owning session (from the `X-Session` header).
    pub session: String,
    /// The parsed work.
    pub work: ParsedJob,
    state: Mutex<LiveState>,
    cv: Condvar,
}

impl LiveJob {
    /// Total expanded jobs (grid points, or chaos scenarios).
    pub fn jobs_total(&self) -> usize {
        match &self.work {
            ParsedJob::Sweep { jobs, .. } => jobs.len(),
            ParsedJob::Chaos(spec) => spec.scenarios,
        }
    }

    /// Execution units after dedupe (chaos batches are one unit).
    pub fn units_total(&self) -> usize {
        match &self.work {
            ParsedJob::Sweep { plan, .. } => plan.unique().len(),
            ParsedJob::Chaos(_) => 1,
        }
    }

    /// Grid points answered by an identical point's execution.
    pub fn deduped(&self) -> usize {
        match &self.work {
            ParsedJob::Sweep { plan, .. } => plan.duplicates(),
            ParsedJob::Chaos(_) => 0,
        }
    }

    /// Blocks until the result stream grows past `offset`, the job
    /// completes, or `timeout` elapses; returns the new bytes (possibly
    /// empty on timeout) and whether the job is done.
    pub fn wait_results(&self, offset: usize, timeout: Duration) -> (Vec<u8>, bool) {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.results.len() > offset || st.done {
                let from = offset.min(st.results.len());
                return (st.results[from..].to_vec(), st.done);
            }
            let (guard, wait) = self.cv.wait_timeout(st, timeout).unwrap();
            st = guard;
            if wait.timed_out() {
                let from = offset.min(st.results.len());
                return (st.results[from..].to_vec(), st.done);
            }
        }
    }

    /// Like [`LiveJob::wait_results`] for the per-job heartbeat stream.
    pub fn wait_heartbeats(&self, offset: usize, timeout: Duration) -> (Vec<u8>, bool) {
        let mut st = self.state.lock().unwrap();
        loop {
            let len = st.hb_buf.0.lock().unwrap().len();
            if len > offset || st.done {
                let buf = st.hb_buf.0.lock().unwrap();
                let from = offset.min(buf.len());
                return (buf[from..].to_vec(), st.done);
            }
            let (guard, wait) = self.cv.wait_timeout(st, timeout).unwrap();
            st = guard;
            if wait.timed_out() {
                let buf = st.hb_buf.0.lock().unwrap();
                let from = offset.min(buf.len());
                return (buf[from..].to_vec(), st.done);
            }
        }
    }

    /// One JSON line describing the job's current progress (the status
    /// endpoint body for live jobs; frozen verbatim into the artifact at
    /// completion, with `"status":"done"`).
    pub fn meta_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let status = if st.done {
            "done"
        } else if st.units_done > 0 || st.orig_wm > 0 {
            "running"
        } else {
            "queued"
        };
        meta_line(
            &self.id,
            self.kind,
            status,
            &self.session,
            self.jobs_total(),
            self.deduped(),
            self.units_total(),
            st.units_done,
            st.orig_wm,
            st.agg.failed,
            st.agg.watchdog_trips,
            &st.dumps,
            st.note.as_deref(),
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn meta_line(
    id: &str,
    kind: JobKind,
    status: &str,
    session: &str,
    jobs_total: usize,
    deduped: usize,
    units_total: usize,
    units_done: usize,
    jobs_done: usize,
    failures: usize,
    trips: usize,
    dumps: &[(usize, String)],
    note: Option<&str>,
) -> String {
    let mut line = format!(
        "{{\"schema\":\"gcs-serve-job/v1\",\"id\":\"{id}\",\"kind\":\"{}\",\
         \"status\":\"{status}\",\"session\":{},\"jobs_total\":{jobs_total},\
         \"deduped\":{deduped},\"units_total\":{units_total},\"units_done\":{units_done},\
         \"jobs_done\":{jobs_done},\"failures\":{failures},\"watchdog_trips\":{trips},\
         \"dumps\":[",
        kind.as_str(),
        json::string(session),
    );
    for (i, (_, path)) in dumps.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        json::push_string(&mut line, path);
    }
    line.push(']');
    if let Some(note) = note {
        line.push_str(",\"note\":");
        json::push_string(&mut line, note);
    }
    line.push_str("}\n");
    line
}

/// One schedulable slice of a job.
struct Unit {
    job: Arc<LiveJob>,
    unit: usize,
}

/// State behind the scheduler's main lock.
struct SchedInner {
    live: HashMap<String, Arc<LiveJob>>,
    pending: HashMap<String, VecDeque<Unit>>,
    ring: VecDeque<String>,
    pending_units: usize,
    running_units: usize,
    shutdown: bool,
}

/// Monotonic counters for `/stats` and the serve heartbeat stream.
#[derive(Default)]
pub struct Counters {
    /// Jobs admitted for execution.
    pub submitted: AtomicU64,
    /// Submissions that attached to an already-live identical job.
    pub attached: AtomicU64,
    /// Jobs completed and frozen.
    pub completed: AtomicU64,
    /// Submissions shed by admission control.
    pub rejected: AtomicU64,
    /// Execution units that failed or panicked.
    pub failed_units: AtomicU64,
}

/// A bounded, offset-addressed append log for the server-wide heartbeat
/// stream. Old lines are trimmed from the front at line boundaries; the
/// logical offset keeps growing, and readers behind the trim point are
/// clamped forward (they lose lines, never see torn ones).
pub struct OffsetBuf {
    base: u64,
    data: Vec<u8>,
    cap: usize,
}

impl OffsetBuf {
    fn new(cap: usize) -> Self {
        OffsetBuf {
            base: 0,
            data: Vec::new(),
            cap,
        }
    }

    fn append(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        if self.data.len() > self.cap {
            let target = self.data.len() - self.cap / 2;
            let cut = self.data[target..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.data.len(), |p| target + p + 1);
            self.data.drain(..cut);
            self.base += cut as u64;
        }
    }

    /// Bytes at logical `offset` (clamped to the oldest retained line) and
    /// the offset just past them.
    pub fn read_from(&self, offset: u64) -> (u64, Vec<u8>) {
        let from = offset
            .max(self.base)
            .min(self.base + self.data.len() as u64);
        let at = (from - self.base) as usize;
        (self.base + self.data.len() as u64, self.data[at..].to_vec())
    }

    /// The offset just past the newest byte.
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }
}

/// What a submission resolved to.
pub enum Submission {
    /// Served from the result cache; no execution.
    Cached(Arc<JobArtifact>),
    /// An identical job is already in flight; the caller attached to it.
    Attached(Arc<LiveJob>),
    /// Admitted and queued.
    Accepted(Arc<LiveJob>),
    /// Shed by admission control; retry after the given seconds.
    Rejected {
        /// Suggested `Retry-After` seconds.
        retry_after: u64,
    },
}

/// A lookup by job id.
pub enum Resolved {
    /// Still executing (or queued).
    Live(Arc<LiveJob>),
    /// Completed and cached.
    Done(Arc<JobArtifact>),
    /// Unknown or evicted.
    Missing,
}

/// The daemon scheduler. One instance per server, shared by the accept
/// loop and the worker threads.
pub struct Scheduler {
    /// The daemon configuration.
    pub cfg: ServeConfig,
    inner: Mutex<SchedInner>,
    work_cv: Condvar,
    cache: Mutex<ResultCache>,
    /// Monotonic event counters.
    pub counters: Counters,
    serve_hb: Mutex<OffsetBuf>,
    hb_cv: Condvar,
    hb_seq: AtomicU64,
    ewma_unit_ms: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

impl Scheduler {
    /// Builds the scheduler and spawns its worker threads.
    pub fn start(cfg: ServeConfig) -> Arc<Self> {
        let sched = Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                live: HashMap::new(),
                pending: HashMap::new(),
                ring: VecDeque::new(),
                pending_units: 0,
                running_units: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            cache: Mutex::new(ResultCache::new(cfg.cache_bytes)),
            counters: Counters::default(),
            serve_hb: Mutex::new(OffsetBuf::new(1 << 20)),
            hb_cv: Condvar::new(),
            hb_seq: AtomicU64::new(0),
            ewma_unit_ms: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            started: Instant::now(),
            cfg,
        });
        let k = sched.cfg.effective_workers();
        let mut handles = sched.workers.lock().unwrap();
        for i in 0..k {
            let s = Arc::clone(&sched);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gcs-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn worker"),
            );
        }
        drop(handles);
        sched
    }

    /// Parses, caches, admits, and queues a submission. `Err` is a 400
    /// (malformed spec).
    pub fn submit(&self, kind: JobKind, body: &str, session: &str) -> Result<Submission, String> {
        let (work, hash) = crate::artifact::parse_submission(kind, body)?;
        let id = job_id(kind, hash);
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err("daemon is shutting down".to_string());
        }
        if let Some(job) = inner.live.get(&id) {
            let job = Arc::clone(job);
            drop(inner);
            self.counters.attached.fetch_add(1, Ordering::Relaxed);
            self.emit_serve_event("attached", &id);
            return Ok(Submission::Attached(job));
        }
        // Bind the lookup before testing it: `if let` over a temporary
        // guard would keep the cache locked across emit_serve_event's
        // re-lock below — a same-thread deadlock.
        let cached = self.cache.lock().unwrap().get(hash);
        if let Some(artifact) = cached {
            drop(inner);
            self.emit_serve_event("hit", &id);
            return Ok(Submission::Cached(artifact));
        }
        if inner.live.len() >= self.cfg.max_live {
            let retry = self.retry_after_estimate(inner.pending_units, inner.running_units);
            drop(inner);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.emit_serve_event("rejected", &id);
            return Ok(Submission::Rejected { retry_after: retry });
        }
        let job = self.admit(&mut inner, id, kind, hash, session, work);
        drop(inner);
        self.work_cv.notify_all();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.emit_serve_event("submitted", &job.id);
        Ok(Submission::Accepted(job))
    }

    fn admit(
        &self,
        inner: &mut SchedInner,
        id: String,
        kind: JobKind,
        hash: u64,
        session: &str,
        work: ParsedJob,
    ) -> Arc<LiveJob> {
        let units_total = match &work {
            ParsedJob::Sweep { plan, .. } => plan.unique().len(),
            ParsedJob::Chaos(_) => 1,
        };
        let hb_buf = SharedBuf::default();
        let job = Arc::new(LiveJob {
            id: id.clone(),
            kind,
            hash,
            session: session.to_string(),
            work,
            state: Mutex::new(LiveState {
                done: false,
                units_done: 0,
                orig_wm: 0,
                unique_outcomes: vec![None; units_total],
                results: Vec::new(),
                hb: HeartbeatEmitter::new(hb_buf.clone(), 1.0, 0.0, self.cfg.deterministic),
                hb_buf,
                agg: SweepAggregate::new(),
                events_total: 0,
                window: Vec::new(),
                window_rank: None,
                dumps: Vec::new(),
                note: None,
            }),
            cv: Condvar::new(),
        });
        inner.live.insert(id, Arc::clone(&job));
        let queue = inner.pending.entry(job.session.clone()).or_default();
        let was_empty = queue.is_empty();
        for unit in 0..units_total {
            queue.push_back(Unit {
                job: Arc::clone(&job),
                unit,
            });
        }
        inner.pending_units += units_total;
        if was_empty {
            inner.ring.push_back(job.session.clone());
        }
        job
    }

    /// Looks a job up by id: live map first, then the result cache.
    pub fn resolve(&self, id: &str) -> Resolved {
        {
            let inner = self.inner.lock().unwrap();
            if let Some(job) = inner.live.get(id) {
                return Resolved::Live(Arc::clone(job));
            }
        }
        let Some(hash) = hash_of_id(id) else {
            return Resolved::Missing;
        };
        match self.cache.lock().unwrap().peek(hash) {
            Some(artifact) if artifact.id == id => Resolved::Done(artifact),
            _ => Resolved::Missing,
        }
    }

    /// Suggested `Retry-After` seconds from the backlog size and the
    /// per-unit wall-time EWMA.
    fn retry_after_estimate(&self, pending: usize, running: usize) -> u64 {
        let ewma_ms = f64::from_bits(self.ewma_unit_ms.load(Ordering::Relaxed));
        if ewma_ms <= 0.0 {
            return 1;
        }
        let workers = self.cfg.effective_workers().max(1);
        let secs = ((pending + running + 1) as f64 * ewma_ms / 1e3 / workers as f64).ceil();
        (secs as u64).clamp(1, 120)
    }

    /// The `/stats` body: counters, backlog, and cache snapshot.
    pub fn stats_json(&self) -> String {
        let (live, pending, running) = {
            let inner = self.inner.lock().unwrap();
            (inner.live.len(), inner.pending_units, inner.running_units)
        };
        let cache = self.cache_stats();
        format!(
            "{{\"schema\":\"gcs-serve-stats/v1\",\"live_jobs\":{live},\
             \"pending_units\":{pending},\"running_units\":{running},\
             \"workers\":{},\"max_live\":{},\"submitted\":{},\"attached\":{},\
             \"completed\":{},\"rejected\":{},\"failed_units\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_entries\":{},\"cache_bytes\":{},\"cache_capacity\":{},\
             \"uptime_s\":{}}}\n",
            self.cfg.effective_workers(),
            self.cfg.max_live,
            self.counters.submitted.load(Ordering::Relaxed),
            self.counters.attached.load(Ordering::Relaxed),
            self.counters.completed.load(Ordering::Relaxed),
            self.counters.rejected.load(Ordering::Relaxed),
            self.counters.failed_units.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.entries,
            cache.bytes,
            cache.capacity,
            if self.cfg.deterministic {
                0
            } else {
                self.started.elapsed().as_secs()
            },
        )
    }

    /// Current cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap().stats()
    }

    /// Appends one line to the server-wide heartbeat stream.
    fn emit_serve_event(&self, event: &str, job: &str) {
        let (live, pending, running) = {
            let inner = self.inner.lock().unwrap();
            (inner.live.len(), inner.pending_units, inner.running_units)
        };
        let cache = self.cache_stats();
        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed);
        let line = format!(
            "{{\"schema\":\"gcs-serve-heartbeat/v1\",\"seq\":{seq},\
             \"event\":\"{event}\",\"job\":{},\"live_jobs\":{live},\
             \"pending_units\":{pending},\"running_units\":{running},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_entries\":{},\"cache_bytes\":{}}}\n",
            json::string(job),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.entries,
            cache.bytes,
        );
        self.serve_hb.lock().unwrap().append(line.as_bytes());
        self.hb_cv.notify_all();
    }

    /// Blocks until the server heartbeat stream grows past `offset` or
    /// `timeout` elapses; returns the new bytes, the next offset, and
    /// whether the daemon is shutting down.
    pub fn wait_serve_heartbeats(&self, offset: u64, timeout: Duration) -> (Vec<u8>, u64, bool) {
        let mut hb = self.serve_hb.lock().unwrap();
        loop {
            if hb.end() > offset || self.is_shutdown() {
                let (next, bytes) = hb.read_from(offset);
                return (bytes, next, self.is_shutdown());
            }
            let (guard, wait) = self.hb_cv.wait_timeout(hb, timeout).unwrap();
            hb = guard;
            if wait.timed_out() {
                let (next, bytes) = hb.read_from(offset);
                return (bytes, next, self.is_shutdown());
            }
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.inner.lock().unwrap().shutdown
    }

    /// Requests shutdown: workers exit after their current unit, and every
    /// live job is marked done (with a note) so streaming subscribers
    /// drain instead of hanging.
    pub fn shutdown(&self) {
        let jobs: Vec<Arc<LiveJob>> = {
            let mut inner = self.inner.lock().unwrap();
            inner.shutdown = true;
            inner.pending.clear();
            inner.ring.clear();
            inner.pending_units = 0;
            inner.live.values().cloned().collect()
        };
        self.work_cv.notify_all();
        self.hb_cv.notify_all();
        for job in jobs {
            let mut st = job.state.lock().unwrap();
            if !st.done {
                st.done = true;
                st.note = Some("daemon shut down before completion".to_string());
            }
            drop(st);
            job.cv.notify_all();
        }
    }

    /// Joins the worker threads (call after [`Scheduler::shutdown`]).
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn hash_of_id(id: &str) -> Option<u64> {
    let (_, hex) = id.rsplit_once('-')?;
    u64::from_str_radix(hex, 16).ok()
}

fn pop_next(inner: &mut SchedInner) -> Option<Unit> {
    while let Some(session) = inner.ring.pop_front() {
        let Some(queue) = inner.pending.get_mut(&session) else {
            continue;
        };
        let unit = queue.pop_front();
        if queue.is_empty() {
            inner.pending.remove(&session);
        } else {
            inner.ring.push_back(session);
        }
        if let Some(unit) = unit {
            inner.pending_units -= 1;
            inner.running_units += 1;
            return Some(unit);
        }
    }
    None
}

fn worker_loop(sched: &Arc<Scheduler>) {
    loop {
        let unit = {
            let mut inner = sched.inner.lock().unwrap();
            loop {
                if inner.shutdown {
                    return;
                }
                if let Some(unit) = pop_next(&mut inner) {
                    break unit;
                }
                inner = sched.work_cv.wait(inner).unwrap();
            }
        };
        let t0 = Instant::now();
        execute_unit(sched, &unit);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let old = f64::from_bits(sched.ewma_unit_ms.load(Ordering::Relaxed));
        let new = if old <= 0.0 {
            wall_ms
        } else {
            old * 0.9 + wall_ms * 0.1
        };
        sched.ewma_unit_ms.store(new.to_bits(), Ordering::Relaxed);
        sched.inner.lock().unwrap().running_units -= 1;
    }
}

fn execute_unit(sched: &Arc<Scheduler>, unit: &Unit) {
    match &unit.job.work {
        ParsedJob::Sweep { jobs, plan, .. } => {
            let orig = plan.unique()[unit.unit];
            execute_sweep_unit(sched, unit, &jobs[orig], orig);
        }
        ParsedJob::Chaos(spec) => execute_chaos_batch(sched, &unit.job, spec),
    }
}

fn execute_sweep_unit(sched: &Arc<Scheduler>, unit: &Unit, spec: &JobSpec, orig: usize) {
    let execution = run_job_full(spec);
    let outcome = match &execution.outcome {
        Ok(result) => JobOutcome::Completed(result.clone()),
        Err(message) => JobOutcome::Failed(message.clone()),
    };
    if matches!(outcome, JobOutcome::Failed(_)) || execution.panicked {
        sched.counters.failed_units.fetch_add(1, Ordering::Relaxed);
    }

    // Post-mortem dump: a tripped watchdog or a caught panic writes the
    // recorder window under dumps/<job-id>/ before the outcome is recorded.
    let mut dump: Option<(usize, String)> = None;
    let mut window: Option<Vec<EngineEvent>> = None;
    if execution.tripped || execution.panicked {
        let events = execution.recorder.window_events();
        let over_cap = {
            let st = unit.job.state.lock().unwrap();
            st.dumps.len() >= MAX_DUMPS_PER_JOB
        };
        if !over_cap {
            let reason = if execution.panicked { "panic" } else { "trip" };
            let dir = sched.cfg.dump_dir.join(&unit.job.id);
            let path = dir.join(format!("recorder-{reason}-job{orig}.jsonl"));
            if write_dump(&dir, &path, &events).is_ok() {
                dump = Some((orig, path.display().to_string()));
            }
        }
        window = Some(events);
    }

    // Blame-window retention: decode only when this unit can win.
    let rank = Rank {
        class: if execution.tripped || execution.panicked {
            2
        } else {
            1
        },
        skew: execution.outcome.as_ref().map_or(0.0, |r| r.local_skew),
        index: orig,
    };
    let candidate = {
        let st = unit.job.state.lock().unwrap();
        rank.better_than(st.window_rank.as_ref())
    };
    let window = if candidate {
        Some(window.unwrap_or_else(|| execution.recorder.window_events()))
    } else {
        None
    };

    record_sweep_outcome(sched, &unit.job, unit.unit, outcome, rank, window, dump);
}

fn write_dump(
    dir: &std::path::Path,
    path: &std::path::Path,
    events: &[EngineEvent],
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    gcs_analysis::write_jsonl(path, events)
}

/// Folds one completed unit into the job state: advances the original-order
/// watermark, appends result rows and threshold heartbeats, retains the
/// best blame window, and freezes the artifact when the job completes.
fn record_sweep_outcome(
    sched: &Arc<Scheduler>,
    job: &Arc<LiveJob>,
    unit: usize,
    outcome: JobOutcome<JobResult>,
    rank: Rank,
    window: Option<Vec<EngineEvent>>,
    dump: Option<(usize, String)>,
) {
    let ParsedJob::Sweep { jobs, plan, .. } = &job.work else {
        unreachable!("sweep outcome for chaos job");
    };
    let jobs_total = jobs.len();
    let hb_every = (jobs_total / BEATS_PER_JOB).max(1);
    let finished = {
        let mut st = job.state.lock().unwrap();
        if st.done {
            return; // shutdown raced this unit; drop it
        }
        st.unique_outcomes[unit] = Some(outcome);
        if let Some(events) = window {
            if rank.better_than(st.window_rank.as_ref()) {
                st.window = events;
                st.window_rank = Some(rank);
            }
        }
        if let Some(entry) = dump {
            st.dumps.push(entry);
            st.dumps.sort();
        }
        st.units_done += 1;
        while st.orig_wm < jobs_total {
            let rep = plan.rep_of(st.orig_wm);
            let Some(ready) = st.unique_outcomes[rep].clone() else {
                break;
            };
            let j = st.orig_wm;
            st.agg.ingest(j, &ready);
            if let JobOutcome::Completed(r) = &ready {
                st.events_total += r.events_recorded;
            }
            let mut row = jsonl_row(&jobs[j], &ready);
            row.push('\n');
            st.results.extend_from_slice(row.as_bytes());
            st.orig_wm = j + 1;
            if st.orig_wm.is_multiple_of(hb_every) || st.orig_wm == jobs_total {
                let label = jobs[j].label();
                let (done, total, events) = (st.orig_wm as u64, jobs_total as u64, st.events_total);
                let session = job.session.clone();
                let _ = st
                    .hb
                    .sweep_beat_session(done, total, events, &label, Some(&session));
            }
        }
        let finished = st.orig_wm == jobs_total;
        if finished {
            let mut summary = jsonl_summary(&st.agg);
            summary.push('\n');
            st.results.extend_from_slice(summary.as_bytes());
        }
        job.cv.notify_all();
        finished
    };
    if finished {
        finalize(sched, job);
    }
}

fn execute_chaos_batch(sched: &Arc<Scheduler>, job: &Arc<LiveJob>, spec: &ChaosBatchSpec) {
    let cfg = gcs_chaos::BatchConfig {
        scenarios: spec.scenarios,
        start_seed: spec.start_seed,
        // One scenario at a time inside the unit: the scheduler's workers
        // already own the cores, and workers=1 keeps the summary's finding
        // order deterministic regardless of daemon parallelism.
        workers: 1,
        threads: spec.threads,
        shrink: false,
    };
    let summary = gcs_chaos::run_batch(&cfg);
    let mut results = Vec::new();
    for finding in &summary.findings {
        let line = format!(
            "{{\"kind\":\"finding\",\"seed\":{},\"violation\":{}}}\n",
            finding.seed,
            json::string(&finding.kind),
        );
        results.extend_from_slice(line.as_bytes());
    }
    for (seed, message) in &summary.failed {
        let line = format!(
            "{{\"kind\":\"failed\",\"seed\":{seed},\"error\":{}}}\n",
            json::string(message),
        );
        results.extend_from_slice(line.as_bytes());
    }
    let line = format!(
        "{{\"kind\":\"summary\",\"scenarios\":{},\"clean\":{},\
         \"expected_violations\":{},\"findings\":{},\"failed\":{}}}\n",
        summary.scenarios,
        summary.clean,
        summary.expected_violations,
        summary.findings.len(),
        summary.failed.len(),
    );
    results.extend_from_slice(line.as_bytes());
    if !summary.failed.is_empty() {
        sched
            .counters
            .failed_units
            .fetch_add(summary.failed.len() as u64, Ordering::Relaxed);
    }
    {
        let mut st = job.state.lock().unwrap();
        if st.done {
            return;
        }
        st.results = results;
        st.units_done = 1;
        st.orig_wm = spec.scenarios;
        st.agg.failed = summary.failed.len();
        st.agg.watchdog_trips = summary.findings.len();
        let label = format!(
            "chaos-batch scenarios={} start-seed={}",
            spec.scenarios, spec.start_seed
        );
        let session = job.session.clone();
        let _ = st.hb.sweep_beat_session(
            spec.scenarios as u64,
            spec.scenarios as u64,
            0,
            &label,
            Some(&session),
        );
        job.cv.notify_all();
    }
    finalize(sched, job);
}

/// Freezes a completed job into an immutable artifact, inserts it into the
/// result cache, retires the live entry, and wakes subscribers.
fn finalize(sched: &Arc<Scheduler>, job: &Arc<LiveJob>) {
    let artifact = {
        let st = job.state.lock().unwrap();
        let meta = meta_line(
            &job.id,
            job.kind,
            "done",
            &job.session,
            job.jobs_total(),
            job.deduped(),
            job.units_total(),
            st.units_done,
            st.orig_wm,
            st.agg.failed,
            st.agg.watchdog_trips,
            &st.dumps,
            None,
        );
        let heartbeats = st.hb_buf.0.lock().unwrap().clone();
        Arc::new(JobArtifact {
            id: job.id.clone(),
            kind: job.kind,
            spec_hash: job.hash,
            meta,
            results: st.results.clone(),
            heartbeats,
            window: st.window.clone(),
            failures: st.agg.failed,
            deduped: job.deduped(),
            jobs_total: job.jobs_total(),
        })
    };
    sched.inner.lock().unwrap().live.remove(&job.id);
    sched.cache.lock().unwrap().insert(job.hash, artifact);
    sched.counters.completed.fetch_add(1, Ordering::Relaxed);
    {
        let mut st = job.state.lock().unwrap();
        st.done = true;
    }
    job.cv.notify_all();
    sched.emit_serve_event("completed", &job.id);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(workers: usize, max_live: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_live,
            cache_bytes: 8 << 20,
            dump_dir: std::env::temp_dir().join(format!(
                "gcs-serve-sched-test-{}-{workers}-{max_live}",
                std::process::id()
            )),
            ..ServeConfig::default()
        }
    }

    const SPEC: &str = "topologies = path:6\nseeds = 0..6\nhorizon = 20";

    fn drain(job: &Arc<LiveJob>) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let (bytes, done) = job.wait_results(out.len(), Duration::from_secs(30));
            out.extend_from_slice(&bytes);
            // The result stream is complete before `done` is set, so a
            // read that observes `done` has already seen every byte.
            if done {
                return out;
            }
        }
    }

    fn run_to_artifact(sched: &Arc<Scheduler>, spec: &str) -> (Vec<u8>, Vec<u8>) {
        match sched.submit(JobKind::Sweep, spec, "test").unwrap() {
            Submission::Accepted(job) => {
                let results = drain(&job);
                let (hb, _) = job.wait_heartbeats(0, Duration::from_secs(1));
                (results, hb)
            }
            Submission::Cached(a) => (a.results.clone(), a.heartbeats.clone()),
            _ => panic!("unexpected submission"),
        }
    }

    #[test]
    fn results_byte_identical_across_workers_and_cache() {
        let s1 = Scheduler::start(config(1, 8));
        let s3 = Scheduler::start(config(3, 8));
        let (cold1, hb1) = run_to_artifact(&s1, SPEC);
        let (cold3, hb3) = run_to_artifact(&s3, SPEC);
        assert!(!cold1.is_empty());
        assert_eq!(cold1, cold3, "results differ across worker counts");
        assert_eq!(hb1, hb3, "heartbeats differ across worker counts");
        // Resubmission is a cache hit with byte-identical payloads.
        match s1.submit(JobKind::Sweep, SPEC, "other").unwrap() {
            Submission::Cached(a) => {
                assert_eq!(a.results, cold1);
                assert_eq!(a.heartbeats, hb1);
            }
            _ => panic!("expected a cache hit"),
        }
        assert_eq!(s1.cache_stats().hits, 1);
        assert_eq!(s1.cache_stats().misses, 1);
        s1.shutdown();
        s3.shutdown();
        s1.join();
        s3.join();
    }

    #[test]
    fn admission_rejects_past_watermark_and_recovers() {
        let sched = Scheduler::start(config(1, 1));
        let spec = "topologies = grid:4x4\nseeds = 0..40\nhorizon = 30";
        let job = match sched.submit(JobKind::Sweep, spec, "heavy").unwrap() {
            Submission::Accepted(job) => job,
            _ => panic!("first submission admitted"),
        };
        match sched.submit(JobKind::Sweep, SPEC, "light").unwrap() {
            Submission::Rejected { retry_after } => assert!(retry_after >= 1),
            _ => panic!("watermark submission must be rejected"),
        }
        assert_eq!(sched.counters.rejected.load(Ordering::Relaxed), 1);
        drain(&job);
        // Backlog drained: the same interactive spec is admitted now.
        match sched.submit(JobKind::Sweep, SPEC, "light").unwrap() {
            Submission::Accepted(second) => {
                drain(&second);
            }
            _ => panic!("post-drain submission must be admitted"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn attach_joins_the_live_job() {
        let sched = Scheduler::start(config(2, 8));
        let spec = "topologies = grid:4x4\nseeds = 0..30\nhorizon = 30";
        let first = match sched.submit(JobKind::Sweep, spec, "a").unwrap() {
            Submission::Accepted(job) => job,
            _ => panic!("admitted"),
        };
        match sched.submit(JobKind::Sweep, spec, "b").unwrap() {
            Submission::Attached(job) => assert!(Arc::ptr_eq(&job, &first)),
            Submission::Cached(_) => {} // raced to completion: also correct
            _ => panic!("identical live spec must attach"),
        }
        drain(&first);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn deduped_grid_streams_all_rows() {
        let sched = Scheduler::start(config(2, 8));
        // rates repeated => identical grid points collapse to one unit each.
        let spec = "topologies = path:5\nrates = nominal, nominal\nseeds = 0..3\nhorizon = 15";
        let job = match sched.submit(JobKind::Sweep, spec, "t").unwrap() {
            Submission::Accepted(job) => job,
            _ => panic!("admitted"),
        };
        assert_eq!(job.jobs_total(), 6);
        assert_eq!(job.deduped(), 3);
        assert_eq!(job.units_total(), 3);
        let results = drain(&job);
        let text = String::from_utf8(results).unwrap();
        let rows = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"job\""))
            .count();
        assert_eq!(rows, 6, "every original grid point gets a row:\n{text}");
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains("\"kind\":\"summary\""));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn chaos_batch_round_trips() {
        let sched = Scheduler::start(config(2, 8));
        let job = match sched
            .submit(JobKind::ChaosBatch, "scenarios = 6\nstart-seed = 3", "c")
            .unwrap()
        {
            Submission::Accepted(job) => job,
            _ => panic!("admitted"),
        };
        let results = drain(&job);
        let text = String::from_utf8(results).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"kind\":\"summary\""), "{text}");
        assert!(last.contains("\"scenarios\":6"), "{text}");
        // Identical resubmission hits the cache.
        match sched
            .submit(JobKind::ChaosBatch, "scenarios = 6\nstart-seed = 3", "c")
            .unwrap()
        {
            Submission::Cached(a) => assert_eq!(a.results, text.as_bytes()),
            _ => panic!("expected cache hit"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn offset_buf_trims_at_line_boundaries() {
        let mut buf = OffsetBuf::new(64);
        for i in 0..100 {
            buf.append(format!("line {i}\n").as_bytes());
        }
        let (next, bytes) = buf.read_from(0);
        assert_eq!(next, buf.end());
        assert!(bytes.len() <= 64);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("line "), "clamped to a line start: {text}");
        assert!(text.ends_with("line 99\n"));
    }
}
