//! Job kinds, spec parsing, and the immutable completed-job artifact.
//!
//! A submission body is the existing `key = value` spec format
//! ([`gcs_sweep::SweepSpec::parse_str`] for run/sweep jobs; a three-key
//! subset for chaos batches). Its canonical hash — kind-salted so a `run`
//! and a `sweep` of the same grid never collide — is the job's identity:
//! the job id, the cache key, and the dedupe key are all derived from it.

use gcs_sim::EngineEvent;
use gcs_sweep::{hash, DedupePlan, JobSpec, SweepSpec};

/// What kind of work a submission asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A single execution: the spec must expand to exactly one job.
    Run,
    /// A parameter sweep: the spec expands to a grid of jobs.
    Sweep,
    /// A chaos batch: seed-randomized fault scenarios under the invariant
    /// oracle.
    ChaosBatch,
}

impl JobKind {
    /// Parses the `kind` query parameter.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "run" => Ok(JobKind::Run),
            "sweep" => Ok(JobKind::Sweep),
            "chaos-batch" => Ok(JobKind::ChaosBatch),
            other => Err(format!(
                "unknown job kind `{other}` (expected run, sweep, or chaos-batch)"
            )),
        }
    }

    /// The kind's wire name (also the job-id prefix).
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Sweep => "sweep",
            JobKind::ChaosBatch => "chaos-batch",
        }
    }
}

/// Parameters of a chaos batch, parsed from the same `key = value` body
/// format as sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosBatchSpec {
    /// Scenarios to run (seed-randomized).
    pub scenarios: usize,
    /// First seed; scenario `i` uses `start_seed + i`.
    pub start_seed: u64,
}

impl ChaosBatchSpec {
    /// Parses `scenarios = N`, `start-seed = S` lines.
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let mut spec = ChaosBatchSpec {
            scenarios: 100,
            start_seed: 1,
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("spec line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let parse = |what: &str| -> Result<u64, String> {
                value.parse::<u64>().map_err(|_| {
                    format!(
                        "spec line {}: {what}: `{value}` is not a number",
                        lineno + 1
                    )
                })
            };
            match key {
                "scenarios" => spec.scenarios = parse("scenarios")? as usize,
                "start-seed" => spec.start_seed = parse("start-seed")?,
                other => {
                    return Err(format!(
                        "spec line {}: unknown chaos-batch key `{other}`",
                        lineno + 1
                    ))
                }
            }
        }
        if spec.scenarios == 0 || spec.scenarios > 100_000 {
            return Err("scenarios must lie in 1..=100000".into());
        }
        Ok(spec)
    }

    /// Canonical bytes for hashing, mirroring the sweep convention.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = b"gcs-chaos-batch/v1".to_vec();
        bytes.extend_from_slice(&(self.scenarios as u64).to_le_bytes());
        bytes.extend_from_slice(&self.start_seed.to_le_bytes());
        bytes
    }
}

/// A validated submission, ready to schedule.
#[derive(Debug, Clone)]
pub enum ParsedJob {
    /// Run/sweep: the expanded grid plus its dedupe plan.
    Sweep {
        /// The parsed grid (boxed: `SweepSpec` dwarfs the chaos variant).
        spec: Box<SweepSpec>,
        /// All expanded jobs, in index order.
        jobs: Vec<JobSpec>,
        /// Grouping of identical grid points.
        plan: DedupePlan,
    },
    /// A chaos batch (always a single execution unit).
    Chaos(ChaosBatchSpec),
}

/// Parses and validates a submission body for `kind`, returning the
/// parsed work and its kind-salted canonical hash.
pub fn parse_submission(kind: JobKind, body: &str) -> Result<(ParsedJob, u64), String> {
    match kind {
        JobKind::Run | JobKind::Sweep => {
            let spec = SweepSpec::parse_str(body)?;
            spec.validate()?;
            let jobs = spec.expand();
            if kind == JobKind::Run && jobs.len() != 1 {
                return Err(format!(
                    "kind=run requires a spec that expands to exactly 1 job, got {}",
                    jobs.len()
                ));
            }
            if jobs.len() > 100_000 {
                return Err(format!(
                    "spec expands to {} jobs; the daemon caps submissions at 100000",
                    jobs.len()
                ));
            }
            let digest = salted_hash(kind, &spec.canonical_bytes());
            let plan = DedupePlan::new(&jobs);
            Ok((
                ParsedJob::Sweep {
                    spec: Box::new(spec),
                    jobs,
                    plan,
                },
                digest,
            ))
        }
        JobKind::ChaosBatch => {
            let spec = ChaosBatchSpec::parse_str(body)?;
            let digest = salted_hash(kind, &spec.canonical_bytes());
            Ok((ParsedJob::Chaos(spec), digest))
        }
    }
}

/// Folds the job kind into the spec digest so different kinds over
/// byte-identical specs get distinct identities.
fn salted_hash(kind: JobKind, canonical: &[u8]) -> u64 {
    let mut salted = kind.as_str().as_bytes().to_vec();
    salted.push(0);
    salted.extend_from_slice(canonical);
    hash::digest(&salted)
}

/// Builds the job id from kind + hash — stable across processes, so
/// resubmitting a spec always addresses the same cached artifact.
pub fn job_id(kind: JobKind, hash: u64) -> String {
    format!("{}-{}", kind.as_str(), hash::hex16(hash))
}

/// The immutable result of a completed job: everything the streaming
/// endpoints serve, frozen once and shared by reference.
#[derive(Debug)]
pub struct JobArtifact {
    /// The content-addressed job id (`<kind>-<hex16>`).
    pub id: String,
    /// The job kind.
    pub kind: JobKind,
    /// Kind-salted canonical spec hash (the cache key).
    pub spec_hash: u64,
    /// One JSON line describing the job (status endpoint body).
    pub meta: String,
    /// The result stream: JSONL rows in job-index order plus the final
    /// summary line. Byte-identical across cache hits, worker counts, and
    /// subscribers.
    pub results: Vec<u8>,
    /// The per-job heartbeat stream (`gcs-heartbeat/v1` sweep records,
    /// deterministic mode).
    pub heartbeats: Vec<u8>,
    /// Flight-recorder window of the most skew-interesting execution unit
    /// (the blame endpoint's evidence). Empty when nothing was retained.
    pub window: Vec<EngineEvent>,
    /// Failed execution units.
    pub failures: usize,
    /// Grid points answered from another identical point's execution.
    pub deduped: usize,
    /// Total expanded jobs (1 for run, scenarios for chaos batches).
    pub jobs_total: usize,
}

impl JobArtifact {
    /// Approximate resident size, for the cache's byte budget.
    pub fn resident_bytes(&self) -> usize {
        self.meta.len()
            + self.results.len()
            + self.heartbeats.len()
            + self.window.len() * std::mem::size_of::<EngineEvent>()
            + self.id.len()
            + 128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_kind_requires_a_single_point() {
        let (job, h) = parse_submission(JobKind::Run, "topologies = path:4\nhorizon = 5").unwrap();
        match job {
            ParsedJob::Sweep { jobs, .. } => assert_eq!(jobs.len(), 1),
            _ => panic!("run parses as a 1-job sweep"),
        }
        assert_ne!(h, 0);
        assert!(parse_submission(JobKind::Run, "seeds = 4").is_err());
    }

    #[test]
    fn kind_salts_the_identity() {
        let body = "topologies = path:4\nhorizon = 5";
        let (_, run) = parse_submission(JobKind::Run, body).unwrap();
        let (_, sweep) = parse_submission(JobKind::Sweep, body).unwrap();
        assert_ne!(run, sweep);
        assert_eq!(job_id(JobKind::Run, run), format!("run-{:016x}", run));
    }

    #[test]
    fn chaos_batch_spec_parses_and_bounds() {
        let spec =
            ChaosBatchSpec::parse_str("scenarios = 12\nstart-seed = 7\n# comment\n").unwrap();
        assert_eq!(spec.scenarios, 12);
        assert_eq!(spec.start_seed, 7);
        assert!(ChaosBatchSpec::parse_str("scenarios = 0").is_err());
        assert!(ChaosBatchSpec::parse_str("bogus = 1").is_err());
        let (_, a) = parse_submission(JobKind::ChaosBatch, "scenarios = 12").unwrap();
        let (_, b) = parse_submission(JobKind::ChaosBatch, "scenarios = 13").unwrap();
        assert_ne!(a, b);
    }
}
