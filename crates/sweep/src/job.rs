//! Executing one sweep job: a fresh [`Scenario`], a fresh observability
//! stack, one measured execution, projected into a [`JobResult`].

use gcs_analysis::MetricsSink;
use gcs_sim::RecorderSink;

use crate::parse::resolve_chaos;
use crate::scenario::{Scenario, ScenarioSpec, SinkSet};
use crate::spec::JobSpec;

/// Measurements from one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Number of nodes of the instantiated topology.
    pub nodes: usize,
    /// Diameter of the instantiated topology.
    pub diameter: u32,
    /// Effective real-time horizon the execution ran to.
    pub horizon: f64,
    /// Worst pairwise logical skew over the execution.
    pub global_skew: f64,
    /// Worst neighbour logical skew over the execution.
    pub local_skew: f64,
    /// `A^opt`'s Theorem 5.5 bound 𝒢 for this job's parameters and diameter.
    pub global_bound: f64,
    /// `A^opt`'s Theorem 5.10 bound for this job's parameters and diameter.
    pub local_bound: f64,
    /// Broadcast send events.
    pub send_events: u64,
    /// Per-edge message transmissions.
    pub transmissions: u64,
    /// Delivered messages.
    pub deliveries: u64,
    /// Messages dropped in total (`dropped_model + dropped_faults`).
    pub dropped: u64,
    /// Drops attributed to the delay model itself (`lossy`-style loss).
    pub dropped_model: u64,
    /// Drops attributed to injected chaos faults.
    pub dropped_faults: u64,
    /// Fault-injected duplicate transmissions.
    pub duplicated: u64,
    /// Engine events recorded by the per-job metrics sink.
    pub events_recorded: u64,
    /// Whether the invariant watchdog tripped (always `false` when the
    /// sweep runs without `watchdog`).
    pub watchdog_tripped: bool,
}

/// Everything one execution produced: the measurement (or failure), the
/// watchdog/panic disposition, and the flight recorder holding the final
/// event window.
///
/// The recorder is returned still encoded; decode it with
/// [`gcs_sim::RecorderSink::window_events`] only when the window is
/// actually needed (a trip/panic dump, a blame query) — plain sweeps drop
/// it for free.
#[derive(Debug)]
pub struct JobExecution {
    /// The job's measurements, or the failure/panic message.
    pub outcome: Result<JobResult, String>,
    /// Whether the invariant watchdog tripped (always `false` without
    /// `watchdog = true`).
    pub tripped: bool,
    /// Whether the engine panicked mid-run (the panic was caught; the
    /// recorder window below still holds the events leading up to it).
    pub panicked: bool,
    /// The per-job flight recorder, with its bounded window intact.
    pub recorder: RecorderSink,
}

/// Runs one job to completion on a fresh engine and returns its
/// measurements.
///
/// Every randomized component (random topologies, the uniform delay model,
/// random-walk rate schedules) is seeded from `job.seed`, so a job's result
/// is a pure function of its [`JobSpec`] — the foundation of the sweep
/// determinism guarantee.
///
/// A panic inside the engine is caught and reported as `Err("panicked: …")`
/// — the same message the worker pool would have produced, so sweep output
/// is unchanged.
pub fn run_job(job: &JobSpec) -> Result<JobResult, String> {
    run_job_full(job).outcome
}

/// Like [`run_job`], additionally returning the watchdog/panic disposition
/// and the flight recorder so hosts can write post-mortem dumps and serve
/// blame queries. See [`JobExecution`].
pub fn run_job_full(job: &JobSpec) -> JobExecution {
    // Setup errors (bad topology, unknown algorithm) happen before an
    // engine exists, so there is no recorder to salvage.
    execute(job).unwrap_or_else(|message| JobExecution {
        outcome: Err(message),
        tripped: false,
        panicked: false,
        recorder: RecorderSink::new(),
    })
}

fn execute(job: &JobSpec) -> Result<JobExecution, String> {
    let scenario = Scenario::build(ScenarioSpec {
        topology: &job.topology,
        eps: job.eps,
        t: job.t,
        sigma: job.sigma,
        delay: &job.delay,
        rates: &job.rates,
        faults: resolve_chaos(&job.chaos)?,
        seed: job.seed,
        horizon: job.horizon,
        horizon_per_diameter: job.horizon_per_diameter,
    })?;
    let mut sinks = SinkSet::new(&scenario.graph);
    sinks.metrics = Some(MetricsSink::new());
    sinks.watchdog = job.watchdog.then(|| scenario.watchdog());
    let mut out = scenario.run(&job.algo, sinks, false)?;
    let tripped = out.sinks.tripped();
    let outcome = match &out.panic {
        Some(payload) => Err(crate::pool::panic_message(payload.as_ref())),
        None => Ok(JobResult {
            nodes: out.nodes,
            diameter: out.diameter,
            horizon: out.horizon,
            global_skew: out.sinks.observer.worst_global(),
            local_skew: out.sinks.observer.worst_local(),
            global_bound: out.global_bound,
            local_bound: out.local_bound,
            send_events: out.stats.send_events,
            transmissions: out.stats.transmissions,
            deliveries: out.stats.deliveries,
            dropped: out.stats.dropped,
            dropped_model: out.stats.dropped_model,
            dropped_faults: out.stats.dropped_faults,
            duplicated: out.stats.duplicated,
            events_recorded: out
                .sinks
                .metrics
                .as_mut()
                .and_then(|m| m.registry().counter_value("events.total"))
                .unwrap_or(0),
            watchdog_tripped: tripped,
        }),
    };
    Ok(JobExecution {
        outcome,
        tripped,
        panicked: out.panic.is_some(),
        recorder: out.sinks.recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    #[test]
    fn job_result_is_reproducible_and_respects_bounds() {
        let spec = SweepSpec {
            topologies: vec!["path:6".into()],
            horizon: 30.0,
            watchdog: true,
            ..SweepSpec::default()
        };
        let job = &spec.expand()[0];
        let a = run_job(job).unwrap();
        let b = run_job(job).unwrap();
        assert_eq!(a, b, "same JobSpec must reproduce identical results");
        assert_eq!(a.nodes, 6);
        assert_eq!(a.diameter, 5);
        assert!(a.global_skew <= a.global_bound + 1e-9);
        assert!(a.local_skew <= a.global_skew + 1e-12);
        assert!(a.send_events > 0 && a.deliveries > 0);
        assert!(a.events_recorded > 0);
        assert!(!a.watchdog_tripped);
    }

    #[test]
    fn chaos_drops_are_attributed_to_faults_not_the_model() {
        let spec = SweepSpec {
            topologies: vec!["path:6".into()],
            delays: vec!["const".into()],
            rates: vec!["nominal".into()],
            chaos: vec!["drop:5..15:*:0.5".into()],
            horizon: 30.0,
            ..SweepSpec::default()
        };
        let job = &spec.expand()[0];
        let a = run_job(job).unwrap();
        let b = run_job(job).unwrap();
        assert_eq!(a, b, "chaos jobs must stay deterministic");
        assert!(a.dropped_faults > 0, "the drop clause must fire");
        assert_eq!(a.dropped_model, 0, "no lossy model in play");
        assert_eq!(a.dropped, a.dropped_model + a.dropped_faults);

        // The same grid point without chaos loses nothing.
        let clean = SweepSpec {
            chaos: vec!["none".into()],
            ..spec.clone()
        };
        let c = run_job(&clean.expand()[0]).unwrap();
        assert_eq!(c.dropped, 0);
        assert_eq!(c.duplicated, 0);
    }

    #[test]
    fn chaos_duplicates_are_counted() {
        let spec = SweepSpec {
            topologies: vec!["path:4".into()],
            delays: vec!["const".into()],
            rates: vec!["nominal".into()],
            chaos: vec!["dup:0..20:*:1:0.05".into()],
            horizon: 25.0,
            ..SweepSpec::default()
        };
        let r = run_job(&spec.expand()[0]).unwrap();
        assert!(r.duplicated > 0);
        assert_eq!(r.dropped, 0);
        // Every duplicate is its own transmission and delivery.
        assert_eq!(r.deliveries, r.transmissions);
    }

    #[test]
    fn bad_job_specs_fail_cleanly() {
        let spec = SweepSpec {
            topologies: vec!["moebius:6".into()],
            ..SweepSpec::default()
        };
        assert!(run_job(&spec.expand()[0]).is_err());
        let spec = SweepSpec {
            algos: vec!["quantum".into()],
            ..SweepSpec::default()
        };
        assert!(run_job(&spec.expand()[0]).is_err());
    }
}
