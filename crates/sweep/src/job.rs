//! Executing one sweep job: a fresh [`Scenario`], a fresh observability
//! stack (its flight recorder reused, cleared, from the worker's previous
//! job), one measured execution, projected into a [`JobResult`].

use std::cell::Cell;

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
    /// Engine events the job's sink set recorded
    /// ([`SinkSet::recorded`]).
    pub events_recorded: u64,
    /// Whether the invariant watchdog tripped (always `false` when the
    /// sweep runs without `watchdog`).
    pub watchdog_tripped: bool,
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
    let scenario = scenario(job)?;
    let mut sinks = SinkSet::with_recorder(&scenario.graph, recorder());
    sinks.watchdog = job.watchdog.then(|| scenario.watchdog());
    let out = scenario.run(&job.algo, sinks, false)?;
    let outcome = match &out.panic {
        Some(payload) => Err(crate::pool::panic_message(payload.as_ref())),
        None => Ok(out.result()),
    };
    SPARE_RECORDER.set(Some(out.sinks.recorder));
    outcome
}

thread_local! {
    /// The worker's flight recorder from its previous [`run_job`], cleared
    /// and reused by the next job. A fresh recorder is ~460 KB allocated,
    /// filled and freed per job; glibc's heap trim can hand that back to
    /// the kernel after every job, and a sweep of short jobs then spends
    /// its set-up re-faulting the pages (~15 faults per job on 3200-job
    /// sweeps, against under one when the heap layout happens to block
    /// the trim).
    static SPARE_RECORDER: Cell<Option<RecorderSink>> = const { Cell::new(None) };
}

/// An empty recorder: the worker's spare if it has one, else a fresh one.
fn recorder() -> RecorderSink {
    match SPARE_RECORDER.take() {
        Some(mut recorder) => {
            recorder.clear();
            recorder
        }
        None => RecorderSink::new(),
    }
}

/// The job's substrate.
fn scenario(job: &JobSpec) -> Result<Scenario, String> {
    Scenario::build(ScenarioSpec {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{with_protocols, ProtocolVisitor};
    use crate::spec::SweepSpec;
    use gcs_analysis::MetricsSink;
    use gcs_sim::{Engine, Protocol};

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

    /// Runs `job`'s scenario under a standalone, vector-fed metrics sink
    /// and returns its `events.total`.
    struct StandaloneMetrics(Scenario);

    impl ProtocolVisitor for StandaloneMetrics {
        type Output = u64;

        fn visit<P: Protocol>(self, protocols: Vec<P>) -> u64 {
            let sc = self.0;
            let mut engine = Engine::builder(sc.graph)
                .protocols(protocols)
                .delay_model(sc.delay)
                .rate_schedules(sc.schedules)
                .event_sink(MetricsSink::new())
                .build();
            engine.wake_all_at(0.0);
            engine.run_until(sc.horizon);
            let total = engine.sink_mut().registry().counter_value("events.total");
            total.unwrap_or(0)
        }
    }

    #[test]
    fn events_recorded_counts_what_a_metrics_sink_counts() {
        let base = SweepSpec {
            topologies: vec!["ring:6".into(), "grid:3x3".into()],
            horizon: 25.0,
            ..SweepSpec::default()
        };
        let specs = [
            base.clone(),
            SweepSpec {
                watchdog: true,
                ..base.clone()
            },
            SweepSpec {
                chaos: vec!["drop:5..15:*:0.5;dup:0..20:*:1:0.05".into()],
                ..base
            },
        ];
        for spec in specs {
            for job in spec.expand() {
                let recorded = run_job(&job).unwrap().events_recorded;
                let sc = scenario(&job).unwrap();
                let (params, n) = (sc.params, sc.graph.len());
                let total = with_protocols(&job.algo, params, n, StandaloneMetrics(sc)).unwrap();
                assert!(recorded > 0, "{job:?}");
                assert_eq!(recorded, total, "{job:?}");
            }
        }
    }

    /// Runs `job` and returns the flight recorder it leaves as this
    /// worker's spare.
    fn spare_after(job: &JobSpec) -> RecorderSink {
        run_job(job).unwrap();
        SPARE_RECORDER.take().expect("run_job keeps its recorder")
    }

    #[test]
    fn a_reused_recorder_dumps_what_a_fresh_one_dumps() {
        let spec = |horizon| SweepSpec {
            topologies: vec!["ring:5".into()],
            horizon,
            ..SweepSpec::default()
        };
        let job = spec(20.0).expand().remove(0);
        let fresh = std::thread::spawn({
            let job = job.clone();
            move || spare_after(&job).window_events()
        })
        .join()
        .unwrap();
        // A longer job first leaves this thread a spare recorder whose
        // rings are full of its events.
        run_job(&spec(60.0).expand()[0]).unwrap();
        assert_eq!(spare_after(&job).window_events(), fresh);
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
