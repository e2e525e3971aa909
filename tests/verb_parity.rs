//! The three verbs — `gcs run`, sweep jobs (`run_job`) and chaos scenarios
//! (`run_scenario`) — share one `Scenario → Outcome` path, so the same
//! spec must give the same execution through each of them: equal message
//! statistics, bit-identical worst skews, equal bounds, and the same error
//! for an unknown algorithm.
//!
//! The `gcs run` side is checked twice: through the library calls the
//! binary makes (exact), and through the binary itself (printed values).

use std::process::{Command, Output};

use clock_sync::chaos::{run_scenario, ChaosSpec, ScenarioOutcome};
use clock_sync::sweep::{run_job, JobResult, Outcome, Scenario, ScenarioSpec, SinkSet, SweepSpec};

const TOPOLOGY: &str = "path:8";
const EPS: f64 = 0.02;
const T: f64 = 0.2;
const DELAY: &str = "const";
const RATES: &str = "walk";
const SEED: u64 = 5;
const HORIZON: f64 = 30.0;

/// The `gcs run` path: the scenario and sink set `cmd_run` builds for
/// `gcs run --topology path:8 --eps 0.02 --t 0.2 --delays const
/// --rates walk --seed 5 --horizon 30 [--watchdog]`.
fn via_run(algo: &str, watchdog: bool) -> Result<Outcome, String> {
    let scenario = Scenario::build(ScenarioSpec {
        topology: TOPOLOGY,
        eps: EPS,
        t: T,
        sigma: None,
        delay: DELAY,
        rates: RATES,
        faults: Vec::new(),
        seed: SEED,
        horizon: HORIZON,
        horizon_per_diameter: 0.0,
    })?;
    let mut sinks = SinkSet::new(&scenario.graph);
    if watchdog {
        sinks.watchdog = Some(scenario.watchdog());
    }
    scenario.run(algo, sinks, 1, false)
}

fn via_job(algo: &str, watchdog: bool) -> Result<JobResult, String> {
    let spec = SweepSpec {
        topologies: vec![TOPOLOGY.into()],
        algos: vec![algo.into()],
        eps: vec![EPS],
        t: vec![T],
        delays: vec![DELAY.into()],
        rates: vec![RATES.into()],
        seeds: SEED..SEED + 1,
        horizon: HORIZON,
        watchdog,
        ..SweepSpec::default()
    };
    run_job(&spec.expand()[0])
}

fn via_chaos(algo: &str) -> Result<ScenarioOutcome, String> {
    let spec = ChaosSpec {
        topology: TOPOLOGY.into(),
        algo: algo.into(),
        eps: EPS,
        t: T,
        sigma: None,
        delay: DELAY.into(),
        rates: RATES.into(),
        horizon: HORIZON,
        seed: SEED,
        faults: Vec::new(),
        violation: None,
    };
    run_scenario(&spec, 1)
}

fn gcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args(args)
        .output()
        .expect("failed to spawn gcs")
}

fn run_args(algo: &str) -> Vec<String> {
    [
        "run",
        "--algo",
        algo,
        "--topology",
        TOPOLOGY,
        "--eps",
        &EPS.to_string(),
        "--t",
        &T.to_string(),
        "--delays",
        DELAY,
        "--rates",
        RATES,
        "--seed",
        &SEED.to_string(),
        "--horizon",
        &HORIZON.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The value column of the `gcs run` table row labelled `label`.
fn table_value(stdout: &str, label: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` row in:\n{stdout}"));
    line.trim_start()[label.len()..].trim().to_string()
}

fn assert_verbs_agree(watchdog: bool) {
    let run = via_run("aopt", watchdog).unwrap();
    assert!(run.panic.is_none());
    let job = via_job("aopt", watchdog).unwrap();
    let chaos = via_chaos("aopt").unwrap();

    assert_eq!(run.stats, chaos.stats, "run vs chaos message stats");
    let counters = |r: &JobResult| {
        [
            r.send_events,
            r.transmissions,
            r.deliveries,
            r.dropped,
            r.dropped_model,
            r.dropped_faults,
            r.duplicated,
        ]
    };
    let s = &run.stats;
    assert_eq!(
        counters(&job),
        [
            s.send_events,
            s.transmissions,
            s.deliveries,
            s.dropped,
            s.dropped_model,
            s.dropped_faults,
            s.duplicated,
        ],
        "run vs sweep message stats"
    );
    assert!(s.deliveries > 0);

    let observer = &run.sinks.observer;
    let skews = [observer.worst_global(), observer.worst_local()];
    for (verb, other) in [
        ("sweep", [job.global_skew, job.local_skew]),
        ("chaos", [chaos.global_skew, chaos.local_skew]),
    ] {
        assert_eq!(
            skews.map(f64::to_bits),
            other.map(f64::to_bits),
            "run vs {verb} worst skews"
        );
    }
    let bounds = [run.global_bound, run.local_bound];
    assert_eq!(bounds, [job.global_bound, job.local_bound]);
    assert_eq!(bounds, [chaos.global_bound, chaos.local_bound]);
    assert_eq!(
        (run.nodes, run.diameter, run.horizon),
        (job.nodes, job.diameter, job.horizon)
    );
    assert_eq!(
        (run.nodes, run.diameter, run.horizon),
        (chaos.nodes, chaos.diameter, chaos.horizon)
    );

    // The watchdog verdict agrees wherever one is attached.
    if watchdog {
        assert_eq!(run.sinks.tripped(), job.watchdog_tripped);
    }
    assert_eq!(job.watchdog_tripped, watchdog && chaos.violation.is_some());

    // The binary prints what the library path measured.
    let mut args = run_args("aopt");
    if watchdog {
        args.push("--watchdog".into());
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = gcs(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        table_value(&stdout, "worst global skew").starts_with(&format!("{:.6} ", job.global_skew))
    );
    assert!(
        table_value(&stdout, "worst local skew").starts_with(&format!("{:.6} ", job.local_skew))
    );
    assert_eq!(
        table_value(&stdout, "send events"),
        job.send_events.to_string()
    );
    assert_eq!(
        table_value(&stdout, "deliveries / dropped"),
        format!("{} / {}", job.deliveries, job.dropped)
    );
    assert_eq!(
        table_value(&stdout, "A^opt bounds (𝒢 / local)"),
        format!("{:.6} / {:.6}", job.global_bound, job.local_bound)
    );
}

#[test]
fn chaos_free_spec_agrees_across_verbs() {
    assert_verbs_agree(false);
}

#[test]
fn watchdog_on_spec_agrees_across_verbs() {
    assert_verbs_agree(true);
}

#[test]
fn unknown_algorithm_gives_one_error_from_every_verb() {
    let expected = "unknown algorithm `quantum`".to_string();
    assert_eq!(via_run("quantum", false).err(), Some(expected.clone()));
    assert_eq!(via_job("quantum", false).err(), Some(expected.clone()));
    assert_eq!(via_chaos("quantum").err(), Some(expected.clone()));

    let args = run_args("quantum");
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = gcs(&args);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("error: {expected}\n")
    );
}

#[test]
fn run_accepts_a_zero_horizon_and_rejects_negative_or_nan() {
    let out = gcs(&["run", "--topology", "path:4", "--horizon", "0"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(table_value(&stdout, "deliveries / dropped"), "0 / 0");
    assert_eq!(
        table_value(&stdout, "delivery imbalance (max/mean)"),
        "1.000"
    );

    for (horizon, shown) in [("-3", "-3"), ("nan", "NaN")] {
        let out = gcs(&["run", "--topology", "path:4", "--horizon", horizon]);
        assert_eq!(out.status.code(), Some(1), "--horizon {horizon}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: horizon must be non-negative, got {shown}\n")
        );
        assert!(out.stdout.is_empty());
    }
}
