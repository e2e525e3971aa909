//! BENCH — `gcs-sweep` orchestrator scaling: wall-clock speedup of a
//! 256-job sweep at 1/2/4/8 workers, plus the determinism contract that
//! aggregated CSV/JSONL output is byte-identical at every worker count.
//!
//! Jobs are independent simulations, so the expected speedup is
//! `min(workers, cores)` up to queue/emit overhead. The ≥3× assertion at
//! 8 workers only fires on hosts that actually have ≥8 cores — on smaller
//! hosts the bench still verifies determinism and reports the measured
//! scaling.

use std::time::{Duration, Instant};

use gcs_analysis::Table;
use gcs_bench::{banner, f2, BenchReport};
use gcs_sweep::{report, run_sweep, PoolProgress, SweepSpec};

/// Runs the sweep at the given worker count, returning the concatenated
/// CSV+JSONL output and the wall-clock time of the orchestrated portion.
fn run_at(spec: &SweepSpec, workers: usize) -> (String, Duration, usize) {
    let mut out = String::from(report::CSV_HEADER);
    out.push('\n');
    let started = Instant::now();
    let (aggregate, _) = run_sweep(
        spec,
        workers,
        |job, outcome| {
            out.push_str(&report::csv_row(&job, &outcome));
            out.push('\n');
            out.push_str(&report::jsonl_row(&job, &outcome));
            out.push('\n');
        },
        None::<fn(PoolProgress)>,
    );
    let elapsed = started.elapsed();
    out.push_str(&report::jsonl_summary(&aggregate));
    out.push('\n');
    assert_eq!(aggregate.failed, 0, "scaling sweep jobs must all complete");
    (out, elapsed, aggregate.total)
}

fn main() {
    banner(
        "SWEEP-SCALING",
        "256-job sweep wall clock at 1/2/4/8 workers; byte-identical output",
    );
    let spec = SweepSpec {
        topologies: ["path:8", "ring:8", "grid:4x4", "tree:15"]
            .map(String::from)
            .to_vec(),
        eps: vec![0.01, 0.02],
        t: vec![0.1],
        delays: vec!["uniform".into()],
        rates: vec!["walk".into()],
        seeds: 0..32,
        horizon: 60.0,
        ..SweepSpec::default()
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} core(s)\n");

    // Warm-up pass so first-touch effects don't bias the 1-worker baseline.
    let (reference, _, count) = run_at(&spec, 1);
    assert_eq!(count, 256, "the scaling sweep must expand to 256 jobs");

    let mut results = BenchReport::new("sweep_scaling");
    results
        .config("jobs", count)
        .config("topologies", spec.topologies.join(","))
        .config("eps", "0.01,0.02")
        .config("seeds", "0..32")
        .config("horizon", spec.horizon)
        .config("host_cores", cores);

    let mut table = Table::new(vec!["workers", "wall clock", "speedup", "output"]);
    let mut baseline = Duration::ZERO;
    let mut speedup_at_8 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let (out, elapsed, _) = run_at(&spec, workers);
        let identical = out == reference;
        assert!(
            identical,
            "sweep output at {workers} workers diverged from the 1-worker output"
        );
        if workers == 1 {
            baseline = elapsed;
        }
        let speedup = baseline.as_secs_f64() / elapsed.as_secs_f64();
        if workers == 8 {
            speedup_at_8 = speedup;
        }
        results.metric(
            &format!("wall_seconds/workers={workers}"),
            elapsed.as_secs_f64(),
        );
        results.metric(&format!("speedup/workers={workers}"), speedup);
        table.row(vec![
            workers.to_string(),
            format!("{elapsed:.2?}"),
            format!("{}x", f2(speedup)),
            if identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    println!("{table}");

    match results.write() {
        Ok(path) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("warning: could not write bench results: {e}"),
    }

    if cores >= 8 {
        assert!(
            speedup_at_8 >= 3.0,
            "expected ≥3x speedup at 8 workers on a {cores}-core host, got {speedup_at_8:.2}x"
        );
        println!(
            "8-worker speedup {}x ≥ 3x on {cores} cores ✓",
            f2(speedup_at_8)
        );
    } else {
        println!(
            "host has only {cores} core(s): speedup ceiling is min(workers, cores); \
             the ≥3x-at-8-workers check needs ≥8 cores and was skipped"
        );
    }
    println!("aggregated CSV+JSONL byte-identical across 1/2/4/8 workers ✓");
}
