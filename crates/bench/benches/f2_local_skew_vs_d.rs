//! F2 — Theorem 5.10: the local skew of `A^opt` is bounded by
//! `κ(⌈log_σ(2𝒢/κ)⌉ + ½)`, i.e. it grows *logarithmically* with the
//! diameter while the global skew grows linearly.
//!
//! The diameter grid runs through the `gcs-sweep` orchestrator; the
//! `wavefront` delay spec extends each job's horizon past its flip time.

use gcs_analysis::Table;
use gcs_bench::{banner, f4, workers};
use gcs_sweep::{run_sweep, PoolProgress, SweepSpec};

fn main() {
    banner(
        "F2",
        "local skew ≤ κ(⌈log_σ(2𝒢/κ)⌉+½) (Thm 5.10): logarithmic in D",
    );

    // Drift split by distance (`distsplit`) + a mid-run wavefront flip: a
    // strong local-skew builder that A^opt must absorb smoothly.
    let spec = SweepSpec {
        topologies: ["path:9", "path:17", "path:33", "path:65", "path:129"]
            .map(String::from)
            .to_vec(),
        eps: vec![0.02],
        t: vec![0.25],
        delays: vec!["wavefront".into()],
        rates: vec!["distsplit".into()],
        seeds: 0..1,
        horizon: 0.0, // the wavefront's flip time + 20 dominates
        ..SweepSpec::default()
    };

    let mut jobs = Vec::new();
    run_sweep(
        &spec,
        workers(),
        |job, outcome| jobs.push((job, outcome)),
        None::<fn(PoolProgress)>,
    );

    let mut table = Table::new(vec![
        "D",
        "measured local",
        "local bound",
        "measured global",
        "global bound 𝒢",
    ]);
    for (job, outcome) in &jobs {
        let r = outcome
            .completed()
            .unwrap_or_else(|| panic!("{} failed: {:?}", job.label(), outcome.failure()));
        assert!(
            r.local_skew <= r.local_bound + 1e-9,
            "Thm 5.10 violated at D={}",
            r.diameter
        );
        table.row(vec![
            r.diameter.to_string(),
            f4(r.local_skew),
            f4(r.local_bound),
            f4(r.global_skew),
            f4(r.global_bound),
        ]);
    }
    println!("{table}");
    println!("the local bound column grows by ≈ κ per doubling of D (logarithmic),");
    println!("while 𝒢 doubles with D (linear) — the gradient property of the paper.");
}
