//! F1 — Theorem 5.5: the global skew of `A^opt` never exceeds
//! `𝒢 = (1 + ε̂)·D·𝒯̂ + 2ε̂/(1 + ε̂)·H₀`, across topologies and adversarial
//! environments, and the bound is linear in the diameter.
//!
//! The topology grid runs through the `gcs-sweep` orchestrator: one job
//! per case, executed in parallel, results in deterministic job order.

use gcs_analysis::Table;
use gcs_bench::{banner, f2, f4, workers};
use gcs_core::Params;
use gcs_sweep::{run_sweep, PoolProgress, SweepSpec};

fn main() {
    banner(
        "F1",
        "global skew ≤ 𝒢 = (1+ε)D𝒯 + 2ε/(1+ε)H₀ (Thm 5.5), linear in D",
    );
    let eps = 0.02;
    let t_max = 0.25;
    let params = Params::recommended(eps, t_max).unwrap();
    println!(
        "ε̂ = {eps}, 𝒯̂ = {t_max}, H₀ = {:.3}, κ = {:.4}\n",
        params.h0(),
        params.kappa()
    );

    // Max-drift split along distance from node 0 (`distsplit`) + slow
    // away-delays (`directional`): the strongest generic skew builder.
    let spec = SweepSpec {
        topologies: [
            "path:9",
            "path:17",
            "path:33",
            "path:65",
            "grid:5x5",
            "grid:8x8",
            "tree:31",
            "tree:127",
            "torus:6x6",
            "er:40:0.08",
        ]
        .map(String::from)
        .to_vec(),
        eps: vec![eps],
        t: vec![t_max],
        delays: vec!["directional".into()],
        rates: vec!["distsplit".into()],
        seeds: 7..8,
        horizon: 40.0,
        horizon_per_diameter: 4.0,
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
        "topology",
        "n",
        "D",
        "measured skew",
        "bound 𝒢",
        "used %",
    ]);
    for (job, outcome) in &jobs {
        let r = outcome
            .completed()
            .unwrap_or_else(|| panic!("{} failed: {:?}", job.label(), outcome.failure()));
        assert!(
            r.global_skew <= r.global_bound + 1e-9,
            "{}: Thm 5.5 violated",
            job.topology
        );
        table.row(vec![
            job.topology.clone(),
            r.nodes.to_string(),
            r.diameter.to_string(),
            f4(r.global_skew),
            f4(r.global_bound),
            f2(r.global_skew / r.global_bound * 100.0),
        ]);
    }
    println!("{table}");
    println!("every run respects 𝒢; see F7 for the matching forced floor (1+ϱ)D𝒯.");
}
