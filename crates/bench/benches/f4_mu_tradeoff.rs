//! F4 — Eq. (6) / Corollary 7.8: the base of the local-skew logarithm is
//! `σ = ⌊μ(1−ε̂)/(7ε̂)⌋`. Raising `μ` (a faster fast mode) shrinks the bound
//! `κ(⌈log_σ(2𝒢/κ)⌉+½)` — but also raises `κ` (linearly in `μ` through
//! Eq. 4) and loosens the rate envelope `β = (1+ε̂)(1+μ)`: the paper's
//! trade-off between smooth clocks and small local skew.
//!
//! The σ axis runs through the `gcs-sweep` orchestrator: one job per σ.

use gcs_analysis::Table;
use gcs_bench::{banner, f4, workers};
use gcs_core::Params;
use gcs_sweep::{run_sweep, PoolProgress, SweepSpec};

fn main() {
    banner(
        "F4",
        "σ = Θ(μ/ε) trade-off: local skew bound and measured skew vs μ (Cor 7.8)",
    );
    let eps = 1e-3;
    let t_max = 0.25;
    let d = 64usize;
    println!("fixed D = {d}, ε̂ = {eps}, 𝒯̂ = {t_max}\n");

    let spec = SweepSpec {
        topologies: vec![format!("path:{}", d + 1)],
        eps: vec![eps],
        t: vec![t_max],
        sigmas: [2u32, 4, 8, 16, 64, 256].map(Some).to_vec(),
        delays: vec!["directional".into()],
        rates: vec!["distsplit".into()],
        seeds: 0..1,
        horizon: 120.0,
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
        "σ",
        "μ",
        "β",
        "κ",
        "levels",
        "local bound",
        "measured local",
    ]);
    for (job, outcome) in &jobs {
        let r = outcome
            .completed()
            .unwrap_or_else(|| panic!("{} failed: {:?}", job.label(), outcome.failure()));
        assert!(r.local_skew <= r.local_bound + 1e-9);
        let sigma = job.sigma.expect("the σ axis is explicit in this sweep");
        let params = Params::with_sigma(job.eps, job.t, sigma).unwrap();
        let levels = (2.0 * r.global_bound / params.kappa())
            .log(sigma as f64)
            .ceil();
        table.row(vec![
            sigma.to_string(),
            format!("{:.4}", params.mu()),
            format!("{:.3}", params.rate_envelope().1),
            format!("{:.4}", params.kappa()),
            format!("{levels:.0}"),
            f4(r.local_bound),
            f4(r.local_skew),
        ]);
    }
    println!("{table}");
    println!("larger σ ⇒ fewer levels (smaller logarithm) but a larger κ and β:");
    println!("the bound is minimized at a moderate σ — exactly the paper's");
    println!("\"μ ≈ 14ε suffices; larger μ helps only while μ ≪ 1\" discussion.");
}
