//! F15 — Corollaries 7.9/7.13: the full gradient property. The worst-case
//! skew between nodes at distance `d` behaves like
//! `Θ(α𝒯·d·(1 + log_b(D/d)))`. Both sides are exhibited:
//!
//! * **floor** — the Theorem 7.7 construction *forces*, at each stage, a
//!   skew of `(k+1)/2·α𝒯·n_k` on a pair at distance `n_k = D/b^k`: the
//!   per-hop average `(k+1)/2·α𝒯` grows exactly logarithmically as the
//!   distance shrinks;
//! * **ceiling** — `A^opt`'s legal state caps pairs at distance `d` by
//!   `d·(s+½)κ` with `s ≈ log_σ(2𝒢/(dκ))` — the same `d(1+log(D/d))`
//!   shape from above.

use gcs_adversary::framed::LocalLowerBound;
use gcs_analysis::{GradientProfile, Table};
use gcs_bench::banner;
use gcs_core::{AOpt, NoSync, Params};
use gcs_graph::topology;
use gcs_sim::{rates, Engine, UniformDelay};
use gcs_time::DriftBounds;

fn main() {
    banner(
        "F15",
        "gradient property (Cor 7.9): forced floor and guaranteed ceiling vs distance",
    );

    // ---- Floor: the construction's per-stage forced skews. ----
    let eps = 0.2;
    let alpha = 1.0 - eps;
    let t_max = 1.0;
    let b = 4usize;
    let stages = 3usize;
    let lb = LocalLowerBound::new(b, stages, eps, t_max, alpha).expect("valid construction");
    let reports = lb.run(|n| vec![NoSync; n]);
    println!(
        "Theorem 7.7 construction on a path of D = {} (b = {b}, α = {alpha}):\n",
        lb.d_prime()
    );
    let mut table = Table::new(vec![
        "pair distance d",
        "forced skew",
        "forced per hop",
        "shape (k+1)/2·α𝒯",
    ]);
    for r in &reports {
        table.row(vec![
            r.distance.to_string(),
            format!("{:.3}", r.skew),
            format!("{:.3}", r.skew / r.distance as f64),
            format!("{:.3}", (r.stage as f64 + 1.0) / 2.0 * alpha * t_max),
        ]);
    }
    println!("{table}");
    println!("per-hop forced skew *rises* as the distance shrinks — one α𝒯-step per");
    println!("b-fold reduction: the logarithmic gradient from below.\n");

    // ---- Ceiling: A^opt's per-distance legal-state cap + a measured run. ----
    let eps = 0.02;
    let t_max = 0.25;
    let d = 32usize;
    let params = Params::recommended(eps, t_max).unwrap();
    let drift = DriftBounds::new(eps).unwrap();
    let graph = topology::path(d + 1);
    let n = graph.len();
    let horizon = 300.0;
    let schedules = rates::alternating(n, drift, 17.0, horizon);
    let mut profile = GradientProfile::new(&graph);
    let mut engine = Engine::builder(graph.clone())
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 23))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    let mut next_sample = 0.0;
    engine.run_until_observed(horizon, |e| {
        if e.now() >= next_sample {
            profile.observe(e);
            next_sample = e.now() + 0.5;
        }
    });
    let worst = profile.worst_by_distance();
    println!(
        "A^opt ceiling on a path of D = {d} (ε̂ = {eps}, κ = {:.3}, σ = {}):\n",
        params.kappa(),
        params.sigma()
    );
    let ceiling = |dd: usize| {
        // Smallest legal-state level binding distance dd:
        let c0 = 2.0 * params.global_skew_bound(d as u32) / params.kappa();
        let s = if dd as f64 >= c0 {
            0.0
        } else {
            (c0 / dd as f64).log(params.sigma() as f64).ceil()
        };
        dd as f64 * (s + 0.5) * params.kappa()
    };
    let mut table = Table::new(vec![
        "distance d",
        "measured worst skew",
        "legal-state ceiling d(s+½)κ",
        "ceiling per hop",
    ]);
    for &dd in &[1usize, 2, 4, 8, 16, 32] {
        assert!(
            worst[dd] <= ceiling(dd) + 1e-9,
            "ceiling violated at d = {dd}"
        );
        table.row(vec![
            dd.to_string(),
            format!("{:.4}", worst[dd]),
            format!("{:.4}", ceiling(dd)),
            format!("{:.4}", ceiling(dd) / dd as f64),
        ]);
    }
    println!("{table}");
    println!("the ceiling's per-hop allowance also falls logarithmically with");
    println!("distance — floor and ceiling share the Θ(d(1 + log(D/d))) shape of");
    println!("Corollary 7.9, closing the gradient property from both sides.");
}
