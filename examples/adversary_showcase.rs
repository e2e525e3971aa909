//! A tour of the paper's lower-bound machinery (Section 7).
//!
//! ```sh
//! cargo run --release --example adversary_showcase
//! ```
//!
//! 1. **Theorem 7.2** — three executions `E₁`/`E₂`/`E₃` that no node can
//!    tell apart, one of which hides `(1 + ϱ)·D·𝒯` of real skew. We run all
//!    three against `A^opt`, verify the indistinguishability empirically
//!    from the nodes' local logs, and compare the forced skew with `A^opt`'s
//!    upper bound 𝒢 — the two are within a small constant of each other,
//!    which is the sense in which the bounds are *tight*.
//! 2. **Theorem 7.7** — the iterative construction that concentrates skew
//!    onto ever-shorter path segments until two *neighbours* disagree.

use clock_sync::adversary::framed::LocalLowerBound;
use clock_sync::adversary::shift::GlobalLowerBound;
use clock_sync::analysis::Table;
use clock_sync::core::{AOpt, NoSync, Params};
use clock_sync::graph::topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Theorem 7.2 -------------------------------------------------
    let (eps, t, t_hat) = (0.05, 0.5, 1.0); // the algorithm's 𝒯̂ is 2× loose
    let d = 8;
    let lb = GlobalLowerBound::new(topology::path(d + 1), eps, eps, t, t_hat, 0.01)
        .expect("valid construction");
    let params = Params::recommended(eps, t_hat)?;
    println!("Theorem 7.2 on a path of D = {d} (ε = {eps}, 𝒯 = {t}, 𝒯̂ = {t_hat}):");
    println!(
        "  ϱ = {:.4}; forced skew (1+ϱ)·D·𝒯 = {:.4}",
        lb.rho(),
        lb.predicted_skew()
    );

    let (reports, indistinguishable) =
        lb.verify_indistinguishable(|| vec![AOpt::new(params); d + 1]);
    let mut table = Table::new(vec!["execution", "endpoint skew", "max skew"]);
    for r in &reports {
        table.row(vec![
            format!("{:?}", r.execution),
            format!("{:.4}", r.endpoint_skew),
            format!("{:.4}", r.max_skew),
        ]);
    }
    println!("{table}");
    println!("  locally indistinguishable at every node: {indistinguishable}");
    println!(
        "  A^opt's global-skew bound 𝒢 = {:.4} (forced/𝒢 = {:.2})",
        params.global_skew_bound(d as u32),
        reports[2].endpoint_skew / params.global_skew_bound(d as u32)
    );
    assert!(indistinguishable);
    assert!(reports[2].endpoint_skew >= 0.9 * lb.predicted_skew());

    // ---- Theorem 7.7 -------------------------------------------------
    println!("\nTheorem 7.7 iterative construction (b = 5, S = 2, against NoSync):");
    let eps = 0.2;
    let alpha = 1.0 - eps;
    let llb = LocalLowerBound::new(5, 2, eps, 1.0, alpha).expect("valid construction");
    let reports = llb.run(|n| vec![NoSync; n]);
    let mut table = Table::new(vec![
        "stage",
        "pair",
        "distance",
        "skew",
        "target (k+1)/2·α·d·𝒯",
    ]);
    for r in &reports {
        table.row(vec![
            r.stage.to_string(),
            format!("v{}..v{}", r.ahead, r.behind),
            r.distance.to_string(),
            format!("{:.4}", r.skew),
            format!("{:.4}", r.target),
        ]);
    }
    println!("{table}");
    let last = reports.last().unwrap();
    println!(
        "  forced local skew between neighbours: {:.4} ≥ guaranteed {:.4}",
        last.skew,
        llb.guaranteed_final_skew()
    );
    assert!(last.skew >= llb.guaranteed_final_skew() - 1e-9);

    println!("\nthe same construction aimed at A^opt (b = 3, S = 2):");
    let eps = 0.1;
    let params = Params::recommended(eps, 1.0)?;
    let llb = LocalLowerBound::new(3, 2, eps, 1.0, 1.0 - eps).expect("valid construction");
    let reports = llb.run(|n| vec![AOpt::new(params); n]);
    let last = reports.last().unwrap();
    println!(
        "  forced {:.4} vs A^opt's local-skew bound {:.4} on D = {} — the gap is the\n  approximation factor the paper proves is a small constant.",
        last.skew,
        params.local_skew_bound(llb.d_prime() as u32),
        llb.d_prime()
    );
    Ok(())
}
