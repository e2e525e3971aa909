//! F8 — Theorems 7.7 / 7.12: the iterative construction forces a local skew
//! of `(1 + ⌊log_b D⌋)/2 · α𝒯` between some pair of neighbours — even on
//! algorithms with unbounded clock rates (the jump variant). Together with
//! F2's upper bound this brackets the achievable local skew.

use gcs_adversary::framed::LocalLowerBound;
use gcs_analysis::Table;
use gcs_bench::{banner, f4};
use gcs_core::{AOpt, AOptJump, NoSync, Params};
use gcs_time::{DriftBounds, RateEnvelope};

fn main() {
    banner(
        "F8",
        "forced local skew (1+⌊log_b D⌋)/2·α𝒯 via the iterative construction (Thm 7.7/7.12)",
    );
    let t_max = 1.0;

    // Part 1: against NoSync (α = 1−ε, β = 1+ε ⇒ small required b), the
    // guarantee holds stage by stage and grows with log D.
    println!("--- vs NoSync (b meets Thm 7.7's threshold: guarantee applies) ---");
    let eps = 0.2;
    let alpha = 1.0 - eps;
    let drift = DriftBounds::new(eps).expect("valid drift");
    let b = RateEnvelope::new(alpha, 1.0 + eps).lower_bound_base(drift) as usize;
    let mut table = Table::new(vec![
        "stages S",
        "D' = b^S",
        "guaranteed (S+1)/2·α𝒯",
        "forced neighbour skew",
    ]);
    for stages in [1usize, 2, 3] {
        let lb = LocalLowerBound::new(b, stages, eps, t_max, alpha).expect("valid construction");
        let reports = lb.run(|n| vec![NoSync; n]);
        let last = reports.last().unwrap();
        assert_eq!(last.distance, 1);
        assert!(last.skew >= lb.guaranteed_final_skew() - 1e-9);
        table.row(vec![
            stages.to_string(),
            lb.d_prime().to_string(),
            f4(lb.guaranteed_final_skew()),
            f4(last.skew),
        ]);
    }
    println!("{table}");

    // Part 2: against A^opt and its jump variant — the same construction
    // still forces Ω(𝒯) neighbour skew (Thm 7.12's point: unbounded rates
    // do not help asymptotically), and A^opt's bound is never violated.
    println!("--- vs A^opt and the β = ∞ jump variant (b = 3, S = 3) ---");
    let eps = 0.1;
    let params = Params::recommended(eps, t_max).unwrap();
    let lb = LocalLowerBound::new(3, 3, eps, t_max, 1.0 - eps).expect("valid construction");
    let d = lb.d_prime() as u32;
    let mut table = Table::new(vec![
        "algorithm",
        "forced neighbour skew",
        "A^opt local bound (D=27)",
    ]);
    for (name, reports) in [
        ("A^opt", lb.run(|n| vec![AOpt::new(params); n])),
        ("A^opt (jumps)", lb.run(|n| vec![AOptJump::new(params); n])),
        ("NoSync", lb.run(|n| vec![NoSync; n])),
    ] {
        let last = reports.last().unwrap();
        assert!(last.skew > 0.1 * t_max);
        table.row(vec![
            name.to_string(),
            f4(last.skew),
            f4(params.local_skew_bound(d)),
        ]);
    }
    println!("{table}");
    println!("jumping buys nothing (Thm 7.12); A^opt keeps the forced skew below");
    println!("its logarithmic guarantee while the unprotected baseline cannot.");
}
