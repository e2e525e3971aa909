//! Integration tests: the paper's lower-bound constructions force the
//! predicted skews on real algorithm implementations.

use clock_sync::adversary::framed::LocalLowerBound;
use clock_sync::adversary::shift::{GlobalLowerBound, ShiftExecution};
use clock_sync::adversary::slowdown::slow_node_demo;
use clock_sync::core::{AOpt, AOptJump, MaxAlgorithm, NoSync, Params};
use clock_sync::graph::{topology, NodeId};
use clock_sync::time::{DriftBounds, RateEnvelope};

#[test]
fn theorem_7_2_floor_scales_linearly_with_d() {
    let (eps, t, t_hat) = (0.05, 0.5, 1.0);
    let params = Params::recommended(eps, t_hat).unwrap();
    let mut forced = Vec::new();
    for d in [2usize, 4, 8] {
        let lb = GlobalLowerBound::new(topology::path(d + 1), eps, eps, t, t_hat, 0.01)
            .expect("valid construction");
        let report = lb.run(vec![AOpt::new(params); d + 1], ShiftExecution::E3);
        assert!(report.endpoint_skew >= 0.9 * lb.predicted_skew());
        forced.push(report.endpoint_skew);
    }
    // Doubling D roughly doubles the forced skew.
    assert!(forced[1] / forced[0] > 1.7);
    assert!(forced[2] / forced[1] > 1.7);
}

#[test]
fn theorem_7_2_holds_on_non_path_graphs() {
    let (eps, t, t_hat) = (0.05, 0.5, 1.0);
    let params = Params::recommended(eps, t_hat).unwrap();
    let g = topology::grid(3, 3); // diameter 4
    let lb = GlobalLowerBound::new(g, eps, eps, t, t_hat, 0.01).expect("valid construction");
    let report = lb.run(vec![AOpt::new(params); 9], ShiftExecution::E3);
    assert!(
        report.endpoint_skew >= 0.85 * lb.predicted_skew(),
        "forced {} of {}",
        report.endpoint_skew,
        lb.predicted_skew()
    );
}

#[test]
fn upper_and_lower_global_bounds_bracket_a_opt() {
    // Tightness: the forced floor and A^opt's guarantee 𝒢 differ by a
    // factor ≤ (1+ε̂)/(1+ϱ) + H₀-term — a small constant.
    let (eps, t_hat) = (0.05, 0.5);
    let d = 8;
    let params = Params::recommended(eps, t_hat).unwrap();
    let lb = GlobalLowerBound::new(topology::path(d + 1), eps, eps, t_hat, t_hat, 0.01)
        .expect("valid construction");
    let report = lb.run(vec![AOpt::new(params); d + 1], ShiftExecution::E3);
    let upper = params.global_skew_bound(d as u32);
    assert!(report.endpoint_skew <= upper + 1e-9);
    assert!(
        upper / report.endpoint_skew < 2.0,
        "bracket too loose: floor {}, ceiling {upper}",
        report.endpoint_skew
    );
}

#[test]
fn indistinguishability_verified_for_multiple_algorithms() {
    let (eps, t, t_hat) = (0.05, 0.5, 1.0);
    let lb = GlobalLowerBound::new(topology::path(4), eps, eps, t, t_hat, 0.01)
        .expect("valid construction");
    let params = Params::recommended(eps, t_hat).unwrap();
    let (_, ok) = lb.verify_indistinguishable(|| vec![AOpt::new(params); 4]);
    assert!(ok, "A^opt distinguishable");
    let (_, ok) = lb.verify_indistinguishable(|| vec![MaxAlgorithm::new(1.0); 4]);
    assert!(ok, "MaxAlgorithm distinguishable");
    let (_, ok) = lb.verify_indistinguishable(|| vec![NoSync; 4]);
    assert!(ok, "NoSync distinguishable");
}

#[test]
fn theorem_7_7_meets_stage_targets_against_nosync() {
    let eps = 0.2;
    let alpha = 1.0 - eps;
    let drift = DriftBounds::new(eps).expect("valid drift");
    let b = RateEnvelope::new(alpha, 1.0 + eps).lower_bound_base(drift) as usize;
    let lb = LocalLowerBound::new(b, 2, eps, 1.0, alpha).expect("valid construction");
    let reports = lb.run(|n| vec![NoSync; n]);
    for r in &reports {
        assert!(
            r.meets_target(),
            "stage {}: {} < {}",
            r.stage,
            r.skew,
            r.target
        );
    }
    assert_eq!(reports.last().unwrap().distance, 1);
}

#[test]
fn theorem_7_7_final_skew_grows_with_stages() {
    let eps = 0.2;
    let alpha = 1.0 - eps;
    let final_skews: Vec<f64> = [1usize, 2]
        .iter()
        .map(|&s| {
            let lb = LocalLowerBound::new(5, s, eps, 1.0, alpha).expect("valid construction");
            lb.run(|n| vec![NoSync; n]).last().unwrap().skew
        })
        .collect();
    assert!(
        final_skews[1] > final_skews[0],
        "more stages must force more neighbour skew: {final_skews:?}"
    );
}

#[test]
fn theorem_7_12_jump_algorithms_are_also_forced() {
    // Even with β = ∞ (instant jumps), the construction forces local skew —
    // the message of Theorem 7.12.
    let eps = 0.1;
    let t_max = 1.0;
    let params = Params::recommended(eps, t_max).unwrap();
    let lb = LocalLowerBound::new(3, 2, eps, t_max, 1.0 - eps).expect("valid construction");
    let reports = lb.run(|n| vec![AOptJump::new(params); n]);
    let last = reports.last().unwrap();
    assert_eq!(last.distance, 1);
    assert!(
        last.skew > 0.2 * t_max,
        "jump variant escaped with only {}",
        last.skew
    );
}

#[test]
fn a_opt_bounds_hold_even_while_under_attack() {
    let eps = 0.1;
    let t_max = 1.0;
    let params = Params::recommended(eps, t_max).unwrap();
    let lb = LocalLowerBound::new(3, 2, eps, t_max, 1.0 - eps).expect("valid construction");
    let reports = lb.run(|n| vec![AOpt::new(params); n]);
    let d = lb.d_prime() as u32;
    for r in &reports {
        assert!(
            r.skew <= params.local_skew_bound(d) * r.distance as f64 + 1e-9,
            "stage {} skew {} beyond per-distance ceiling",
            r.stage,
            r.skew
        );
    }
}

#[test]
fn lemma_7_10_shifts_one_node_only() {
    let eps = 0.1;
    let params = Params::recommended(eps, 1.0).unwrap();
    let report = slow_node_demo(
        topology::cycle(5),
        || vec![AOpt::new(params); 5],
        vec![1.0, 1.05, 1.1, 1.0, 1.02],
        eps,
        0.3,
        1.0,
        0.5,
        NodeId(3),
        50.0,
    );
    assert!((report.modified_at_t - report.base_at_shifted_time).abs() < 1e-6);
    assert!(report.max_other_deviation < 1e-6);
}

/// `gcs lb-local` states Thm 7.7's threshold b* = ⌈2(β − α)/(αε)⌉ for the
/// attacked algorithm and calls the targets guaranteed only from b* on. At
/// the default ε = 0.2, A^opt runs in [α, β] = [0.8, 5.4], so b* = 58.
#[test]
fn lb_local_cli_states_the_theorem_7_7_threshold() {
    let lb_local = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gcs"))
            .arg("lb-local")
            .args(args)
            .output()
            .expect("failed to spawn gcs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 report")
    };
    let below = lb_local(&["--b", "3", "--stages", "3", "--algo", "aopt"]);
    assert!(below.contains("b* = ⌈2(β − α)/(αε)⌉ = 58 (α = 0.8000, β = 5.4000)"));
    assert!(below.contains("final neighbour target (not guaranteed): 1.6000"));
    assert!(!below.contains("guaranteed final"), "{below}");

    // From b = b* on, every stage meets its target (else exit 1).
    let at = lb_local(&["--b", "58", "--stages", "1", "--algo", "aopt"]);
    assert!(
        at.contains("guaranteed final neighbour skew (b ≥ b*): 0.8000"),
        "{at}"
    );
    let nosync = lb_local(&["--b", "5", "--stages", "2"]);
    assert!(nosync.contains("b* = ⌈2(β − α)/(αε)⌉ = 5 (α = 0.8000, β = 1.2000)"));
    assert!(
        nosync.contains("guaranteed final neighbour skew"),
        "{nosync}"
    );

    let jump = lb_local(&["--b", "3", "--stages", "2", "--algo", "jump"]);
    assert!(jump.contains("no finite b* exists"), "{jump}");
    assert!(jump.contains("(not guaranteed)"), "{jump}");
}
