//! Integration tests: the paper's upper-bound theorems hold across
//! topologies and adversarial environments.

use clock_sync::analysis::{GradientProfile, LegalStateChecker, SkewObserver};
use clock_sync::core::{AOpt, Params};
use clock_sync::graph::{topology, Graph, NodeId};
use clock_sync::sim::{rates, ConstantDelay, DirectionalDelay, Engine, UniformDelay};
use clock_sync::time::{DriftBounds, EnvelopeChecker, ProgressChecker, RateEnvelope};

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.25;

fn params() -> Params {
    Params::recommended(EPS, T_MAX).unwrap()
}

fn drift() -> DriftBounds {
    DriftBounds::new(EPS).unwrap()
}

/// Runs A^opt on `graph` under the given schedules/delays and returns the
/// worst observed (global, local) skews, asserting the theorem bounds.
fn run_and_check(
    graph: Graph,
    schedules: Vec<clock_sync::time::RateSchedule>,
    horizon: f64,
    seed: u64,
) -> (f64, f64) {
    let p = params();
    let n = graph.len();
    let diameter = graph.diameter();
    let mut observer = SkewObserver::new(&graph);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(UniformDelay::new(T_MAX, seed))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| observer.observe(e));
    let g_bound = p.global_skew_bound(diameter);
    let l_bound = p.local_skew_bound(diameter);
    assert!(
        observer.worst_global() <= g_bound + 1e-9,
        "Thm 5.5 violated: {} > {g_bound}",
        observer.worst_global()
    );
    assert!(
        observer.worst_local() <= l_bound + 1e-9,
        "Thm 5.10 violated: {} > {l_bound}",
        observer.worst_local()
    );
    (observer.worst_global(), observer.worst_local())
}

#[test]
fn bounds_hold_on_paths_with_split_drift() {
    let n = 12;
    let g = topology::path(n);
    let schedules = rates::split(n, drift(), |v| v < n / 2);
    let (global, local) = run_and_check(g, schedules, 150.0, 1);
    assert!(global > 0.0 && local > 0.0);
}

#[test]
fn bounds_hold_on_cycles_with_alternating_drift() {
    let n = 10;
    let g = topology::cycle(n);
    let schedules = rates::alternating(n, drift(), 9.0, 150.0);
    run_and_check(g, schedules, 150.0, 2);
}

#[test]
fn bounds_hold_on_grids_with_random_walk_drift() {
    let g = topology::grid(4, 3);
    let schedules = rates::random_walk(12, drift(), 4.0, 120.0, 11);
    run_and_check(g, schedules, 120.0, 3);
}

#[test]
fn bounds_hold_on_trees_and_stars() {
    let g = topology::binary_tree(15);
    let schedules = rates::split(15, drift(), |v| v % 3 == 0);
    run_and_check(g, schedules, 100.0, 4);

    let g = topology::star(9);
    let schedules = rates::split(9, drift(), |v| v == 0);
    run_and_check(g, schedules, 100.0, 5);
}

#[test]
fn bounds_hold_on_random_graphs() {
    for seed in 0..3 {
        let g = topology::erdos_renyi(14, 0.2, seed);
        let schedules = rates::random_walk(14, drift(), 6.0, 100.0, seed);
        run_and_check(g, schedules, 100.0, seed + 10);
    }
}

#[test]
fn bounds_hold_under_directional_worst_case_delays() {
    let p = params();
    let n = 10;
    let g = topology::path(n);
    let schedules = rates::split(n, drift(), |v| v < n / 2);
    // Slow every away-from-v₀ link: the maximum estimate (originating at
    // the fast half around v₀) reaches the tail a full D·𝒯 late.
    let delay = DirectionalDelay::new(&g, NodeId(0), 0.0, T_MAX);
    let mut observer = SkewObserver::new(&g);
    let mut engine = Engine::builder(g.clone())
        .protocols(vec![AOpt::new(p); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(200.0, |e| observer.observe(e));
    assert!(observer.worst_global() <= p.global_skew_bound((n - 1) as u32) + 1e-9);
    assert!(observer.worst_local() <= p.local_skew_bound((n - 1) as u32) + 1e-9);
    // This adversary actually builds real skew.
    assert!(observer.worst_global() > T_MAX / 2.0);
}

#[test]
fn staggered_initialization_respects_bounds() {
    // Only node 0 self-wakes; everyone else is initialized by the flood.
    let p = params();
    let n = 9;
    let g = topology::path(n);
    let schedules = rates::split(n, drift(), |v| v % 2 == 1);
    let mut observer = SkewObserver::new(&g);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(UniformDelay::new(T_MAX, 77))
        .rate_schedules(schedules)
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until_observed(150.0, |e| observer.observe(e));
    assert!(observer.worst_global() <= p.global_skew_bound((n - 1) as u32) + 1e-9);
}

#[test]
fn envelope_and_progress_conditions_hold_everywhere() {
    let p = params();
    let n = 8;
    let g = topology::cycle(n);
    let schedules = rates::random_walk(n, drift(), 3.0, 100.0, 21);
    let (alpha, beta) = p.rate_envelope();
    let env = RateEnvelope::new(alpha, beta);
    let envelope = vec![EnvelopeChecker::new(drift(), 0.0, 1e-9); n];
    let mut progress = vec![ProgressChecker::new(env, 1e-9); n];
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(UniformDelay::new(T_MAX, 33))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(100.0, |e| {
        for v in 0..n {
            let l = e.logical_value(NodeId(v));
            assert!(
                envelope[v].observe(e.now(), l),
                "Condition (1) violated at {v}"
            );
            assert!(
                progress[v].observe(e.now(), l),
                "Condition (2) violated at {v}"
            );
        }
    });
}

#[test]
fn legal_state_invariant_holds() {
    let p = params();
    let n = 10;
    let g = topology::path(n);
    let schedules = rates::split(n, drift(), |v| v < n / 2);
    let mut checker = LegalStateChecker::new(&g, p);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(UniformDelay::new(T_MAX, 55))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(200.0, |e| {
        assert!(
            checker.observe(e),
            "legal state violated: {:?}",
            checker.first_violation()
        );
    });
}

#[test]
fn gradient_profile_shape_is_sublinear() {
    // Corollary 7.9's shape: worst skew at distance d grows like
    // d·(1 + log(D/d)) — in particular the per-hop average at distance 1 is
    // at least the per-hop average at distance D.
    let p = params();
    let n = 12;
    let g = topology::path(n);
    let schedules = rates::alternating(n, drift(), 13.0, 250.0);
    let mut profile = GradientProfile::new(&g);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(UniformDelay::new(T_MAX, 13))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(250.0, |e| profile.observe(e));
    let avg = profile.average_by_distance();
    assert!(avg[1] >= avg[n - 1] - 1e-9);
    // Worst skew is monotone-ish in distance: distance D carries at least
    // as much total skew as distance 1.
    let worst = profile.worst_by_distance();
    assert!(worst[n - 1] >= worst[1] - 1e-9 || worst[1] <= p.local_skew_bound((n - 1) as u32));
}

#[test]
fn benign_constant_delay_network_is_very_tight() {
    // With zero drift and constant delays, skews collapse to ~κ scale.
    let p = params();
    let n = 8;
    let g = topology::path(n);
    let mut observer = SkewObserver::new(&g);
    let mut engine = Engine::builder(g)
        .protocols(vec![AOpt::new(p); n])
        .delay_model(ConstantDelay::new(T_MAX / 2.0))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(100.0, |e| observer.observe(e));
    assert!(observer.worst_global() <= 2.0 * p.kappa());
}
