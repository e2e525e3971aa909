//! Integration tests: the Section 8 variants and the baseline comparison.

use clock_sync::adversary::WavefrontDelay;
use clock_sync::analysis::SkewObserver;
use clock_sync::core::{
    rtt::RttProbe, AOpt, DiscreteAOpt, ExternalAOpt, MaxAlgorithm, MidpointAlgorithm, OffsetAOpt,
    Params,
};
use clock_sync::graph::{topology, NodeId};
use clock_sync::sim::{rates, ConstantDelay, DelayCtx, Delivery, Engine, FnDelay, UniformDelay};
use clock_sync::time::{DriftBounds, RateSchedule};
use rand::{Rng, SeedableRng};

#[test]
fn external_sync_accuracy_is_linear_in_distance() {
    // Section 8.5: worst lag of node v behind the reference is bounded
    // linearly in d(v, v₀).
    let eps = 5e-3;
    let t_max = 0.01;
    let params = Params::recommended(eps, t_max).unwrap();
    let n = 7;
    let g = topology::path(n);
    let drift = DriftBounds::new(eps).unwrap();
    let mut schedules = vec![RateSchedule::constant(1.0).unwrap()];
    schedules.extend(rates::random_walk(n - 1, drift, 5.0, 200.0, 3));
    let mut nodes = vec![ExternalAOpt::reference(params)];
    nodes.extend(vec![ExternalAOpt::new(params); n - 1]);
    let mut engine = Engine::builder(g)
        .protocols(nodes)
        .delay_model(UniformDelay::new(t_max, 8))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    let mut worst_lag = vec![0.0f64; n];
    engine.run_until_observed(200.0, |e| {
        for (v, lag) in worst_lag.iter_mut().enumerate() {
            let l = e.logical_value(NodeId(v));
            assert!(l <= e.now() + 1e-9, "node {v} overtook real time");
            *lag = lag.max(e.now() - l);
        }
    });
    // After the initial convergence, lag at distance d is O(d·𝒯 + ε·H₀
    // terms); check a generous linear envelope.
    for (v, &lag) in worst_lag.iter().enumerate().skip(1) {
        let allowance = (v as f64 + 2.0) * t_max + 3.0 * eps * 200.0f64.min(30.0) + 1.0;
        assert!(lag <= allowance, "node {v} lag {lag} > {allowance}");
    }
}

#[test]
fn offset_variant_matches_plain_a_opt_up_to_the_floor() {
    // A network with delays 1.0 ± 0.1: the offset variant with 𝒯₁ = 0.9
    // must do about as well as plain A^opt does with delays in [0, 0.2].
    let eps = 1e-3;
    let uncertainty = 0.2;
    let t1 = 0.9;
    let params = Params::recommended(eps, uncertainty).unwrap();
    let n = 6;
    let drift = DriftBounds::new(eps).unwrap();
    let schedules = rates::split(n, drift, |v| v % 2 == 0);

    let banded = |seed: u64| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        FnDelay::new(
            move |_: &DelayCtx<'_>| Delivery::After(rng.gen_range(t1..=t1 + uncertainty)),
            Some(t1 + uncertainty),
        )
    };
    let g = topology::path(n);
    let mut observer = SkewObserver::new(&g);
    let mut engine = Engine::builder(g)
        .protocols(vec![OffsetAOpt::new(params, t1); n])
        .delay_model(banded(4))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(300.0, |e| observer.observe(e));
    // Without compensation the skew would be ≈ (n−1)·𝒯₂ ≈ 5.5; with it the
    // bound driven by the uncertainty alone (plus H₀ staleness) applies.
    let effective_bound =
        params.global_skew_bound((n - 1) as u32) + 2.0 * eps * (n as f64) * params.h0() + 0.5;
    assert!(
        observer.worst_global() <= effective_bound,
        "offset variant skew {} suggests 𝒯₁ not compensated",
        observer.worst_global()
    );
}

#[test]
fn discrete_variant_tracks_continuous_a_opt() {
    let eps = 0.01;
    let t_max = 0.1;
    let params = Params::recommended(eps, t_max).unwrap();
    let n = 6;
    let drift = DriftBounds::new(eps).unwrap();
    let schedules = rates::split(n, drift, |v| v < n / 2);
    let g = topology::path(n);

    let run_discrete = {
        let g = g.clone();
        let schedules = schedules.clone();
        move || {
            let mut obs = SkewObserver::new(&g);
            let mut engine = Engine::builder(g.clone())
                .protocols(vec![DiscreteAOpt::new(params); n])
                .delay_model(ConstantDelay::new(t_max / 2.0))
                .rate_schedules(schedules.clone())
                .build();
            engine.wake_all_at(0.0);
            engine.run_until_observed(200.0, |e| obs.observe(e));
            obs
        }
    };
    let discrete = run_discrete();

    let mut obs = SkewObserver::new(&g);
    let mut engine = Engine::builder(g.clone())
        .protocols(vec![AOpt::new(params); n])
        .delay_model(ConstantDelay::new(t_max / 2.0))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(200.0, |e| obs.observe(e));

    // The quantized variant pays at most the documented penalties:
    // O(εDH₀) for periodic-only propagation plus quanta.
    let penalty =
        2.0 * eps * (n as f64) * params.h0() + 4.0 * params.mu() * params.h0() + params.kappa();
    assert!(
        discrete.worst_global() <= obs.worst_global() + penalty,
        "discrete {} vs continuous {} (allowed penalty {penalty})",
        discrete.worst_global(),
        obs.worst_global()
    );
}

#[test]
fn rtt_estimation_feeds_valid_params() {
    // Section 8.1 pipeline: probe the network, derive 𝒯̂, build Params.
    let t_true = 0.05;
    let eps = 0.01;
    let g = topology::cycle(5);
    let mut engine = Engine::builder(g)
        .protocols(vec![RttProbe::new(0.5, eps); 5])
        .delay_model(UniformDelay::new(t_true, 12))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(60.0);
    let t_hat = engine.protocol(NodeId(0)).t_hat_estimate();
    assert!(t_hat > 0.0 && t_hat <= 2.0 * t_true / (1.0 - eps) + 1e-9);
    let params = Params::recommended(eps, t_hat.max(t_true)).unwrap();
    assert!(params.kappa() > 0.0);
}

#[test]
fn baseline_comparison_wavefront() {
    // The headline qualitative claim: under the wavefront adversary the
    // max-forwarding baseline suffers Θ(boundary·𝒯) local skew while A^opt
    // stays within its logarithmic bound.
    let n = 20;
    let t_max = 0.3;
    let eps = 0.02;
    let boundary = 12u32;
    let g = topology::path(n);
    let mut schedules = vec![RateSchedule::constant(1.0 + eps).unwrap()];
    schedules.extend(vec![RateSchedule::constant(1.0 - eps).unwrap(); n - 1]);
    let flip = boundary as f64 * t_max / (2.0 * eps) + 30.0;
    let horizon = flip + 5.0;

    let worst_local = |obs: &SkewObserver| obs.worst_local();

    let mut obs_max = SkewObserver::new(&g);
    let mut engine = Engine::builder(g.clone())
        .protocols(vec![MaxAlgorithm::new(1.0); n])
        .delay_model(WavefrontDelay::new(&g, NodeId(0), t_max, flip, boundary))
        .rate_schedules(schedules.clone())
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| obs_max.observe(e));

    let params = Params::recommended(eps, t_max).unwrap();
    let mut obs_aopt = SkewObserver::new(&g);
    let mut engine = Engine::builder(g.clone())
        .protocols(vec![AOpt::new(params); n])
        .delay_model(WavefrontDelay::new(&g, NodeId(0), t_max, flip, boundary))
        .rate_schedules(schedules.clone())
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| obs_aopt.observe(e));

    let mut obs_mid = SkewObserver::new(&g);
    let mut engine = Engine::builder(g.clone())
        .protocols(vec![MidpointAlgorithm::new(params.h0(), params.mu()); n])
        .delay_model(WavefrontDelay::new(&g, NodeId(0), t_max, flip, boundary))
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| obs_mid.observe(e));

    assert!(worst_local(&obs_aopt) <= params.local_skew_bound((n - 1) as u32) + 1e-9);
    assert!(
        worst_local(&obs_max) > 0.4 * boundary as f64 * t_max,
        "max baseline local skew {} lacks the wavefront",
        worst_local(&obs_max)
    );
    assert!(worst_local(&obs_max) > 2.0 * worst_local(&obs_aopt));
    // The midpoint baseline, lacking the κ-quantized balancing, also loses
    // to A^opt here (its max estimate never propagates).
    assert!(worst_local(&obs_mid) + 1e-9 >= worst_local(&obs_aopt) / 4.0);
}

#[test]
fn determinism_across_full_stack() {
    // Same seeds ⇒ bit-identical skew history, across all layers.
    let run = || {
        let eps = 0.01;
        let params = Params::recommended(eps, 0.1).unwrap();
        let g = topology::erdos_renyi(10, 0.25, 3);
        let drift = DriftBounds::new(eps).unwrap();
        let schedules = rates::random_walk(10, drift, 2.0, 50.0, 4);
        let mut obs = SkewObserver::new(&g);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); 10])
            .delay_model(UniformDelay::new(0.1, 5))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(50.0, |e| obs.observe(e));
        (
            obs.worst_global(),
            obs.worst_local(),
            engine.message_stats().clone(),
        )
    };
    assert_eq!(run(), run());
}
