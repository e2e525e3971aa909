//! Property-based integration tests: randomized executions never violate
//! the paper's guarantees.

use clock_sync::analysis::{LegalStateChecker, SkewObserver};
use clock_sync::core::{AOpt, Params};
use clock_sync::graph::topology;
use clock_sync::sim::{rates, Engine, UniformDelay};
use clock_sync::time::{DriftBounds, EnvelopeChecker};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_opt_bounds_hold_on_random_environments(
        n in 3usize..10,
        p_edge in 0.1f64..0.5,
        graph_seed in 0u64..500,
        delay_seed in 0u64..500,
        rate_seed in 0u64..500,
        eps in 0.005f64..0.05,
        t_max in 0.05f64..0.5,
    ) {
        let params = Params::recommended(eps, t_max).unwrap();
        let g = topology::erdos_renyi(n, p_edge, graph_seed);
        let diameter = g.diameter();
        let drift = DriftBounds::new(eps).unwrap();
        let horizon = 60.0;
        let schedules = rates::random_walk(n, drift, 3.0, horizon, rate_seed);
        let mut observer = SkewObserver::new(&g);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); n])
            .delay_model(UniformDelay::new(t_max, delay_seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(horizon, |e| observer.observe(e));
        prop_assert!(observer.worst_global() <= params.global_skew_bound(diameter) + 1e-9);
        prop_assert!(observer.worst_local() <= params.local_skew_bound(diameter) + 1e-9);
    }

    #[test]
    fn a_opt_envelope_holds_on_random_environments(
        n in 2usize..8,
        rate_seed in 0u64..300,
        delay_seed in 0u64..300,
        eps in 0.005f64..0.08,
    ) {
        let t_max = 0.2;
        let params = Params::recommended(eps, t_max).unwrap();
        let g = topology::path(n);
        let drift = DriftBounds::new(eps).unwrap();
        let schedules = rates::random_walk(n, drift, 2.0, 40.0, rate_seed);
        let mut checkers = vec![EnvelopeChecker::new(drift, 0.0); n];
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); n])
            .delay_model(UniformDelay::new(t_max, delay_seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut ok = true;
        engine.run_until_observed(40.0, |e| {
            for (v, checker) in checkers.iter_mut().enumerate() {
                ok &= checker.observe(e.now(), e.logical_value(clock_sync::graph::NodeId(v)));
            }
        });
        prop_assert!(ok, "Condition (1) violated");
    }

    #[test]
    fn a_opt_legal_state_holds_on_random_environments(
        n in 3usize..8,
        rate_seed in 0u64..200,
        delay_seed in 0u64..200,
    ) {
        let (eps, t_max) = (0.02, 0.2);
        let params = Params::recommended(eps, t_max).unwrap();
        let g = topology::cycle(n.max(3));
        let drift = DriftBounds::new(eps).unwrap();
        let schedules = rates::random_walk(g.len(), drift, 4.0, 50.0, rate_seed);
        let mut checker = LegalStateChecker::new(&g, params);
        let mut engine = Engine::builder(g.clone())
            .protocols(vec![AOpt::new(params); g.len()])
            .delay_model(UniformDelay::new(t_max, delay_seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut ok = true;
        engine.run_until_observed(50.0, |e| { ok &= checker.observe(e); });
        prop_assert!(ok, "legal state violated: {:?}", checker.first_violation());
    }
}
