//! TDMA slot scheduling in a wireless sensor network — the paper's
//! motivating application (its footnote 1: "a prominent example is TDMA in
//! wireless networks where nodes depend on locally well synchronized time
//! slots").
//!
//! ```sh
//! cargo run --example sensor_network_tdma
//! ```
//!
//! A random geometric graph models the radio deployment. TDMA only needs
//! *neighbouring* nodes to agree on slot boundaries — exactly the gradient
//! property: the guard interval must absorb the worst-case **local** skew,
//! not the global one. This example sizes the guard interval from
//! Theorem 5.10 and validates it against an adversarial simulation.

use clock_sync::analysis::{SkewObserver, Table};
use clock_sync::core::{AOpt, Params};
use clock_sync::graph::topology;
use clock_sync::sim::{rates, Engine, UniformDelay};
use clock_sync::time::DriftBounds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Radio environment: 60 motes in a unit square, radio range 0.25;
    // MAC-layer timestamping gives a delay uncertainty of 2 ms; cheap
    // crystals drift by up to 50 ppm... scaled here to 0.5% so that a short
    // simulation exercises the same regime (drift × duration ≈ skew scale).
    let epsilon = 5e-3;
    let t_max = 0.002;
    let drift = DriftBounds::new(epsilon)?;
    let graph = topology::random_geometric(60, 0.25, 2024);
    let n = graph.len();
    let diameter = graph.diameter();

    let params = Params::recommended(epsilon, t_max)?;
    let guard = params.local_skew_bound(diameter);

    println!(
        "deployment: {n} motes, diameter {diameter}, max degree {}",
        graph.max_degree()
    );
    println!("slot guard interval from Thm 5.10: {:.4} ms", guard * 1e3);
    println!(
        "(a global-skew-based guard would need {:.4} ms — {}× larger)",
        params.global_skew_bound(diameter) * 1e3,
        (params.global_skew_bound(diameter) / guard).round()
    );

    // Adversarial-ish environment: drift random walks + uniform delays.
    let horizon = 60.0;
    let schedules = rates::random_walk(n, drift, 3.0, horizon, 5);
    let mut observer = SkewObserver::new(&graph);
    let edges: Vec<_> = graph.edges().collect();
    // (t, global skew, local skew), at most one sample per 5 s.
    let mut samples = Vec::new();
    let mut next_sample_at = 0.0;
    let mut engine = Engine::builder(graph.clone())
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 99))
        .rate_schedules(schedules)
        .build();
    engine.wake(clock_sync::graph::NodeId(0), 0.0);
    engine.run_until_observed(horizon, |e| {
        observer.observe(e);
        if e.now() >= next_sample_at {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            let local = edges
                .iter()
                .map(|&(a, b)| (clocks[a.index()] - clocks[b.index()]).abs())
                .fold(0.0, f64::max);
            samples.push((e.now(), max - min, local));
            next_sample_at = e.now() + 5.0;
        }
    });

    let mut table = Table::new(vec!["t (s)", "global skew (ms)", "local skew (ms)"]);
    for (t, global, local) in samples {
        table.row(vec![
            format!("{t:.0}"),
            format!("{:.4}", global * 1e3),
            format!("{:.4}", local * 1e3),
        ]);
    }
    println!("\n{table}");

    let worst_local_ms = observer.worst_local() * 1e3;
    println!(
        "worst local skew ever: {worst_local_ms:.4} ms (guard {:.4} ms)",
        guard * 1e3
    );
    assert!(observer.worst_local() <= guard, "guard interval violated!");

    // Slot accounting: size the slot so the guard costs 20% of capacity.
    let slot = guard * 5.0;
    println!(
        "minimum slot for 80% TDMA efficiency: {:.1} ms (guard overhead {:.1}%)",
        slot * 1e3,
        guard / slot * 100.0
    );
    println!(
        "with the *measured* worst local skew instead, slots of {:.1} ms would do",
        observer.worst_local() * 5.0 * 1e3
    );
    Ok(())
}
