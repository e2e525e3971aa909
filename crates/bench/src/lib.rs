//! Shared support for the experiment harness.
//!
//! Every bench target in `benches/` regenerates one figure or table of the
//! reproduction (see `DESIGN.md` §5 and `EXPERIMENTS.md`): it prints the
//! experiment header, runs the sweep, and renders a [`gcs_analysis::Table`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod results;

pub use diff::{
    diff, direction, parse_artifact, BenchArtifact, BenchDiff, DiffRow, Direction, Status,
    ABS_FLOOR,
};
pub use results::BenchReport;

use gcs_analysis::SkewObserver;
use gcs_core::{AOpt, Params};
use gcs_graph::Graph;
use gcs_sim::{DelayModel, Engine, MessageStats, Protocol};
use gcs_time::RateSchedule;

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}

/// Result of one simulated execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Worst pairwise skew over the run.
    pub global: f64,
    /// Worst neighbour skew over the run.
    pub local: f64,
    /// Message counters.
    pub stats: MessageStats,
}

/// Runs any protocol on `graph` and measures exact worst skews.
pub fn run_protocol<P: Protocol, D: DelayModel>(
    graph: Graph,
    protocols: Vec<P>,
    delay: D,
    schedules: Vec<RateSchedule>,
    horizon: f64,
) -> RunOutcome {
    let mut observer = SkewObserver::new(&graph);
    let mut engine = Engine::builder(graph)
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| observer.observe(e));
    RunOutcome {
        global: observer.worst_global(),
        local: observer.worst_local(),
        stats: engine.message_stats().clone(),
    }
}

/// Runs `A^opt` with the given parameters.
pub fn run_aopt<D: DelayModel>(
    graph: Graph,
    params: Params,
    delay: D,
    schedules: Vec<RateSchedule>,
    horizon: f64,
) -> RunOutcome {
    let n = graph.len();
    run_protocol(graph, vec![AOpt::new(params); n], delay, schedules, horizon)
}

/// Worker-thread count for orchestrated sweeps: the host's available
/// parallelism (sweep output is byte-identical at any worker count, so
/// this only affects wall clock).
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Formats a float with 4 decimal places.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a ratio with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}
