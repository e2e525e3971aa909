//! Umbrella crate for the reproduction of Lenzen, Locher & Wattenhofer,
//! *Tight Bounds for Clock Synchronization* (PODC 2009 / J. ACM 2010).
//!
//! Re-exports the workspace crates under stable module names. See the
//! individual crates for details:
//!
//! * [`time`] — clocks, rate schedules, drift bounds, condition checkers.
//! * [`graph`] — network topologies and distance computations.
//! * [`sim`] — the deterministic discrete-event execution engine.
//! * [`core`] — the `A^opt` algorithm, its variants, and baselines.
//! * [`adversary`] — the paper's worst-case execution constructions.
//! * [`analysis`] — skew traces, legal-state checking, accounting.
//! * [`sweep`] — the parallel, deterministic experiment-sweep orchestrator.
//! * [`chaos`] — seeded fault-injection scenarios, the invariant-oracle
//!   batch runner, and automatic execution shrinking.
//! * [`forensics`] — trace parsing, happened-before reconstruction, skew
//!   provenance (blame), and Chrome trace-event export.
//! * [`telemetry`] — streaming `gcs-heartbeat/v1` run progress and the
//!   `gcs top` status rendering.
//! * [`bench`] — the experiment harness and `gcs bench diff` artifact
//!   comparison.

#![forbid(unsafe_code)]

pub use gcs_adversary as adversary;
pub use gcs_analysis as analysis;
pub use gcs_bench as bench;
pub use gcs_chaos as chaos;
pub use gcs_core as core;
pub use gcs_forensics as forensics;
pub use gcs_graph as graph;
pub use gcs_sim as sim;
pub use gcs_sweep as sweep;
pub use gcs_telemetry as telemetry;
pub use gcs_time as time;
