//! # gcs-chaos — seeded fault-injection scenario engine
//!
//! VOPR-style chaos testing for the gradient clock-synchronization
//! simulator: deterministic scenarios described by a small DSL
//! ([`ChaosSpec`], the `.chaos` document format), compiled onto the
//! adversary layer ([`gcs_adversary::ChaosDelay`] over the sweep's delay
//! substrate), executed through the ordinary engine event path with the
//! paper's invariant watchdog as the online **oracle**:
//!
//! * **Condition (1)** — the affine envelope of real time;
//! * **Condition (2)** — bounded per-node progress;
//! * **Definition 5.6** — the legal-state invariant.
//!
//! The fault taxonomy ([`gcs_adversary::FaultClause::violation_allowed`])
//! splits violations into *expected* (an out-of-model clause — a rate
//! outside the drift bounds, a clog beyond 𝒯̂, a partition — broke an
//! assumption the paper's proofs need) and **unexpected** (every clause
//! stayed in-model, yet an invariant broke): the latter are findings.
//!
//! Three entry points:
//!
//! * [`run_scenario`] — one scenario, one verdict;
//! * [`run_batch`] — thousands of seed-randomized scenarios
//!   ([`random_spec`]) on the sweep worker pool, findings auto-shrunk;
//! * [`shrink()`] — delta-debugging minimization of a violating scenario to
//!   a locally-minimal, byte-identically-reproducible `.chaos` fixture.

pub mod batch;
pub mod random;
pub mod run;
pub mod shrink;
pub mod spec;

pub use batch::{run_batch, BatchConfig, BatchSummary, Finding, ScenarioVerdict};
pub use random::{random_spec, SplitMix64};
pub use run::{run_scenario, ScenarioOutcome};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::{ChaosSpec, ExpectedViolation};
