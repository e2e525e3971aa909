//! Measurement and verification tooling for clock-synchronization
//! executions: exact skew observation, the paper's legal-state invariant,
//! gradient profiles, complexity accounting, and table rendering for the
//! experiment harness.
//!
//! Logical clocks in the simulator are piecewise linear between events, so
//! observing at every event (a [`SkewObserver`] installed as the engine's
//! event sink) captures the *exact* extrema of any skew — there is no
//! sampling error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod clock_trace;
pub mod events;
mod gradient;
pub mod json;
mod kinetic;
mod legal;
pub mod metrics;
mod table;
mod trace;
mod watchdog;

pub use accounting::{delivery_imbalance, ComplexityReport};
pub use clock_trace::ClockTrace;
pub use events::{diff_streams, encode_event, write_jsonl, JsonlWriter, StreamDiff};
pub use gradient::GradientProfile;
pub use legal::{LegalStateChecker, LegalStateViolation};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSink};
pub use table::Table;
pub use trace::{SkewObserver, SkewSample};
pub use watchdog::{InvariantWatchdog, WatchdogTrip, WatchdogViolation};
