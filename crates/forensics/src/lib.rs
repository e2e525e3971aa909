//! Trace forensics: turning recorded executions back into answers.
//!
//! PR 1 made every run a complete JSONL event stream; this crate is the
//! layer that *consumes* those streams. It parses the lines back into
//! typed [`gcs_sim::EngineEvent`]s, reconstructs the happened-before DAG
//! (program order plus send → transmit → deliver message matching) and
//! the exact per-node clock trajectories, and answers the provenance
//! queries behind the `gcs trace` subcommand family:
//!
//! * [`TraceSummary`] — per-node / per-edge event, delay, and rate-change
//!   statistics (`gcs trace summary`);
//! * [`blame()`] — locate the peak global/local skew instant and walk the
//!   causal chain of deliveries and multiplier steps that produced it
//!   (`gcs trace blame`), the mechanism of the paper's Thm 5.10 made
//!   visible;
//! * [`export_chrome`] — Chrome trace-event / Perfetto-compatible JSON,
//!   one track per node (`gcs trace export --chrome`).
//!
//! # Example
//!
//! ```
//! use gcs_forensics::{parse_stream, Dag, ClockReconstruction, TraceSummary};
//!
//! let stream = "\
//! {\"kind\":\"wake\",\"node\":0,\"t\":0,\"hw\":0}\n\
//! {\"kind\":\"wake\",\"node\":1,\"t\":0,\"hw\":0}\n\
//! {\"kind\":\"send\",\"node\":0,\"t\":1,\"hw\":1}\n\
//! {\"kind\":\"transmit\",\"src\":0,\"dst\":1,\"t\":1,\"delay\":0.5}\n\
//! {\"kind\":\"deliver\",\"src\":0,\"dst\":1,\"t\":1.5,\"dst_hw\":1.5}\n";
//! let events = parse_stream(stream).unwrap();
//! let clocks = ClockReconstruction::from_events(&events);
//! let dag = Dag::from_events(events);
//! let summary = TraceSummary::from_dag(&dag);
//! assert_eq!(summary.total_events, 5);
//! assert_eq!(dag.messages().len(), 1);
//! assert!((clocks.logical(gcs_graph::NodeId(1), 1.5).unwrap() - 1.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod blame;
pub mod chrome;
pub mod clocks;
pub mod dag;
pub mod json;
pub mod parse;
pub mod summary;

pub use blame::{blame, causal_chain, find_peaks, BlameReport, Chain, Hop, PeakReport};
pub use chrome::export_chrome;
pub use clocks::{ClockReconstruction, NodeClock, Segment};
pub use dag::{event_node, Dag, EventId, Message};
pub use json::{parse as parse_json, Json, JsonError};
pub use parse::{parse_line, parse_stream, ParseError};
pub use summary::{EdgeStats, NodeStats, TraceSummary};
