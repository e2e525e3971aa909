//! Live observability for runs and sweeps: streaming `gcs-heartbeat/v1`
//! JSONL heartbeats and the `gcs top` status renderer.
//!
//! The emitting side ([`HeartbeatEmitter`]) is deliberately decoupled from
//! the engine: callers snapshot whatever state they own into a
//! [`BeatInput`] whenever a beat is [`due`](HeartbeatEmitter::due). Beats
//! are paced by **simulated** time, so the beat sequence is a pure function
//! of the execution — identical across repeated seeded runs. Only the
//! wall-clock fields (`wall_ms`, `events_per_sec`) vary between runs, and
//! those are zeroed in deterministic mode (the `--deterministic-heartbeat`
//! flag), making the whole stream byte-reproducible for tests.
//!
//! The reading side ([`parse_stream`], [`render_top`]) is tolerant: foreign
//! or malformed lines are counted and skipped, never fatal — `gcs top` must
//! be able to tail a stream that is still being written.

mod heartbeat;
mod skewfield;
mod top;

pub use heartbeat::{BeatInput, HeartbeatEmitter, RunBeat, SweepBeat, WatchdogStatus, SCHEMA};
pub use skewfield::{SkewFieldWriter, SkewSummary, SkewWindow, SCHEMA as SKEWFIELD_SCHEMA};
pub use top::{parse_stream, render_top, Record};
