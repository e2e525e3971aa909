//! Deterministic discrete-event simulator for clock-synchronization
//! algorithms under the model of Lenzen, Locher & Wattenhofer, *Tight Bounds
//! for Clock Synchronization* (PODC 2009 / J. ACM 2010).
//!
//! An *execution* in the paper's Section 3 is an assignment of (i) a
//! hardware-clock rate function `h_v(t) ∈ [1 − ε, 1 + ε]` to every node and
//! (ii) a delay in `[0, 𝒯]` to every message. This crate realizes exactly
//! that class of executions:
//!
//! * [`Engine`] — the event loop. Events are processed in deterministic
//!   `(time, sequence)` order; hardware clocks advance lazily between
//!   events, so the engine performs no per-tick work.
//! * [`Protocol`] — the node-algorithm interface. Protocols observe *only*
//!   what the model allows: their own hardware clock readings, the messages
//!   they receive, and per-neighbour ports. They act by sending messages and
//!   by arming **hardware-value timers** ("wake me when my hardware clock
//!   reads `x`"), the primitive needed by the paper's Algorithm 1 (send when
//!   `L_v^max` reaches a multiple of `H₀`) and Algorithm 4 (reset the rate
//!   multiplier when `H_v` reaches `H_v^R`).
//! * [`DelayModel`] — decides each message's delivery. Besides plain delays,
//!   a model may request delivery *when the receiver's hardware clock
//!   reaches a value* — the "shifting" rule with which the paper constructs
//!   indistinguishable executions (its Definition 7.1). The engine
//!   reschedules both timers and such deliveries whenever a hardware rate
//!   changes.
//! * The whole world is `Clone`, giving the snapshot/replay needed for the
//!   paper's *extended executions* (Definition 7.4): simulate `E`, inspect
//!   it, rewind, and run the modified `Ē`.
//!
//! # Example
//!
//! ```
//! use gcs_graph::topology;
//! use gcs_sim::{ConstantDelay, Context, Engine, Protocol, TimerId};
//!
//! /// A trivial protocol: on start, say hello to all neighbours.
//! #[derive(Clone, Debug)]
//! struct Hello {
//!     heard: usize,
//! }
//!
//! impl Protocol for Hello {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         ctx.send_all(());
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: gcs_graph::NodeId, _msg: ()) {
//!         self.heard += 1;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _timer: TimerId) {}
//!     fn logical_value(&self, hw: f64) -> f64 {
//!         hw
//!     }
//! }
//!
//! let graph = topology::path(3);
//! let mut engine = Engine::builder(graph)
//!     .protocols(vec![Hello { heard: 0 }; 3])
//!     .delay_model(ConstantDelay::new(0.1))
//!     .build();
//! engine.wake_all_at(0.0);
//! engine.run_until(1.0);
//! assert_eq!(engine.protocol(gcs_graph::NodeId(1)).heard, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod engine;
mod pending;
pub mod profile;
mod protocol;
mod queue;
pub mod rates;
pub mod sink;
mod ticked;

pub use delay::{
    ConstantDelay, DelayCtx, DelayModel, Delivery, DirectionalDelay, DropCause, FnDelay, Lookahead,
    LossyDelay, UniformDelay,
};
pub use engine::{Engine, EngineBuilder, MessageStats};
pub use profile::EngineProfile;
pub use protocol::{Context, Protocol, TimerId};
pub use sink::{
    ClockView, EngineEvent, EventSink, NullSink, RecorderSink, VecSink, DEFAULT_RECORDER_FRAMES,
    DEFAULT_RECORDER_PARTITIONS, KIND_COUNT, KIND_LABELS,
};
pub use ticked::Ticked;
