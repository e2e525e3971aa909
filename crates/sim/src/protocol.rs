//! The node-algorithm interface.

use gcs_graph::NodeId;

/// Identifier of a per-node timer slot.
///
/// Each `(node, TimerId)` pair holds at most one pending hardware-value
/// target; re-arming replaces the previous target. Protocols choose their own
/// slot numbering (e.g. `A^opt` uses slot 0 for its send trigger and slot 1
/// for the `H_v^R` multiplier reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u32);

/// A clock-synchronization algorithm running at one node.
///
/// The trait deliberately exposes only information available in the paper's
/// model: a node sees its own hardware-clock readings (passed as `ctx.hw()`),
/// the identities of neighbours it can distinguish (port numbering), and the
/// messages it receives. It never sees real time or its own clock *rate*.
///
/// Implementations must be `Clone` so whole executions can be snapshotted
/// and replayed (the paper's extended executions, Definition 7.4).
pub trait Protocol: Clone {
    /// The message type this protocol exchanges.
    type Msg: Clone + std::fmt::Debug;

    /// Called once when the node is initialized — either a spontaneous wake
    /// or, per the paper's initialization scheme, the arrival of the first
    /// message (in which case [`Protocol::on_message`] is invoked
    /// immediately afterwards with that message).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a message from neighbour `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when the hardware-value timer in slot `timer` fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId);

    /// The node's logical clock value when its hardware clock reads `hw`.
    ///
    /// Used by the engine and the analysis layer to observe `L_v(t)`; must
    /// be a pure function of protocol state and `hw` (with `hw` at or after
    /// the last event the protocol handled).
    ///
    /// **Monotonicity contract.** Between two events of this node the value
    /// must be non-decreasing in `hw` *as computed in `f64`*, down to
    /// adjacent floats — not just in exact arithmetic. A chain of correctly
    /// rounded operations that are each monotone for the protocol's
    /// positive multipliers (e.g. `l + m · (hw − h)` with `m > 0`) meets
    /// it; clamps, subtractions of `hw` and other non-monotone steps break
    /// it. The event-local skew observer's certificates are exact only
    /// under this contract, and it also expects the value never to drop
    /// across the node's own events (the model's Condition 2; it re-checks
    /// that and falls back to a full rescan if a protocol breaks it).
    ///
    /// **Rate floor.** Between two events the logical clock advances at
    /// least [`Protocol::min_rate_multiplier`] times as fast as the
    /// hardware clock. The engine multiplies the floor by the smallest
    /// hardware rate to get the rate floor α its [`ClockView`] reports, and
    /// the observer then certifies against lines of slope α rather than
    /// constants. `tests/protocol_contract.rs` checks both clauses for every
    /// registry protocol.
    ///
    /// [`ClockView`]: crate::ClockView
    fn logical_value(&self, hw: f64) -> f64;

    /// A lower bound on this protocol's logical-rate multiplier `dL/dH`
    /// between events, for the whole execution; `0` (the default) claims
    /// nothing.
    ///
    /// A nonzero floor `f` promises what the observer's f64 margin is
    /// derived from (the `gcs-analysis` `kinetic` module): `logical_value`
    /// has the form `l + m·(hw − h)` with `m ≥ f`, the clock starts at `0`
    /// when the hardware clock does and never jumps back, so `L ≥ f·H`, and
    /// the multiplier stays below `128·f`. `A^opt` and its variants run at
    /// `1` or `1 + μ` (floor `1`); the envelope variant rides its damped
    /// estimate at `(1 − ε̂)/(1 + ε̂)`.
    fn min_rate_multiplier(&self) -> f64 {
        0.0
    }

    /// The current logical-rate multiplier relative to the hardware clock
    /// (`A^opt` runs in fast mode at `1 + μ`, normal mode at `1`).
    ///
    /// Observability hook: the engine compares this after every handler and
    /// reports changes to the installed [`EventSink`] as
    /// [`EngineEvent::MultiplierChange`]. Protocols without a rate-switching
    /// mechanism keep the default of `1.0`.
    ///
    /// [`EventSink`]: crate::EventSink
    /// [`EngineEvent::MultiplierChange`]: crate::EngineEvent::MultiplierChange
    fn rate_multiplier(&self) -> f64 {
        1.0
    }
}

/// The actions a protocol may take while handling an event.
#[derive(Debug, Clone)]
pub(crate) enum Action<M> {
    Send { to: NodeId, msg: M },
    SendAll { msg: M },
    SetTimer { timer: TimerId, target_hw: f64 },
    CancelTimer { timer: TimerId },
}

/// Handle through which a protocol observes its environment and acts.
///
/// Actions are buffered and applied by the engine after the handler
/// returns, in the order they were issued. The buffer is owned by the
/// engine and reused across events, so handlers allocate nothing in
/// steady state.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    hw: f64,
    neighbors: &'a [NodeId],
    pub(crate) actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        hw: f64,
        neighbors: &'a [NodeId],
        actions: &'a mut Vec<Action<M>>,
    ) -> Self {
        Context {
            node,
            hw,
            neighbors,
            actions,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// The current reading of this node's hardware clock, `H_v`.
    pub fn hw(&self) -> f64 {
        self.hw
    }

    /// The neighbours this node can address (port numbering).
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Sends `msg` to a single neighbour.
    ///
    /// # Panics
    ///
    /// The engine panics when applying the action if `to` is not a
    /// neighbour — the model only has links in `E`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every neighbour (one send event; the engine accounts
    /// it as a single broadcast of `deg(v)` transmissions, matching the
    /// paper's message-complexity accounting in its Section 6.1).
    pub fn send_all(&mut self, msg: M) {
        self.actions.push(Action::SendAll { msg });
    }

    /// Arms timer slot `timer` to fire when this node's hardware clock
    /// reaches `target_hw`, replacing any previous target in that slot. A
    /// target at or before the current reading fires immediately (at the
    /// current instant, after the running handler returns).
    pub fn set_timer(&mut self, timer: TimerId, target_hw: f64) {
        self.actions.push(Action::SetTimer { timer, target_hw });
    }

    /// Cancels the pending target in slot `timer`, if any.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.actions.push(Action::CancelTimer { timer });
    }
}
