//! Model variants of `A^opt` (paper Section 8 and remarks).
//!
//! Every variant runs on [`AOptCore`](crate::AOptCore): the logical clock,
//! the neighbour-estimate table with its incremental `Λ↑`/`Λ↓` trackers and
//! Algorithm 3's decision are shared with [`AOpt`](crate::AOpt). A variant
//! keeps only what the paper changes for it:
//!
//! * [`AOptJump`] — applies `R_v` as a jump (a mode of `AOpt` itself);
//! * [`MinGapAOpt`] — the send policy (a hard `H₀` gap between sends);
//! * [`OffsetAOpt`] — periodic sends and the `(1 − ε̂)𝒯₁` receive
//!   compensation;
//! * [`EnvelopeAOpt`] — a damped, re-anchored `L^max` and its own
//!   multiplier application (it arms the rate timer before applying);
//! * [`ExternalAOpt`] — the reference node, a damped `L^max` and the same
//!   multiplier application as the envelope variant;
//! * [`DiscreteAOpt`] — the quantized encoding, per-neighbour
//!   reconstruction (refreshing its estimate on every message) and the
//!   enlarged `κ_eff`;
//! * [`PiggybackAOpt`] — sends that ride on application traffic;
//! * [`AdaptiveAOpt`] — probes, acknowledgements and re-derived parameters.

mod adaptive;
mod discrete;
mod envelope;
mod external;
mod jump;
mod min_gap;
mod offset;
mod piggyback;

pub use adaptive::{AdaptiveAOpt, AdaptiveMsg, MsgKind};
pub use discrete::{DiscreteAOpt, DiscreteMsg};
pub use envelope::EnvelopeAOpt;
pub use external::{ExternalAOpt, ExternalMsg};
pub use jump::AOptJump;
pub use min_gap::MinGapAOpt;
pub use offset::OffsetAOpt;
pub use piggyback::{PiggybackAOpt, PiggybackMsg};
