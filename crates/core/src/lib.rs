//! The `A^opt` gradient clock-synchronization algorithm of Lenzen, Locher &
//! Wattenhofer, *Tight Bounds for Clock Synchronization* (PODC 2009 /
//! J. ACM 2010), together with its model variants and baseline algorithms.
//!
//! # The algorithm
//!
//! [`AOpt`] implements the paper's Algorithms 1–4 exactly: nodes broadcast
//! `⟨L_v, L_v^max⟩` whenever their maximum-clock estimate reaches a multiple
//! of `H₀`, immediately forward larger estimates, and switch their logical
//! clock between the hardware rate and `(1 + μ)` times the hardware rate
//! according to the integer-multiple-of-`κ` balancing rule of `setClockRate`
//! ([`rate_rule`]). [`Params`] validates the constraints (Eqs. 4–6) and
//! computes the proven bounds: global skew `𝒢 = (1+ε̂)D𝒯̂ + 2ε̂/(1+ε̂)H₀`
//! (Theorem 5.5) and local skew `κ(⌈log_σ(2𝒢/κ)⌉ + ½)` (Theorem 5.10).
//! The logical clock, the neighbour-estimate table and the `setClockRate`
//! decision live in [`AOptCore`], which `AOpt`, every variant below and
//! [`MidpointAlgorithm`] share.
//!
//! # Variants (paper Section 8 and remarks)
//!
//! * [`AOptJump`] — unbounded logical rates (`β = ∞`): the computed increase
//!   `R_v` is applied instantly (remark after Theorem 5.10).
//! * [`ExternalAOpt`] — external synchronization against a real-time source
//!   node (Section 8.5).
//! * [`OffsetAOpt`] — delays bounded away from zero, `[𝒯₁, 𝒯₂]`
//!   (Section 8.3).
//! * [`EnvelopeAOpt`] — the sharpened hardware-envelope condition
//!   `min_w H_w ≤ L_v ≤ max_w H_w` (Section 8.6).
//! * [`MinGapAOpt`] — a hard minimum gap of `H₀` between sends, bounding
//!   the instantaneous (not just amortized) message frequency
//!   (Section 6.1).
//! * [`DiscreteAOpt`] — discretized message encoding with `O(log 1/μ̂)` bit
//!   complexity (Section 6.2).
//! * [`rtt`] — round-trip-time estimation of an unknown `𝒯` (Section 8.1).
//!
//! # Baselines
//!
//! * [`MaxAlgorithm`] — Srikanth–Toueg-style maximum forwarding: optimal
//!   global skew, but `Θ(D)`-ish local skew under adversarial delays.
//! * [`MidpointAlgorithm`] — the "obvious" bounded-rate averaging strategy
//!   the paper warns about (Section 4.2): no sublinear gradient property.
//! * [`NoSync`] — hardware passthrough (control).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aopt;
mod aopt_core;
mod baselines;
mod params;
pub mod rate_rule;
pub mod rtt;
mod variants;

pub use aopt::{AOpt, AOptMsg};
pub use aopt_core::AOptCore;
pub use baselines::{MaxAlgorithm, MaxMsg, MidpointAlgorithm, MidpointMsg, NoSync};
pub use params::{binding_level, ParamError, Params};
pub use variants::{
    AOptJump, AdaptiveAOpt, AdaptiveMsg, DiscreteAOpt, DiscreteMsg, EnvelopeAOpt, ExternalAOpt,
    ExternalMsg, MinGapAOpt, MsgKind, OffsetAOpt, PiggybackAOpt, PiggybackMsg,
};
