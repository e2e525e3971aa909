//! Engine self-profiling: where does simulation wall-time go?
//!
//! When enabled via [`EngineBuilder::profiling`](crate::EngineBuilder::profiling),
//! the engine accumulates wall-clock time per phase of its event loop:
//!
//! * **protocol** — time inside protocol handlers (`on_start`,
//!   `on_message`, `on_timer`);
//! * **delay** — time inside the delay model's `delivery` sampling;
//! * **snapshot** — time spent on per-event state observation by the
//!   installed event sink: running [`EventSink::sample`](crate::EventSink::sample),
//!   including the clock vector it builds if it reads one (for the
//!   default `gcs run` sinks, mostly the skew observer's certificate
//!   upkeep);
//! * everything else (queue operations, clock arithmetic, sink records)
//!   is the residual of the total dispatch time.
//!
//! Profiling reads [`std::time::Instant`] but never touches the event
//! queue, the clocks, or the sink, so it cannot perturb an execution:
//! event streams and results are byte-identical with profiling on or off
//! (property-tested in `tests/determinism.rs`).

use std::fmt;
use std::time::Duration;

/// Accumulated per-phase wall-time of an engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events dispatched.
    pub events: u64,
    /// Total wall-time inside [`Engine::step`](crate::Engine::step).
    pub dispatch: Duration,
    /// Wall-time inside protocol handlers.
    pub protocol: Duration,
    /// Protocol handler invocations.
    pub protocol_calls: u64,
    /// Wall-time inside the delay model.
    pub delay: Duration,
    /// Delay-model samples taken.
    pub delay_calls: u64,
    /// Wall-time in per-event sink observation: the sink's
    /// [`EventSink::sample`](crate::EventSink::sample) call, with any clock
    /// vector it builds.
    pub snapshot: Duration,
    /// Samples delivered to the sink (one per event plus one per horizon).
    pub snapshots: u64,
    /// Stale `HwDue` queue entries skipped (superseded by a later insert or
    /// a rate-change re-stamp) — included in `events`.
    pub stale_events: u64,
}

impl EngineProfile {
    /// Dispatch time not attributed to a named phase: queue operations,
    /// clock arithmetic, event-sink records.
    pub fn other(&self) -> Duration {
        self.dispatch
            .saturating_sub(self.protocol)
            .saturating_sub(self.delay)
            .saturating_sub(self.snapshot)
    }

    /// Mean time per dispatched event.
    pub fn per_event(&self) -> Duration {
        if self.events == 0 {
            Duration::ZERO
        } else {
            self.dispatch / self.events as u32
        }
    }

    /// Serializes the profile as a single `gcs-profile/v1` JSON object
    /// (one line, trailing newline).
    ///
    /// Units: every `*_seconds` field is wall-clock seconds as a decimal
    /// number; every other field is an exact integer count.
    /// `other_seconds` is the residual of [`EngineProfile::other`], so
    /// `protocol + delay + snapshot + other == dispatch` up to float
    /// rounding.
    pub fn to_json(&self) -> String {
        let s = |d: Duration| d.as_secs_f64();
        format!(
            concat!(
                "{{\"schema\":\"gcs-profile/v1\",",
                "\"events\":{},\"stale_events\":{},",
                "\"dispatch_seconds\":{},\"per_event_seconds\":{},",
                "\"protocol_seconds\":{},\"protocol_calls\":{},",
                "\"delay_seconds\":{},\"delay_calls\":{},",
                "\"snapshot_seconds\":{},\"snapshots\":{},",
                "\"other_seconds\":{}}}\n",
            ),
            self.events,
            self.stale_events,
            s(self.dispatch),
            s(self.per_event()),
            s(self.protocol),
            self.protocol_calls,
            s(self.delay),
            self.delay_calls,
            s(self.snapshot),
            self.snapshots,
            s(self.other()),
        )
    }
}

impl fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.dispatch.as_secs_f64();
        writeln!(
            f,
            "engine profile: {} events in {:.3}s ({:.2}us/event)",
            self.events,
            total,
            self.per_event().as_secs_f64() * 1e6,
        )?;
        let share = |d: Duration| {
            if total > 0.0 {
                100.0 * d.as_secs_f64() / total
            } else {
                0.0
            }
        };
        writeln!(
            f,
            "  {:<10} {:>10} {:>7} {:>10}",
            "phase", "time", "share", "calls"
        )?;
        for (name, d, calls) in [
            ("protocol", self.protocol, self.protocol_calls),
            ("delay", self.delay, self.delay_calls),
            ("snapshot", self.snapshot, self.snapshots),
            ("other", self.other(), self.events),
        ] {
            writeln!(
                f,
                "  {:<10} {:>9.4}s {:>6.1}% {:>10}",
                name,
                d.as_secs_f64(),
                share(d),
                calls,
            )?;
        }
        if self.stale_events > 0 {
            writeln!(f, "  ({} stale queue entries skipped)", self.stale_events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_and_rates() {
        let p = EngineProfile {
            events: 4,
            dispatch: Duration::from_millis(100),
            protocol: Duration::from_millis(40),
            protocol_calls: 3,
            delay: Duration::from_millis(10),
            delay_calls: 2,
            snapshot: Duration::from_millis(20),
            snapshots: 4,
            ..EngineProfile::default()
        };
        assert_eq!(p.other(), Duration::from_millis(30));
        assert_eq!(p.per_event(), Duration::from_millis(25));
        let text = p.to_string();
        assert!(text.contains("engine profile: 4 events"));
        assert!(text.contains("protocol"));
        assert!(text.contains("other"));
    }

    #[test]
    fn json_has_every_field_in_seconds() {
        let p = EngineProfile {
            events: 4,
            dispatch: Duration::from_millis(100),
            protocol: Duration::from_millis(40),
            protocol_calls: 3,
            delay: Duration::from_millis(10),
            delay_calls: 2,
            snapshot: Duration::from_millis(20),
            snapshots: 4,
            ..EngineProfile::default()
        };
        let json = p.to_json();
        assert!(json.starts_with("{\"schema\":\"gcs-profile/v1\","));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"events\":4"));
        assert!(json.contains("\"dispatch_seconds\":0.1"));
        assert!(json.contains("\"per_event_seconds\":0.025"));
        assert!(json.contains("\"other_seconds\":0.03}"));
        // Empty profiles serialize without NaNs or infinities.
        let empty = EngineProfile::default().to_json();
        assert!(!empty.contains("NaN") && !empty.contains("inf"));
    }

    #[test]
    fn empty_profile_renders() {
        let p = EngineProfile::default();
        assert_eq!(p.per_event(), Duration::ZERO);
        assert_eq!(p.other(), Duration::ZERO);
        assert!(p.to_string().contains("0 events"));
    }
}
