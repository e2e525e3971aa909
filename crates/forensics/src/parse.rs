//! Parsing `gcs run --events` JSONL streams back into typed
//! [`EngineEvent`]s.
//!
//! This is the exact inverse of [`gcs_analysis::events::encode_event`]:
//! every line the recorder can emit parses back to the event it came from
//! (see the round-trip test), and anything else — sweep JSONL rows,
//! summaries, truncated lines — fails with the line number and reason.

use std::fmt;

use gcs_graph::NodeId;
use gcs_sim::{EngineEvent, TimerId};

use crate::json::{parse as parse_json, Json};

/// A stream parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole JSONL event stream, one event per non-empty line.
///
/// # Errors
///
/// Fails on the first malformed line, reporting its 1-based number.
pub fn parse_stream(text: &str) -> Result<Vec<EngineEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|message| ParseError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Parses a recorder dump: an event stream whose last line may be the
/// trip record `{"kind":"trip","t":T}` of a window a watchdog trip froze,
/// `T` being the time of the sample that tripped. Returns the events and
/// `T`, if the dump has one.
///
/// # Errors
///
/// As [`parse_stream`]; a trip record anywhere but last is an error.
pub fn parse_dump(text: &str) -> Result<(Vec<EngineEvent>, Option<f64>), ParseError> {
    let body = text.trim_end();
    let (head, last) = body.rsplit_once('\n').unwrap_or(("", body));
    let trip = parse_json(last)
        .ok()
        .filter(|v| v.get("kind").and_then(Json::as_str) == Some("trip"));
    let Some(trip) = trip else {
        return Ok((parse_stream(text)?, None));
    };
    let t = trip
        .get("t")
        .and_then(Json::as_f64)
        .ok_or_else(|| ParseError {
            line: head.lines().count() + 1,
            message: "`trip` record: missing number field `t`".into(),
        })?;
    Ok((parse_stream(head)?, Some(t)))
}

/// Parses one JSONL line into an [`EngineEvent`].
///
/// # Errors
///
/// Returns a human-readable reason on malformed input, unknown event
/// kinds, or missing fields.
pub fn parse_line(line: &str) -> Result<EngineEvent, String> {
    let value = parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string field `kind`")?;

    let num = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{kind}` event: missing number field `{key}`"))
    };
    let node_field = |key: &str| -> Result<NodeId, String> {
        let raw = num(key)?;
        if raw < 0.0 || raw.fract() != 0.0 {
            return Err(format!("`{kind}` event: `{key}` = {raw} is not a node id"));
        }
        Ok(NodeId(raw as usize))
    };
    let timer_field = || -> Result<TimerId, String> {
        let raw = num("timer")?;
        if raw < 0.0 || raw.fract() != 0.0 {
            return Err(format!("`{kind}` event: `timer` = {raw} is not a slot"));
        }
        Ok(TimerId(raw as u32))
    };

    match kind {
        "wake" => Ok(EngineEvent::Wake {
            node: node_field("node")?,
            t: num("t")?,
            hw: num("hw")?,
        }),
        "send" => Ok(EngineEvent::Send {
            node: node_field("node")?,
            t: num("t")?,
            hw: num("hw")?,
        }),
        "transmit" => {
            let delay = match value.get("delay") {
                Some(Json::Null) => None,
                Some(Json::Num(d)) => Some(*d),
                _ => return Err("`transmit` event: `delay` must be a number or null".into()),
            };
            Ok(EngineEvent::Transmit {
                src: node_field("src")?,
                dst: node_field("dst")?,
                t: num("t")?,
                delay,
            })
        }
        "drop" => {
            // Streams written before per-cause accounting carry no
            // `cause` field; treat those as model drops.
            let cause = match value.get("cause") {
                None => gcs_sim::DropCause::Model,
                Some(Json::Str(s)) if s == "model" => gcs_sim::DropCause::Model,
                Some(Json::Str(s)) if s == "fault" => gcs_sim::DropCause::Fault,
                _ => return Err("`drop` event: `cause` must be \"model\" or \"fault\"".into()),
            };
            Ok(EngineEvent::Drop {
                src: node_field("src")?,
                dst: node_field("dst")?,
                t: num("t")?,
                cause,
            })
        }
        "deliver" => Ok(EngineEvent::Deliver {
            src: node_field("src")?,
            dst: node_field("dst")?,
            t: num("t")?,
            dst_hw: num("dst_hw")?,
        }),
        "timer_set" => Ok(EngineEvent::TimerSet {
            node: node_field("node")?,
            timer: timer_field()?,
            target_hw: num("target_hw")?,
            t: num("t")?,
        }),
        "timer_cancel" => Ok(EngineEvent::TimerCancel {
            node: node_field("node")?,
            timer: timer_field()?,
            t: num("t")?,
        }),
        "timer_fire" => Ok(EngineEvent::TimerFire {
            node: node_field("node")?,
            timer: timer_field()?,
            t: num("t")?,
            hw: num("hw")?,
        }),
        "rate_step" => Ok(EngineEvent::RateStep {
            node: node_field("node")?,
            t: num("t")?,
            rate: num("rate")?,
        }),
        "multiplier" => Ok(EngineEvent::MultiplierChange {
            node: node_field("node")?,
            t: num("t")?,
            multiplier: num("multiplier")?,
        }),
        "job" | "summary" => Err(format!(
            "`{kind}` is a sweep-result line, not an engine event; \
             trace forensics reads `gcs run --events` streams"
        )),
        "trip" => Err("a `trip` record may only end a recorder dump".into()),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_analysis::{encode_event, encode_trip};

    fn all_kinds() -> Vec<EngineEvent> {
        vec![
            EngineEvent::Wake {
                node: NodeId(3),
                t: 1.5,
                hw: 0.25,
            },
            EngineEvent::Send {
                node: NodeId(0),
                t: 2.0,
                hw: 2.0,
            },
            EngineEvent::Transmit {
                src: NodeId(0),
                dst: NodeId(1),
                t: 2.0,
                delay: Some(0.125),
            },
            EngineEvent::Transmit {
                src: NodeId(0),
                dst: NodeId(1),
                t: 2.0,
                delay: None,
            },
            EngineEvent::Drop {
                src: NodeId(1),
                dst: NodeId(0),
                t: 3.0,
                cause: gcs_sim::DropCause::Fault,
            },
            EngineEvent::Deliver {
                src: NodeId(0),
                dst: NodeId(1),
                t: 2.125,
                dst_hw: 2.1,
            },
            EngineEvent::TimerSet {
                node: NodeId(2),
                timer: TimerId(1),
                target_hw: 5.0,
                t: 2.0,
            },
            EngineEvent::TimerCancel {
                node: NodeId(2),
                timer: TimerId(1),
                t: 2.5,
            },
            EngineEvent::TimerFire {
                node: NodeId(2),
                timer: TimerId(0),
                t: 4.0,
                hw: 4.0,
            },
            EngineEvent::RateStep {
                node: NodeId(1),
                t: 6.0,
                rate: 1.01,
            },
            EngineEvent::MultiplierChange {
                node: NodeId(1),
                t: 6.5,
                multiplier: 1.14,
            },
        ]
    }

    #[test]
    fn round_trips_every_event_kind() {
        for event in all_kinds() {
            let line = encode_event(&event);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn parses_streams_with_line_numbers_on_error() {
        let stream = all_kinds()
            .iter()
            .map(encode_event)
            .collect::<Vec<_>>()
            .join("\n");
        let events = parse_stream(&stream).unwrap();
        assert_eq!(events.len(), all_kinds().len());

        let broken = format!("{stream}\nnot json at all");
        let err = parse_stream(&broken).unwrap_err();
        assert_eq!(err.line, all_kinds().len() + 1);
    }

    #[test]
    fn a_dump_may_end_in_a_trip_record() {
        let stream: String = all_kinds().iter().map(|e| encode_event(e) + "\n").collect();
        assert_eq!(parse_dump(&stream).unwrap(), (all_kinds(), None));

        let dump = format!("{stream}{}\n", encode_trip(7.25));
        assert_eq!(parse_dump(&dump).unwrap(), (all_kinds(), Some(7.25)));
        // An event log is not a dump: the trip record is not an event.
        let err = parse_stream(&dump).unwrap_err();
        assert_eq!(err.line, all_kinds().len() + 1);
        // Only the last line may carry it.
        let err = parse_dump(&format!("{}\n{stream}", encode_trip(7.25))).unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_dump(&format!("{stream}{{\"kind\":\"trip\"}}")).unwrap_err();
        assert_eq!(err.line, all_kinds().len() + 1);
    }

    #[test]
    fn rejects_sweep_rows_with_guidance() {
        let err = parse_line(r#"{"kind":"job","job":0}"#).unwrap_err();
        assert!(err.contains("sweep-result"), "{err}");
        let err = parse_line(r#"{"kind":"warp","t":0}"#).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }
}
