//! Hand-rolled JSONL encoding of engine event streams.
//!
//! Each [`EngineEvent`] becomes one JSON object per line with a fixed field
//! order, encoded without any serialization dependency. Numbers use Rust's
//! shortest-round-trip `Display` formatting, which is a pure function of
//! the value — so the same execution always produces the *byte-identical*
//! stream, which is what makes `gcs replay-check` a meaningful determinism
//! test.

use std::io::{self, Write};

use gcs_sim::{EngineEvent, EventSink};

/// Encodes one event as a single JSON line (no trailing newline).
///
/// Field order is fixed per event kind; `delay` is `null` for
/// receiver-hardware-targeted transmissions.
pub fn encode_event(event: &EngineEvent) -> String {
    let kind = event.kind();
    match *event {
        EngineEvent::Wake { node, t, hw } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"t":{t},"hw":{hw}}}"#,
                node.index()
            )
        }
        EngineEvent::Send { node, t, hw } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"t":{t},"hw":{hw}}}"#,
                node.index()
            )
        }
        EngineEvent::Transmit { src, dst, t, delay } => {
            let delay = match delay {
                Some(d) => d.to_string(),
                None => "null".to_owned(),
            };
            format!(
                r#"{{"kind":"{kind}","src":{},"dst":{},"t":{t},"delay":{delay}}}"#,
                src.index(),
                dst.index(),
            )
        }
        EngineEvent::Drop { src, dst, t, cause } => {
            format!(
                r#"{{"kind":"{kind}","src":{},"dst":{},"t":{t},"cause":"{}"}}"#,
                src.index(),
                dst.index(),
                cause.label(),
            )
        }
        EngineEvent::Deliver {
            src,
            dst,
            t,
            dst_hw,
        } => {
            format!(
                r#"{{"kind":"{kind}","src":{},"dst":{},"t":{t},"dst_hw":{dst_hw}}}"#,
                src.index(),
                dst.index(),
            )
        }
        EngineEvent::TimerSet {
            node,
            timer,
            target_hw,
            t,
        } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"timer":{},"target_hw":{target_hw},"t":{t}}}"#,
                node.index(),
                timer.0,
            )
        }
        EngineEvent::TimerCancel { node, timer, t } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"timer":{},"t":{t}}}"#,
                node.index(),
                timer.0,
            )
        }
        EngineEvent::TimerFire { node, timer, t, hw } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"timer":{},"t":{t},"hw":{hw}}}"#,
                node.index(),
                timer.0,
            )
        }
        EngineEvent::RateStep { node, t, rate } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"t":{t},"rate":{rate}}}"#,
                node.index(),
            )
        }
        EngineEvent::MultiplierChange {
            node,
            t,
            multiplier,
        } => {
            format!(
                r#"{{"kind":"{kind}","node":{},"t":{t},"multiplier":{multiplier}}}"#,
                node.index(),
            )
        }
    }
}

/// Writes `events` to the file at `path` in the JSONL event-log format.
///
/// # Errors
///
/// The file write failure.
pub fn write_jsonl(path: impl AsRef<std::path::Path>, events: &[EngineEvent]) -> io::Result<()> {
    let mut out = String::new();
    for event in events {
        out.push_str(&encode_event(event));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// An [`EventSink`] writing each event as one JSON line to any
/// [`Write`] target.
///
/// I/O errors are sticky: the first error stops further writing and is
/// surfaced by [`JsonlWriter::finish`]. (Sink hooks cannot return errors —
/// the engine does not know about I/O.)
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
    written: u64,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps a write target. Consider a `BufWriter` for file targets; the
    /// writer issues one `write_all` per event.
    pub fn new(out: W) -> Self {
        JsonlWriter {
            out,
            error: None,
            written: 0,
        }
    }

    /// Number of lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer, or the first I/O error
    /// encountered while recording.
    ///
    /// # Errors
    ///
    /// Returns the sticky recording error, or a flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> EventSink for JsonlWriter<W> {
    fn record(&mut self, event: &EngineEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = encode_event(event);
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// The first difference between two JSONL streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDiff {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// That line in the left stream (`None` if it ended first).
    pub left: Option<String>,
    /// That line in the right stream (`None` if it ended first).
    pub right: Option<String>,
}

/// Compares two event streams line by line; `None` means identical.
///
/// Used by `gcs replay-check` to verify that two same-seed runs produced
/// byte-identical executions.
pub fn diff_streams(left: &str, right: &str) -> Option<StreamDiff> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some(StreamDiff {
                    line,
                    left: a.map(str::to_owned),
                    right: b.map(str::to_owned),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::NodeId;
    use gcs_sim::TimerId;

    #[test]
    fn encodes_every_kind_as_one_json_line() {
        let events = [
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
        ];
        for e in &events {
            let line = encode_event(e);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            assert!(
                line.contains(&format!(r#""kind":"{}""#, e.kind())),
                "{line}"
            );
        }
        assert_eq!(
            encode_event(&events[0]),
            r#"{"kind":"wake","node":3,"t":1.5,"hw":0.25}"#
        );
        assert_eq!(
            encode_event(&events[3]),
            r#"{"kind":"transmit","src":0,"dst":1,"t":2,"delay":null}"#
        );
    }

    #[test]
    fn writer_writes_lines_and_counts() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(&EngineEvent::Drop {
            src: NodeId(0),
            dst: NodeId(1),
            t: 1.0,
            cause: gcs_sim::DropCause::Model,
        });
        w.record(&EngineEvent::Wake {
            node: NodeId(0),
            t: 2.0,
            hw: 0.0,
        });
        assert_eq!(w.written(), 2);
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn writer_errors_are_sticky() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonlWriter::new(Broken);
        w.record(&EngineEvent::Wake {
            node: NodeId(0),
            t: 0.0,
            hw: 0.0,
        });
        w.record(&EngineEvent::Wake {
            node: NodeId(0),
            t: 1.0,
            hw: 1.0,
        });
        assert_eq!(w.written(), 0);
        assert!(w.finish().is_err());
    }

    #[test]
    fn diff_finds_first_divergence() {
        assert_eq!(diff_streams("a\nb\nc", "a\nb\nc"), None);
        let d = diff_streams("a\nb\nc", "a\nx\nc").unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("x"));
        let d = diff_streams("a", "a\nb").unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.left, None);
        assert_eq!(d.right.as_deref(), Some("b"));
    }
}
