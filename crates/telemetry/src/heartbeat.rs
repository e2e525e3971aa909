//! The `gcs-heartbeat/v1` record types and the streaming emitter.
//!
//! Three record kinds share the schema tag:
//!
//! * `beat` — a periodic run heartbeat, paced by simulated time;
//! * `summary` — the final record of a run, with the fields of `beat`;
//! * `sweep` — per-completed-job progress of a parameter sweep.
//!
//! Field units: `t` is simulated time, `wall_ms` is wall-clock milliseconds
//! since the emitter was created, `events_per_sec` is the wall-clock event
//! rate since the previous beat.

use std::io::{self, Write};
use std::time::Instant;

use gcs_analysis::json;

/// The schema tag stamped on every record.
pub const SCHEMA: &str = "gcs-heartbeat/v1";

/// Watchdog state carried by a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogStatus {
    /// No watchdog attached to the run.
    Off,
    /// Watchdog attached, no invariant violated so far.
    Ok,
    /// Watchdog attached and tripped.
    Tripped,
}

impl WatchdogStatus {
    fn as_str(self) -> &'static str {
        match self {
            WatchdogStatus::Off => "off",
            WatchdogStatus::Ok => "ok",
            WatchdogStatus::Tripped => "tripped",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(WatchdogStatus::Off),
            "ok" => Some(WatchdogStatus::Ok),
            "tripped" => Some(WatchdogStatus::Tripped),
            _ => None,
        }
    }
}

/// Everything a run owner knows at beat time; the emitter adds pacing,
/// sequence numbers, and wall-clock derivates.
#[derive(Debug, Clone, Copy)]
pub struct BeatInput {
    /// Simulated time of the snapshot driving this beat.
    pub t: f64,
    /// Events processed so far.
    pub events: u64,
    /// Current event-queue depth.
    pub queue_depth: u64,
    /// Armed protocol timers (scheduled minus fired minus cancelled) — a
    /// proxy for pending-slab occupancy.
    pub timers_armed: u64,
    /// Messages dropped so far by the delay model itself (`lossy`-style
    /// loss).
    pub dropped_model: u64,
    /// Messages dropped so far by injected chaos faults — the per-cause
    /// split that makes chaos runs distinguishable from lossy-model runs
    /// in `gcs top`.
    pub dropped_faults: u64,
    /// Worst global skew observed so far, if a skew observer is attached.
    pub skew_global: Option<f64>,
    /// Worst neighbor skew observed so far, if available.
    pub skew_local: Option<f64>,
    /// Watchdog verdict so far.
    pub watchdog: WatchdogStatus,
}

/// A parsed `beat` or `summary` record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunBeat {
    /// True for the final `summary` record.
    pub summary: bool,
    /// Beat index within the stream, starting at 0.
    pub seq: u64,
    /// Simulated time.
    pub t: f64,
    /// Events processed so far.
    pub events: u64,
    /// Event-queue depth at the beat.
    pub queue_depth: u64,
    /// Armed protocol timers at the beat.
    pub timers_armed: u64,
    /// Model-attributed drops so far (absent in pre-split streams: 0).
    pub dropped_model: u64,
    /// Fault-attributed drops so far (absent in pre-split streams: 0).
    pub dropped_faults: u64,
    /// Worst global skew so far.
    pub skew_global: Option<f64>,
    /// Worst neighbor skew so far.
    pub skew_local: Option<f64>,
    /// Watchdog verdict so far.
    pub watchdog: WatchdogStatus,
    /// Wall-clock milliseconds since the run started (0 in deterministic
    /// mode).
    pub wall_ms: f64,
    /// Wall-clock event rate since the previous beat (0 in deterministic
    /// mode).
    pub events_per_sec: f64,
}

/// A parsed `sweep` record.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBeat {
    /// Beat index within the stream, starting at 0.
    pub seq: u64,
    /// Jobs completed so far.
    pub jobs_done: u64,
    /// Total jobs in the sweep.
    pub jobs_total: u64,
    /// Events simulated across completed jobs.
    pub events: u64,
    /// Wall-clock milliseconds since the sweep started (0 in deterministic
    /// mode).
    pub wall_ms: f64,
    /// Identifier of the last completed job.
    pub job: String,
}

/// Streams `gcs-heartbeat/v1` records to a writer, pacing run beats by
/// simulated time.
#[derive(Debug)]
pub struct HeartbeatEmitter<W: Write> {
    out: W,
    every: f64,
    next_due: f64,
    deterministic: bool,
    started: Instant,
    seq: u64,
    last_events: u64,
    last_wall_s: f64,
}

impl<W: Write> HeartbeatEmitter<W> {
    /// Creates an emitter whose first beat is due at simulated time `every`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is not strictly positive and finite.
    pub fn new(out: W, every: f64, deterministic: bool) -> Self {
        assert!(
            every > 0.0 && every.is_finite(),
            "invalid heartbeat cadence {every}"
        );
        HeartbeatEmitter {
            out,
            every,
            next_due: every,
            deterministic,
            started: Instant::now(),
            seq: 0,
            last_events: 0,
            last_wall_s: 0.0,
        }
    }

    /// Whether a run beat is due at simulated time `t`.
    pub fn due(&self, t: f64) -> bool {
        t >= self.next_due
    }

    /// Emits one `beat` record and advances the cadence past `input.t`.
    pub fn beat(&mut self, input: &BeatInput) -> io::Result<()> {
        while self.next_due <= input.t {
            self.next_due += self.every;
        }
        self.write_run(input, "beat")
    }

    /// Emits the final `summary` record. Ends the stream; cadence no longer
    /// matters.
    pub fn summary(&mut self, input: &BeatInput) -> io::Result<()> {
        self.write_run(input, "summary")
    }

    /// Emits one `sweep` record (call after each completed job).
    pub fn sweep_beat(
        &mut self,
        jobs_done: u64,
        jobs_total: u64,
        events: u64,
        job: &str,
    ) -> io::Result<()> {
        let wall_ms = if self.deterministic {
            0.0
        } else {
            self.started.elapsed().as_secs_f64() * 1e3
        };
        let mut line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"kind\":\"sweep\",\"seq\":{},\"jobs_done\":{jobs_done},\
             \"jobs_total\":{jobs_total},\"events\":{events},\"wall_ms\":",
            self.seq
        );
        json::push_f64(&mut line, wall_ms);
        line.push_str(",\"job\":");
        json::push_string(&mut line, job);
        line.push_str("}\n");
        self.seq += 1;
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }

    fn write_run(&mut self, input: &BeatInput, kind: &str) -> io::Result<()> {
        let (wall_ms, rate) = if self.deterministic {
            (0.0, 0.0)
        } else {
            let wall_s = self.started.elapsed().as_secs_f64();
            let dt = wall_s - self.last_wall_s;
            let de = input.events.saturating_sub(self.last_events);
            let rate = if dt > 0.0 { de as f64 / dt } else { 0.0 };
            self.last_wall_s = wall_s;
            (wall_s * 1e3, rate)
        };
        self.last_events = input.events;
        let mut line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"kind\":\"{kind}\",\"seq\":{},\"t\":",
            self.seq
        );
        json::push_f64(&mut line, input.t);
        line.push_str(&format!(
            ",\"events\":{},\"queue_depth\":{},\"timers_armed\":{},\"dropped_model\":{},\
             \"dropped_faults\":{},\"skew_global\":",
            input.events,
            input.queue_depth,
            input.timers_armed,
            input.dropped_model,
            input.dropped_faults
        ));
        json::push_f64(&mut line, input.skew_global.unwrap_or(f64::NAN));
        line.push_str(",\"skew_local\":");
        json::push_f64(&mut line, input.skew_local.unwrap_or(f64::NAN));
        line.push_str(&format!(
            ",\"watchdog\":\"{}\",\"wall_ms\":",
            input.watchdog.as_str()
        ));
        json::push_f64(&mut line, wall_ms);
        line.push_str(",\"events_per_sec\":");
        json::push_f64(&mut line, rate);
        line.push_str("}\n");
        self.seq += 1;
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }

    /// Consumes the emitter, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(t: f64, events: u64) -> BeatInput {
        BeatInput {
            t,
            events,
            queue_depth: 5,
            timers_armed: 2,
            dropped_model: 1,
            dropped_faults: 3,
            skew_global: Some(0.25),
            skew_local: None,
            watchdog: WatchdogStatus::Ok,
        }
    }

    #[test]
    fn cadence_paces_by_simulated_time() {
        let mut e = HeartbeatEmitter::new(Vec::new(), 2.0, true);
        assert!(!e.due(1.9));
        assert!(e.due(2.0));
        e.beat(&input(2.5, 10)).unwrap();
        // The cadence advances past the beat time, skipping missed slots.
        assert!(!e.due(3.9));
        assert!(e.due(4.0));
        e.beat(&input(9.0, 20)).unwrap();
        assert!(!e.due(9.5));
        assert!(e.due(10.0));
    }

    #[test]
    fn deterministic_beats_are_reproducible() {
        let run = || {
            let mut e = HeartbeatEmitter::new(Vec::new(), 1.0, true);
            e.beat(&input(1.0, 10)).unwrap();
            e.beat(&input(2.0, 30)).unwrap();
            e.summary(&input(3.0, 40)).unwrap();
            String::from_utf8(e.into_inner()).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "deterministic streams must be byte-identical");
        assert!(a.contains("\"wall_ms\":0"));
        assert!(a.contains("\"events_per_sec\":0"));
        assert!(a.contains("\"kind\":\"summary\""));
        assert!(a.contains("\"dropped_model\":1,\"dropped_faults\":3"));
        for line in a.lines() {
            gcs_forensics::parse_json(line).expect("every heartbeat line is valid JSON");
        }
    }

    #[test]
    fn sweep_beats_escape_job_labels() {
        let mut e = HeartbeatEmitter::new(Vec::new(), 1.0, true);
        e.sweep_beat(1, 4, 100, "eps=\"0.1\"\n").unwrap();
        let text = String::from_utf8(e.into_inner()).unwrap();
        let parsed = gcs_forensics::parse_json(text.trim()).unwrap();
        assert_eq!(
            parsed.get("job").and_then(gcs_forensics::Json::as_str),
            Some("eps=\"0.1\"\n")
        );
    }
}
