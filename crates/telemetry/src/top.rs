//! Reading side of the heartbeat stream: tolerant JSONL parsing and the
//! `gcs top` status rendering.

use gcs_forensics::{parse_json, Json};

use crate::heartbeat::{RunBeat, SweepBeat, WatchdogStatus, SCHEMA};
use crate::skewfield::{SkewSummary, SkewWindow, SCHEMA as SKEWFIELD_SCHEMA};

/// One parsed heartbeat record of either flavor.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A `beat` or `summary` run record.
    Run(RunBeat),
    /// A `sweep` progress record.
    Sweep(SweepBeat),
    /// A `gcs-skewfield/v1` window record.
    SkewWindow(SkewWindow),
    /// A `gcs-skewfield/v1` summary record.
    SkewSummary(SkewSummary),
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn int(v: &Json, key: &str) -> Option<u64> {
    num(v, key).map(|f| f as u64)
}

fn opt_num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Json::Null) | None => None,
        Some(j) => j.as_f64(),
    }
}

fn edge(v: &Json, key: &str) -> Option<(usize, usize)> {
    let arr = v.get(key)?.as_arr().filter(|a| a.len() == 2)?;
    let idx = |j: &Json| j.as_f64().filter(|f| *f >= 0.0 && f.fract() == 0.0);
    Some((idx(&arr[0])? as usize, idx(&arr[1])? as usize))
}

fn parse_skewfield(v: &Json) -> Option<Record> {
    match v.get("kind").and_then(Json::as_str)? {
        "window" => Some(Record::SkewWindow(SkewWindow {
            seq: int(v, "seq")?,
            t0: num(v, "t0")?,
            t1: num(v, "t1")?,
            samples: int(v, "samples")?,
            edges: int(v, "edges")?,
            max: num(v, "max")?,
            max_edge: edge(v, "max_edge")?,
            p99: num(v, "p99")?,
            mean: num(v, "mean")?,
        })),
        "summary" => Some(Record::SkewSummary(SkewSummary {
            windows: int(v, "windows")?,
            samples: int(v, "samples")?,
            worst: num(v, "worst")?,
            worst_edge: edge(v, "worst_edge")?,
            worst_t: num(v, "worst_t")?,
        })),
        _ => None,
    }
}

fn parse_line(line: &str) -> Option<Record> {
    let v = parse_json(line).ok()?;
    match v.get("schema").and_then(Json::as_str) {
        Some(s) if s == SKEWFIELD_SCHEMA => return parse_skewfield(&v),
        Some(s) if s == SCHEMA => {}
        _ => return None,
    }
    match v.get("kind").and_then(Json::as_str)? {
        "sweep" => Some(Record::Sweep(SweepBeat {
            seq: int(&v, "seq")?,
            jobs_done: int(&v, "jobs_done")?,
            jobs_total: int(&v, "jobs_total")?,
            events: int(&v, "events")?,
            wall_ms: num(&v, "wall_ms").unwrap_or(0.0),
            job: v.get("job").and_then(Json::as_str)?.to_string(),
            session: v.get("session").and_then(Json::as_str).map(str::to_string),
        })),
        kind @ ("beat" | "summary") => Some(Record::Run(RunBeat {
            summary: kind == "summary",
            seq: int(&v, "seq")?,
            t: num(&v, "t")?,
            events: int(&v, "events")?,
            queue_depth: int(&v, "queue_depth")?,
            timers_armed: int(&v, "timers_armed")?,
            // Absent in pre-split streams; default to 0 so old files
            // still render.
            dropped_model: int(&v, "dropped_model").unwrap_or(0),
            dropped_faults: int(&v, "dropped_faults").unwrap_or(0),
            skew_global: opt_num(&v, "skew_global"),
            skew_local: opt_num(&v, "skew_local"),
            watchdog: WatchdogStatus::parse(v.get("watchdog").and_then(Json::as_str)?)?,
            wall_ms: num(&v, "wall_ms").unwrap_or(0.0),
            events_per_sec: num(&v, "events_per_sec").unwrap_or(0.0),
        })),
        _ => None,
    }
}

/// Parses a heartbeat stream line by line. Returns the recognized records
/// and the number of skipped lines (malformed, truncated mid-write, or
/// foreign schemas) — skipping is deliberate, `gcs top` tails live files.
pub fn parse_stream(text: &str) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

fn fmt_skew(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.6}"),
        None => "-".to_string(),
    }
}

/// Renders a status table from a parsed stream: the most recent run beats,
/// the run summary if the stream has finished, and sweep progress.
/// Purely a function of the records, so deterministic streams render
/// deterministically.
pub fn render_top(records: &[Record], skipped: usize) -> String {
    const SHOWN: usize = 10;
    let runs: Vec<&RunBeat> = records
        .iter()
        .filter_map(|r| match r {
            Record::Run(b) => Some(b),
            _ => None,
        })
        .collect();
    let sweeps: Vec<&SweepBeat> = records
        .iter()
        .filter_map(|r| match r {
            Record::Sweep(b) => Some(b),
            _ => None,
        })
        .collect();
    let skew_windows: Vec<&SkewWindow> = records
        .iter()
        .filter_map(|r| match r {
            Record::SkewWindow(w) => Some(w),
            _ => None,
        })
        .collect();
    let skew_summary = records.iter().rev().find_map(|r| match r {
        Record::SkewSummary(s) => Some(s),
        _ => None,
    });

    let mut out = format!(
        "gcs top — {} heartbeat record(s), {} line(s) skipped\n",
        records.len(),
        skipped
    );

    if !runs.is_empty() {
        out.push_str(&format!(
            "\n{:>5} {:>12} {:>10} {:>10} {:>7} {:>7} {:>8} {:>8} {:>10} {:>10}  {}\n",
            "seq",
            "t",
            "events",
            "ev/s",
            "queue",
            "timers",
            "drop_mdl",
            "drop_flt",
            "skew_glb",
            "skew_loc",
            "watchdog"
        ));
        let tail = &runs[runs.len().saturating_sub(SHOWN)..];
        for b in tail {
            out.push_str(&format!(
                "{:>5} {:>12.4} {:>10} {:>10.0} {:>7} {:>7} {:>8} {:>8} {:>10} {:>10}  {}{}\n",
                b.seq,
                b.t,
                b.events,
                b.events_per_sec,
                b.queue_depth,
                b.timers_armed,
                b.dropped_model,
                b.dropped_faults,
                fmt_skew(b.skew_global),
                fmt_skew(b.skew_local),
                match b.watchdog {
                    WatchdogStatus::Off => "off",
                    WatchdogStatus::Ok => "ok",
                    WatchdogStatus::Tripped => "TRIPPED",
                },
                if b.summary { "  (summary)" } else { "" },
            ));
        }
        if runs.len() > SHOWN {
            out.push_str(&format!(
                "({} earlier beat(s) not shown)\n",
                runs.len() - SHOWN
            ));
        }
        let last = runs[runs.len() - 1];
        out.push_str(&format!(
            "\nrun: t {}  events {}  queue {}  dropped {}+{}  watchdog {}\n",
            last.t,
            last.events,
            last.queue_depth,
            last.dropped_model,
            last.dropped_faults,
            last.watchdog_str(),
        ));
    }

    if !skew_windows.is_empty() || skew_summary.is_some() {
        out.push_str(&format!(
            "\n{:>5} {:>10} {:>10} {:>10} {:>10} {:>10}  {}\n",
            "win", "t0", "t1", "max", "p99", "mean", "max_edge"
        ));
        let tail = &skew_windows[skew_windows.len().saturating_sub(SHOWN)..];
        for w in tail {
            out.push_str(&format!(
                "{:>5} {:>10.4} {:>10.4} {:>10.6} {:>10.6} {:>10.6}  {}-{}\n",
                w.seq, w.t0, w.t1, w.max, w.p99, w.mean, w.max_edge.0, w.max_edge.1
            ));
        }
        if skew_windows.len() > SHOWN {
            out.push_str(&format!(
                "({} earlier window(s) not shown)\n",
                skew_windows.len() - SHOWN
            ));
        }
        if let Some(s) = skew_summary {
            out.push_str(&format!(
                "skew-field: {} window(s)  worst {:.6} on edge {}-{} at t {:.4}\n",
                s.windows, s.worst, s.worst_edge.0, s.worst_edge.1, s.worst_t
            ));
        }
    }

    if let Some(last) = sweeps.last() {
        let events: u64 = last.events;
        out.push_str(&format!(
            "\nsweep: {}/{} job(s) done  events {}  last job \"{}\"\n",
            last.jobs_done, last.jobs_total, events, last.job
        ));
    }

    if runs.is_empty() && sweeps.is_empty() && skew_windows.is_empty() && skew_summary.is_none() {
        out.push_str("(no heartbeat records found)\n");
    }
    out
}

impl RunBeat {
    fn watchdog_str(&self) -> &'static str {
        match self.watchdog {
            WatchdogStatus::Off => "off",
            WatchdogStatus::Ok => "ok",
            WatchdogStatus::Tripped => "TRIPPED",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::{BeatInput, HeartbeatEmitter};

    fn emitted_stream() -> String {
        let mut e = HeartbeatEmitter::new(Vec::new(), 1.0, 0.0, true);
        for i in 1..=12u64 {
            e.beat(&BeatInput {
                t: i as f64,
                events: i * 100,
                queue_depth: 8,
                timers_armed: 3,
                dropped_model: 2,
                dropped_faults: i,
                skew_global: Some(0.125 * i as f64),
                skew_local: Some(0.01),
                watchdog: WatchdogStatus::Ok,
            })
            .unwrap();
        }
        e.summary(&BeatInput {
            t: 13.0,
            events: 1300,
            queue_depth: 0,
            timers_armed: 0,
            dropped_model: 2,
            dropped_faults: 12,
            skew_global: Some(1.5),
            skew_local: Some(0.01),
            watchdog: WatchdogStatus::Ok,
        })
        .unwrap();
        e.sweep_beat(3, 9, 5000, "eps=0.05").unwrap();
        String::from_utf8(e.into_inner()).unwrap()
    }

    #[test]
    fn parses_own_stream_round_trip() {
        let text = emitted_stream();
        let (records, skipped) = parse_stream(&text);
        assert_eq!(skipped, 0, "own stream must parse fully");
        assert_eq!(records.len(), 14);
        let Record::Run(last_run) = &records[12] else {
            panic!("record 12 should be the summary");
        };
        assert!(last_run.summary);
        assert_eq!(last_run.events, 1300);
        assert_eq!(
            (last_run.dropped_model, last_run.dropped_faults),
            (2, 12),
            "per-cause drop split survives the round trip"
        );
        let Record::Sweep(sweep) = &records[13] else {
            panic!("record 13 should be the sweep beat");
        };
        assert_eq!((sweep.jobs_done, sweep.jobs_total), (3, 9));
    }

    #[test]
    fn foreign_and_torn_lines_are_skipped_not_fatal() {
        let mut text = String::from("{\"schema\":\"other/v9\",\"x\":1}\nnot json at all\n");
        text.push_str(&emitted_stream());
        text.push_str("{\"schema\":\"gcs-heartbeat/v1\",\"kind\":\"beat\",\"seq\":99,\"t\":"); // torn
        let (records, skipped) = parse_stream(&text);
        assert_eq!(records.len(), 14);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn render_shows_status_and_caps_rows() {
        let (records, skipped) = parse_stream(&emitted_stream());
        let text = render_top(&records, skipped);
        assert!(text.contains("14 heartbeat record(s)"));
        assert!(text.contains("watchdog ok"));
        assert!(text.contains("(summary)"));
        assert!(text.contains("dropped 2+12"));
        assert!(text.contains("sweep: 3/9 job(s) done"));
        assert!(text.contains("earlier beat(s) not shown"));
        assert_eq!(
            text,
            render_top(&records, skipped),
            "rendering is deterministic"
        );
    }

    #[test]
    fn skewfield_records_parse_and_render() {
        use crate::skewfield::SkewFieldWriter;
        let mut w = SkewFieldWriter::new(Vec::new(), vec![(0, 1), (1, 2)], 1.0, 0.0);
        w.observe(0.5, &[0.0, 0.25, 0.3]);
        w.observe(1.5, &[0.0, 0.1, 0.15]);
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let (records, skipped) = parse_stream(&text);
        assert_eq!(skipped, 0, "own skew-field stream must parse fully");
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], Record::SkewWindow(_)));
        assert!(matches!(records[2], Record::SkewSummary(_)));
        let rendered = render_top(&records, skipped);
        assert!(rendered.contains("max_edge"), "{rendered}");
        assert!(rendered.contains("skew-field: 2 window(s)"), "{rendered}");
        assert!(
            rendered.contains("worst 0.250000 on edge 0-1"),
            "{rendered}"
        );
    }

    #[test]
    fn pre_split_heartbeats_still_parse_with_zero_drops() {
        // A beat written before the per-cause drop split existed.
        let line = "{\"schema\":\"gcs-heartbeat/v1\",\"kind\":\"beat\",\"seq\":0,\
                    \"t\":1,\"events\":10,\"queue_depth\":2,\"timers_armed\":1,\
                    \"skew_global\":null,\"skew_local\":null,\"watchdog\":\"off\",\
                    \"wall_ms\":0,\"events_per_sec\":0}";
        let (records, skipped) = parse_stream(line);
        assert_eq!(skipped, 0);
        let Record::Run(b) = &records[0] else {
            panic!("expected run beat");
        };
        assert_eq!((b.dropped_model, b.dropped_faults), (0, 0));
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        let (records, skipped) = parse_stream("");
        let text = render_top(&records, skipped);
        assert!(text.contains("(no heartbeat records found)"));
    }
}
