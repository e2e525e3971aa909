//! Deterministic CSV and JSONL emission for sweep results.
//!
//! Rows are hand-rolled (no serialization dependency), with a fixed column
//! and field order and Rust's shortest-round-trip float `Display` — the
//! same conventions as the PR-1 event-stream exporter
//! ([`gcs_analysis::events`]), so `gcs replay-check` can diff two sweep
//! JSONL files just like two event logs.

use gcs_analysis::json;

use crate::agg::{Stat, SweepAggregate};
use crate::job::JobResult;
use crate::pool::JobOutcome;
use crate::spec::JobSpec;

/// The per-job CSV header row (no trailing newline).
pub const CSV_HEADER: &str = "job,topology,algo,eps,t,sigma,delay,rates,chaos,seed,status,nodes,\
     diameter,horizon,global_skew,local_skew,global_bound,local_bound,send_events,\
     transmissions,deliveries,dropped,dropped_model,dropped_faults,duplicated,events,\
     watchdog_tripped,error";

/// Encodes one job outcome as a CSV row (no trailing newline), columns as
/// in [`CSV_HEADER`].
pub fn csv_row(job: &JobSpec, outcome: &JobOutcome<JobResult>) -> String {
    let sigma = job.sigma.map_or(String::new(), |s| s.to_string());
    let head = format!(
        "{},{},{},{},{},{},{},{},{},{}",
        job.index,
        csv_escape(&job.topology),
        job.algo,
        job.eps,
        job.t,
        sigma,
        csv_escape(&job.delay),
        csv_escape(&job.rates),
        csv_escape(&job.chaos),
        job.seed
    );
    match outcome {
        JobOutcome::Completed(r) => format!(
            "{head},completed,{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},",
            r.nodes,
            r.diameter,
            r.horizon,
            r.global_skew,
            r.local_skew,
            r.global_bound,
            r.local_bound,
            r.send_events,
            r.transmissions,
            r.deliveries,
            r.dropped,
            r.dropped_model,
            r.dropped_faults,
            r.duplicated,
            r.events_recorded,
            r.watchdog_tripped
        ),
        JobOutcome::Failed(message) => {
            format!("{head},failed,,,,,,,,,,,,,,,,,{}", csv_escape(message))
        }
    }
}

/// Encodes one job outcome as a JSONL line (no trailing newline).
pub fn jsonl_row(job: &JobSpec, outcome: &JobOutcome<JobResult>) -> String {
    let sigma = job.sigma.map_or("null".to_string(), |s| s.to_string());
    let head = format!(
        r#"{{"kind":"job","job":{},"topology":{},"algo":{},"eps":{},"t":{},"sigma":{},"delay":{},"rates":{},"chaos":{},"seed":{}"#,
        job.index,
        json::string(&job.topology),
        json::string(&job.algo),
        json::number(job.eps),
        json::number(job.t),
        sigma,
        json::string(&job.delay),
        json::string(&job.rates),
        json::string(&job.chaos),
        job.seed
    );
    match outcome {
        JobOutcome::Completed(r) => format!(
            r#"{head},"status":"completed","nodes":{},"diameter":{},"horizon":{},"global_skew":{},"local_skew":{},"global_bound":{},"local_bound":{},"send_events":{},"transmissions":{},"deliveries":{},"dropped":{},"dropped_model":{},"dropped_faults":{},"duplicated":{},"events":{},"watchdog_tripped":{}}}"#,
            r.nodes,
            r.diameter,
            json::number(r.horizon),
            json::number(r.global_skew),
            json::number(r.local_skew),
            json::number(r.global_bound),
            json::number(r.local_bound),
            r.send_events,
            r.transmissions,
            r.deliveries,
            r.dropped,
            r.dropped_model,
            r.dropped_faults,
            r.duplicated,
            r.events_recorded,
            r.watchdog_tripped
        ),
        JobOutcome::Failed(message) => format!(
            r#"{head},"status":"failed","error":{}}}"#,
            json::string(message)
        ),
    }
}

/// Encodes the final aggregate as one JSONL summary line (no trailing
/// newline). Emitted after all per-job lines.
pub fn jsonl_summary(agg: &SweepAggregate) -> String {
    format!(
        r#"{{"kind":"summary","jobs":{},"completed":{},"failed":{},"watchdog_trips":{},"global_skew":{},"local_skew":{},"send_events":{},"deliveries":{},"dropped":{},"events":{}}}"#,
        agg.total,
        agg.completed,
        agg.failed,
        agg.watchdog_trips,
        json_stat(&agg.global_skew),
        json_stat(&agg.local_skew),
        json_stat(&agg.send_events),
        json_stat(&agg.deliveries),
        json_stat(&agg.dropped),
        json_stat(&agg.events),
    )
}

fn json_stat(stat: &Stat) -> String {
    let f = |v: Option<f64>| v.map_or("null".to_string(), json::number);
    format!(
        r#"{{"count":{},"mean":{},"min":{},"p50":{},"p95":{},"p99":{},"max":{}}}"#,
        stat.count(),
        f(stat.mean()),
        f(stat.min()),
        f(stat.quantile(0.50)),
        f(stat.quantile(0.95)),
        f(stat.quantile(0.99)),
        f(stat.max()),
    )
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn job() -> JobSpec {
        SweepSpec::default().expand().remove(0)
    }

    #[test]
    fn failed_rows_escape_messages() {
        let outcome: JobOutcome<JobResult> = JobOutcome::Failed("panicked: \"x, y\"\nline2".into());
        let csv = csv_row(&job(), &outcome);
        assert!(csv.contains("failed"));
        assert!(csv.contains("\"panicked: \"\"x, y\"\"\nline2\""));
        let json = jsonl_row(&job(), &outcome);
        assert!(json.contains(r#""error":"panicked: \"x, y\"\nline2""#));
    }

    #[test]
    fn csv_header_matches_completed_row_arity() {
        let outcome = JobOutcome::Completed(JobResult {
            nodes: 4,
            diameter: 3,
            horizon: 10.0,
            global_skew: 1.0,
            local_skew: 0.5,
            global_bound: 2.0,
            local_bound: 1.0,
            send_events: 10,
            transmissions: 20,
            deliveries: 20,
            dropped: 0,
            dropped_model: 0,
            dropped_faults: 0,
            duplicated: 0,
            events_recorded: 50,
            watchdog_tripped: false,
        });
        let header_cols = CSV_HEADER.split(',').count();
        let row_cols = csv_row(&job(), &outcome).split(',').count();
        assert_eq!(header_cols, row_cols);
        let failed_cols = csv_row(&job(), &JobOutcome::<JobResult>::Failed("e".into()))
            .split(',')
            .count();
        assert_eq!(header_cols, failed_cols);
    }
}
