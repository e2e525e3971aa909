//! CLI-level integration tests for the forensics and watchdog paths: the
//! `gcs` binary itself is driven end to end via `CARGO_BIN_EXE_gcs`.
//!
//! Covered contracts:
//! * `gcs run --watchdog` exits non-zero when an invariant breaks
//!   (κ scaled below the Eq. (4) minimum);
//! * on a fixed-seed wavefront run, `gcs trace blame` names the same peak
//!   local-skew pair as the run's own online observer (the ISSUE-3
//!   acceptance criterion);
//! * `gcs trace blame --end` rejects a non-finite time;
//! * `gcs trace export --chrome` emits valid Chrome trace-event JSON;
//! * `gcs replay-check` exits 0 / 2 / 1 for identical / diverging /
//!   unreadable streams;
//! * `--profile` leaves the deterministic event stream byte-identical.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args(args)
        .output()
        .expect("failed to spawn gcs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gcs-cli-forensics-{}-{name}", std::process::id()));
    path
}

/// The fixed-seed wavefront fixture shared by the forensics tests:
/// F2's flipping-boundary adversary on a path, seed 42.
const WAVEFRONT: &[&str] = &[
    "run",
    "--topology",
    "path:8",
    "--delays",
    "wavefront",
    "--rates",
    "gradient",
    "--eps",
    "0.05",
    "--t",
    "0.5",
    "--horizon",
    "40",
];

#[test]
fn watchdog_violation_exits_nonzero() {
    // κ at 5% of the Eq. (4) minimum under the F2 wavefront adversary: the
    // paper predicts the legal-state invariant cannot be maintained, and
    // the watchdog must catch it.
    let output = gcs(&[
        "run",
        "--topology",
        "path:6",
        "--eps",
        "0.05",
        "--t",
        "0.5",
        "--delays",
        "wavefront",
        "--rates",
        "gradient",
        "--horizon",
        "120",
        "--kappa-factor",
        "0.05",
        "--watchdog",
    ]);
    assert!(
        !output.status.success(),
        "a tripped watchdog must exit non-zero"
    );
    let out = stdout(&output);
    assert!(out.contains("watchdog:"), "{out}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("invariant watchdog tripped"),
        "stderr must carry the failure"
    );
}

#[test]
fn healthy_watchdog_run_exits_zero() {
    let output = gcs(&[
        "run",
        "--topology",
        "path:4",
        "--horizon",
        "30",
        "--watchdog",
    ]);
    assert!(output.status.success());
    assert!(stdout(&output).contains("all invariants held"));
}

/// Extracts `(ahead, behind)` from the run table's
/// `worst local skew … (vA − vB at t = …)` line.
fn observer_pair(run_stdout: &str) -> (usize, usize) {
    let line = run_stdout
        .lines()
        .find(|l| l.contains("worst local skew"))
        .expect("run table has a local-skew row");
    let open = line.find("(v").expect("pair annotation");
    let rest = &line[open + 2..];
    let ahead: usize = rest[..rest.find(' ').unwrap()].parse().unwrap();
    let v2 = rest.find("v").map(|i| &rest[i + 1..]).unwrap();
    let behind: usize = v2[..v2.find(' ').unwrap()].parse().unwrap();
    (ahead, behind)
}

#[test]
fn blame_chain_matches_observer_peak_pair() {
    let events = tmp("wavefront.jsonl");
    let mut args: Vec<&str> = WAVEFRONT.to_vec();
    let events_str = events.to_str().unwrap();
    args.extend(["--events", events_str]);
    let run = gcs(&args);
    assert!(run.status.success(), "{}", stdout(&run));
    let (ahead, behind) = observer_pair(&stdout(&run));

    let blame = gcs(&["trace", "blame", events_str, "--end", "46"]);
    assert!(blame.status.success());
    let out = stdout(&blame);
    assert!(
        out.contains(&format!("on edge {ahead}-{behind} ({ahead} ahead)")),
        "blame peak pair must match the observer pair (v{ahead} − v{behind}):\n{out}"
    );
    // The chains explain exactly those endpoints.
    assert!(
        out.contains(&format!("causal chain of node {ahead} at")),
        "{out}"
    );
    assert!(
        out.contains(&format!("causal chain of node {behind} at")),
        "{out}"
    );
    // The wavefront mechanism is visible: at least one hop and an origin.
    assert!(out.contains("deliver"), "{out}");
    assert!(out.contains("origin:"), "{out}");

    let _ = std::fs::remove_file(&events);
}

#[test]
fn trace_summary_reports_stable_counts() {
    let events = tmp("summary.jsonl");
    let events_str = events.to_str().unwrap();
    let mut args: Vec<&str> = WAVEFRONT.to_vec();
    args.extend(["--events", events_str]);
    assert!(gcs(&args).status.success());

    let summary = gcs(&["trace", "summary", events_str]);
    assert!(summary.status.success());
    let out = stdout(&summary);
    let lines = std::fs::read_to_string(&events).unwrap().lines().count();
    assert!(
        out.contains(&format!("trace: {lines} events, 8 nodes, 7 edges")),
        "summary header must count every stream line:\n{out}"
    );
    assert!(out.contains("per node:"), "{out}");
    assert!(out.contains("per edge:"), "{out}");

    let _ = std::fs::remove_file(&events);
}

#[test]
fn non_finite_blame_end_is_an_error_not_a_panic() {
    let events = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/f2_wavefront_events.jsonl"
    );
    for end in ["nan", "inf", "-inf"] {
        let output = gcs(&["trace", "blame", events, "--end", end]);
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "--end {end}: {err}");
        assert!(err.starts_with("error:"), "--end {end}: {err}");
        assert!(err.contains("must be finite"), "--end {end}: {err}");
        assert!(!err.contains("panicked"), "--end {end}: {err}");
    }
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let events = tmp("chrome.jsonl");
    let events_str = events.to_str().unwrap();
    let mut args: Vec<&str> = WAVEFRONT.to_vec();
    args.extend(["--events", events_str]);
    assert!(gcs(&args).status.success());

    let export = gcs(&["trace", "export", events_str, "--chrome"]);
    assert!(export.status.success());
    let json = stdout(&export);
    let parsed = clock_sync::forensics::parse_json(&json).expect("valid JSON on stdout");
    let records = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(records.len() > 100, "a real run yields many records");
    for r in records {
        assert!(r.get("ph").is_some(), "every record has a phase");
    }

    // --out writes the same JSON to a file.
    let out_path = tmp("chrome.trace.json");
    let out_str = out_path.to_str().unwrap();
    let export = gcs(&["trace", "export", events_str, "--chrome", "--out", out_str]);
    assert!(export.status.success());
    assert_eq!(std::fs::read_to_string(&out_path).unwrap(), json);

    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn profile_flag_leaves_event_stream_byte_identical() {
    let plain = tmp("plain.jsonl");
    let profiled = tmp("profiled.jsonl");
    let (plain_str, profiled_str) = (plain.to_str().unwrap(), profiled.to_str().unwrap());

    let mut args: Vec<&str> = WAVEFRONT.to_vec();
    args.extend(["--events", plain_str]);
    assert!(gcs(&args).status.success());

    let mut args: Vec<&str> = WAVEFRONT.to_vec();
    args.extend(["--events", profiled_str, "--profile"]);
    let run = gcs(&args);
    assert!(run.status.success());
    assert!(
        stdout(&run).contains("engine profile:"),
        "--profile must print the phase breakdown"
    );

    // The CLI's own replay-check is the comparator: exit 0 = identical.
    let check = gcs(&["replay-check", plain_str, profiled_str]);
    assert!(
        check.status.success(),
        "--profile changed the event stream:\n{}",
        stdout(&check)
    );

    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&profiled);
}

#[test]
fn replay_check_exit_codes_and_context() {
    let a = tmp("rc-a.jsonl");
    let b = tmp("rc-b.jsonl");
    let (a_str, b_str) = (a.to_str().unwrap(), b.to_str().unwrap());
    let lines: Vec<String> = (0..10)
        .map(|i| format!("{{\"kind\":\"send\",\"node\":0,\"t\":{i},\"hw\":{i}}}"))
        .collect();
    std::fs::write(&a, lines.join("\n") + "\n").unwrap();
    std::fs::write(&b, lines.join("\n") + "\n").unwrap();

    let identical = gcs(&["replay-check", a_str, b_str]);
    assert_eq!(identical.status.code(), Some(0));
    assert!(stdout(&identical).contains("byte-identical"));

    let mut tampered = lines.clone();
    tampered[6] = "{\"kind\":\"send\",\"node\":1,\"t\":6,\"hw\":6}".into();
    std::fs::write(&b, tampered.join("\n") + "\n").unwrap();
    let diverged = gcs(&["replay-check", a_str, b_str]);
    assert_eq!(
        diverged.status.code(),
        Some(2),
        "divergence must exit with the documented code 2"
    );
    let out = stdout(&diverged);
    assert!(out.contains("diverge at line 7"), "{out}");
    assert!(
        out.contains("\"node\":0"),
        "context shows the left line: {out}"
    );
    assert!(
        out.contains("\"node\":1"),
        "context shows the right line: {out}"
    );
    assert!(
        out.contains("\"t\":5"),
        "context shows preceding common lines: {out}"
    );

    let unreadable = gcs(&["replay-check", a_str, "/nonexistent-gcs-stream.jsonl"]);
    assert_eq!(unreadable.status.code(), Some(1));

    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}
