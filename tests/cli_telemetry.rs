//! CLI-level integration tests for the live-telemetry pipeline: the `gcs`
//! binary driven end to end via `CARGO_BIN_EXE_gcs`.
//!
//! Covered contracts:
//! * `gcs run --metrics --watchdog` produces metrics JSON and watchdog
//!   verdicts byte-identical across repeated same-seed runs;
//! * `--heartbeat` streams with `--deterministic-heartbeat` are
//!   byte-identical across repeated same-seed runs, with wall-clock fields
//!   zeroed;
//! * `gcs sweep --heartbeat` streams are byte-identical at any `--jobs`;
//! * `gcs top` renders files and stdin, tolerating torn streams;
//! * `gcs bench diff` exits 0 / 1 / 2 for clean / regressed / malformed
//!   comparisons;
//! * `--profile-json` emits a parseable `gcs-profile/v1` object.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn gcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args(args)
        .output()
        .expect("failed to spawn gcs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gcs-cli-telemetry-{}-{name}", std::process::id()));
    path
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// A fixed-seed run under constant delays and gradient rates.
const CONST_RUN: &[&str] = &[
    "run",
    "--topology",
    "grid:4x4",
    "--delays",
    "const",
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
fn metrics_and_watchdog_are_byte_identical_across_repeats() {
    let run = |metrics: &PathBuf| {
        let metrics = metrics.to_str().unwrap().to_string();
        let mut args: Vec<&str> = CONST_RUN.to_vec();
        args.extend_from_slice(&["--watchdog", "--metrics", &metrics]);
        let output = gcs(&args);
        assert!(output.status.success(), "run failed: {}", stderr(&output));
        stdout(&output)
    };
    let (m1, m2) = (tmp("metrics-1.json"), tmp("metrics-2.json"));
    let (out1, out2) = (run(&m1), run(&m2));
    let json1 = read(&m1);
    assert!(json1.starts_with("{\"schema\":\"gcs-metrics/v1\""));
    assert_eq!(json1, read(&m2), "metrics JSON must be byte-identical");
    assert!(out1.contains("watchdog: all invariants held"), "{out1}");
    assert!(out1.contains("worst global skew"), "{out1}");
    // The report tables (skews, message counts, metrics snapshot) agree
    // line for line; only the metrics file names differ.
    let table = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("skew") || l.contains("events") || l.contains("deliveries"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(table(&out1), table(&out2));
    let _ = std::fs::remove_file(m1);
    let _ = std::fs::remove_file(m2);
}

#[test]
fn deterministic_heartbeats_are_byte_identical_across_repeats() {
    let run = |path: &PathBuf| {
        let hb = path.to_str().unwrap().to_string();
        let mut args: Vec<&str> = CONST_RUN.to_vec();
        args.extend_from_slice(&[
            "--heartbeat",
            &hb,
            "--heartbeat-every",
            "2",
            "--deterministic-heartbeat",
        ]);
        let output = gcs(&args);
        assert!(output.status.success(), "{}", stderr(&output));
    };
    let base = tmp("hb-1.jsonl");
    run(&base);
    let reference = read(&base);
    assert!(reference.lines().count() >= 10, "expected a real stream");
    assert!(reference.contains("\"kind\":\"summary\""));
    for line in reference.lines() {
        assert!(
            line.contains("\"wall_ms\":0,\"events_per_sec\":0"),
            "{line}"
        );
    }
    let again = tmp("hb-2.jsonl");
    run(&again);
    assert_eq!(read(&again), reference, "heartbeat stream diverged");
    let _ = std::fs::remove_file(again);
    let _ = std::fs::remove_file(base);
}

#[test]
fn sweep_heartbeats_are_byte_identical_at_any_jobs_value() {
    let run = |jobs: &str, path: &PathBuf| {
        let hb = path.to_str().unwrap().to_string();
        let output = gcs(&[
            "sweep",
            "--topologies",
            "path:5,ring:6",
            "--seeds",
            "2",
            "--horizon",
            "20",
            "--jobs",
            jobs,
            "--heartbeat",
            &hb,
            "--deterministic-heartbeat",
        ]);
        assert!(output.status.success(), "{}", stderr(&output));
    };
    let base = tmp("sweep-hb-j1.jsonl");
    run("1", &base);
    let reference = read(&base);
    assert_eq!(reference.lines().count(), 4, "one record per job");
    assert!(reference.contains("\"kind\":\"sweep\""));
    assert!(reference.contains("\"jobs_done\":4,\"jobs_total\":4"));
    let again = tmp("sweep-hb-j4.jsonl");
    run("4", &again);
    assert_eq!(
        read(&again),
        reference,
        "--jobs 4: sweep heartbeats diverged"
    );
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(again);
}

#[test]
fn top_renders_files_and_stdin() {
    let hb = tmp("top-input.jsonl");
    let hb_str = hb.to_str().unwrap().to_string();
    let mut args: Vec<&str> = CONST_RUN.to_vec();
    args.extend_from_slice(&["--heartbeat", &hb_str, "--watchdog"]);
    assert!(gcs(&args).status.success());

    let output = gcs(&["top", hb_str.as_str()]);
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("heartbeat record(s)"), "{text}");
    assert!(text.contains("(summary)"), "{text}");
    assert!(text.contains("watchdog ok"), "{text}");

    // Same stream over stdin, with a torn trailing line: skipped, not fatal.
    let mut torn = read(&hb);
    torn.push_str("{\"schema\":\"gcs-heartbeat/v1\",\"kind\":\"beat\",\"se");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args(["top", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn gcs top -");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(torn.as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    assert!(stdout(&output).contains("1 line(s) skipped"));
    let _ = std::fs::remove_file(hb);
}

#[test]
fn bench_diff_exit_codes_gate_regressions() {
    let artifact = |events: f64, allocs: f64| {
        format!(
            "{{\"schema\":\"gcs-bench-result/v1\",\"bench\":\"engine_hotpath\",\
             \"config\":{{\"quick\":\"false\"}},\
             \"metrics\":{{\"events_per_sec/n=64\":{events},\"allocs_per_event/n=64\":{allocs}}}}}"
        )
    };
    let old = tmp("bench-old.json");
    std::fs::write(&old, artifact(5_000_000.0, 0.0)).unwrap();
    let old = old.to_str().unwrap().to_string();

    // Within tolerance: exit 0, report says OK.
    let ok = tmp("bench-ok.json");
    std::fs::write(&ok, artifact(4_900_000.0, 0.0)).unwrap();
    let output = gcs(&["bench", "diff", &old, ok.to_str().unwrap()]);
    assert!(output.status.success(), "{}", stdout(&output));
    assert!(stdout(&output).contains("OK: no regressions"));

    // Throughput dropped 40%: exit 1, report names the metric.
    let bad = tmp("bench-bad.json");
    std::fs::write(&bad, artifact(3_000_000.0, 0.0)).unwrap();
    let output = gcs(&["bench", "diff", &old, bad.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "{}", stdout(&output));
    let text = stdout(&output);
    assert!(text.contains("events_per_sec/n=64"), "{text}");
    assert!(text.contains("FAIL"), "{text}");

    // A generous tolerance waves the same drop through.
    let output = gcs(&[
        "bench",
        "diff",
        &old,
        bad.to_str().unwrap(),
        "--tolerance",
        "0.75",
    ]);
    assert!(output.status.success(), "{}", stdout(&output));

    // Alloc regressions gate too (lower-is-better family).
    let leaky = tmp("bench-leaky.json");
    std::fs::write(&leaky, artifact(5_000_000.0, 2.5)).unwrap();
    let output = gcs(&["bench", "diff", &old, leaky.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));

    // Malformed artifacts are usage errors: exit 2.
    let junk = tmp("bench-junk.json");
    std::fs::write(&junk, "{\"schema\":\"other/v1\"}").unwrap();
    let output = gcs(&["bench", "diff", &old, junk.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let output = gcs(&["bench", "frobnicate", &old, &old]);
    assert_eq!(output.status.code(), Some(2));

    for p in [
        "bench-ok.json",
        "bench-bad.json",
        "bench-leaky.json",
        "bench-junk.json",
        "bench-old.json",
    ] {
        let _ = std::fs::remove_file(tmp(p));
    }
}

#[test]
fn committed_bench_artifacts_diff_clean_against_themselves() {
    // The repository's own BENCH_*.json artifacts must parse and compare
    // clean against themselves — the CI gate depends on both.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let p = path.to_str().unwrap();
        let output = gcs(&["bench", "diff", p, p]);
        assert!(output.status.success(), "{name}: {}", stderr(&output));
        assert!(stdout(&output).contains("OK: no regressions"), "{name}");
        checked.push(name);
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "BENCH_engine_hotpath.json",
            "BENCH_observer_overhead.json",
            "BENCH_sweep_scaling.json",
        ],
        "the committed artifacts, no more and no fewer"
    );
}

#[test]
fn profile_json_is_emitted_and_consistent() {
    let mut args: Vec<&str> = CONST_RUN.to_vec();
    args.extend_from_slice(&["--profile-json", "-"]);
    let output = gcs(&args);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"schema\":\"gcs-profile/v1\""))
        .expect("profile JSON line on stdout");
    for field in [
        "\"events\":",
        "\"dispatch_seconds\":",
        "\"snapshot_seconds\":",
        "\"other_seconds\":",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn metrics_stdout_is_pinned_by_digest() {
    // `--metrics -` prints the report table and the `gcs-metrics/v1`
    // document on stdout. Both runs are fixed-seed, so any change to a
    // metric's name, value, order or formatting moves the digest.
    let runs: [(&[&str], usize, u64); 2] = [
        (&["run", "--metrics", "-"], 2177, 0x87e9_25cb_f398_bbc8),
        (
            &[
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
                "--watchdog",
                "--metrics",
                "-",
            ],
            2096,
            0x89c1_7541_63eb_e314,
        ),
    ];
    for (args, len, digest) in runs {
        let output = gcs(args);
        assert!(output.status.success(), "{args:?}: {}", stderr(&output));
        assert_eq!(
            (output.stdout.len(), fnv1a(&output.stdout)),
            (len, digest),
            "{args:?} printed:\n{}",
            stdout(&output)
        );
    }
}
