//! CLI-level integration tests for the always-on flight recorder and the
//! streaming skew-field layer: the `gcs` binary driven end to end via
//! `CARGO_BIN_EXE_gcs`.
//!
//! Covered contracts:
//! * the recorder dump of the golden F2 wavefront fixture is byte-identical
//!   to the recorded event stream and across repeated same-seed runs,
//!   whatever the dump path's extension;
//! * a file in the retired binary dump format is an error for every
//!   `gcs trace` action;
//! * a crafted watchdog violation (`--kappa-factor 0.05`) dumps a window
//!   whose `gcs trace blame` chain names the same peak local-skew pair as
//!   the run's own online observer;
//! * `gcs chaos run` attaches a dump on violation, identical across
//!   reruns, and `gcs trace blame` processes it end to end;
//! * `--skew-field` streams are byte-identical across same-seed reruns and
//!   render under `gcs top`.

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

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gcs-flight-recorder-{}-{name}", std::process::id()));
    path
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// The golden F2 event stream: the same fixed-seed run pinned by
/// `tests/golden_event_stream.rs`. It fits inside the recorder window, so
/// a dump of this run is the *complete* stream.
const FIXTURE: &str = include_str!("fixtures/f2_wavefront_events.jsonl");

/// The fixed-seed wavefront fixture: F2's flipping-boundary adversary on a
/// path, seed 42 — the run that produced [`FIXTURE`].
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
fn recorder_dump_is_golden_and_reproducible() {
    let run_dump = |name: &str| {
        let dump = tmp(name);
        let dump_str = dump.to_str().unwrap().to_string();
        let mut args: Vec<&str> = WAVEFRONT.to_vec();
        args.extend(["--dump-recorder", &dump_str]);
        let run = gcs(&args);
        assert!(run.status.success(), "run failed: {}", stderr(&run));
        assert!(
            stdout(&run).contains("recorder dump written to"),
            "{}",
            stdout(&run)
        );
        let text = read(&dump);
        let _ = std::fs::remove_file(&dump);
        text
    };

    let first = run_dump("golden.jsonl");
    assert_eq!(
        first, FIXTURE,
        "the recorder window of the F2 run must reproduce the golden stream byte-for-byte"
    );
    // A `.bin` path gets the same JSONL: the extension never picks a format.
    assert_eq!(
        first,
        run_dump("golden-rerun.bin"),
        "same-seed rerun diverged"
    );
}

#[test]
fn legacy_binary_dumps_are_errors_not_panics() {
    // The retired binary dump format: an 8-byte magic, then 40-byte frames
    // (here one wake frame at t = 1.5, whose f64 bytes are not UTF-8).
    let mut bytes = b"GCSREC01".to_vec();
    bytes.extend_from_slice(&[0u8; 30]);
    bytes.extend_from_slice(&[0xf8, 0x3f]);
    bytes.extend_from_slice(&[0u8; 8]);
    let bin = tmp("legacy.bin");
    std::fs::write(&bin, &bytes).unwrap();
    let bin_str = bin.to_str().unwrap();
    for args in [
        &["trace", "summary", bin_str][..],
        &["trace", "blame", bin_str],
        &["trace", "export", bin_str, "--chrome"],
    ] {
        let output = gcs(args);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_file(&bin);
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
    let v2 = rest.find('v').map(|i| &rest[i + 1..]).unwrap();
    let behind: usize = v2[..v2.find(' ').unwrap()].parse().unwrap();
    (ahead, behind)
}

#[test]
fn watchdog_trip_dump_is_blameable_and_matches_observer() {
    // κ at 5% of the Eq. (4) minimum under the F2 wavefront adversary: the
    // watchdog must trip, and the run must leave a recorder dump whose
    // offline blame chain explains the same peak pair the online observer
    // reported.
    let dump = tmp("trip.jsonl");
    let dump_str = dump.to_str().unwrap().to_string();
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
        "--dump-recorder",
        &dump_str,
    ]);
    assert!(!output.status.success(), "the watchdog must trip");
    let out = stdout(&output);
    assert!(out.contains("recorder dump written to"), "{out}");
    let (ahead, behind) = observer_pair(&out);

    let blame = gcs(&["trace", "blame", &dump_str, "--end", "126"]);
    assert!(blame.status.success(), "{}", stderr(&blame));
    let blame_out = stdout(&blame);
    assert!(
        blame_out.contains(&format!("on edge {ahead}-{behind} ({ahead} ahead)")),
        "blame peak pair must match the observer pair (v{ahead} − v{behind}):\n{blame_out}"
    );
    assert!(
        blame_out.contains(&format!("causal chain of node {ahead} at")),
        "{blame_out}"
    );

    let _ = std::fs::remove_file(&dump);
}

/// A scenario whose out-of-model rate attack reliably trips the oracle
/// (the `gcs chaos` crate pins this same spec in its own tests).
const RATE_ATTACK: &str = "\
topology = path:6
algo = aopt
eps = 0.02
t = 0.2
delay = const
rates = nominal
horizon = 40
seed = 11
fault = rate:5..40:0..1:0.9
";

#[test]
fn chaos_violation_dump_is_reproducible_and_blameable() {
    let spec = tmp("attack.chaos");
    let spec_str = spec.to_str().unwrap().to_string();
    std::fs::write(&spec, RATE_ATTACK).unwrap();

    let run_dump = |name: &str| {
        let dump = tmp(name);
        let dump_str = dump.to_str().unwrap().to_string();
        let output = gcs(&["chaos", "run", &spec_str, "--dump-recorder", &dump_str]);
        // An expected violation is exit 0 — not a finding.
        assert!(output.status.success(), "chaos run: {}", stderr(&output));
        let out = stdout(&output);
        assert!(out.contains("recorder dump written to"), "{out}");
        let text = read(&dump);
        let _ = std::fs::remove_file(&dump);
        text
    };

    let t1 = run_dump("chaos-1.jsonl");
    assert_eq!(
        t1,
        run_dump("chaos-2.jsonl"),
        "chaos dumps must be reproducible"
    );
    assert!(!t1.is_empty());

    // The dump feeds the full forensics pipeline end to end.
    let dump = tmp("chaos-blame.jsonl");
    std::fs::write(&dump, &t1).unwrap();
    let dump_str = dump.to_str().unwrap().to_string();
    let blame = gcs(&["trace", "blame", &dump_str]);
    assert!(
        blame.status.success(),
        "blame over the chaos dump failed: {}",
        stderr(&blame)
    );
    assert!(
        stdout(&blame).contains("causal chain"),
        "{}",
        stdout(&blame)
    );
    let _ = std::fs::remove_file(&dump);

    // Without --dump-recorder the dump lands next to the scenario.
    let output = gcs(&["chaos", "run", &spec_str]);
    assert!(output.status.success());
    let default_dump = PathBuf::from(format!(
        "{}.dump.jsonl",
        spec_str.strip_suffix(".chaos").unwrap()
    ));
    assert_eq!(
        read(&default_dump),
        t1,
        "default dump path must carry the same window"
    );
    let _ = std::fs::remove_file(&default_dump);
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn skew_field_stream_is_reproducible_and_renders() {
    let run_field = |name: &str| {
        let field = tmp(name);
        let field_str = field.to_str().unwrap().to_string();
        let mut args: Vec<&str> = WAVEFRONT.to_vec();
        args.extend(["--skew-field", &field_str]);
        let run = gcs(&args);
        assert!(run.status.success(), "run failed: {}", stderr(&run));
        assert!(stdout(&run).contains("skew-field log written to"));
        let text = read(&field);
        let _ = std::fs::remove_file(&field);
        text
    };

    let t1 = run_field("field-1.jsonl");
    assert_eq!(t1, run_field("field-2.jsonl"), "same-seed rerun diverged");

    // Every line is a schema-tagged JSON record; the stream ends in a
    // summary carrying the run-worst edge.
    let lines: Vec<&str> = t1.lines().collect();
    assert!(lines.len() >= 2, "windows + summary expected: {t1}");
    for line in &lines {
        let v = clock_sync::forensics::parse_json(line).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gcs-skewfield/v1")
        );
    }
    let last = clock_sync::forensics::parse_json(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("kind").and_then(|s| s.as_str()), Some("summary"));
    assert!(last.get("worst").and_then(|v| v.as_f64()).unwrap() > 0.0);

    // `gcs top` renders the stream.
    let field = tmp("field-render.jsonl");
    std::fs::write(&field, &t1).unwrap();
    let top = gcs(&["top", field.to_str().unwrap()]);
    assert!(top.status.success());
    let out = stdout(&top);
    assert!(out.contains("skew-field:"), "{out}");
    assert!(out.contains("max_edge"), "{out}");
    let _ = std::fs::remove_file(&field);
}
