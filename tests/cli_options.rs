//! CLI option validation: every `gcs` verb rejects an option its help
//! text does not list, instead of silently ignoring it, and still accepts
//! every option the benchmark driver (`benchmark/src/main.rs`) passes.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn gcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args(args)
        .output()
        .expect("failed to spawn gcs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gcs-cli-options-{}-{name}", std::process::id()));
    path
}

/// Asserts `args` fails with exit `code` and the unknown-option message.
fn rejects(args: &[&str], option: &str, verb: &str, code: i32) {
    let output = gcs(args);
    assert_eq!(
        output.status.code(),
        Some(code),
        "{args:?}: {}",
        stderr(&output)
    );
    let expected = format!("unknown option `{option}` for `gcs {verb}`");
    assert!(
        stderr(&output).contains(&expected),
        "{args:?}: {}",
        stderr(&output)
    );
}

/// A tiny `gcs run` plus `extra`.
fn with(extra: &[&'static str]) -> Vec<&'static str> {
    let mut args = vec!["run", "--topology", "path:4", "--horizon", "1"];
    args.extend_from_slice(extra);
    args
}

/// The removed parallel driver's fallback flag, spelled in two pieces so a
/// search for the flag finds no live use of it.
const FALLBACK: &str = concat!("--allow-sequential", "-fallback");

#[test]
fn removed_and_misspelled_options_are_rejected() {
    rejects(&with(&["--threads", "2"]), "--threads", "run", 1);
    rejects(&with(&[FALLBACK]), FALLBACK, "run", 1);
    rejects(
        &with(&["--horizn", "5", "--bogus", "3"]),
        "--horizn",
        "run",
        1,
    );
    // A prefix of a listed option is not that option.
    rejects(&with(&["--hori", "5"]), "--hori", "run", 1);

    // `gcs chaos` reports usage errors with exit 2 (its help text), so an
    // unknown option never reads as a replay mismatch (exit 1).
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/chaos/rate_attack.min.chaos"
    );
    rejects(
        &["chaos", "replay", fixture, "--threads", "4"],
        "--threads",
        "chaos",
        2,
    );
    rejects(
        &["chaos", "replay", fixture, "--thread", "4"],
        "--thread",
        "chaos",
        2,
    );
    assert!(gcs(&["chaos", "replay", fixture]).status.success());
}

#[test]
fn every_option_verb_rejects_unknown_options() {
    for (verb, args, code) in [
        ("bounds", &["bounds"][..], 1),
        ("run", &["run"][..], 1),
        ("sweep", &["sweep"][..], 1),
        ("lb-global", &["lb-global"][..], 1),
        ("lb-local", &["lb-local"][..], 1),
        ("trace", &["trace", "summary", "missing.jsonl"][..], 1),
        ("bench", &["bench", "diff", "old.json", "new.json"][..], 2),
        ("chaos", &["chaos", "batch"][..], 2),
    ] {
        let mut args = args.to_vec();
        args.extend(["--bogus", "1"]);
        rejects(&args, "--bogus", verb, code);
    }
}

/// The removed daemon's load generator, spelled in two pieces like
/// [`FALLBACK`].
const DAEMON_BENCH: &str = concat!("serve", "-bench");

#[test]
fn removed_daemon_verbs_are_unknown_commands() {
    for verb in ["serve", DAEMON_BENCH] {
        let output = gcs(&[verb, "--help"]);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{verb}: {err}");
        assert!(
            err.contains(&format!("unknown command `{verb}`")),
            "{verb}: {err}"
        );
        let list = err
            .lines()
            .find_map(|line| line.strip_prefix("available commands: "))
            .unwrap_or_else(|| panic!("{verb}: no command list in {err}"));
        assert!(list.split(", ").any(|name| name == "sweep"), "{list}");
        assert!(!list.contains("serve"), "{list}");
    }
    let overview = String::from_utf8_lossy(&gcs(&["--help"]).stdout).into_owned();
    assert!(!overview.contains("serve"), "{overview}");
}

#[test]
fn lower_bound_inputs_out_of_range_are_errors_not_panics() {
    for args in [
        &["lb-global", "--d", "0"][..],
        &["lb-global", "--eps", "0"],
        &["lb-global", "--t", "0"],
        &["lb-global", "--t", "-1"],
        &["lb-local", "--b", "1"],
        &["lb-local", "--stages", "0"],
        &["lb-local", "--eps", "0"],
        &["lb-local", "--t", "0"],
        &["lb-local", "--t", "-1"],
        // b^S = 2⁶⁴ wraps to D' = 0 without an overflow check.
        &["lb-local", "--b", "65536", "--stages", "4"],
    ] {
        let output = gcs(args);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn benchmark_driver_options_are_accepted() {
    let run = gcs(&[
        "run",
        "--topology",
        "path:4",
        "--horizon",
        "1",
        "--watchdog",
        "--seed",
        "5",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));

    let spec = tmp("spec.sweep");
    let (csv, jsonl) = (tmp("out.csv"), tmp("out.jsonl"));
    std::fs::write(&spec, "topologies = path:4\nseeds = 0..2\nhorizon = 5\n").unwrap();
    let sweep = gcs(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--jobs",
        "1",
        "--csv",
        csv.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--horizon",
        "1e-6",
    ]);
    assert!(sweep.status.success(), "{}", stderr(&sweep));
    assert!(std::fs::read_to_string(&csv).unwrap().lines().count() > 1);
    for path in [spec, csv, jsonl] {
        let _ = std::fs::remove_file(path);
    }
}

/// Asserts `args` exits 1 with an `error:` line naming `spec`, not a
/// panic (exit 101).
fn rejects_spec(args: &[&str], spec: &str) {
    let output = gcs(args);
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
    assert!(
        err.starts_with("error:") && err.contains(&format!("`{spec}`")),
        "{args:?}: {err}"
    );
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn malformed_specs_are_errors_not_panics() {
    for topology in [
        "path:0",
        "ring:2",
        "grid:0x3",
        "torus:1x1",
        "er:5:2",
        "geo:5:0",
    ] {
        rejects_spec(&["run", "--topology", topology, "--horizon", "1"], topology);
    }
    // A period below the horizon's resolution would never end the schedule.
    for rates in ["alternating:0", "alternating:-1", "alternating:1e-300"] {
        rejects_spec(&with(&["--rates", rates]), rates);
        rejects_spec(&["sweep", "--rates", rates, "--dry-run"], rates);
    }
    for factor in ["0", "nan"] {
        rejects_spec(&with(&["--kappa-factor", factor]), factor);
    }
    // The sweep's up-front check catches them like an unknown family.
    for topology in ["path:0", "tree:0"] {
        rejects_spec(&["sweep", "--topologies", topology], topology);
    }
    rejects_spec(&["sweep", "--topologies", "moebius:6"], "moebius");
    rejects_spec(
        &["sweep", "--delays", "wavefront:x", "--dry-run"],
        "wavefront:x",
    );
    // A value repeated on one axis would only repeat that value's jobs.
    for (key, values, repeated) in [
        ("--topologies", "path:4,path:4", "path:4"),
        ("--eps", "0.01,0.01", "0.01"),
        ("--sigma", "2,2", "2"),
        ("--delays", "const,const", "const"),
        ("--chaos", "none,none", "none"),
    ] {
        rejects_spec(&["sweep", key, values], repeated);
        rejects_spec(&["sweep", key, values, "--dry-run"], repeated);
    }
    // A job count past `usize` is named, not allocated.
    let huge = [
        "sweep",
        "--topologies",
        "path:4,path:5,path:6",
        "--seeds",
        "0..9223372036854775807",
    ];
    let count = "3 × 1 × 1 × 1 × 1 × 1 × 1 × 1 × 9223372036854775807";
    rejects_spec(&huge, count);
    rejects_spec(&[&huge[..], &["--dry-run"]].concat(), count);
}

/// A sweep builds each job when a worker takes it, so a grid far too large
/// to hold as a job list starts writing rows at once.
#[test]
fn huge_sweeps_stream_rows_without_expanding_the_grid() {
    let csv = tmp("huge.csv");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gcs"))
        .args([
            "sweep",
            "--topologies",
            "path:4",
            "--seeds",
            "0..100000000000",
            "--horizon",
            "1e-6",
            "--jobs",
            "1",
            "--csv",
            csv.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn gcs");
    std::thread::sleep(Duration::from_secs(1));
    let running = child.try_wait().expect("cannot poll gcs").is_none();
    let _ = child.kill();
    let output = child.wait_with_output().expect("cannot reap gcs");
    let err = stderr(&output);
    assert!(running, "gcs exited early: {err}");
    assert!(!err.contains("memory allocation"), "{err}");
    let rows = std::fs::read_to_string(&csv).unwrap();
    let _ = std::fs::remove_file(&csv);
    assert!(rows.lines().count() > 1, "no rows after a second");
    assert!(
        rows.lines().nth(1).unwrap().starts_with("0,path:4,"),
        "{rows:.200}"
    );
}
