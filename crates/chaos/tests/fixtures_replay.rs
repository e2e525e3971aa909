//! Replay every committed `.chaos` fixture and verify each reproduces its
//! recorded violation exactly — the in-tree equivalent of running
//! `gcs chaos replay` over `tests/fixtures/chaos/`, plus the CI
//! shrinker-determinism pin: re-shrinking the crafted example scenario
//! must regenerate the committed fixture byte-for-byte.

use std::path::PathBuf;

use gcs_chaos::{run_scenario, shrink, ChaosSpec};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn load(path: &std::path::Path) -> ChaosSpec {
    let text = std::fs::read_to_string(path).unwrap();
    ChaosSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_fixture_replays_its_recorded_violation() {
    let dir = repo_root().join("tests/fixtures/chaos");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "chaos") {
            continue;
        }
        let spec = load(&path);
        let recorded = spec
            .violation
            .clone()
            .unwrap_or_else(|| panic!("{}: fixture has no recorded violation", path.display()));
        let out = run_scenario(&spec).unwrap();
        let got = out
            .violation
            .unwrap_or_else(|| panic!("{}: no violation", path.display()));
        assert_eq!(got.kind(), recorded.kind, "{}", path.display());
        assert_eq!(got.node(), recorded.node, "{}", path.display());
        assert_eq!(
            got.time().to_bits(),
            recorded.t.to_bits(),
            "{}: t {} != recorded {}",
            path.display(),
            got.time(),
            recorded.t
        );
        checked += 1;
    }
    assert!(checked > 0, "no fixtures found under {}", dir.display());
}

#[test]
fn shrinking_the_crafted_example_regenerates_the_committed_fixture() {
    let root = repo_root();
    let example = load(&root.join("examples/chaos/rate_attack.chaos"));
    let committed =
        std::fs::read_to_string(root.join("tests/fixtures/chaos/rate_attack.min.chaos")).unwrap();
    let out = shrink(&example).unwrap();
    assert_eq!(
        out.spec.format(),
        committed,
        "shrinker output drifted from the committed minimal reproducer"
    );
    // The acceptance-shape assertions: the five-clause schedule collapses
    // to the single out-of-model rate attack.
    assert_eq!(out.original_clauses, 5);
    assert_eq!(out.spec.faults.len(), 1);
}
