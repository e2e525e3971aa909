//! The generated sweep specs, checked against the crates' own parsers.

use gcs_adversary::FaultClause;
use gcs_benchmark::gen;
use gcs_sweep::SweepSpec;
use gcs_time::DriftBounds;

#[test]
fn every_generated_clause_parses_and_stays_in_model() {
    let drift = DriftBounds::new(gen::EPS_HAT).unwrap();
    for seed in 0..50 {
        for schedule in gen::fault_schedules(seed) {
            for clause in schedule.split(';') {
                let parsed = FaultClause::parse(clause)
                    .unwrap_or_else(|e| panic!("seed {seed}: `{clause}`: {e}"));
                assert!(
                    !parsed.violation_allowed(drift, Some(gen::T_HAT)),
                    "seed {seed}: `{clause}` breaks the model"
                );
            }
        }
    }
}

#[test]
fn specs_parse_to_the_declared_job_counts_for_any_seed() {
    for seed in [1, 2, 12345] {
        let small = SweepSpec::parse_str(&gen::small_spec(seed).unwrap()).unwrap();
        small.validate().unwrap();
        assert_eq!(small.len(), gen::SMALL_JOBS);
        let faults = SweepSpec::parse_str(&gen::faults_spec(seed).unwrap()).unwrap();
        faults.validate().unwrap();
        assert_eq!(faults.len(), gen::FAULT_JOBS);
        assert_eq!(faults.chaos.len(), gen::FAULT_SCHEDULES);
    }
    let one = SweepSpec::parse_str(&gen::faults_spec(1).unwrap()).unwrap();
    let two = SweepSpec::parse_str(&gen::faults_spec(2).unwrap()).unwrap();
    assert_ne!(one.chaos, two.chaos, "seeds 1 and 2 draw different clauses");
}
