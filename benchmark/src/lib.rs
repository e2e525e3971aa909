//! Dependency-free pieces of the `gcs` benchmark: the seeded input
//! generator, sample statistics, and the small JSON reader `compare` uses.
//!
//! The `gcs-benchmark` binary (`src/main.rs`) uses all three. The traced
//! package (`traced/`) uses the statistics, and tests the generator against
//! the crates' own parsers.

pub mod gen;
pub mod json;
pub mod stats;
