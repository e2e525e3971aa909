//! Canonical job serialization and the SplitMix64 content digest.
//!
//! A [`JobSpec`]'s *identity* — everything that determines its result —
//! is serialized into a canonical byte string and folded into a 64-bit
//! digest. Two specs serialize equal exactly when they describe the same
//! execution (the job `index` is deliberately excluded: it names a grid
//! position, not a computation). The digest's one user is the sweep
//! dedupe ([`crate::dedupe`]): `gcs sweep` groups identical expanded grid
//! points (duplicate axis values) by digest, guards collisions with the
//! full bytes, and runs each distinct execution once.
//!
//! The encoding is fully explicit: field tags, length-prefixed strings,
//! `f64::to_bits` for floats — no textual round-trips, so `0.1` and
//! `1e-1` serialize equal while `-0.0` and `0.0` do not (they are
//! different bit patterns and different specs).

use crate::spec::JobSpec;

/// SplitMix64's odd constant; also used as the digest seed so an empty
/// input does not hash to zero.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 scramble round: a full-avalanche bijection on `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a byte string into a 64-bit digest by absorbing 8-byte
/// little-endian words through SplitMix64 rounds, with the length mixed
/// into the final round (so `"a" + "bc"` and `"ab" + "c"` cannot collide
/// by concatenation alone — callers still frame fields explicitly).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = GOLDEN_GAMMA;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        h = splitmix64(h ^ word);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = splitmix64(h ^ u64::from_le_bytes(tail));
    }
    splitmix64(h ^ bytes.len() as u64)
}

/// The canonical-bytes builder: every field is written as a one-byte tag
/// followed by a self-delimiting payload, so field order and boundaries
/// are unambiguous.
#[derive(Debug, Default)]
struct Canon {
    bytes: Vec<u8>,
}

impl Canon {
    fn str(&mut self, tag: u8, value: &str) {
        self.bytes.push(tag);
        self.bytes
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(value.as_bytes());
    }

    fn f64(&mut self, tag: u8, value: f64) {
        self.bytes.push(tag);
        self.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn u64(&mut self, tag: u8, value: u64) {
        self.bytes.push(tag);
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn opt_u32(&mut self, tag: u8, value: Option<u32>) {
        self.bytes.push(tag);
        match value {
            None => self.bytes.push(0),
            Some(v) => {
                self.bytes.push(1);
                self.bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn bool(&mut self, tag: u8, value: bool) {
        self.bytes.push(tag);
        self.bytes.push(value as u8);
    }
}

// Field tags.
const TAG_TOPOLOGY: u8 = 0x02;
const TAG_ALGO: u8 = 0x03;
const TAG_EPS: u8 = 0x04;
const TAG_T: u8 = 0x05;
const TAG_SIGMA: u8 = 0x06;
const TAG_DELAY: u8 = 0x07;
const TAG_RATES: u8 = 0x08;
const TAG_CHAOS: u8 = 0x09;
const TAG_SEED: u8 = 0x0a;
const TAG_HORIZON: u8 = 0x0b;
const TAG_HORIZON_PER_D: u8 = 0x0c;
const TAG_WATCHDOG: u8 = 0x0d;

impl JobSpec {
    /// The canonical byte serialization of everything that determines this
    /// job's result. The job `index` is excluded: it is a position in the
    /// expansion order, not part of the computation.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut c = Canon::default();
        c.str(TAG_TOPOLOGY, &self.topology);
        c.str(TAG_ALGO, &self.algo);
        c.f64(TAG_EPS, self.eps);
        c.f64(TAG_T, self.t);
        c.opt_u32(TAG_SIGMA, self.sigma);
        c.str(TAG_DELAY, &self.delay);
        c.str(TAG_RATES, &self.rates);
        c.str(TAG_CHAOS, &self.chaos);
        c.u64(TAG_SEED, self.seed);
        c.f64(TAG_HORIZON, self.horizon);
        c.f64(TAG_HORIZON_PER_D, self.horizon_per_diameter);
        c.bool(TAG_WATCHDOG, self.watchdog);
        c.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn job() -> JobSpec {
        SweepSpec::default().expand().remove(0)
    }

    fn hash(job: &JobSpec) -> u64 {
        digest(&job.canonical_bytes())
    }

    #[test]
    fn index_does_not_change_job_identity() {
        let a = job();
        let mut b = a.clone();
        b.index = 917;
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn every_result_bearing_field_changes_the_hash() {
        let base = job();
        let h = hash(&base);
        let mutations: Vec<JobSpec> = vec![
            JobSpec {
                topology: "ring:16".into(),
                ..base.clone()
            },
            JobSpec {
                algo: "jump".into(),
                ..base.clone()
            },
            JobSpec {
                eps: 2e-2,
                ..base.clone()
            },
            JobSpec {
                t: 0.2,
                ..base.clone()
            },
            JobSpec {
                sigma: Some(2),
                ..base.clone()
            },
            JobSpec {
                delay: "const".into(),
                ..base.clone()
            },
            JobSpec {
                rates: "nominal".into(),
                ..base.clone()
            },
            JobSpec {
                chaos: "drop:1..2:*:0.5".into(),
                ..base.clone()
            },
            JobSpec {
                seed: 1,
                ..base.clone()
            },
            JobSpec {
                horizon: 61.0,
                ..base.clone()
            },
            JobSpec {
                horizon_per_diameter: 1.0,
                ..base.clone()
            },
            JobSpec {
                watchdog: true,
                ..base.clone()
            },
        ];
        let mut seen = vec![h];
        for m in &mutations {
            let mh = hash(m);
            assert!(
                !seen.contains(&mh),
                "mutation {m:?} collided with a previous hash"
            );
            seen.push(mh);
        }
    }

    #[test]
    fn numeric_values_hash_by_bits_not_text() {
        let a = JobSpec { eps: 0.1, ..job() };
        let b = JobSpec { eps: 1e-1, ..job() };
        assert_eq!(hash(&a), hash(&b));
        let c = JobSpec {
            eps: 0.1 + f64::EPSILON,
            ..job()
        };
        assert_ne!(hash(&a), hash(&c));
    }

    #[test]
    fn digest_is_deterministic_and_length_aware() {
        assert_eq!(digest(b""), digest(b""));
        assert_ne!(digest(b"a"), digest(b"b"));
        assert_ne!(digest(b"ab"), digest(b"a\0"));
    }

    #[test]
    fn string_boundaries_are_framed() {
        // ("ab", "c") vs ("a", "bc"): same concatenated text, different jobs.
        let a = JobSpec {
            topology: "ab".into(),
            algo: "c".into(),
            ..job()
        };
        let b = JobSpec {
            topology: "a".into(),
            algo: "bc".into(),
            ..job()
        };
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }
}
