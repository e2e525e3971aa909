//! Seeded scenario generation for `gcs chaos --batch`: a pure function
//! from a `u64` seed to a [`ChaosSpec`], so a batch is fully described by
//! its seed block and any finding is reproducible from its seed alone.
//!
//! Generated schedules are biased toward **in-model** faults — drops,
//! duplicates, clogs and flaps within the delay bound 𝒯̂, rate attacks
//! within the drift bounds — because those are the scenarios where a
//! watchdog trip is a genuine finding. A minority of clauses are
//! out-of-model (partitions, crashes) to exercise the expected-violation
//! path too; the taxonomy in [`gcs_adversary::FaultClause::violation_allowed`]
//! keeps the two populations separate in the batch verdict.

use gcs_adversary::{EdgeSel, FaultClause, FaultKind, NodeSel};

use crate::spec::ChaosSpec;

/// SplitMix64 — the same finalizer family as the fault layer's
/// [`gcs_adversary::fault::chaos_hash`], here run as a sequential stream for
/// scenario construction.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 significant bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// Topologies the generator draws from: small enough that a batch of
/// thousands stays fast, varied enough to cover path/cycle/expander-ish
/// shapes.
const TOPOLOGIES: &[&str] = &["path:6", "ring:8", "grid:3x3", "star:6", "tree:7"];

/// Algorithms the generator draws from — only the variants that satisfy
/// the watchdog's invariants fault-free. The baselines (`max`, `midpoint`,
/// `nosync`) break them trivially, and `jump`/`envelope` move their
/// logical clocks in discrete steps, which violates the Condition (2)
/// rate envelope by construction; any of those would drown real findings
/// in known-behavior noise.
const ALGOS: &[&str] = &["aopt", "mingap"];

const DELAYS: &[&str] = &["const", "uniform"];
const RATES: &[&str] = &["nominal", "split", "walk"];

/// Generates the scenario for `seed`. Pure and total: every seed yields a
/// valid spec, and the same seed always yields the same spec.
pub fn random_spec(seed: u64) -> ChaosSpec {
    let mut rng = SplitMix64::new(seed ^ 0xc0a5_c0a5_c0a5_c0a5);
    let t = 0.2;
    let horizon = 40.0;
    let topology = TOPOLOGIES[rng.below(TOPOLOGIES.len())].to_string();
    // Node count per topology above (path:6 → 6, ring:8 → 8, ...).
    let n = match topology.as_str() {
        "ring:8" => 8,
        "grid:3x3" => 9,
        "tree:7" => 7,
        _ => 6,
    };
    let clause_count = 1 + rng.below(3);
    let mut faults = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        faults.push(random_clause(&mut rng, n, t, horizon));
    }
    faults.sort_by(|a, b| a.start.total_cmp(&b.start));
    ChaosSpec {
        topology,
        algo: ALGOS[rng.below(ALGOS.len())].to_string(),
        eps: 0.02,
        t,
        sigma: None,
        delay: DELAYS[rng.below(DELAYS.len())].to_string(),
        rates: RATES[rng.below(RATES.len())].to_string(),
        horizon,
        seed,
        faults,
        violation: None,
    }
}

/// Rounds to a fixed grid so formatted clauses stay short and halving in
/// the shrinker produces exactly representable floats.
fn grid(v: f64) -> f64 {
    (v * 64.0).round() / 64.0
}

fn random_window(rng: &mut SplitMix64, horizon: f64) -> (f64, f64) {
    let start = grid(rng.range(0.0, horizon * 0.6));
    let len = grid(rng.range(2.0, horizon * 0.4).max(2.0));
    (start, (start + len).min(horizon))
}

fn random_edges(rng: &mut SplitMix64, n: usize) -> EdgeSel {
    if rng.next_f64() < 0.5 {
        EdgeSel::All
    } else {
        let u = rng.below(n);
        let v = (u + 1 + rng.below(n - 1)) % n;
        EdgeSel::List(vec![(u.min(v), u.max(v))])
    }
}

fn random_nodes(rng: &mut SplitMix64, n: usize) -> NodeSel {
    if rng.next_f64() < 0.5 {
        let a = rng.below(n - 1);
        let b = a + 1 + rng.below(n - a - 1).min(2);
        NodeSel::Range(a, b + 1)
    } else {
        NodeSel::List(vec![rng.below(n)])
    }
}

fn random_clause(rng: &mut SplitMix64, n: usize, t: f64, horizon: f64) -> FaultClause {
    let (start, end) = random_window(rng, horizon);
    // Weighted kind choice: mostly in-model message faults, occasionally an
    // out-of-model partition/crash (expected-violation population).
    let kind = match rng.below(10) {
        0..=2 => FaultKind::Drop {
            edges: random_edges(rng, n),
            prob: grid(rng.range(0.05, 0.35)),
        },
        3..=4 => FaultKind::Dup {
            edges: random_edges(rng, n),
            prob: grid(rng.range(0.05, 0.25)),
            extra: grid(rng.range(0.0, t / 4.0)),
        },
        5..=6 => FaultKind::Clog {
            edges: random_edges(rng, n),
            // Within 𝒯̂: forced delay never exceeds the algorithm's bound.
            delay: grid(rng.range(t / 4.0, t)).min(t),
        },
        7 => FaultKind::Flap {
            edges: random_edges(rng, n),
            period: grid(rng.range(1.0, 5.0)),
            slow: grid(rng.range(t / 4.0, t)).min(t),
        },
        8 => FaultKind::Rate {
            nodes: random_nodes(rng, n),
            // Within the drift bounds: a legal-hardware rate attack.
            rate: grid(rng.range(1.0 - 0.02, 1.0 + 0.02)),
        },
        _ => {
            if rng.next_f64() < 0.5 {
                FaultKind::Partition {
                    side: random_nodes(rng, n),
                }
            } else {
                FaultKind::Crash {
                    nodes: random_nodes(rng, n),
                }
            }
        }
    };
    FaultClause { start, end, kind }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChaosSpec;

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        for seed in 0..200 {
            let a = random_spec(seed);
            let b = random_spec(seed);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert!(!a.faults.is_empty());
            // Every generated spec must survive the canonical format.
            let rt = ChaosSpec::parse(&a.format()).unwrap();
            assert_eq!(rt, a, "seed {seed} must round-trip byte-identically");
        }
    }

    #[test]
    fn neighbouring_seeds_differ() {
        let a = random_spec(1);
        let b = random_spec(2);
        assert_ne!(a.format(), b.format());
    }

    #[test]
    fn windows_stay_inside_the_horizon() {
        for seed in 0..500 {
            let spec = random_spec(seed);
            for c in &spec.faults {
                assert!(c.start >= 0.0 && c.end <= spec.horizon && c.start < c.end);
            }
        }
    }
}
