//! The seeded input generator: the two sweep spec files, derived from the
//! benchmark seed `S` through SplitMix64. The same seed always gives the
//! same bytes; `gcs` receives only the files.

use std::fmt::Write as _;

/// Topologies of `sweep-small`: small graphs, long horizon, so the engine
/// hot path dominates and O(n) per-event observation is cheap.
const SMALL_TOPOLOGIES: &str = "path:8, ring:8, grid:3x3, star:8, tree:15";
/// Seeds per topology in `sweep-small`.
const SMALL_SEEDS: u64 = 20;
/// Jobs in `sweep-small`: 5 topologies × 20 seeds.
pub const SMALL_JOBS: usize = 100;

/// Topologies of `sweep-faults`: at most 9 nodes, so per-job fixed costs
/// (graph, diameter, watchdog construction) weigh the most.
const FAULT_TOPOLOGIES: &str = "path:6, ring:8, grid:3x3, star:6, tree:7";
/// Chaos schedules in `sweep-faults`.
pub const FAULT_SCHEDULES: usize = 40;
/// Seeds per grid point in `sweep-faults`.
const FAULT_SEEDS: u64 = 2;
/// Jobs in `sweep-faults`: 5 topologies × 2 algorithms × 2 delay models ×
/// 2 rate models × 40 schedules × 2 seeds.
pub const FAULT_JOBS: usize = 5 * 2 * 2 * 2 * FAULT_SCHEDULES * FAULT_SEEDS as usize;
/// Horizon of each `sweep-faults` job; every fault window ends before it.
const FAULT_HORIZON: f64 = 40.0;

/// The delay bound 𝒯̂ and drift bound ε̂ every workload runs with (the `gcs`
/// defaults). Generated clauses stay inside the model they define.
pub const T_HAT: f64 = 0.1;
/// See [`T_HAT`].
pub const EPS_HAT: f64 = 0.01;

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny, well-mixed generator whose
/// whole state is one `u64`, so a seed fixes every draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed range `S..S+count` as spec text, or an error if it overflows.
fn seed_range(seed: u64, count: u64) -> Result<String, String> {
    let end = seed
        .checked_add(count)
        .ok_or_else(|| format!("seed {seed} is too large: seed + {count} overflows"))?;
    Ok(format!("{seed}..{end}"))
}

/// The `sweep-small` spec for seed `seed`.
pub fn small_spec(seed: u64) -> Result<String, String> {
    Ok(format!(
        "# sweep-small, generated for seed {seed}\n\
         topologies = {SMALL_TOPOLOGIES}\n\
         algos = aopt\n\
         delays = uniform\n\
         rates = walk\n\
         seeds = {}\n\
         horizon = 800\n",
        seed_range(seed, SMALL_SEEDS)?
    ))
}

/// The `sweep-faults` spec for seed `seed`.
pub fn faults_spec(seed: u64) -> Result<String, String> {
    Ok(format!(
        "# sweep-faults, generated for seed {seed}\n\
         topologies = {FAULT_TOPOLOGIES}\n\
         algos = aopt, mingap\n\
         delays = const, uniform\n\
         rates = nominal, walk\n\
         chaos = {}\n\
         seeds = {}\n\
         horizon = {FAULT_HORIZON}\n\
         watchdog = true\n",
        fault_schedules(seed).join(", "),
        seed_range(seed, FAULT_SEEDS)?
    ))
}

/// [`FAULT_SCHEDULES`] distinct chaos schedules of 1–3 clauses each, in the
/// inline `;`-separated clause grammar.
pub fn fault_schedules(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let mut schedules: Vec<String> = Vec::with_capacity(FAULT_SCHEDULES);
    while schedules.len() < FAULT_SCHEDULES {
        let clauses = 1 + rng.below(3);
        let schedule = (0..clauses)
            .map(|_| fault_clause(&mut rng))
            .collect::<Vec<_>>()
            .join(";");
        // Distinct schedules keep every job distinct, so `gcs sweep`'s
        // deduplication never changes the work done.
        if !schedules.contains(&schedule) {
            schedules.push(schedule);
        }
    }
    schedules
}

/// One in-model fault clause: the paper's guarantees still hold under it,
/// so a watchdog trip or a bound violation would be a real finding.
///
/// * `drop` and `dup`: loss and duplication, which A^opt's periodic
///   broadcasts tolerate;
/// * `clog` and `flap`: forced delays no larger than 𝒯̂;
/// * `rate`: hardware rates inside `[1 − ε̂, 1 + ε̂]`.
pub fn fault_clause(rng: &mut SplitMix64) -> String {
    let start = rng.range(0.0, 30.0);
    let end = (start + rng.range(2.0, 10.0)).min(FAULT_HORIZON);
    // Node 0–1 is an edge of every topology used; `*` is every edge.
    let edges = if rng.below(4) == 0 { "0-1" } else { "*" };
    let mut clause = String::new();
    let w = &mut clause;
    let _ = match rng.below(5) {
        0 => write!(
            w,
            "drop:{start:.1}..{end:.1}:{edges}:{:.2}",
            rng.range(0.05, 0.5)
        ),
        1 => write!(
            w,
            "dup:{start:.1}..{end:.1}:{edges}:{:.2}:{:.3}",
            rng.range(0.05, 0.5),
            rng.range(0.001, 0.05)
        ),
        2 => write!(
            w,
            "clog:{start:.1}..{end:.1}:{edges}:{:.3}",
            rng.range(0.01, T_HAT)
        ),
        3 => write!(
            w,
            "flap:{start:.1}..{end:.1}:{edges}:{:.2}:{:.3}",
            rng.range(0.5, 5.0),
            rng.range(0.01, T_HAT)
        ),
        _ => {
            // Nodes `first..last` with `last <= 6`, the smallest graph's size.
            let first = rng.below(5);
            let last = first + 1 + rng.below(6 - first);
            let rate = 1.0 + rng.range(-0.9, 0.9) * EPS_HAT;
            write!(w, "rate:{start:.1}..{end:.1}:{first}..{last}:{rate:.4}")
        }
    };
    clause
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_specs() {
        for seed in [0, 1, 7, u64::MAX - 100] {
            assert_eq!(small_spec(seed), small_spec(seed));
            assert_eq!(faults_spec(seed), faults_spec(seed));
        }
    }

    #[test]
    fn different_seeds_give_different_clauses() {
        let (a, b) = (fault_schedules(1), fault_schedules(2));
        assert_eq!(a.len(), FAULT_SCHEDULES);
        assert_eq!(b.len(), FAULT_SCHEDULES);
        assert_ne!(a, b);
        assert_ne!(faults_spec(1), faults_spec(2));
    }

    #[test]
    fn overflowing_seed_range_is_an_error() {
        assert!(small_spec(u64::MAX).is_err());
        assert!(faults_spec(u64::MAX - 1).is_err());
    }

    #[test]
    fn rate_clauses_select_a_nonempty_node_range_below_six() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..2000 {
            let clause = fault_clause(&mut rng);
            if let Some(rest) = clause.strip_prefix("rate:") {
                let nodes = rest.split(':').nth(1).expect("node field");
                let (a, b) = nodes.split_once("..").expect("node range");
                let (a, b): (u64, u64) = (a.parse().unwrap(), b.parse().unwrap());
                assert!(a < b && b <= 6, "{clause}");
            }
        }
    }
}
