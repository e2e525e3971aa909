//! Sweep specifications: a parameter grid and its expansion into jobs.
//!
//! A [`SweepSpec`] names one value list per experiment axis (topology,
//! algorithm, ε̂, 𝒯̂, σ, delay model, rate schedule, seed). The grid is the
//! full cross product in a **fixed nesting order**, and [`SweepSpec::job`]
//! builds the combination at any job index on demand, so a sweep never holds
//! the job list. Everything downstream (the worker pool, the aggregator, the
//! CSV/JSONL emitters) is keyed by that index, which is what makes sweep
//! output independent of worker count.

use std::ops::Range;

use gcs_time::DriftBounds;

use crate::parse::{build_delay, build_rates, known_algo, parse_topology};
use crate::scenario::check_horizon;

/// The default seed range: a single execution with seed 0.
const DEFAULT_SEEDS: Range<u64> = 0..1;

/// A parameter grid over executions.
///
/// Each axis is a list; the grid is the cross product of all axes. String
/// axes use the same `kind:arg` mini-language as the `gcs` CLI
/// (see [`crate::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Topology specs, e.g. `path:16`, `grid:6x6`, `er:40:0.08`.
    pub topologies: Vec<String>,
    /// Algorithm names, e.g. `aopt`, `jump`, `max`, `nosync`.
    pub algos: Vec<String>,
    /// Hardware drift bounds ε̂.
    pub eps: Vec<f64>,
    /// Delay bounds 𝒯̂.
    pub t: Vec<f64>,
    /// Logarithm bases σ for the `A^opt` parameterization; `None` means
    /// `Params::recommended` (σ chosen by Eq. 6).
    pub sigmas: Vec<Option<u32>>,
    /// Delay-model specs, e.g. `uniform`, `const`, `directional`,
    /// `wavefront:BOUNDARY`.
    pub delays: Vec<String>,
    /// Rate-schedule specs, e.g. `walk`, `split`, `distsplit`,
    /// `alternating:PERIOD`.
    pub rates: Vec<String>,
    /// Chaos fault schedules: `none`, an inline `;`-separated clause list
    /// (see [`gcs_adversary::fault`]), or a `*.chaos` scenario file path.
    pub chaos: Vec<String>,
    /// Seed range (half-open). Seeds feed random topologies, delay models,
    /// rate schedules, and chaos fault decisions.
    pub seeds: Range<u64>,
    /// Base real-time horizon of each execution.
    pub horizon: f64,
    /// Horizon growth per unit of `diameter × 𝒯̂`: the effective horizon of a
    /// job is `horizon + horizon_per_diameter · D · 𝒯̂` (delay models may
    /// extend it further, e.g. `wavefront` runs past its flip time).
    pub horizon_per_diameter: f64,
    /// Attach the PR-1 invariant watchdog to every job and count trips.
    pub watchdog: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            topologies: vec!["path:16".into()],
            algos: vec!["aopt".into()],
            eps: vec![1e-2],
            t: vec![0.1],
            sigmas: vec![None],
            delays: vec!["uniform".into()],
            rates: vec!["walk".into()],
            chaos: vec!["none".into()],
            seeds: DEFAULT_SEEDS,
            horizon: 60.0,
            horizon_per_diameter: 0.0,
            watchdog: false,
        }
    }
}

/// One fully resolved point of the grid: an independent, self-describing
/// unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the deterministic expansion order; the job's identity
    /// in every output stream.
    pub index: usize,
    /// Topology spec.
    pub topology: String,
    /// Algorithm name.
    pub algo: String,
    /// Drift bound ε̂.
    pub eps: f64,
    /// Delay bound 𝒯̂.
    pub t: f64,
    /// σ override (`None` = recommended parameters).
    pub sigma: Option<u32>,
    /// Delay-model spec.
    pub delay: String,
    /// Rate-schedule spec.
    pub rates: String,
    /// Chaos fault schedule (`none`, inline clauses, or a `*.chaos` path).
    pub chaos: String,
    /// Seed for every randomized component of the job.
    pub seed: u64,
    /// Base horizon (before diameter scaling).
    pub horizon: f64,
    /// Per-`D·𝒯̂` horizon growth.
    pub horizon_per_diameter: f64,
    /// Whether to run the invariant watchdog.
    pub watchdog: bool,
}

impl JobSpec {
    /// A compact one-line description, used in progress and failure output.
    pub fn label(&self) -> String {
        let sigma = match self.sigma {
            Some(s) => format!(" sigma={s}"),
            None => String::new(),
        };
        let chaos = if self.chaos == "none" {
            String::new()
        } else {
            format!(" chaos={}", self.chaos)
        };
        format!(
            "#{} {} {} eps={} t={}{} {} {}{} seed={}",
            self.index,
            self.algo,
            self.topology,
            self.eps,
            self.t,
            sigma,
            self.delay,
            self.rates,
            chaos,
            self.seed
        )
    }
}

impl SweepSpec {
    /// Expands the grid into jobs, in the fixed nesting order
    /// `topology → algo → ε̂ → 𝒯̂ → σ → delay → rates → chaos → seed`
    /// (seed varies fastest). Job `index` is the enumeration position.
    ///
    /// A sweep never needs this list: it builds each job on demand with
    /// [`SweepSpec::job`].
    pub fn expand(&self) -> Vec<JobSpec> {
        (0..self.len()).map(|index| self.job(index)).collect()
    }

    /// Job `index` of [`SweepSpec::expand`]'s order, built from the grid by
    /// mixed-radix decomposition of the index: the seed is the lowest
    /// digit, the topology the highest.
    ///
    /// # Panics
    ///
    /// If `index >= self.len()`.
    pub fn job(&self, index: usize) -> JobSpec {
        assert!(index < self.len(), "job {index} is outside the grid");
        let [topologies, algos, eps, t, sigmas, delays, rates, chaos, seeds] = self.radices();
        let mut rest = index as u64;
        let mut digit = |radix: u64| {
            let d = rest % radix;
            rest /= radix;
            d as usize
        };
        let seed = self.seeds.start + digit(seeds) as u64;
        let chaos = &self.chaos[digit(chaos)];
        let rates = &self.rates[digit(rates)];
        let delay = &self.delays[digit(delays)];
        let sigma = self.sigmas[digit(sigmas)];
        let t = self.t[digit(t)];
        let eps = self.eps[digit(eps)];
        let algo = &self.algos[digit(algos)];
        let topology = &self.topologies[digit(topologies)];
        JobSpec {
            index,
            topology: topology.clone(),
            algo: algo.clone(),
            eps,
            t,
            sigma,
            delay: delay.clone(),
            rates: rates.clone(),
            chaos: chaos.clone(),
            seed,
            horizon: self.horizon,
            horizon_per_diameter: self.horizon_per_diameter,
            watchdog: self.watchdog,
        }
    }

    /// Number of jobs the grid expands to.
    ///
    /// # Panics
    ///
    /// If the count overflows `usize`; [`SweepSpec::validate`] reports
    /// such a grid as an error.
    pub fn len(&self) -> usize {
        self.checked_len().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.radices().contains(&0)
    }

    /// The number of values on each axis, in nesting order (seeds last).
    fn radices(&self) -> [u64; 9] {
        let n = |len: usize| len as u64;
        [
            n(self.topologies.len()),
            n(self.algos.len()),
            n(self.eps.len()),
            n(self.t.len()),
            n(self.sigmas.len()),
            n(self.delays.len()),
            n(self.rates.len()),
            n(self.chaos.len()),
            self.seeds.end.saturating_sub(self.seeds.start),
        ]
    }

    /// The job count, or an error naming it if it overflows `usize`.
    fn checked_len(&self) -> Result<usize, String> {
        let radices = self.radices();
        radices
            .iter()
            .try_fold(1usize, |n, &r| n.checked_mul(usize::try_from(r).ok()?))
            .ok_or_else(|| {
                let factors: Vec<String> = radices.iter().map(u64::to_string).collect();
                format!(
                    "the sweep's job count `{}` overflows (at most {} jobs)",
                    factors.join(" × "),
                    usize::MAX
                )
            })
    }

    /// Checks every axis value, without running anything.
    ///
    /// Topologies are built with the first seed — sizes and spec syntax do
    /// not depend on the seed. Each delay and rates value is built on the
    /// first topology's graph with the first ε̂ and 𝒯̂, the rates up to the
    /// longest horizon those delays ask for. A job count that overflows
    /// `usize` is an error, and so is a value repeated on one axis, whose
    /// jobs would repeat the earlier value's exactly.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("sweep grid is empty (some axis has no values)".into());
        }
        self.checked_len()?;
        for &e in &self.eps {
            if !(e > 0.0 && e < 1.0) {
                return Err(format!("eps must lie in (0, 1), got {e}"));
            }
        }
        for &t in &self.t {
            if !(t > 0.0 && t.is_finite()) {
                return Err(format!("t must be positive, got {t}"));
            }
        }
        check_horizon(self.horizon, self.horizon_per_diameter)?;
        no_repeats("topologies", &self.topologies)?;
        no_repeats("algos", &self.algos)?;
        no_repeats("eps", &self.eps)?;
        no_repeats("t", &self.t)?;
        let sigmas: Vec<String> = self
            .sigmas
            .iter()
            .map(|s| s.map_or_else(|| "recommended".into(), |s| s.to_string()))
            .collect();
        no_repeats("sigma", &sigmas)?;
        no_repeats("delays", &self.delays)?;
        no_repeats("rates", &self.rates)?;
        no_repeats("chaos", &self.chaos)?;
        let probe_seed = self.seeds.start;
        let graph = parse_topology(&self.topologies[0], probe_seed)?;
        for t in &self.topologies[1..] {
            parse_topology(t, probe_seed)?;
        }
        for a in &self.algos {
            known_algo(a)?;
        }
        let (eps, t) = (self.eps[0], self.t[0]);
        let mut horizon = self.horizon + self.horizon_per_diameter * graph.diameter() as f64 * t;
        for d in &self.delays {
            let (_, min_horizon) = build_delay(d, &graph, t, eps, probe_seed)?;
            horizon = horizon.max(min_horizon);
        }
        let drift = DriftBounds::new(eps).map_err(|e| e.to_string())?;
        for r in &self.rates {
            build_rates(r, &graph, drift, horizon, probe_seed)?;
        }
        for c in &self.chaos {
            crate::parse::resolve_chaos(c)?;
        }
        Ok(())
    }

    /// Parses a spec file: one `key = value` per line, `#` comments, blank
    /// lines ignored. Keys and value syntax are exactly the `gcs sweep`
    /// flag names (see [`SweepSpec::apply`]).
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let mut spec = SweepSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("spec line {}: expected `key = value`", lineno + 1))?;
            spec.apply(key.trim(), value.trim())
                .map_err(|e| format!("spec line {}: {e}", lineno + 1))?;
        }
        Ok(spec)
    }

    /// Sets one axis from its textual form. Shared by the spec-file parser
    /// and the `gcs sweep` CLI flags; list values are comma-separated.
    ///
    /// | key | value |
    /// |-----|-------|
    /// | `topologies` | topology specs |
    /// | `algos` | algorithm names |
    /// | `eps` | floats |
    /// | `t` | floats |
    /// | `sigma` | integers, or `recommended` |
    /// | `delays` | delay specs |
    /// | `rates` | rate specs |
    /// | `chaos` | `none`, inline fault clauses, or `*.chaos` paths |
    /// | `seeds` | `N` (⇒ `0..N`) or `A..B` |
    /// | `horizon` | float |
    /// | `horizon-per-d` | float |
    /// | `watchdog` | `true` / `false` |
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "topologies" => self.topologies = parse_list(value),
            "algos" => self.algos = parse_list(value),
            "eps" => self.eps = parse_f64_list(key, value)?,
            "t" => self.t = parse_f64_list(key, value)?,
            "sigma" => {
                self.sigmas = parse_list(value)
                    .iter()
                    .map(|s| match s.as_str() {
                        "recommended" => Ok(None),
                        v => v
                            .parse::<u32>()
                            .map(Some)
                            .map_err(|_| format!("sigma: `{v}` is not an integer")),
                    })
                    .collect::<Result<_, _>>()?
            }
            "delays" => self.delays = parse_list(value),
            "rates" => self.rates = parse_list(value),
            "chaos" => self.chaos = parse_list(value),
            "seeds" => {
                self.seeds = match value.split_once("..") {
                    Some((a, b)) => {
                        let a: u64 = a
                            .trim()
                            .parse()
                            .map_err(|_| format!("seeds: bad range start `{a}`"))?;
                        let b: u64 = b
                            .trim()
                            .parse()
                            .map_err(|_| format!("seeds: bad range end `{b}`"))?;
                        a..b
                    }
                    None => {
                        let n: u64 = value
                            .parse()
                            .map_err(|_| format!("seeds: `{value}` is not a count or range"))?;
                        0..n
                    }
                }
            }
            "horizon" => {
                self.horizon = value
                    .parse()
                    .map_err(|_| format!("horizon: `{value}` is not a number"))?
            }
            "horizon-per-d" => {
                self.horizon_per_diameter = value
                    .parse()
                    .map_err(|_| format!("horizon-per-d: `{value}` is not a number"))?
            }
            "watchdog" => {
                self.watchdog = match value {
                    "true" | "1" | "yes" => true,
                    "false" | "0" | "no" => false,
                    other => return Err(format!("watchdog: `{other}` is not a boolean")),
                }
            }
            other => return Err(format!("unknown sweep key `{other}`")),
        }
        Ok(())
    }
}

/// An error naming the first value of `axis` that repeats an earlier one:
/// its jobs would repeat those of the earlier value exactly.
fn no_repeats<T: PartialEq + std::fmt::Display>(axis: &str, values: &[T]) -> Result<(), String> {
    match (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
        Some(i) => Err(format!("{axis}: `{}` is repeated", values[i])),
        None => Ok(()),
    }
}

fn parse_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_f64_list(key: &str, value: &str) -> Result<Vec<f64>, String> {
    parse_list(value)
        .iter()
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("{key}: `{s}` is not a number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn expansion_order_is_seed_fastest() {
        let spec = SweepSpec {
            topologies: vec!["path:4".into(), "ring:4".into()],
            seeds: 0..3,
            ..SweepSpec::default()
        };
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 6);
        assert_eq!(spec.len(), 6);
        let key: Vec<(String, u64)> = jobs.iter().map(|j| (j.topology.clone(), j.seed)).collect();
        assert_eq!(
            key,
            vec![
                ("path:4".into(), 0),
                ("path:4".into(), 1),
                ("path:4".into(), 2),
                ("ring:4".into(), 0),
                ("ring:4".into(), 1),
                ("ring:4".into(), 2),
            ]
        );
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn spec_file_round_trip() {
        let text = "
            # figure F4
            topologies = path:65
            algos = aopt
            eps = 0.001
            t = 0.25
            sigma = 2, 4, 8
            delays = directional
            rates = distsplit
            seeds = 0..1
            horizon = 120
        ";
        let spec = SweepSpec::parse_str(text).unwrap();
        assert_eq!(spec.sigmas, vec![Some(2), Some(4), Some(8)]);
        assert_eq!(spec.len(), 3);
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_key_and_bad_values_error() {
        assert!(SweepSpec::parse_str("bogus = 1").is_err());
        assert!(SweepSpec::parse_str("eps = fast").is_err());
        let mut spec = SweepSpec {
            algos: vec!["quantum".into()],
            ..SweepSpec::default()
        };
        assert!(spec.validate().is_err());
        spec.algos = vec![];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn repeated_values_and_overflowing_counts_are_errors() {
        let repeated = |key: &str, value: &str| {
            let mut spec = SweepSpec::default();
            spec.apply(key, value).unwrap();
            spec.validate().unwrap_err()
        };
        assert_eq!(
            repeated("topologies", "path:4, ring:4, path:4"),
            "topologies: `path:4` is repeated"
        );
        assert_eq!(repeated("eps", "0.01, 1e-2"), "eps: `0.01` is repeated");
        assert_eq!(
            repeated("sigma", "recommended, 2, recommended"),
            "sigma: `recommended` is repeated"
        );
        assert_eq!(repeated("chaos", "none,none"), "chaos: `none` is repeated");

        let huge = SweepSpec {
            topologies: vec!["path:4".into(), "path:5".into(), "path:6".into()],
            seeds: 0..u64::MAX / 2,
            ..SweepSpec::default()
        };
        assert!(!huge.is_empty());
        let err = huge.validate().unwrap_err();
        assert!(err.contains("job count `3 × 1 × 1"), "{err}");
        assert!(err.contains(&format!("{}", u64::MAX / 2)), "{err}");
        // A grid that fits is built job by job, never expanded.
        let wide = SweepSpec {
            seeds: 5..u64::MAX,
            ..SweepSpec::default()
        };
        wide.validate().unwrap();
        assert_eq!(wide.len(), (u64::MAX - 5) as usize);
        assert_eq!(wide.job(wide.len() - 1).seed, u64::MAX - 1);
    }

    /// The grid expanded by nested loops, in the documented order: the
    /// oracle for [`SweepSpec::job`]'s mixed-radix decomposition.
    fn nested_expansion(spec: &SweepSpec) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for topology in &spec.topologies {
            for algo in &spec.algos {
                for &eps in &spec.eps {
                    for &t in &spec.t {
                        for &sigma in &spec.sigmas {
                            for delay in &spec.delays {
                                for rates in &spec.rates {
                                    for chaos in &spec.chaos {
                                        for seed in spec.seeds.clone() {
                                            jobs.push(JobSpec {
                                                index: jobs.len(),
                                                topology: topology.clone(),
                                                algo: algo.clone(),
                                                eps,
                                                t,
                                                sigma,
                                                delay: delay.clone(),
                                                rates: rates.clone(),
                                                chaos: chaos.clone(),
                                                seed,
                                                horizon: spec.horizon,
                                                horizon_per_diameter: spec.horizon_per_diameter,
                                                watchdog: spec.watchdog,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Job `i` built on demand is the `i`-th job of the nested
        /// expansion, in every field, over random grids.
        #[test]
        fn job_matches_nested_expansion(
            axes in prop::collection::vec(1usize..4, 8..9),
            first_seed in 0u64..1_000_000,
            seed_count in 1u64..5,
            horizon in 1.0f64..100.0,
            watchdog in prop::sample::select(vec![false, true]),
        ) {
            let pick = |n: usize, values: &[&str]| -> Vec<String> {
                values[..n].iter().map(|v| v.to_string()).collect()
            };
            let spec = SweepSpec {
                topologies: pick(axes[0], &["path:4", "ring:5", "star:6"]),
                algos: pick(axes[1], &["aopt", "max", "nosync"]),
                eps: [0.01, 0.02, 0.03][..axes[2]].to_vec(),
                t: [0.1, 0.2, 0.3][..axes[3]].to_vec(),
                sigmas: [None, Some(2), Some(4)][..axes[4]].to_vec(),
                delays: pick(axes[5], &["uniform", "const", "directional"]),
                rates: pick(axes[6], &["walk", "split", "nominal"]),
                chaos: pick(axes[7], &["none", "drop:1..2:*:0.5", "clog:0..1:0-1:0.05"]),
                seeds: first_seed..first_seed + seed_count,
                horizon,
                horizon_per_diameter: 0.5,
                watchdog,
            };
            let nested = nested_expansion(&spec);
            let expanded = spec.expand();
            prop_assert_eq!(spec.len(), nested.len());
            prop_assert_eq!(&expanded, &nested);
            for (i, job) in nested.iter().enumerate() {
                let built = spec.job(i);
                prop_assert_eq!(built.index, i);
                prop_assert_eq!(&built, job);
            }
        }
    }
}
