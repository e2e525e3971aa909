//! Sweep specifications: a parameter grid and its expansion into jobs.
//!
//! A [`SweepSpec`] names one value list per experiment axis (topology,
//! algorithm, ε̂, 𝒯̂, σ, delay model, rate schedule, seed). [`SweepSpec::expand`]
//! takes the full cross product in a **fixed nesting order** and assigns each
//! combination a job index; everything downstream (the worker pool, the
//! aggregator, the CSV/JSONL emitters) is keyed by that index, which is what
//! makes sweep output independent of worker count.

use std::ops::Range;

use crate::parse::{known_algo, parse_delay_kind, parse_rates_kind, parse_topology};
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
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.len());
        for topology in &self.topologies {
            for algo in &self.algos {
                for &eps in &self.eps {
                    for &t in &self.t {
                        for &sigma in &self.sigmas {
                            for delay in &self.delays {
                                for rates in &self.rates {
                                    for chaos in &self.chaos {
                                        for seed in self.seeds.clone() {
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
                                                horizon: self.horizon,
                                                horizon_per_diameter: self.horizon_per_diameter,
                                                watchdog: self.watchdog,
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

    /// Number of jobs the grid expands to.
    pub fn len(&self) -> usize {
        self.topologies.len()
            * self.algos.len()
            * self.eps.len()
            * self.t.len()
            * self.sigmas.len()
            * self.delays.len()
            * self.rates.len()
            * self.chaos.len()
            * self.seeds.clone().count()
    }

    /// Whether the grid is empty (some axis has no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks every axis value parses, without running anything.
    ///
    /// Random topologies are instantiated with the first seed only — sizes
    /// and spec syntax do not depend on the seed.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("sweep grid is empty (some axis has no values)".into());
        }
        let probe_seed = self.seeds.start;
        for t in &self.topologies {
            parse_topology(t, probe_seed)?;
        }
        for a in &self.algos {
            known_algo(a)?;
        }
        for d in &self.delays {
            parse_delay_kind(d)?;
        }
        for r in &self.rates {
            parse_rates_kind(r)?;
        }
        for c in &self.chaos {
            crate::parse::resolve_chaos(c)?;
        }
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
        check_horizon(self.horizon, self.horizon_per_diameter)
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
}
