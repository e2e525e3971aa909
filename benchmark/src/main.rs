//! `gcs-benchmark`: the end-to-end benchmark of the `gcs` CLI.
//!
//! ```text
//! gcs-benchmark --workload W --seed S --seconds T --trace 0|1
//! gcs-benchmark --seed S [--out FILE]
//! gcs-benchmark compare A.json B.json
//! ```
//!
//! The first form measures one workload for `T` seconds and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of the traced pass with `--trace 1`. The second runs every workload: one
//! discarded warm-up round, then five rounds whose workload order rotates,
//! then one traced pass each; it writes all samples to `FILE`. `compare`
//! checks the medians of a second result file against a first one, metric
//! by metric, within each metric's bound.
//!
//! Run every form from the repository root; `gcs` is built there with
//! `cargo build --release` (not timed) and every child runs in a work
//! directory under the cargo target directory.

mod check;
mod proc;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcs_benchmark::gen;
use gcs_benchmark::json::{quote, Json};
use gcs_benchmark::stats::{median, Summary};

use check::Verdict;
use proc::Exit;

/// Worker threads of every sweep. One: on a machine with two shared cores a
/// second worker competes with the host's other tenants, and the spread of
/// two-worker sweeps between runs was twice that of one-worker sweeps.
const SWEEP_JOBS: &str = "1";
/// The set-up twin's horizon. Not 0: `gcs run --horizon 0` panics.
const TWIN_HORIZON: &str = "1e-6";
/// Measured rounds of the all-workload form.
const ROUNDS: usize = 5;
/// Fewest measured invocations per workload in the one-workload form.
const MIN_SAMPLES: usize = 3;

/// What a workload runs.
enum Kind {
    /// `gcs run --topology T --horizon H --seed S [--watchdog]`.
    Run {
        topology: &'static str,
        horizon: &'static str,
        watchdog: bool,
    },
    /// `gcs sweep --spec F --jobs 1 --csv … [--jsonl …]` on a generated spec.
    Sweep {
        spec: fn(u64) -> Result<String, String>,
        jobs: usize,
        jsonl: bool,
    },
}

/// One benchmark workload. Why each exists is in `benchmark/README.md`.
struct Workload {
    name: &'static str,
    kind: Kind,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "run-path1k",
        kind: Kind::Run {
            topology: "path:1024",
            horizon: "20",
            watchdog: false,
        },
    },
    Workload {
        name: "run-watchdog",
        kind: Kind::Run {
            topology: "grid:12x12",
            horizon: "30",
            watchdog: true,
        },
    },
    Workload {
        name: "sweep-small",
        kind: Kind::Sweep {
            spec: gen::small_spec,
            jobs: gen::SMALL_JOBS,
            jsonl: true,
        },
    },
    Workload {
        name: "sweep-faults",
        kind: Kind::Sweep {
            spec: gen::faults_spec,
            jobs: gen::FAULT_JOBS,
            jsonl: false,
        },
    },
];

impl Workload {
    /// The argument list of one invocation. `twin` swaps in the set-up
    /// horizon; `prefix` names the CSV/JSONL files.
    fn args(&self, seed: u64, twin: bool, prefix: &str) -> Vec<String> {
        match self.kind {
            Kind::Run {
                topology,
                horizon,
                watchdog,
            } => {
                let horizon = if twin { TWIN_HORIZON } else { horizon };
                let mut a: Vec<String> = ["run", "--topology", topology, "--horizon", horizon]
                    .map(String::from)
                    .into();
                if watchdog {
                    a.push("--watchdog".into());
                }
                a.extend(["--seed".into(), seed.to_string()]);
                a
            }
            Kind::Sweep { jsonl, .. } => {
                let mut a: Vec<String> = ["sweep", "--spec", "spec.sweep", "--jobs", SWEEP_JOBS]
                    .map(String::from)
                    .into();
                a.extend(["--csv".into(), format!("{prefix}.csv")]);
                if jsonl {
                    a.extend(["--jsonl".into(), format!("{prefix}.jsonl")]);
                }
                if twin {
                    a.extend(["--horizon".into(), TWIN_HORIZON.into()]);
                }
                a
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the baseline median by which it
/// may worsen before a change counts as a regression.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    /// An absolute worsening, in `unit`, that `compare` always allows: set-up
    /// times of a few milliseconds move by more than their share in noise.
    floor: f64,
}

const END_TO_END: [Metric; 4] = [
    Metric {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "sim_msgs_per_s",
        unit: "msgs/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
];

/// The traced pass's metrics, `<layer>.<metric>` and unit. Every one is
/// reported for every workload (0 where the layer does not run).
const PER_LAYER: [(&str, &str); 48] = [
    ("graph.build_s", "s"),
    ("graph.diameter_s", "s"),
    ("graph.calls", "count"),
    ("sweep.parse.self_s", "s"),
    ("sweep.parse.calls", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.snapshot.self_s", "s"),
    ("sim.snapshot.ns_per_event", "ns"),
    ("core.protocol.self_s", "s"),
    ("core.protocol.raw_s", "s"),
    ("core.protocol.calls", "count"),
    ("core.protocol.ns_per_call", "ns"),
    ("sim.delay.self_s", "s"),
    ("sim.delay.raw_s", "s"),
    ("sim.delay.calls", "count"),
    ("adversary.chaos.self_s", "s"),
    ("adversary.chaos.raw_s", "s"),
    ("adversary.chaos.calls", "count"),
    ("adversary.chaos.delivered_ratio", "ratio"),
    ("analysis.skew_observer.self_s", "s"),
    ("analysis.skew_observer.raw_s", "s"),
    ("analysis.skew_observer.calls", "count"),
    ("analysis.watchdog.self_s", "s"),
    ("analysis.watchdog.raw_s", "s"),
    ("analysis.watchdog.calls", "count"),
    ("analysis.watchdog.new_s", "s"),
    ("analysis.metrics.self_s", "s"),
    ("analysis.metrics.raw_s", "s"),
    ("analysis.metrics.calls", "count"),
    ("sim.recorder.self_s", "s"),
    ("sim.recorder.raw_s", "s"),
    ("sim.recorder.calls", "count"),
    ("sim.recorder.new_s", "s"),
    ("sweep.pool.busy_s", "s"),
    ("sweep.pool.idle_s", "s"),
    ("sweep.pool.utilization", "ratio"),
    ("sweep.job.p50_ms", "ms"),
    ("sweep.job.tail_ms", "ms"),
    ("sweep.job.tail_pct", "pct"),
    ("sweep.report.self_s", "s"),
    ("sweep.report.bytes", "bytes"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.valid", "bool"),
    ("trace.passes", "count"),
];

/// One workload's measurements in one benchmark invocation.
struct Measurement<'a> {
    w: &'a Workload,
    seed: u64,
    dir: PathBuf,
    gcs: PathBuf,
    walls: Vec<f64>,
    setups: Vec<f64>,
    rss_mib: Vec<f64>,
    /// Digests of the first main invocation and the first set-up twin.
    digests: [Option<u64>; 2],
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The last main invocation's verdict: the traced pass's reference.
    last: Verdict,
}

impl<'a> Measurement<'a> {
    /// A fresh work directory for `w` under `work`, holding its inputs.
    fn new(w: &'a Workload, seed: u64, work: &Path, gcs: &Path) -> Result<Self, String> {
        let dir = work.join(w.name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        if let Kind::Sweep { spec, .. } = w.kind {
            std::fs::write(dir.join("spec.sweep"), spec(seed)?)
                .map_err(|e| format!("cannot write the spec: {e}"))?;
        }
        Ok(Measurement {
            w,
            seed,
            dir,
            gcs: gcs.to_path_buf(),
            walls: Vec::new(),
            setups: Vec::new(),
            rss_mib: Vec::new(),
            digests: [None, None],
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            last: Verdict::default(),
        })
    }

    fn read(&self, file: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(file)).unwrap_or_default()
    }

    /// Runs the main command (or its set-up twin) once and checks it.
    fn invoke(&mut self, twin: bool) -> Result<Exit, String> {
        let prefix = if twin { "twin" } else { "out" };
        let exit = proc::run_timed(&self.gcs, &self.w.args(self.seed, twin, prefix), &self.dir)?;
        let stdout = String::from_utf8_lossy(&self.read("stdout.txt")).into_owned();
        let mut v = match self.w.kind {
            Kind::Run { watchdog, .. } => check::check_run(exit.code, &stdout, watchdog),
            Kind::Sweep { jobs, .. } => {
                let csv =
                    String::from_utf8_lossy(&self.read(&format!("{prefix}.csv"))).into_owned();
                let jsonl = self.read(&format!("{prefix}.jsonl"));
                check::check_sweep(exit.code, &stdout, &csv, &jsonl, jobs)
            }
        };
        let first = self.digests[usize::from(twin)].get_or_insert(v.digest);
        if *first != v.digest {
            v.failed = v.attempted;
            v.problems.push(format!(
                "digest {:016x} differs from {first:016x}",
                v.digest
            ));
        }
        self.attempted += v.attempted;
        self.failed += v.failed;
        for p in &v.problems {
            self.problems.push(format!("{} {prefix}: {p}", self.w.name));
        }
        if !twin {
            self.last = v;
        }
        Ok(exit)
    }

    /// One measured round: the main command, then its set-up twin.
    fn round(&mut self) -> Result<(), String> {
        let main = self.invoke(false)?;
        self.walls.push(main.wall_s);
        self.rss_mib.push(main.max_rss_kib as f64 / 1024.0);
        let twin = self.invoke(true)?;
        self.setups.push(twin.wall_s);
        Ok(())
    }

    /// The samples of every end-to-end metric, in [`END_TO_END`] order.
    fn samples(&self) -> [Vec<f64>; 4] {
        let rates = self
            .walls
            .iter()
            .map(|w| self.last.deliveries as f64 / w)
            .collect();
        [
            self.walls.clone(),
            rates,
            self.setups.clone(),
            self.rss_mib.clone(),
        ]
    }

    /// Runs the traced binary once on the same inputs and checks that it
    /// reproduced the last main invocation. Returns its in-process wall
    /// time, its metrics, and whether it was equivalent.
    fn traced_pass(&mut self, traced: &Path) -> Result<(f64, BTreeMap<String, f64>, bool), String> {
        let exit = proc::run_timed(traced, &self.w.args(self.seed, false, "traced"), &self.dir)?;
        let stdout = String::from_utf8_lossy(&self.read("stdout.txt")).into_owned();
        if exit.code != Some(0) {
            let stderr = String::from_utf8_lossy(&self.read("stderr.txt")).into_owned();
            return Err(format!("traced pass of {} failed: {stderr}", self.w.name));
        }
        let mut metrics = BTreeMap::new();
        let (mut wall, mut equal) = (None, true);
        let mut run_result = None;
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", name, value, _unit] => {
                    let value = value
                        .parse::<f64>()
                        .map_err(|_| format!("traced metric line `{line}`"))?;
                    metrics.insert(name.to_string(), value);
                }
                ["wall_s", value] => wall = value.parse::<f64>().ok(),
                ["outcomes", verdict] => equal &= *verdict == "equal",
                ["result", deliveries, global, local] => {
                    run_result = Some((deliveries.to_string(), *global, *local))
                }
                _ => {}
            }
        }
        let wall = wall.ok_or("traced pass printed no wall_s line")?;
        equal &= match self.w.kind {
            Kind::Run { .. } => {
                // `gcs run` prints skews with 6 decimals; the traced run
                // must print the same digits and the same delivery count.
                let six = |s: &str| s.parse::<f64>().map(|v| format!("{v:.6}")).ok();
                match (&run_result, &self.last.run_skews) {
                    (Some((d, g, l)), Some((cg, cl))) => {
                        *d == self.last.deliveries.to_string()
                            && six(g).as_ref() == Some(cg)
                            && six(l).as_ref() == Some(cl)
                    }
                    _ => false,
                }
            }
            Kind::Sweep { jsonl, .. } => {
                // Byte-identical rows imply identical deliveries and skew
                // bits: rows print floats in shortest round-trip form.
                self.read("traced.csv") == self.read("out.csv")
                    && (!jsonl || self.read("traced.jsonl") == self.read("out.jsonl"))
            }
        };
        if !equal {
            self.problems.push(format!(
                "{}: the traced pass diverged from gcs",
                self.w.name
            ));
        }
        Ok((wall, metrics, equal))
    }
}

/// Folds the traced passes of one workload into the [`PER_LAYER`] values.
fn layer_values(
    passes: &[(f64, BTreeMap<String, f64>, bool)],
    untraced_wall: f64,
) -> Result<Vec<f64>, String> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "trace.overhead_ratio" => {
                let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
                Ok(median(&walls) / untraced_wall)
            }
            "trace.valid" => Ok(f64::from(u8::from(passes.iter().all(|p| p.2)))),
            "trace.passes" => Ok(passes.len() as f64),
            _ => {
                let values: Option<Vec<f64>> =
                    passes.iter().map(|p| p.1.get(name).copied()).collect();
                values
                    .map(|v| median(&v))
                    .ok_or_else(|| format!("the traced pass reported no `{name}`"))
            }
        })
        .collect()
}

/// Formats a metric value with every digit; JSON has no NaN or infinity.
fn number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(value.to_string())
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut seed = None;
    let mut opts = Options {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    Ok(opts)
}

/// Builds `gcs`; returns the work root and the binary's path.
fn build_gcs(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let target = proc::target_dir(root);
    proc::cargo_build(
        root,
        &target,
        &["--manifest-path", "Cargo.toml", "--bin", "gcs"],
    )?;
    let gcs = target.join("release").join("gcs");
    if !gcs.is_file() {
        return Err(format!("{} was not built", gcs.display()));
    }
    Ok((target.join("gcs-benchmark"), gcs))
}

/// Builds the traced binary; returns its path.
fn build_traced(root: &Path) -> Result<PathBuf, String> {
    let target = proc::target_dir(root);
    proc::cargo_build(
        root,
        &target,
        &["--manifest-path", "benchmark/traced/Cargo.toml"],
    )?;
    Ok(target.join("release").join("gcs-benchmark-traced"))
}

/// The one-workload form: measure for `--seconds`, print one JSON line.
fn one_workload(root: &Path, opts: &Options, name: &str) -> Result<(), String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (work, gcs) = build_gcs(root)?;
    let traced = if opts.trace {
        Some(build_traced(root)?)
    } else {
        None
    };
    let mut s = Measurement::new(w, opts.seed, &work, &gcs)?;
    // Warm-up, discarded: page cache, binary, allocator.
    s.invoke(false)?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut rows: Vec<(&str, f64, &str)> = Vec::new();
    match traced {
        None => {
            s.invoke(true)?;
            while s.walls.len() < MIN_SAMPLES || started.elapsed() < budget {
                s.round()?;
            }
            for (m, samples) in END_TO_END.iter().zip(s.samples()) {
                rows.push((m.name, median(&samples), m.unit));
            }
        }
        Some(traced) => {
            let mut passes = Vec::new();
            while passes.is_empty() || started.elapsed() < budget {
                let main = s.invoke(false)?;
                s.walls.push(main.wall_s);
                passes.push(s.traced_pass(&traced)?);
            }
            let values = layer_values(&passes, median(&s.walls))?;
            for (&(name, unit), value) in PER_LAYER.iter().zip(values) {
                rows.push((name, value, unit));
            }
        }
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        println!("{} {name} {value} {unit}", w.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(*value)?,
            quote(unit)
        );
    }
    println!("{} digest {:016x}", w.name, s.digests[0].unwrap_or(0));
    for p in &s.problems {
        eprintln!("problem: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        s.failed == 0 && s.problems.is_empty(),
        s.attempted,
        s.failed
    );
    Ok(())
}

/// The all-workload form: warm-up, rotated rounds, traced passes.
fn all_workloads(root: &Path, opts: &Options) -> Result<bool, String> {
    let (work, gcs) = build_gcs(root)?;
    // A traced binary that no longer compiles costs the layers, not the
    // end-to-end numbers.
    let traced = build_traced(root)
        .map_err(|e| eprintln!("warning: no traced pass: {e}"))
        .ok();
    let mut runs = WORKLOADS
        .iter()
        .map(|w| Measurement::new(w, opts.seed, &work, &gcs))
        .collect::<Result<Vec<_>, _>>()?;
    for s in &mut runs {
        s.invoke(false)?;
        s.invoke(true)?;
    }
    for round in 0..ROUNDS {
        for k in 0..runs.len() {
            let at = (round + k) % runs.len();
            runs[at].round()?;
        }
    }
    let mut doc = format!(
        "{{\n  \"schema\": \"gcs-benchmark-result/v1\",\n  \"seed\": {},\n  \"rounds\": {ROUNDS},\n  \"workloads\": {{",
        opts.seed
    );
    let mut clean = true;
    for (i, s) in runs.iter_mut().enumerate() {
        let name = s.w.name;
        let layers = match &traced {
            Some(traced) => {
                let pass = s.traced_pass(traced)?;
                Some(layer_values(&[pass], median(&s.walls))?)
            }
            None => None,
        };
        let ratio = s.failed as f64 / s.attempted as f64;
        let _ = write!(
            doc,
            "{}\n    {}: {{\n      \"attempted\": {}, \"failed\": {}, \"failed_ops_ratio\": {ratio},\n      \"digest\": \"{:016x}\", \"setup_digest\": \"{:016x}\",\n      \"metrics\": {{",
            if i == 0 { "" } else { "," },
            quote(name),
            s.attempted,
            s.failed,
            s.digests[0].unwrap_or(0),
            s.digests[1].unwrap_or(0),
        );
        for (j, (m, samples)) in END_TO_END.iter().zip(s.samples()).enumerate() {
            let sum = Summary::of(&samples).ok_or("no samples")?;
            println!("{name} {} {} {}", m.name, sum.median, m.unit);
            let list = samples
                .iter()
                .map(|v| number(*v))
                .collect::<Result<Vec<_>, _>>()?
                .join(", ");
            let _ = write!(
                doc,
                "{}\n        {}: {{\"unit\": {}, \"better\": \"{}\", \"bound\": {}, \"samples\": [{list}], \"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {}}}",
                if j == 0 { "" } else { "," },
                quote(m.name),
                quote(m.unit),
                if m.better == Better::Lower { "lower" } else { "higher" },
                m.bound,
                number(sum.q1)?,
                number(sum.median)?,
                number(sum.q3)?,
                sum.n
            );
        }
        println!("{name} failed_ops_ratio {ratio} ratio");
        doc.push_str("\n      },\n      \"layers\": {");
        if let Some(values) = layers {
            for (j, (&(layer, unit), value)) in PER_LAYER.iter().zip(values).enumerate() {
                println!("{name} {layer} {value} {unit}");
                let _ = write!(
                    doc,
                    "{}\n        {}: {{\"value\": {}, \"unit\": {}}}",
                    if j == 0 { "" } else { "," },
                    quote(layer),
                    number(value)?,
                    quote(unit)
                );
            }
        }
        doc.push_str("\n      }\n    }");
        for p in &s.problems {
            eprintln!("problem: {p}");
        }
        clean &= s.failed == 0 && s.problems.is_empty();
    }
    doc.push_str("\n  }\n}\n");
    if let Some(out) = &opts.out {
        std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(clean)
}

/// `compare A B`: B's median against A's, per workload and metric. Returns
/// whether every pair is within its bound and the digests agree.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    for w in &WORKLOADS {
        let wa = a.get("workloads").and_then(|x| x.get(w.name));
        let wb = b.get("workloads").and_then(|x| x.get(w.name));
        let (Some(wa), Some(wb)) = (wa, wb) else {
            println!("{} missing", w.name);
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let med = |x: &Json| {
                x.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("median"))
                    .and_then(Json::num)
            };
            let (Some(ma), Some(mb)) = (med(wa), med(wb)) else {
                println!("{} {} missing", w.name, m.name);
                ok = false;
                continue;
            };
            let ratio = mb / ma;
            let worse = match m.better {
                Better::Lower => mb - ma,
                Better::Higher => ma - mb,
            };
            let within = worse <= (m.bound * ma).max(m.floor);
            ok &= within;
            println!(
                "{} {} ratio {ratio:.4} (bound {}) {}",
                w.name,
                m.name,
                m.bound,
                if within { "ok" } else { "REGRESSION" }
            );
        }
        for key in ["digest", "setup_digest"] {
            let (da, db) = (
                wa.get(key).and_then(Json::str),
                wb.get(key).and_then(Json::str),
            );
            if da != db || da.is_none() {
                println!("{} {key} differs: {da:?} vs {db:?}", w.name);
                ok = false;
            }
        }
        let failed = |x: &Json| x.get("failed").and_then(Json::num).unwrap_or(f64::INFINITY);
        if failed(wb) > failed(wa) {
            println!("{} failed operations rose", w.name);
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("usage: gcs-benchmark compare A.json B.json".into()),
        },
        _ => std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))
            .and_then(|root| {
                let opts = parse_options(&args)?;
                match &opts.workload {
                    Some(name) => one_workload(&root, &opts, name).map(|()| true),
                    None => all_workloads(&root, &opts),
                }
            }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| i.get("name").and_then(Json::str).unwrap().to_string())
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end is not a list")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(Json::num), Some(m.bound));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry.get("better").and_then(Json::str), Some(better));
        }
        let Some(Json::Arr(layers)) = doc.get("per_layer") else {
            panic!("per_layer is not a list")
        };
        let listed: Vec<(&str, &str)> = layers
            .iter()
            .map(|l| {
                (
                    l.get("name").and_then(Json::str).unwrap(),
                    l.get("unit").and_then(Json::str).unwrap(),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER.to_vec());
    }

    #[test]
    fn twin_swaps_only_the_horizon() {
        let run = &WORKLOADS[1];
        assert_eq!(
            run.args(5, false, "out").join(" "),
            "run --topology grid:12x12 --horizon 30 --watchdog --seed 5"
        );
        assert_eq!(
            run.args(5, true, "out").join(" "),
            "run --topology grid:12x12 --horizon 1e-6 --watchdog --seed 5"
        );
        let sweep = &WORKLOADS[2];
        assert_eq!(
            sweep.args(5, true, "twin").join(" "),
            "sweep --spec spec.sweep --jobs 1 --csv twin.csv --jsonl twin.jsonl --horizon 1e-6"
        );
    }
}
