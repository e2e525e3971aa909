//! `gcs` — command-line driver for the gradient clock-synchronization
//! reproduction.
//!
//! ```text
//! gcs bounds        print A^opt parameters and skew bounds for (ε̂, 𝒯̂, D)
//! gcs run           simulate an algorithm on a topology and report skews
//! gcs sweep         run a parameter grid on a parallel worker pool
//! gcs chaos         seeded fault-injection scenarios (run|batch|shrink|replay)
//! gcs trace         forensics over a recorded event stream
//! gcs top           render a live heartbeat stream as a status report
//! gcs bench         compare benchmark artifacts (bench diff OLD NEW)
//! gcs replay-check  diff two JSONL event logs (determinism check)
//! gcs lb-global     run the Theorem 7.2 forced-global-skew construction
//! gcs lb-local      run the Theorem 7.7 forced-local-skew construction
//! ```
//!
//! Run `gcs <command> --help` for each command's options, or `gcs --help`
//! for this overview.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use clock_sync::adversary::framed::{LocalLowerBound, StageReport};
use clock_sync::adversary::shift::GlobalLowerBound;
use clock_sync::analysis::{
    delivery_imbalance, diff_streams, write_jsonl, ClockTrace, JsonlWriter, MetricsSink, Table,
};
use clock_sync::bench::{diff as bench_diff, parse_artifact};
use clock_sync::chaos::{
    run_batch, run_scenario, shrink as shrink_scenario, BatchConfig, ChaosSpec, ScenarioOutcome,
};
use clock_sync::core::{AOpt, Params};
use clock_sync::forensics::{
    blame, export_chrome, parse_stream, ClockReconstruction, Dag, TraceSummary,
};
use clock_sync::sim::{Protocol, RecorderSink};
use clock_sync::sweep::scenario::Heartbeat;
use clock_sync::sweep::{
    report, run_sweep, with_protocols, Outcome, PoolProgress, ProtocolVisitor, Scenario,
    ScenarioSpec, SinkSet, SweepSpec,
};
use clock_sync::telemetry::{HeartbeatEmitter, SkewFieldWriter};
use clock_sync::time::{DriftBounds, RateEnvelope};

const USAGE: &str = "\
gcs — gradient clock synchronization (Lenzen/Locher/Wattenhofer) toolkit

USAGE:
    gcs <command> [options]

COMMANDS:
    bounds        print A^opt parameters and skew bounds for (ε̂, 𝒯̂, D)
    run           simulate one algorithm on one topology and report skews
    sweep         run a parameter grid on a parallel worker pool
    chaos         seeded fault-injection scenarios (run|batch|shrink|replay)
    trace         forensics over a recorded event stream (summary|blame|export)
    top           render a `--heartbeat` stream as a status report
    bench         compare `gcs-bench-result/v1` artifacts (bench diff OLD NEW)
    replay-check  diff two JSONL event logs (determinism check)
    lb-global     run the Theorem 7.2 forced-global-skew construction
    lb-local      run the Theorem 7.7 forced-local-skew construction

Run `gcs <command> --help` for the options of one command.

ALGORITHMS (--algo / --algos):
    aopt (default) | jump | mingap | envelope | max | midpoint | nosync

TOPOLOGIES (--topology / --topologies):
    path:N | ring:N | grid:WxH | torus:WxH | tree:N | star:N | complete:N
    hypercube:DIM | er:N:P (Erdős–Rényi) | geo:N:R (random geometric)

DELAYS (--delays):
    uniform (default) | const | zero | directional | wavefront[:BOUNDARY]

RATES (--rates):
    walk (default) | split | distsplit | alternating[:PERIOD] | gradient
    | nominal

EXAMPLES:
    gcs bounds --eps 1e-4 --t 0.001 --d 30
    gcs run --topology grid:6x6 --delays uniform --rates walk --horizon 200
    gcs sweep --topologies path:9,path:17 --seeds 8 --jobs 4 --csv out.csv
    gcs chaos batch --scenarios 1000 --fixtures chaos-findings
    gcs run --events run.jsonl && gcs trace blame run.jsonl
    gcs run --horizon 400 --heartbeat - | gcs top -
    gcs bench diff BENCH_engine_hotpath.json new/BENCH_engine_hotpath.json
    gcs replay-check a.jsonl b.jsonl
    gcs lb-global --d 16 --eps 0.05 --t 0.5 --t-hat 1.0
";

const BOUNDS_USAGE: &str = "\
gcs bounds — print A^opt parameters and skew bounds

USAGE:
    gcs bounds [--eps E] [--t T] [--d D] [--sigma S]

OPTIONS:
    --eps E     hardware drift bound ε̂          (default 1e-3)
    --t T       message delay bound 𝒯̂           (default 0.01)
    --d D       network diameter D              (default 32)
    --sigma S   force the log base σ instead of Eq. (6)'s recommendation
";

const RUN_USAGE: &str = "\
gcs run — simulate one algorithm on one topology and report skews

USAGE:
    gcs run [--algo NAME] [--topology SPEC] [--eps E] [--t T]
            [--horizon H] [--delays SPEC] [--rates SPEC] [--seed N]
            [--trace FILE.csv] [--events FILE.jsonl]
            [--metrics FILE|-] [--watchdog] [--heartbeat FILE|-]
            [--dump-recorder FILE] [--skew-field FILE|-] [--kappa-factor F]

OPTIONS:
    --algo NAME          aopt|jump|mingap|envelope|max|midpoint|nosync
    --topology SPEC      e.g. path:16, grid:6x6, er:40:0.08  (default path:16)
    --eps E              drift bound ε̂                        (default 1e-2)
    --t T                delay bound 𝒯̂                        (default 0.1)
    --horizon H          real-time horizon                    (default 120)
    --delays SPEC        uniform|const|zero|directional|wavefront[:B]
    --rates SPEC         walk|split|distsplit|alternating[:P]|gradient|nominal
    --seed N             seed for random topology/delays/rates (default 42)

OBSERVABILITY:
    --trace FILE.csv     sampled clock trajectories (plotting)
    --events FILE.jsonl  complete engine event log, one JSON object per line;
                         byte-identical across same-seed runs (replay-check)
    --metrics FILE|-     print the metrics registry snapshot after the run
                         and write it as `gcs-metrics/v1` JSON to FILE
                         (`-` prints the JSON object to stdout instead)
    --watchdog           check Conditions (1)/(2) and the Def. 5.6 legal
                         state online; on violation, dump the last events
    --heartbeat FILE|-   stream `gcs-heartbeat/v1` JSONL progress records,
                         paced by simulated time (`-` = stdout); render a
                         live or finished stream with `gcs top`
    --heartbeat-every S  heartbeat cadence in simulated time units
                         (default: horizon / 20)
    --deterministic-heartbeat
                         zero the wall-clock heartbeat fields, making the
                         stream a pure function of the simulation
                         (byte-identical across same-seed runs)
    --profile            time the engine's event-loop phases (protocol /
                         delay / snapshot) and print the breakdown; timing
                         is observational — all outputs stay byte-identical.
    --profile-json FILE|-  write the same accounting as one `gcs-profile/v1`
                         JSON object (`-` = stdout); see docs/TRACE_FORMAT.md
    --kappa-factor F     scale κ by F, bypassing the Eq. (4) validation
                         (with F < 1 and --watchdog: demonstrates the
                         invariant violation the paper predicts)

FLIGHT RECORDER (always armed):
    Every run records its recent events into bounded in-memory rings
    (under half a MiB, zero steady-state allocation). The window is
    dumped automatically on a watchdog trip (to dumps/recorder-trip.jsonl)
    or an engine panic (dumps/recorder-panic.jsonl; the dumps/ directory
    is created on demand and git-ignored), and on request:
    --dump-recorder FILE dump the recorder window after the run (and use
                         FILE for trip/panic dumps too), in the standard
                         JSONL event-log format (works with `gcs trace`
                         and replay-check)
    --skew-field FILE|-  stream windowed per-edge skew aggregates as
                         `gcs-skewfield/v1` JSONL (`-` = stdout); render
                         with `gcs top`
    --skew-field-every S skew-field window length in simulated time
                         (default: horizon / 20)
";

const SWEEP_USAGE: &str = "\
gcs sweep — run a parameter grid on a parallel worker pool

The grid is the cross product of all axes; each combination is one
independent job with a fresh engine and observability stack. Jobs run on a
worker pool with per-job panic isolation; results are aggregated and
emitted in deterministic job order, so CSV/JSONL output is byte-identical
at any --jobs value.

USAGE:
    gcs sweep [--spec FILE] [--topologies LIST] [--algos LIST] [--eps LIST]
              [--t LIST] [--sigma LIST] [--delays LIST] [--rates LIST]
              [--chaos LIST] [--seeds N | A..B] [--horizon H]
              [--horizon-per-d X] [--watchdog] [--jobs N] [--dry-run]
              [--csv FILE] [--jsonl FILE]

AXES (comma-separated lists; defaults in parentheses):
    --topologies LIST    topology specs            (path:16)
    --algos LIST         algorithm names           (aopt)
    --eps LIST           drift bounds ε̂            (0.01)
    --t LIST             delay bounds 𝒯̂            (0.1)
    --sigma LIST         σ values or `recommended` (recommended)
    --delays LIST        delay-model specs         (uniform)
    --rates LIST         rate-schedule specs       (walk)
    --chaos LIST         fault schedules: `none`, inline clause lists, or
                         `*.chaos` files           (none)
    --seeds N | A..B     seed count or range       (0..1)
    --horizon H          base horizon per job      (60)
    --horizon-per-d X    extra horizon per D·𝒯̂     (0)
    --watchdog           attach the invariant watchdog to every job

EXECUTION:
    --spec FILE          read axes from a `key = value` spec file first;
                         explicit flags override file entries
    --jobs N             worker threads (default: available parallelism)
    --dry-run            enumerate the expanded jobs without running them
    --csv FILE           write one CSV row per job, in job order
    --jsonl FILE         write one JSON line per job plus a final summary
                         line, in job order (replay-check-able)
    --progress           live progress line on stderr (done/total, ETA);
                         stdout and all files stay byte-identical
    --profile            print the pool's wall-time accounting (per-job
                         mean/max, worker utilization) after the aggregate
    --heartbeat FILE|-   stream one `gcs-heartbeat/v1` sweep record per
                         completed job (`-` = stdout); render with `gcs top`
    --heartbeat-every N  emit every N-th completed job only (default 1;
                         the final job always emits)
    --deterministic-heartbeat
                         zero the wall-clock heartbeat fields; the stream
                         is then byte-identical at any --jobs value

EXAMPLES:
    gcs sweep --topologies path:9,path:17,path:33 --eps 0.02 --t 0.25 \\
              --delays directional --rates distsplit --seeds 4 --jobs 8
    gcs sweep --spec examples/sweeps/f4.sweep --csv f4.csv --jsonl f4.jsonl
    gcs sweep --topologies er:24:0.2 --seeds 0..32 --dry-run
";

const TRACE_USAGE: &str = "\
gcs trace — forensics over a recorded event stream

USAGE:
    gcs trace summary FILE.jsonl
    gcs trace blame   FILE.jsonl [--global] [--end T] [--max-hops N]
    gcs trace export  FILE.jsonl --chrome [--out FILE.json]

Reads a JSONL event log (`gcs run --events` or `--dump-recorder`),
reconstructs every node's exact hardware and logical clock plus the
happened-before DAG over all messages, and answers provenance queries
offline — no re-simulation.

ACTIONS:
    summary    per-node / per-edge event, delivery, and latency statistics
    blame      locate the peak-skew instant, then walk the causal chain of
               messages that produced it (the Theorem 5.10 wavefront),
               annotated with reconstructed clock readings
    export     convert the stream to another tool's format

OPTIONS (blame):
    --global       explain the peak *global* skew pair instead of the
                   peak local (neighbour) pair
    --end T        also evaluate skew at real time T (pass the run horizon
                   to include skew still growing at end of stream)
    --max-hops N   cap the causal walk length             (default 64)

OPTIONS (export):
    --chrome       Chrome trace-event / Perfetto JSON: one track per node
                   (load in chrome://tracing or ui.perfetto.dev)
    --out FILE     write to FILE instead of stdout

See docs/TRACE_FORMAT.md for the JSONL schema and the Chrome mapping.

EXAMPLE:
    gcs run --topology path:8 --delays wavefront --events run.jsonl
    gcs trace blame run.jsonl --end 120
";

const TOP_USAGE: &str = "\
gcs top — render a heartbeat stream as a status report

USAGE:
    gcs top FILE.jsonl
    gcs run --heartbeat - [...] | gcs top -

Reads a `gcs-heartbeat/v1` JSONL stream (written by `gcs run --heartbeat`
or `gcs sweep --heartbeat`; `-` = stdin) and renders the most recent run
beats, the final run summary, and sweep progress. Malformed,
truncated, or foreign lines are skipped, not fatal, so it works on live,
still-growing files. See docs/TRACE_FORMAT.md for the record schema.
";

const BENCH_USAGE: &str = "\
gcs bench — compare committed benchmark artifacts

USAGE:
    gcs bench diff OLD.json NEW.json [--tolerance F]

Compares two `gcs-bench-result/v1` artifacts (the repository's
BENCH_*.json files) metric by metric and reports the relative change.
The metric family — the segment before the first `/` — decides the
direction: `events_per_sec`, `speedup` and `throughput` regress when
they drop; `wall_seconds`, `median_seconds`, `allocs_per_event`,
`allocs_per_event_steady` and `overhead_ratio` regress when they rise;
unknown families are reported but never gate. `speedup/*` metrics are
skipped when either artifact was recorded on a single-core host, and
config drift between the artifacts is noted but does not gate.

OPTIONS:
    --tolerance F   relative change tolerated before a metric counts as
                    a regression (default 0.05 = 5%)

EXIT CODES:
    0    no regressions
    1    at least one metric regressed beyond the tolerance
    2    usage, I/O, or artifact-format error
";

const REPLAY_USAGE: &str = "\
gcs replay-check — diff two JSONL logs (determinism check)

USAGE:
    gcs replay-check FILE1.jsonl FILE2.jsonl

Compares line-by-line and reports the first divergence with surrounding
context from both streams. Works on `gcs run --events` logs and
`gcs sweep --jsonl` outputs alike.

EXIT CODES:
    0    streams are byte-identical
    1    usage or I/O error
    2    streams diverge
";

const LB_GLOBAL_USAGE: &str = "\
gcs lb-global — the Theorem 7.2 forced-global-skew construction

USAGE:
    gcs lb-global [--d D] [--eps E] [--t T] [--t-hat TH]

OPTIONS:
    --d D        path diameter                  (default 8)
    --eps E      drift bound ε̂                  (default 0.05)
    --t T        true delay bound 𝒯             (default 0.5)
    --t-hat TH   believed delay bound 𝒯̂         (default 2𝒯)
";

const LB_LOCAL_USAGE: &str = "\
gcs lb-local — the Theorem 7.7 forced-local-skew construction

USAGE:
    gcs lb-local [--b B] [--stages S] [--eps E] [--t T] [--algo NAME]

OPTIONS:
    --b B         branching factor               (default 4)
    --stages S    number of amplification stages (default 2)
    --eps E       drift bound ε̂                  (default 0.2)
    --t T         delay bound 𝒯                  (default 1.0)
    --algo NAME   nosync (default) | aopt | jump

Thm 7.7 guarantees the stage targets only for b ≥ b* = ⌈2(β − α)/(αε)⌉,
with α and β the attacked algorithm's logical-rate bounds (nosync:
1 ∓ ε; aopt: Corollary 5.3's 1 − ε and (1 + ε)(1 + μ); jump has no
finite β, hence no b*). Exit status 1 when a guaranteed target is missed.
";

const CHAOS_USAGE: &str = "\
gcs chaos — seeded fault-injection scenarios with an invariant oracle

Scenarios are `.chaos` documents (see docs/CHAOS.md): topology, algorithm,
substrate specs, a seed, and a schedule of timed fault clauses compiled
onto the delay model. Every scenario is deterministic — its outcome is a
pure function of the document — and the invariant
watchdog (Conditions (1)/(2), Definition 5.6) is the online oracle. A
violation is *expected* when an out-of-model clause (a rate outside the
drift bounds, a clog beyond 𝒯̂, a partition, a crash) allows it; otherwise
it is a **finding**.

Every scenario runs with the flight recorder armed: when the oracle
trips, `chaos run` dumps the recorder window (the recent causal events)
as FILE.dump.jsonl next to the scenario — or to --dump-recorder PATH —
and `chaos batch --fixtures DIR` attaches a finding-SEED.dump.jsonl for
the shrunk reproducer next to each finding-SEED.chaos fixture. Dumps are
standard event-log JSONL, consumable by `gcs trace summary|blame|export`.

USAGE:
    gcs chaos run FILE.chaos [--dump-recorder PATH]
    gcs chaos batch [--scenarios N] [--start-seed S] [--jobs W]
                    [--no-shrink] [--fixtures DIR]
    gcs chaos shrink FILE.chaos [--out FILE.chaos]
    gcs chaos replay FILE.chaos

SUBCOMMANDS:
    run       execute one scenario and print the oracle's verdict
    batch     run N seed-randomized scenarios on the worker pool; shrink
              every finding to a minimal reproducer `.chaos` fixture with
              a one-command repro line
    shrink    minimize a violating scenario — delta-debug whole clauses,
              halve durations, bisect windows, trim the horizon — until
              locally minimal; same input → byte-identical output
    replay    re-run a fixture and verify it reproduces its recorded
              violation (kind, node, and time must match exactly)

OPTIONS:
    --scenarios N     scenarios per batch                    (default 1000)
    --start-seed S    seed of the first scenario             (default 1)
    --jobs W          pool workers (default: available parallelism)
    --no-shrink       report findings without minimizing them
    --fixtures DIR    write finding fixtures into DIR instead of printing
                      the minimal documents to stdout
    --out FILE        where shrink writes the reproducer
                      (default: INPUT with a .min.chaos suffix)

EXIT STATUS:
    0  no findings (batch) / reproduced (replay) / ran (run, shrink)
    1  findings or failures (batch), violation mismatch (replay),
       unexpected violation (run)
    2  usage or execution errors
";

/// Every subcommand with its usage text, in help-listing order.
const COMMANDS: &[(&str, &str)] = &[
    ("bounds", BOUNDS_USAGE),
    ("run", RUN_USAGE),
    ("sweep", SWEEP_USAGE),
    ("chaos", CHAOS_USAGE),
    ("trace", TRACE_USAGE),
    ("top", TOP_USAGE),
    ("bench", BENCH_USAGE),
    ("replay-check", REPLAY_USAGE),
    ("lb-global", LB_GLOBAL_USAGE),
    ("lb-local", LB_LOCAL_USAGE),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((_, usage)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        eprintln!("error: unknown command `{command}`\n");
        eprintln!("available commands: {}", names.join(", "));
        eprintln!("run `gcs <command> --help` for options, or `gcs --help` for the overview.");
        return ExitCode::FAILURE;
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    // replay-check distinguishes "streams diverge" (exit 2) from usage and
    // I/O errors (exit 1) so scripts can branch on the comparison itself.
    if command == "replay-check" {
        return match cmd_replay_check(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(2),
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    // bench diff distinguishes "a metric regressed" (exit 1) from usage
    // and artifact-format errors (exit 2) so CI can gate on the
    // comparison itself.
    if command == "bench" {
        return match cmd_bench(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }
    // chaos distinguishes "findings / replay mismatch" (exit 1) from
    // usage and execution errors (exit 2) so CI can gate on the oracle
    // verdict itself.
    if command == "chaos" {
        return match cmd_chaos(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }
    // trace and top take positional arguments, not --key pairs.
    let result = if command == "trace" {
        cmd_trace(rest)
    } else if command == "top" {
        cmd_top(rest)
    } else {
        let opts = match Options::parse(rest, command, usage) {
            Ok(opts) => opts,
            Err(message) => {
                eprintln!("error: {message}\n");
                eprint!("{usage}");
                return ExitCode::FAILURE;
            }
        };
        match command.as_str() {
            "bounds" => cmd_bounds(&opts),
            "run" => cmd_run(&opts),
            "sweep" => cmd_sweep(&opts),
            "lb-global" => cmd_lb_global(&opts),
            "lb-local" => cmd_lb_local(&opts),
            _ => unreachable!("command membership checked above"),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--key value` options.
struct Options {
    values: HashMap<String, String>,
}

impl Options {
    /// Options that are pure flags: present or absent, no value.
    const FLAGS: &'static [&'static str] = &[
        "watchdog",
        "dry-run",
        "profile",
        "progress",
        "global",
        "chrome",
        "no-shrink",
        "deterministic-heartbeat",
    ];

    /// Parses `args` of `gcs VERB`, accepting only options that `usage`,
    /// the verb's help text, lists.
    fn parse(args: &[String], verb: &str, usage: &str) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut iter = args.iter();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected an option, got `{key}`"));
            };
            if !lists_option(usage, name) {
                return Err(format!("unknown option `{key}` for `gcs {verb}`"));
            }
            if Self::FLAGS.contains(&name) {
                values.insert(name.to_string(), String::new());
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(format!("option `{key}` needs a value"));
            };
            values.insert(name.to_string(), value.clone());
        }
        Ok(Options { values })
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map_or(default, String::as_str)
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: `{v}` is not a number")),
        }
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: `{v}` is not an integer")),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: `{v}` is not an integer")),
        }
    }
}

/// Whether `usage` mentions `--name` as a whole option (not as the prefix
/// of a longer one).
fn lists_option(usage: &str, name: &str) -> bool {
    let needle = format!("--{name}");
    !name.is_empty()
        && usage.match_indices(&needle).any(|(i, _)| {
            !usage[i + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
}

fn cmd_bounds(opts: &Options) -> Result<(), String> {
    let eps = opts.f64_or("eps", 1e-3)?;
    let t = opts.f64_or("t", 0.01)?;
    let d = opts.usize_or("d", 32)? as u32;
    let params = match opts.values.get("sigma") {
        Some(s) => {
            let sigma: u32 = s.parse().map_err(|_| "bad --sigma".to_string())?;
            Params::with_sigma(eps, t, sigma)
        }
        None => Params::recommended(eps, t),
    }
    .map_err(|e| e.to_string())?;
    let (alpha, beta) = params.rate_envelope();
    let mut table = Table::new(vec!["quantity", "value"]);
    table.row(vec!["ε̂ (drift bound)".into(), format!("{eps}")]);
    table.row(vec!["𝒯̂ (delay bound)".into(), format!("{t}")]);
    table.row(vec![
        "μ (fast-mode boost)".into(),
        format!("{:.6}", params.mu()),
    ]);
    table.row(vec![
        "H₀ (send period)".into(),
        format!("{:.6}", params.h0()),
    ]);
    table.row(vec!["κ (quantum)".into(), format!("{:.6}", params.kappa())]);
    table.row(vec!["σ (log base)".into(), params.sigma().to_string()]);
    table.row(vec!["α (min logical rate)".into(), format!("{alpha:.6}")]);
    table.row(vec!["β (max logical rate)".into(), format!("{beta:.6}")]);
    table.row(vec![
        format!("𝒢 global bound (D = {d})"),
        format!("{:.6}", params.global_skew_bound(d)),
    ]);
    table.row(vec![
        format!("local bound (D = {d})"),
        format!("{:.6}", params.local_skew_bound(d)),
    ]);
    table.row(vec![
        "amortized msgs/node/𝒯̂".into(),
        format!("{:.4}", t / params.h0()),
    ]);
    println!("{table}");
    Ok(())
}

/// Opens a heartbeat sink: `-` is stdout, anything else a fresh file.
fn heartbeat_writer(path: &str) -> Result<Box<dyn Write + Send>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        let file =
            File::create(path).map_err(|e| format!("cannot create heartbeat log {path}: {e}"))?;
        Ok(Box::new(BufWriter::new(file)))
    }
}

/// Default location for automatic recorder dumps (watchdog trip, engine
/// panic): `dumps/NAME`, creating the git-ignored directory on demand so
/// repeated trips never litter the working-tree root. Explicit
/// `--dump-recorder` paths are used verbatim and skip this.
fn default_dump_path(name: &str) -> String {
    if let Err(e) = std::fs::create_dir_all("dumps") {
        // Fall back to the cwd rather than losing the forensic artifact.
        eprintln!("warning: cannot create dumps/: {e}; writing dump to the current directory");
        return name.to_string();
    }
    format!("dumps/{name}")
}

/// Writes a flight-recorder window to `path` in the JSONL event-log
/// format (consumable by `gcs trace` and `gcs replay-check`). Returns the
/// number of events in the window.
fn write_recorder_dump(path: &str, recorder: &RecorderSink) -> Result<usize, String> {
    let events = recorder.window_events();
    write_jsonl(path, &events).map_err(|e| format!("cannot write recorder dump {path}: {e}"))?;
    Ok(events.len())
}

/// Builds the `gcs run` sink set: each observability flag switches on one
/// optional sink of the shared [`SinkSet`].
fn run_sinks(scenario: &Scenario, opts: &Options) -> Result<SinkSet, String> {
    let graph = &scenario.graph;
    let horizon = scenario.horizon;
    let mut sinks = SinkSet::new(graph);
    if opts.values.contains_key("trace") {
        if horizon <= 0.0 {
            return Err("--trace samples every horizon / 500 and needs a positive horizon".into());
        }
        sinks.trace = Some(ClockTrace::new(graph.len(), horizon / 500.0));
    }
    if let Some(path) = opts.values.get("events") {
        let file =
            File::create(path).map_err(|e| format!("cannot create event log {path}: {e}"))?;
        sinks.events = Some(JsonlWriter::new(BufWriter::new(file)));
    }
    sinks.metrics = opts.values.contains_key("metrics").then(MetricsSink::new);
    sinks.watchdog = opts.flag("watchdog").then(|| scenario.watchdog());
    if let Some(path) = opts.values.get("heartbeat") {
        let every = opts.f64_or("heartbeat-every", horizon / 20.0)?;
        if !(every > 0.0 && every.is_finite()) {
            return Err(format!(
                "option --heartbeat-every: cadence must be positive, got `{every}`"
            ));
        }
        let deterministic = opts.flag("deterministic-heartbeat");
        sinks.heartbeat = Some(Heartbeat::new(
            heartbeat_writer(path)?,
            every,
            deterministic,
        ));
    }
    if let Some(path) = opts.values.get("skew-field") {
        let edges: Vec<(usize, usize)> =
            graph.edges().map(|(a, b)| (a.index(), b.index())).collect();
        if edges.is_empty() {
            return Err("--skew-field needs a topology with at least one edge".to_string());
        }
        let every = opts.f64_or("skew-field-every", horizon / 20.0)?;
        if !(every > 0.0 && every.is_finite()) {
            return Err(format!(
                "option --skew-field-every: window must be positive, got `{every}`"
            ));
        }
        let writer = SkewFieldWriter::new(heartbeat_writer(path)?, edges, every);
        sinks.skew_field = Some(writer);
    }
    Ok(sinks)
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let eps = opts.f64_or("eps", 1e-2)?;
    let t = opts.f64_or("t", 0.1)?;
    let horizon = opts.f64_or("horizon", 120.0)?;
    let seed = opts.u64_or("seed", 42)?;
    let delays = opts.str_or("delays", "uniform");
    let kappa_factor = match opts.values.get("kappa-factor") {
        None => None,
        Some(text) => {
            let factor: f64 = text
                .parse()
                .map_err(|_| format!("option --kappa-factor: `{text}` is not a number"))?;
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(format!(
                    "option --kappa-factor: `{text}` must be positive and finite"
                ));
            }
            Some((text, factor))
        }
    };
    // The sweep crate owns the spec mini-language and the execution path;
    // `run` is a one-job scenario with extra observability attached.
    let mut scenario = Scenario::build(ScenarioSpec {
        topology: opts.str_or("topology", "path:16"),
        eps,
        t,
        sigma: None,
        delay: delays,
        rates: opts.str_or("rates", "walk"),
        faults: Vec::new(),
        seed,
        horizon,
        horizon_per_diameter: 0.0,
    })?;
    if let Some((text, factor)) = kappa_factor {
        scenario.params = scenario.params.with_kappa_factor_unchecked(factor);
        println!(
            "κ scaled by {text}: κ = {:.6} (Eq. 4 minimum: {:.6})",
            scenario.params.kappa(),
            scenario.params.min_kappa()
        );
    }
    let algo = opts.str_or("algo", "aopt");
    let sinks = run_sinks(&scenario, opts)?;
    let profiling = opts.flag("profile") || opts.values.contains_key("profile-json");
    let Outcome {
        nodes: n,
        diameter: d,
        horizon,
        global_bound,
        local_bound,
        stats,
        mut sinks,
        profile,
        panic,
    } = scenario.run(algo, sinks, profiling)?;
    if let Some(payload) = panic {
        // The engine panicked mid-run: salvage the flight-recorder window
        // before propagating, so the crash leaves a forensic artifact.
        let path = opts
            .values
            .get("dump-recorder")
            .cloned()
            .unwrap_or_else(|| default_dump_path("recorder-panic.jsonl"));
        match write_recorder_dump(&path, &sinks.recorder) {
            Ok(count) => eprintln!("panic: recorder dump written to {path} ({count} events)"),
            Err(e) => eprintln!("panic: {e}"),
        }
        std::panic::resume_unwind(payload);
    }

    if let Some(trace) = sinks.trace.take() {
        let path = &opts.values["trace"];
        trace
            .write_csv(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        println!("trace written to {path} ({} rows)", trace.len());
    }
    if let Some(writer) = sinks.events.take() {
        let path = &opts.values["events"];
        let written = writer.written();
        writer
            .finish()
            .map_err(|e| format!("cannot write event log to {path}: {e}"))?;
        println!("event log written to {path} ({written} events)");
    }
    if let Some(skew_field) = sinks.skew_field.take() {
        skew_field
            .finish()
            .map_err(|e| format!("skew-field write failed: {e}"))?;
        let path = &opts.values["skew-field"];
        if path != "-" {
            println!("skew-field log written to {path}");
        }
    }
    if let Some(heartbeat) = sinks.heartbeat.take() {
        heartbeat.finish(horizon, &sinks)?;
        let path = &opts.values["heartbeat"];
        if path != "-" {
            println!("heartbeat log written to {path}");
        }
    }
    let trip = sinks.watchdog.as_ref().and_then(|w| w.trip().cloned());
    // Dump the flight-recorder window when asked (--dump-recorder) or when
    // the watchdog tripped (to the requested path, else a default under
    // dumps/), so every violation leaves a trace-able artifact without
    // littering the working-tree root.
    let dump_path = match (opts.values.get("dump-recorder"), &trip) {
        (Some(path), _) => Some(path.clone()),
        (None, Some(_)) => Some(default_dump_path("recorder-trip.jsonl")),
        (None, None) => None,
    };
    if let Some(path) = dump_path {
        let count = write_recorder_dump(&path, &sinks.recorder)?;
        println!(
            "recorder dump written to {path} ({count} of {} recorded events)",
            sinks.recorder.recorded()
        );
    }

    let observer = &sinks.observer;
    let mut table = Table::new(vec!["quantity", "value"]);
    table.row(vec!["algorithm".into(), algo.to_string()]);
    table.row(vec!["nodes / diameter".into(), format!("{n} / {d}")]);
    let (g_ahead, g_behind) = observer.worst_global_pair();
    table.row(vec![
        "worst global skew".into(),
        format!(
            "{:.6}  (v{g_ahead} − v{g_behind} at t = {:.2})",
            observer.worst_global(),
            observer.worst_global_at()
        ),
    ]);
    let (l_ahead, l_behind) = observer.worst_local_pair();
    table.row(vec![
        "worst local skew".into(),
        format!(
            "{:.6}  (v{l_ahead} − v{l_behind} at t = {:.2})",
            observer.worst_local(),
            observer.worst_local_at()
        ),
    ]);
    table.row(vec![
        "A^opt bounds (𝒢 / local)".into(),
        format!("{global_bound:.6} / {local_bound:.6}"),
    ]);
    table.row(vec!["send events".into(), stats.send_events.to_string()]);
    table.row(vec![
        "deliveries / dropped".into(),
        format!("{} / {}", stats.deliveries, stats.dropped),
    ]);
    table.row(vec![
        "delivery imbalance (max/mean)".into(),
        format!("{:.3}", delivery_imbalance(&stats)),
    ]);
    println!("{table}");

    if let Some(profile) = &profile {
        if opts.flag("profile") {
            println!();
            print!("{profile}");
        }
        if let Some(path) = opts.values.get("profile-json") {
            let json = profile.to_json();
            if path == "-" {
                print!("{json}");
            } else {
                std::fs::write(path, &json)
                    .map_err(|e| format!("cannot write profile JSON to {path}: {e}"))?;
                println!("profile JSON written to {path}");
            }
        }
    }

    if let Some(metrics) = sinks.metrics.as_ref() {
        let path = opts.values["metrics"].as_str();
        let json = metrics.registry().to_json();
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write metrics JSON to {path}: {e}"))?;
            println!("\nmetrics snapshot:");
            print!("{}", metrics.render());
            println!("metrics JSON written to {path}");
        }
    }

    match &trip {
        Some(trip) => {
            println!();
            print!("{}", trip.render());
            Err("invariant watchdog tripped".to_string())
        }
        None => {
            if opts.flag("watchdog") {
                println!("\nwatchdog: all invariants held");
            }
            Ok(())
        }
    }
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let mut spec = match opts.values.get("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file {path}: {e}"))?;
            SweepSpec::parse_str(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => SweepSpec::default(),
    };
    // Explicit flags override spec-file entries; flag names are the spec
    // keys (see `SweepSpec::apply`).
    for key in [
        "topologies",
        "algos",
        "eps",
        "t",
        "sigma",
        "delays",
        "rates",
        "chaos",
        "seeds",
        "horizon",
        "horizon-per-d",
    ] {
        if let Some(value) = opts.values.get(key) {
            spec.apply(key, value)?;
        }
    }
    if opts.flag("watchdog") {
        spec.watchdog = true;
    }
    spec.validate()?;
    let jobs_total = spec.len();
    let default_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = opts.usize_or("jobs", default_workers)?.max(1);

    if opts.flag("dry-run") {
        let mut table = Table::new(vec![
            "job", "topology", "algo", "eps", "t", "sigma", "delay", "rates", "chaos", "seed",
        ]);
        for job in (0..jobs_total).map(|index| spec.job(index)) {
            table.row(vec![
                job.index.to_string(),
                job.topology,
                job.algo,
                job.eps.to_string(),
                job.t.to_string(),
                job.sigma.map_or_else(|| "rec".into(), |s| s.to_string()),
                job.delay,
                job.rates,
                job.chaos,
                job.seed.to_string(),
            ]);
        }
        println!("{table}");
        println!("{jobs_total} jobs (dry run; would use {workers} workers)");
        return Ok(());
    }

    let open = |key: &str| -> Result<Option<BufWriter<File>>, String> {
        match opts.values.get(key) {
            Some(path) => File::create(path)
                .map(|f| Some(BufWriter::new(f)))
                .map_err(|e| format!("cannot create {path}: {e}")),
            None => Ok(None),
        }
    };
    let mut csv = open("csv")?;
    let mut jsonl = open("jsonl")?;
    // Sweep heartbeats are paced by completed-job count, not simulated
    // time; the cadence passed to the emitter is unused.
    let mut heartbeat = match opts.values.get("heartbeat") {
        Some(path) => Some(HeartbeatEmitter::new(
            heartbeat_writer(path)?,
            1.0,
            opts.flag("deterministic-heartbeat"),
        )),
        None => None,
    };
    let hb_every = opts.u64_or("heartbeat-every", 1)?.max(1);
    let mut io_error: Option<String> = None;
    if let Some(w) = csv.as_mut() {
        if let Err(e) = writeln!(w, "{}", report::CSV_HEADER) {
            io_error = Some(format!("csv write failed: {e}"));
        }
    }

    println!(
        "sweep: {jobs_total} jobs on {workers} worker{}",
        if workers == 1 { "" } else { "s" }
    );
    let started = Instant::now();
    // The live progress line goes to stderr only, in completion order;
    // stdout and the CSV/JSONL files stay byte-identical with or without it.
    let progress = opts.flag("progress").then_some(|p: PoolProgress| {
        eprint!(
            "\r[{}/{}] {:.1}s elapsed, ETA {:.1}s   ",
            p.done,
            p.total,
            p.elapsed.as_secs_f64(),
            p.eta().as_secs_f64()
        );
        let _ = std::io::stderr().flush();
    });
    let mut hb_done: u64 = 0;
    let mut hb_events: u64 = 0;
    let (aggregate, pool_stats) = run_sweep(
        &spec,
        workers,
        |job, outcome| {
            if let Some(w) = csv.as_mut() {
                if let Err(e) = writeln!(w, "{}", report::csv_row(&job, &outcome)) {
                    io_error.get_or_insert(format!("csv write failed: {e}"));
                }
            }
            if let Some(w) = jsonl.as_mut() {
                if let Err(e) = writeln!(w, "{}", report::jsonl_row(&job, &outcome)) {
                    io_error.get_or_insert(format!("jsonl write failed: {e}"));
                }
            }
            // Emission happens in job-index order (see `run_pool`), so
            // the heartbeat stream is deterministic at any --jobs value.
            if let Some(hb) = heartbeat.as_mut() {
                hb_done += 1;
                if let Some(r) = outcome.completed() {
                    hb_events += r.events_recorded;
                }
                if hb_done.is_multiple_of(hb_every) || hb_done == jobs_total as u64 {
                    if let Err(e) =
                        hb.sweep_beat(hb_done, jobs_total as u64, hb_events, &job.label())
                    {
                        io_error.get_or_insert(format!("heartbeat write failed: {e}"));
                    }
                }
            }
        },
        progress,
    );
    if opts.flag("progress") {
        eprintln!();
    }
    let elapsed = started.elapsed();
    if let Some(w) = jsonl.as_mut() {
        if let Err(e) = writeln!(w, "{}", report::jsonl_summary(&aggregate)) {
            io_error.get_or_insert(format!("jsonl write failed: {e}"));
        }
    }
    for (name, writer) in [("csv", csv), ("jsonl", jsonl)] {
        if let Some(mut w) = writer {
            if let Err(e) = w.flush() {
                io_error.get_or_insert(format!("{name} flush failed: {e}"));
            }
        }
    }
    if let Some(hb) = heartbeat {
        if let Err(e) = hb.into_inner().flush() {
            io_error.get_or_insert(format!("heartbeat flush failed: {e}"));
        }
    }
    if let Some(e) = io_error {
        return Err(e);
    }

    println!(
        "completed {} / failed {} / watchdog trips {} in {:.2?}\n",
        aggregate.completed, aggregate.failed, aggregate.watchdog_trips, elapsed
    );
    println!("{}", aggregate.render_table());
    if opts.flag("profile") {
        print!("{}", pool_stats.render());
    }
    if let Some(path) = opts.values.get("csv") {
        println!("per-job CSV written to {path}");
    }
    if let Some(path) = opts.values.get("jsonl") {
        println!("per-job JSONL written to {path}");
    }
    if let Some(path) = opts.values.get("heartbeat") {
        if path != "-" {
            println!("heartbeat log written to {path}");
        }
    }
    if aggregate.failed > 0 {
        for (index, message) in &aggregate.failures {
            eprintln!("job {}: {message}", spec.job(*index).label());
        }
        return Err(format!("{} of {jobs_total} jobs failed", aggregate.failed));
    }
    Ok(())
}

/// Compares two event logs. `Ok(true)` means identical, `Ok(false)` means
/// a divergence was found and reported (exit code 2 in `main`).
fn cmd_replay_check(args: &[String]) -> Result<bool, String> {
    let [left, right] = args else {
        return Err("replay-check needs exactly two event-log paths".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (a, b) = (read(left)?, read(right)?);
    match diff_streams(&a, &b) {
        None => {
            println!(
                "replay-check: streams are byte-identical ({} events)",
                a.lines().count()
            );
            Ok(true)
        }
        Some(diff) => {
            println!("replay-check: streams diverge at line {}:", diff.line);
            // Lines before the divergence are identical in both streams,
            // so the leading context is printed once.
            const CONTEXT: usize = 3;
            let lines: Vec<&str> = a.lines().collect();
            let first = diff.line.saturating_sub(1).saturating_sub(CONTEXT);
            for (offset, line) in lines[first..diff.line - 1].iter().enumerate() {
                println!("     {:>6}  {line}", first + offset + 1);
            }
            println!(
                "  <  {:>6}  {}",
                diff.line,
                diff.left.as_deref().unwrap_or("<end of stream>")
            );
            println!(
                "  >  {:>6}  {}",
                diff.line,
                diff.right.as_deref().unwrap_or("<end of stream>")
            );
            // Trailing context from each stream separately — after the
            // divergence they no longer correspond line-for-line.
            for (marker, text) in [('<', &a), ('>', &b)] {
                for (offset, line) in text.lines().skip(diff.line).take(CONTEXT - 1).enumerate() {
                    println!("  {marker}  {:>6}  {line}", diff.line + offset + 1);
                }
            }
            eprintln!("error: event streams differ");
            Ok(false)
        }
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let [action, path, rest @ ..] = args else {
        return Err(
            "trace needs an action (summary|blame|export) and an event-log path".to_string(),
        );
    };
    let opts = Options::parse(rest, "trace", TRACE_USAGE)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_stream(&text).map_err(|e| format!("{path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{path}: stream contains no events"));
    }
    let dag = Dag::from_events(events);
    match action.as_str() {
        "summary" => {
            print!("{}", TraceSummary::from_dag(&dag).render());
            Ok(())
        }
        "blame" => {
            let clocks = ClockReconstruction::from_events(dag.events());
            let end = match opts.values.get("end") {
                Some(v) => {
                    let end: f64 = v
                        .parse()
                        .map_err(|_| format!("option --end: `{v}` is not a number"))?;
                    if !end.is_finite() {
                        return Err(format!("option --end: `{v}` must be finite"));
                    }
                    Some(end)
                }
                None => None,
            };
            let max_hops = opts.usize_or("max-hops", 64)?;
            let report = blame(&dag, &clocks, end, max_hops, opts.flag("global"))
                .ok_or("stream never has two nodes awake at once — no skew to explain")?;
            print!("{}", report.render(&clocks));
            Ok(())
        }
        "export" => {
            if !opts.flag("chrome") {
                return Err("export needs a format; the supported one is --chrome".to_string());
            }
            let json = export_chrome(&dag);
            match opts.values.get("out") {
                Some(out) => {
                    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
                    println!(
                        "chrome trace written to {out} ({} events, {} messages)",
                        dag.events().len(),
                        dag.messages().len()
                    );
                }
                None => print!("{json}"),
            }
            Ok(())
        }
        other => Err(format!(
            "unknown trace action `{other}` (expected summary, blame, or export)"
        )),
    }
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("top needs exactly one heartbeat-stream path (or `-` for stdin)".to_string());
    };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let (records, skipped) = clock_sync::telemetry::parse_stream(&text);
    print!("{}", clock_sync::telemetry::render_top(&records, skipped));
    Ok(())
}

/// Compares two bench artifacts. `Ok(true)` means no regressions,
/// `Ok(false)` means at least one metric regressed (exit code 1 in
/// `main`); `Err` is a usage or artifact error (exit code 2).
fn cmd_bench(args: &[String]) -> Result<bool, String> {
    let [action, old_path, new_path, rest @ ..] = args else {
        return Err(
            "bench needs an action (diff) and two `gcs-bench-result/v1` artifact paths".to_string(),
        );
    };
    if action != "diff" {
        return Err(format!("unknown bench action `{action}` (expected diff)"));
    }
    let opts = Options::parse(rest, "bench", BENCH_USAGE)?;
    let tolerance = opts.f64_or("tolerance", 0.05)?;
    if !(tolerance >= 0.0 && tolerance.is_finite()) {
        return Err(format!(
            "option --tolerance: must be a non-negative number, got {tolerance}"
        ));
    }
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let old = parse_artifact(&read(old_path)?).map_err(|e| format!("{old_path}: {e}"))?;
    let new = parse_artifact(&read(new_path)?).map_err(|e| format!("{new_path}: {e}"))?;
    let report = bench_diff(&old, &new, tolerance)?;
    print!("{}", report.render());
    Ok(report.regressions() == 0)
}

fn cmd_lb_global(opts: &Options) -> Result<(), String> {
    let d = opts.usize_or("d", 8)?;
    let eps = opts.f64_or("eps", 0.05)?;
    let t = opts.f64_or("t", 0.5)?;
    let t_hat = opts.f64_or("t-hat", 2.0 * t)?;
    let lb = GlobalLowerBound::new(
        clock_sync::graph::topology::path(d + 1),
        eps,
        eps,
        t,
        t_hat,
        eps / 5.0,
    )?;
    let params = Params::recommended(eps, t_hat).map_err(|e| e.to_string())?;
    let (reports, indistinguishable) =
        lb.verify_indistinguishable(|| vec![AOpt::new(params); d + 1]);
    let mut table = Table::new(vec!["execution", "endpoint skew", "max skew"]);
    for r in &reports {
        table.row(vec![
            format!("{:?}", r.execution),
            format!("{:.4}", r.endpoint_skew),
            format!("{:.4}", r.max_skew),
        ]);
    }
    println!("Theorem 7.2 on a path of D = {d} (ε = {eps}, 𝒯 = {t}, 𝒯̂ = {t_hat}):");
    println!(
        "ϱ = {:.4}, predicted floor (1+ϱ)D𝒯 = {:.4}\n",
        lb.rho(),
        lb.predicted_skew()
    );
    println!("{table}");
    println!("locally indistinguishable at every node: {indistinguishable}");
    println!(
        "A^opt upper bound 𝒢 = {:.4}; forced/𝒢 = {:.2}",
        params.global_skew_bound(d as u32),
        reports[2].endpoint_skew / params.global_skew_bound(d as u32)
    );
    Ok(())
}

fn cmd_lb_local(opts: &Options) -> Result<(), String> {
    let b = opts.usize_or("b", 4)?;
    let stages = opts.usize_or("stages", 2)?;
    let eps = opts.f64_or("eps", 0.2)?;
    let t = opts.f64_or("t", 1.0)?;
    let alpha = 1.0 - eps;
    let lb = LocalLowerBound::new(b, stages, eps, t, alpha)?;
    let algo = opts.str_or("algo", "nosync");
    if !["nosync", "aopt", "jump"].contains(&algo) {
        return Err(format!("lb-local supports nosync|aopt|jump, got `{algo}`"));
    }
    let params = Params::recommended(eps, t).map_err(|e| e.to_string())?;
    // The attacked algorithm's logical-rate envelope [α, β]; `jump` sets
    // its clock forward, so its β is unbounded.
    let envelope = match algo {
        "nosync" => Some((alpha, 1.0 + eps)),
        "aopt" => Some(params.rate_envelope()),
        _ => None,
    };
    let reports = with_protocols(algo, params, lb.d_prime() + 1, LocalConstruction(&lb))?;
    println!(
        "Theorem 7.7 construction: D' = {}, b = {b}, {stages} stages, vs {algo}\n",
        lb.d_prime()
    );
    let mut table = Table::new(vec!["stage", "pair", "distance", "skew", "target"]);
    for r in &reports {
        table.row(vec![
            r.stage.to_string(),
            format!("v{}..v{}", r.ahead, r.behind),
            r.distance.to_string(),
            format!("{:.4}", r.skew),
            format!("{:.4}", r.target),
        ]);
    }
    println!("{table}");
    let guaranteed = match envelope {
        Some((alpha, beta)) => {
            let drift = DriftBounds::new(eps).map_err(|e| e.to_string())?;
            let b_star = RateEnvelope::new(alpha, beta).lower_bound_base(drift);
            println!(
                "Thm 7.7 threshold for {algo}: b* = ⌈2(β − α)/(αε)⌉ = {b_star} \
                 (α = {alpha:.4}, β = {beta:.4})"
            );
            b as f64 >= b_star
        }
        None => {
            println!("Thm 7.7 threshold for {algo}: none (β is unbounded, so no finite b* exists)");
            false
        }
    };
    let target = lb.guaranteed_final_skew();
    if !guaranteed {
        println!("final neighbour target (not guaranteed): {target:.4}");
        return Ok(());
    }
    println!("guaranteed final neighbour skew (b ≥ b*): {target:.4}");
    match reports.iter().find(|r| !r.meets_target()) {
        Some(r) => Err(format!(
            "stage {} forced skew {:.4}, below its guaranteed target {:.4}",
            r.stage, r.skew, r.target
        )),
        None => Ok(()),
    }
}

/// Runs the Theorem 7.7 construction against the registry's protocols.
struct LocalConstruction<'a>(&'a LocalLowerBound);

impl ProtocolVisitor for LocalConstruction<'_> {
    type Output = Vec<StageReport>;

    fn visit<P: Protocol>(self, protocols: Vec<P>) -> Vec<StageReport> {
        self.0.run(|_| protocols)
    }
}

/// `gcs chaos` — see [`CHAOS_USAGE`]. Returns `Ok(false)` for oracle-level
/// failures (findings, replay mismatch) so `main` can exit 1 vs. 2.
fn cmd_chaos(args: &[String]) -> Result<bool, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("chaos needs a subcommand: run | batch | shrink | replay".into());
    };
    // One optional positional FILE.chaos, then ordinary --key options.
    let (path, flags) = match rest.split_first() {
        Some((first, more)) if !first.starts_with("--") => (Some(first.as_str()), more),
        _ => (None, rest),
    };
    let opts = Options::parse(flags, "chaos", CHAOS_USAGE)?;
    let need_path = || path.ok_or_else(|| format!("chaos {sub} needs a FILE.chaos argument"));
    let load = |p: &str| -> Result<ChaosSpec, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        ChaosSpec::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match sub.as_str() {
        "run" => {
            let p = need_path()?;
            let spec = load(p)?;
            let out = run_scenario(&spec)?;
            print_chaos_outcome(&out);
            // A tripped oracle leaves its flight-recorder window next to
            // the scenario (or wherever --dump-recorder points): the
            // causal events, ready for `gcs trace blame`.
            if let Some(events) = &out.recorder_window {
                let dump = match opts.values.get("dump-recorder") {
                    Some(o) => o.clone(),
                    None => format!("{}.dump.jsonl", p.strip_suffix(".chaos").unwrap_or(p)),
                };
                write_jsonl(&dump, events)
                    .map_err(|e| format!("cannot write recorder dump {dump}: {e}"))?;
                println!("recorder dump written to {dump} ({} events)", events.len());
            }
            Ok(!out.unexpected())
        }
        "batch" => {
            if path.is_some() {
                return Err("chaos batch takes options only, no FILE argument".into());
            }
            let cfg = BatchConfig {
                scenarios: opts.usize_or("scenarios", 1000)?,
                start_seed: opts.u64_or("start-seed", 1)?,
                workers: opts.usize_or("jobs", 0)?,
                shrink: !opts.flag("no-shrink"),
            };
            println!(
                "chaos batch: {} scenarios from seed {}",
                cfg.scenarios, cfg.start_seed
            );
            let summary = run_batch(&cfg);
            let mut table = Table::new(vec!["verdict", "count"]);
            table.row(vec!["clean".into(), summary.clean.to_string()]);
            table.row(vec![
                "expected violations".into(),
                summary.expected_violations.to_string(),
            ]);
            table.row(vec![
                "findings (unexpected)".into(),
                summary.findings.len().to_string(),
            ]);
            table.row(vec!["failed".into(), summary.failed.len().to_string()]);
            println!("{table}");
            for (seed, error) in &summary.failed {
                eprintln!("seed {seed} failed: {error}");
            }
            for f in &summary.findings {
                let spec = f.shrunk.as_ref().map_or(&f.spec, |s| &s.spec);
                match opts.values.get("fixtures") {
                    Some(dir) => {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| format!("cannot create {dir}: {e}"))?;
                        let file = format!("{dir}/finding-{}.chaos", f.seed);
                        std::fs::write(&file, spec.format())
                            .map_err(|e| format!("cannot write {file}: {e}"))?;
                        println!("finding: seed {} ({}) -> {file}", f.seed, f.kind);
                        // Re-run the (shrunk) reproducer once to capture
                        // its flight-recorder window — the minimal causal
                        // event dump — next to the fixture.
                        if let Ok(rerun) = run_scenario(spec) {
                            if let Some(events) = &rerun.recorder_window {
                                let dump = format!("{dir}/finding-{}.dump.jsonl", f.seed);
                                write_jsonl(&dump, events).map_err(|e| {
                                    format!("cannot write recorder dump {dump}: {e}")
                                })?;
                                println!("recorder dump: {dump} ({} events)", events.len());
                            }
                        }
                        println!("repro: {}", ChaosSpec::repro_line(&file));
                    }
                    None => {
                        println!("finding: seed {} ({}):", f.seed, f.kind);
                        print!("{}", spec.format());
                    }
                }
            }
            Ok(summary.findings.is_empty() && summary.failed.is_empty())
        }
        "shrink" => {
            let p = need_path()?;
            let spec = load(p)?;
            let res = shrink_scenario(&spec)?;
            let out_path = match opts.values.get("out") {
                Some(o) => o.clone(),
                None => format!("{}.min.chaos", p.strip_suffix(".chaos").unwrap_or(p)),
            };
            std::fs::write(&out_path, res.spec.format())
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            println!(
                "shrunk {} clause{} -> {} in {} executions",
                res.original_clauses,
                if res.original_clauses == 1 { "" } else { "s" },
                res.spec.faults.len(),
                res.executions
            );
            println!(
                "violation: {} at node {} t {}",
                res.violation.kind(),
                res.violation.node(),
                res.violation.time()
            );
            println!("wrote {out_path}");
            println!("repro: {}", ChaosSpec::repro_line(&out_path));
            Ok(true)
        }
        "replay" => {
            let p = need_path()?;
            let spec = load(p)?;
            let out = run_scenario(&spec)?;
            let observed = out
                .violation
                .as_ref()
                .map(|v| format!("{} at node {} t {}", v.kind(), v.node(), v.time()));
            let recorded = spec
                .violation
                .as_ref()
                .map(|v| format!("{} at node {} t {}", v.kind, v.node, v.t));
            let reproduced = match (&spec.violation, &out.violation) {
                (Some(exp), Some(got)) => {
                    exp.kind == got.kind()
                        && exp.node == got.node()
                        && exp.t.to_bits() == got.time().to_bits()
                }
                (None, None) => true,
                _ => false,
            };
            let none = || "clean (no violation)".to_string();
            if reproduced {
                println!("reproduced: {}", recorded.unwrap_or_else(none));
                Ok(true)
            } else {
                println!("MISMATCH:");
                println!("  recorded: {}", recorded.unwrap_or_else(none));
                println!("  observed: {}", observed.unwrap_or_else(none));
                Ok(false)
            }
        }
        other => Err(format!(
            "unknown chaos subcommand `{other}` (expected run | batch | shrink | replay)"
        )),
    }
}

/// Renders one scenario outcome as the `gcs chaos run` report.
fn print_chaos_outcome(out: &ScenarioOutcome) {
    let r = &out.result;
    let mut table = Table::new(vec!["quantity", "value"]);
    table.row(vec!["nodes".into(), r.nodes.to_string()]);
    table.row(vec!["diameter".into(), r.diameter.to_string()]);
    table.row(vec!["horizon".into(), format!("{}", r.horizon)]);
    table.row(vec!["global skew".into(), format!("{:.6}", r.global_skew)]);
    table.row(vec![
        "global bound 𝒢".into(),
        format!("{:.6}", r.global_bound),
    ]);
    table.row(vec!["local skew".into(), format!("{:.6}", r.local_skew)]);
    table.row(vec!["local bound".into(), format!("{:.6}", r.local_bound)]);
    table.row(vec!["transmissions".into(), r.transmissions.to_string()]);
    table.row(vec!["deliveries".into(), r.deliveries.to_string()]);
    table.row(vec!["dropped (model)".into(), r.dropped_model.to_string()]);
    table.row(vec![
        "dropped (faults)".into(),
        r.dropped_faults.to_string(),
    ]);
    table.row(vec!["duplicated".into(), r.duplicated.to_string()]);
    println!("{table}");
    match &out.violation {
        None => println!("oracle: clean — no invariant violation"),
        Some(v) => {
            let class = if out.violation_expected {
                "expected (out-of-model clause present)"
            } else {
                "UNEXPECTED — a finding"
            };
            println!(
                "oracle: {} violation at node {} t {} — {class}",
                v.kind(),
                v.node(),
                v.time()
            );
        }
    }
}
