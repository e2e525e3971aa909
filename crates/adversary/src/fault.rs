//! Timed fault primitives and the [`ChaosDelay`] injection layer.
//!
//! A fault schedule is a list of [`FaultClause`]s, each a time-windowed
//! primitive: link **clog**ging and **flap**ping, probabilistic message
//! **drop**s and **dup**lication, network **partition**s that heal at the
//! window's end, node **crash**/restart, and **rate**-schedule attacks.
//! The delay-layer clauses compile into [`ChaosDelay`], a [`DelayModel`]
//! wrapper injected through the ordinary engine send path — so `EventSink`
//! tracing and the invariant watchdog keep working. Rate clauses are
//! compiled separately into [`RateSchedule`] overlays by
//! [`apply_rate_faults`], because hardware rates are engine inputs, not
//! message delays.
//!
//! Every random decision (drop, duplicate) is a [`chaos_hash`] of
//! `(seed, clause, src, dst, send time)` — a pure function of the send
//! context, with no RNG stream. That makes an injected execution a pure
//! function of the clause list and seed: re-running a shrunk schedule is
//! exactly re-running the scenario.
//!
//! "Fault Tolerant Gradient Clock Synchronization" (see `PAPERS.md`)
//! delineates which of these faults `A^opt` should survive;
//! [`FaultClause::violation_allowed`] encodes that verdict per clause so a
//! batch driver can separate *expected* watchdog trips (the algorithm's
//! assumptions were broken) from *findings*.

use std::fmt;

use gcs_graph::NodeId;
use gcs_sim::{DelayCtx, DelayModel, Delivery, DropCause};
use gcs_time::{DriftBounds, RateSchedule};

/// A set of undirected edges a clause applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeSel {
    /// Every edge.
    All,
    /// The listed unordered node pairs (a transmission matches in either
    /// direction).
    List(Vec<(usize, usize)>),
}

impl EdgeSel {
    /// Whether a transmission `src -> dst` falls under this selector.
    pub fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        match self {
            EdgeSel::All => true,
            EdgeSel::List(pairs) => pairs.iter().any(|&(a, b)| {
                (a == src.index() && b == dst.index()) || (a == dst.index() && b == src.index())
            }),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        if s == "*" {
            return Ok(EdgeSel::All);
        }
        let mut pairs = Vec::new();
        for part in s.split('/') {
            let (a, b) = part
                .split_once('-')
                .ok_or_else(|| format!("edge `{part}`: expected `u-v`"))?;
            let a: usize = a.parse().map_err(|_| format!("edge `{part}`: bad node"))?;
            let b: usize = b.parse().map_err(|_| format!("edge `{part}`: bad node"))?;
            pairs.push((a, b));
        }
        if pairs.is_empty() {
            return Err("empty edge list".into());
        }
        Ok(EdgeSel::List(pairs))
    }
}

impl fmt::Display for EdgeSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeSel::All => f.write_str("*"),
            EdgeSel::List(pairs) => {
                for (i, (a, b)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("/")?;
                    }
                    write!(f, "{a}-{b}")?;
                }
                Ok(())
            }
        }
    }
}

/// A set of nodes a clause applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSel {
    /// The half-open index range `start..end`.
    Range(usize, usize),
    /// The listed node indices.
    List(Vec<usize>),
}

impl NodeSel {
    /// Whether the node falls under this selector.
    pub fn contains(&self, v: NodeId) -> bool {
        match self {
            NodeSel::Range(a, b) => (*a..*b).contains(&v.index()),
            NodeSel::List(nodes) => nodes.contains(&v.index()),
        }
    }

    /// The selected indices among `0..n`, in ascending selector order.
    pub fn iter(&self, n: usize) -> Vec<usize> {
        match self {
            NodeSel::Range(a, b) => (*a..(*b).min(n)).collect(),
            NodeSel::List(nodes) => nodes.iter().copied().filter(|&v| v < n).collect(),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        if let Some((a, b)) = s.split_once("..") {
            let a: usize = a.parse().map_err(|_| format!("range `{s}`: bad start"))?;
            let b: usize = b.parse().map_err(|_| format!("range `{s}`: bad end"))?;
            if b <= a {
                return Err(format!("range `{s}`: empty"));
            }
            return Ok(NodeSel::Range(a, b));
        }
        let mut nodes = Vec::new();
        for part in s.split('/') {
            nodes.push(
                part.parse()
                    .map_err(|_| format!("node `{part}`: bad index"))?,
            );
        }
        if nodes.is_empty() {
            return Err("empty node list".into());
        }
        Ok(NodeSel::List(nodes))
    }
}

impl fmt::Display for NodeSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeSel::Range(a, b) => write!(f, "{a}..{b}"),
            NodeSel::List(nodes) => {
                for (i, v) in nodes.iter().enumerate() {
                    if i > 0 {
                        f.write_str("/")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

/// One timed fault primitive.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Force every matching transmission to the given (large) delay.
    Clog {
        /// Affected edges.
        edges: EdgeSel,
        /// The forced delay.
        delay: f64,
    },
    /// Alternate matching edges between a slow and an instantaneous phase,
    /// starting slow at the window's start.
    Flap {
        /// Affected edges.
        edges: EdgeSel,
        /// Phase length.
        period: f64,
        /// Delay during slow phases (fast phases deliver at 0).
        slow: f64,
    },
    /// Drop each matching transmission independently with probability
    /// `prob` (decided by [`chaos_hash`], not an RNG stream).
    Drop {
        /// Affected edges.
        edges: EdgeSel,
        /// Per-transmission drop probability.
        prob: f64,
    },
    /// Duplicate each matching transmission independently with probability
    /// `prob`; the echo copy arrives `extra` after the original.
    Dup {
        /// Affected edges.
        edges: EdgeSel,
        /// Per-transmission duplication probability.
        prob: f64,
        /// Extra delay of the duplicated copy.
        extra: f64,
    },
    /// Drop every transmission crossing between `side` and its complement;
    /// the partition heals at the window's end.
    Partition {
        /// One side of the cut.
        side: NodeSel,
    },
    /// Crash the selected nodes: every transmission to or from them is
    /// dropped until the window's end (the restart).
    Crash {
        /// Crashed nodes.
        nodes: NodeSel,
    },
    /// Run the selected nodes' hardware clocks at `rate` for the window,
    /// then resume their base schedule (compiled by [`apply_rate_faults`],
    /// not by [`ChaosDelay`]).
    Rate {
        /// Attacked nodes.
        nodes: NodeSel,
        /// The forced hardware rate.
        rate: f64,
    },
}

/// A fault primitive active on the real-time window `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultClause {
    /// Window start (inclusive).
    pub start: f64,
    /// Window end (exclusive).
    pub end: f64,
    /// The primitive.
    pub kind: FaultKind,
}

fn parse_num(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("{what} `{s}`: not a number"))?;
    if !v.is_finite() {
        return Err(format!("{what} `{s}`: must be finite"));
    }
    Ok(v)
}

impl FaultClause {
    /// Whether the clause is active at real time `now`.
    pub fn active(&self, now: f64) -> bool {
        self.start <= now && now < self.end
    }

    /// Whether a watchdog violation under this clause is *expected* — i.e.
    /// the clause breaks an assumption the paper's guarantees rest on
    /// (delays within `[0, 𝒯]`, rates within `[1−ε, 1+ε]`, connectivity),
    /// per the fault taxonomy of "Fault Tolerant Gradient Clock
    /// Synchronization".
    ///
    /// `t_max` is the delay-uncertainty bound the run's base model
    /// advertises (`None` = unbounded, so no delay clause can exceed it).
    pub fn violation_allowed(&self, bounds: DriftBounds, t_max: Option<f64>) -> bool {
        let beyond_t = |d: f64| t_max.is_some_and(|t| d > t + 1e-12);
        match &self.kind {
            // Delays inside [0, 𝒯] are exactly the paper's adversary; only
            // exceeding 𝒯 breaks the model.
            FaultKind::Clog { delay, .. } => beyond_t(*delay),
            FaultKind::Flap { slow, .. } => beyond_t(*slow),
            // Probabilistic loss and duplication leave the model intact:
            // A^opt's periodic broadcasts are self-healing (extension X1),
            // and a duplicate is just a (legal) slower retransmission.
            FaultKind::Drop { .. } | FaultKind::Dup { .. } => false,
            // A partition or crash starves estimates outright.
            FaultKind::Partition { .. } | FaultKind::Crash { .. } => true,
            FaultKind::Rate { rate, .. } => !bounds.contains(*rate),
        }
    }

    /// Parses the compact clause grammar (see `docs/CHAOS.md`):
    ///
    /// ```text
    /// clog:START..END:EDGES:DELAY
    /// flap:START..END:EDGES:PERIOD:SLOW
    /// drop:START..END:EDGES:PROB
    /// dup:START..END:EDGES:PROB:EXTRA
    /// partition:START..END:NODES
    /// crash:START..END:NODES
    /// rate:START..END:NODES:RATE
    /// ```
    ///
    /// `EDGES` is `*` or `u-v/u-v/…`; `NODES` is `a..b` or `v/v/…`.
    /// [`FaultClause`]'s `Display` emits the same grammar with Rust's
    /// shortest-round-trip float formatting, so `parse(format(c)) == c`
    /// byte-identically — the invariant the shrinker's determinism check
    /// rests on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first grammar or range violation.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let kind_tag = parts.next().unwrap_or_default();
        let window = parts
            .next()
            .ok_or_else(|| format!("clause `{s}`: missing window"))?;
        let (start, end) = window
            .split_once("..")
            .ok_or_else(|| format!("window `{window}`: expected `START..END`"))?;
        let start = parse_num(start, "window start")?;
        let end = parse_num(end, "window end")?;
        if start < 0.0 || end <= start {
            return Err(format!("window `{window}`: need 0 <= start < end"));
        }
        let mut arg = || {
            parts
                .next()
                .ok_or_else(|| format!("clause `{s}`: missing argument"))
        };
        let kind = match kind_tag {
            "clog" => {
                let edges = EdgeSel::parse(arg()?)?;
                let delay = parse_num(arg()?, "clog delay")?;
                if delay < 0.0 {
                    return Err(format!("clog delay {delay}: must be >= 0"));
                }
                FaultKind::Clog { edges, delay }
            }
            "flap" => {
                let edges = EdgeSel::parse(arg()?)?;
                let period = parse_num(arg()?, "flap period")?;
                let slow = parse_num(arg()?, "flap slow delay")?;
                if period <= 0.0 || slow < 0.0 {
                    return Err(format!("flap {period}/{slow}: need period > 0, slow >= 0"));
                }
                FaultKind::Flap {
                    edges,
                    period,
                    slow,
                }
            }
            "drop" => {
                let edges = EdgeSel::parse(arg()?)?;
                let prob = parse_num(arg()?, "drop probability")?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(format!("drop probability {prob}: must be in [0, 1]"));
                }
                FaultKind::Drop { edges, prob }
            }
            "dup" => {
                let edges = EdgeSel::parse(arg()?)?;
                let prob = parse_num(arg()?, "dup probability")?;
                let extra = parse_num(arg()?, "dup extra delay")?;
                if !(0.0..=1.0).contains(&prob) || extra < 0.0 {
                    return Err(format!(
                        "dup {prob}/{extra}: need prob in [0,1], extra >= 0"
                    ));
                }
                FaultKind::Dup { edges, prob, extra }
            }
            "partition" => FaultKind::Partition {
                side: NodeSel::parse(arg()?)?,
            },
            "crash" => FaultKind::Crash {
                nodes: NodeSel::parse(arg()?)?,
            },
            "rate" => {
                let nodes = NodeSel::parse(arg()?)?;
                let rate = parse_num(arg()?, "attack rate")?;
                if rate <= 0.0 {
                    return Err(format!("attack rate {rate}: must be > 0"));
                }
                FaultKind::Rate { nodes, rate }
            }
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("clause `{s}`: trailing `{extra}`"));
        }
        Ok(FaultClause { start, end, kind })
    }
}

impl fmt::Display for FaultClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (start, end) = (self.start, self.end);
        match &self.kind {
            FaultKind::Clog { edges, delay } => write!(f, "clog:{start}..{end}:{edges}:{delay}"),
            FaultKind::Flap {
                edges,
                period,
                slow,
            } => write!(f, "flap:{start}..{end}:{edges}:{period}:{slow}"),
            FaultKind::Drop { edges, prob } => write!(f, "drop:{start}..{end}:{edges}:{prob}"),
            FaultKind::Dup { edges, prob, extra } => {
                write!(f, "dup:{start}..{end}:{edges}:{prob}:{extra}")
            }
            FaultKind::Partition { side } => write!(f, "partition:{start}..{end}:{side}"),
            FaultKind::Crash { nodes } => write!(f, "crash:{start}..{end}:{nodes}"),
            FaultKind::Rate { nodes, rate } => write!(f, "rate:{start}..{end}:{nodes}:{rate}"),
        }
    }
}

/// Parses a fault schedule from either compact or document form.
///
/// * Compact (sweep-inline): `;`-separated clauses, e.g.
///   `clog:10..20:*:0.8;drop:5..15:*:0.3`. `none` or an empty string is
///   the empty schedule.
/// * Document (`.chaos` files): one `fault = <clause>` line per clause;
///   `#` comments, blank lines, and *other* `key = value` lines are
///   ignored (the full scenario grammar is layered on top by
///   `gcs-chaos`).
///
/// # Errors
///
/// Returns the first clause parse failure, tagged with its position.
pub fn parse_schedule(text: &str) -> Result<Vec<FaultClause>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed == "none" {
        return Ok(Vec::new());
    }
    let mut clauses = Vec::new();
    if trimmed.contains('\n') || trimmed.contains('=') {
        for (lineno, raw) in trimmed.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if key.trim() != "fault" {
                continue;
            }
            clauses.push(
                FaultClause::parse(value.trim())
                    .map_err(|e| format!("fault line {}: {e}", lineno + 1))?,
            );
        }
    } else {
        for (i, part) in trimmed.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            clauses.push(
                FaultClause::parse(part).map_err(|e| format!("fault clause {}: {e}", i + 1))?,
            );
        }
    }
    Ok(clauses)
}

/// Formats a schedule in the compact `;`-separated form accepted by
/// [`parse_schedule`] (`none` for the empty schedule).
pub fn format_schedule(clauses: &[FaultClause]) -> String {
    if clauses.is_empty() {
        return "none".into();
    }
    clauses
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

/// A pure hash of one send decision onto `[0, 1)`.
///
/// SplitMix64 finalization over `(seed, clause index, src, dst, send
/// time)`. Being a pure function of the [`DelayCtx`] (no RNG stream), the
/// decision is independent of call order.
pub fn chaos_hash(seed: u64, clause: usize, src: NodeId, dst: NodeId, now: f64) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = mix(seed);
    h = mix(h ^ clause as u64);
    h = mix(h ^ (((src.index() as u64) << 32) | dst.index() as u64));
    h = mix(h ^ now.to_bits());
    // 53 high bits -> the unit interval, like `gen_range(0.0..1.0)`.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`DelayModel`] wrapper injecting the delay-layer clauses of a fault
/// schedule over any inner model.
///
/// Per transmission, in order:
///
/// 1. an active `crash` touching either endpoint, an active `partition`
///    the edge crosses, or an active `drop` whose hash fires → the message
///    is dropped with [`DropCause::Fault`];
/// 2. an active `clog`/`flap` matching the edge *replaces* the inner
///    model's delay (the last matching clause wins);
/// 3. otherwise the inner model prices the message as usual;
/// 4. an active `dup` whose hash fires turns a plain delay into
///    [`Delivery::AfterEcho`].
///
/// `rate` clauses are ignored here — compile them with
/// [`apply_rate_faults`].
#[derive(Debug, Clone)]
pub struct ChaosDelay<D> {
    inner: D,
    clauses: Vec<FaultClause>,
    seed: u64,
}

impl<D: DelayModel> ChaosDelay<D> {
    /// Wraps `inner` under the given schedule. An empty clause list is
    /// fully transparent (delivery, uncertainty, and delay floor all defer).
    pub fn new(inner: D, clauses: Vec<FaultClause>, seed: u64) -> Self {
        ChaosDelay {
            inner,
            clauses,
            seed,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The injected schedule.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }
}

impl<D: DelayModel> DelayModel for ChaosDelay<D> {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        let now = ctx.now;
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.active(now) {
                continue;
            }
            let kill = match &c.kind {
                FaultKind::Crash { nodes } => nodes.contains(ctx.src) || nodes.contains(ctx.dst),
                FaultKind::Partition { side } => side.contains(ctx.src) != side.contains(ctx.dst),
                FaultKind::Drop { edges, prob } => {
                    edges.matches(ctx.src, ctx.dst)
                        && chaos_hash(self.seed, i, ctx.src, ctx.dst, now) < *prob
                }
                _ => false,
            };
            if kill {
                return Delivery::Drop(DropCause::Fault);
            }
        }
        let mut forced = None;
        for c in &self.clauses {
            if !c.active(now) {
                continue;
            }
            match &c.kind {
                FaultKind::Clog { edges, delay } if edges.matches(ctx.src, ctx.dst) => {
                    forced = Some(*delay);
                }
                FaultKind::Flap {
                    edges,
                    period,
                    slow,
                } if edges.matches(ctx.src, ctx.dst) => {
                    let phase = ((now - c.start) / period).floor() as i64;
                    forced = Some(if phase % 2 == 0 { *slow } else { 0.0 });
                }
                _ => {}
            }
        }
        let mut delivery = match forced {
            Some(d) => Delivery::After(d),
            None => self.inner.delivery(ctx),
        };
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.active(now) {
                continue;
            }
            if let FaultKind::Dup { edges, prob, extra } = &c.kind {
                if let Delivery::After(d) = delivery {
                    if edges.matches(ctx.src, ctx.dst)
                        && chaos_hash(self.seed, i, ctx.src, ctx.dst, now) < *prob
                    {
                        delivery = Delivery::AfterEcho {
                            delay: d,
                            echo: d + extra,
                        };
                    }
                }
            }
        }
        delivery
    }

    fn uncertainty(&self) -> Option<f64> {
        // The worst delay any clause can force, folded over the inner bound.
        let mut t = self.inner.uncertainty()?;
        for c in &self.clauses {
            match &c.kind {
                FaultKind::Clog { delay, .. } => t = t.max(*delay),
                FaultKind::Flap { slow, .. } => t = t.max(*slow),
                FaultKind::Dup { extra, .. } => t += extra,
                _ => {}
            }
        }
        Some(t)
    }

    fn min_delay(&self) -> Option<f64> {
        let mut floor = self.inner.min_delay()?;
        for c in &self.clauses {
            match &c.kind {
                // Fast flap phases deliver instantaneously.
                FaultKind::Flap { .. } => floor = 0.0,
                FaultKind::Clog { delay, .. } => floor = floor.min(*delay),
                // Drops schedule nothing; duplicates arrive no earlier than
                // the original; crash/partition/rate never shorten a delay.
                _ => {}
            }
        }
        Some(floor)
    }
}

/// Compiles the `rate` clauses of a schedule into per-node
/// [`RateSchedule`] overlays: during each clause's window the selected
/// nodes run at the attack rate, then resume whatever their base schedule
/// prescribes from the window's end on.
///
/// Clauses apply in list order, so overlapping windows on the same node
/// compose left to right.
///
/// # Errors
///
/// Returns a description of the first schedule that could not be rebuilt
/// (e.g. a non-positive attack rate, which [`RateSchedule`] rejects).
pub fn apply_rate_faults(
    schedules: &mut [RateSchedule],
    clauses: &[FaultClause],
) -> Result<(), String> {
    let n = schedules.len();
    for c in clauses {
        let FaultKind::Rate { nodes, rate } = &c.kind else {
            continue;
        };
        for v in nodes.iter(n) {
            schedules[v] = overlay_rate(&schedules[v], c.start, c.end, *rate)
                .map_err(|e| format!("rate fault on node {v}: {e}"))?;
        }
    }
    Ok(())
}

fn overlay_rate(
    base: &RateSchedule,
    start: f64,
    end: f64,
    rate: f64,
) -> Result<RateSchedule, String> {
    let resume = base.rate_at(end);
    let mut steps: Vec<(f64, f64)> = Vec::new();
    for (t, r) in base.steps() {
        if t < start {
            steps.push((t, r));
        }
    }
    match steps.last_mut() {
        Some(last) if last.0 == start => last.1 = rate,
        _ if start == 0.0 => steps.push((0.0, rate)),
        _ => {
            // `from_steps` demands an origin step; base schedules always
            // have one at 0, so `steps` is non-empty here.
            steps.push((start, rate));
        }
    }
    steps.push((end, resume));
    for (t, r) in base.steps() {
        if t > end {
            steps.push((t, r));
        }
    }
    RateSchedule::from_steps(steps).map_err(|e| format!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::ConstantDelay;

    fn clause(s: &str) -> FaultClause {
        FaultClause::parse(s).unwrap()
    }

    fn ctx<'a>(g: &'a gcs_graph::Graph, src: usize, dst: usize, now: f64) -> DelayCtx<'a> {
        DelayCtx::new(NodeId(src), NodeId(dst), now, now, now, g)
    }

    #[test]
    fn clause_grammar_round_trips_byte_identically() {
        let cases = [
            "clog:10..20:*:0.8",
            "clog:0..5:0-1/1-2:1.25",
            "flap:0..50:*:1.5:0.4",
            "drop:5..15:2-3:0.3",
            "dup:5..15:*:0.2:0.35",
            "partition:20..40:0..4",
            "crash:10..30:3",
            "crash:10..30:1/4/6",
            "rate:10..30:0..2:0.9",
        ];
        for s in cases {
            let c = clause(s);
            assert_eq!(c.to_string(), s, "canonical form must round-trip");
            assert_eq!(FaultClause::parse(&c.to_string()).unwrap(), c);
        }
    }

    #[test]
    fn clause_grammar_rejects_nonsense() {
        for bad in [
            "clog",
            "clog:10..5:*:0.8",
            "clog:-1..5:*:0.8",
            "clog:0..5:*:-0.1",
            "flap:0..5:*:0:0.4",
            "drop:0..5:*:1.5",
            "dup:0..5:*:0.2:-1",
            "partition:0..5:4..4",
            "rate:0..5:0:-0.9",
            "warp:0..5:*:1",
            "clog:0..5:*:0.8:extra",
            "clog:0..5:0:0.8",
        ] {
            assert!(FaultClause::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn crash_partition_and_drop_kill_messages() {
        let g = topology::path(6);
        let mut m = ChaosDelay::new(
            ConstantDelay::new(0.2),
            vec![
                clause("crash:10..20:2"),
                clause("partition:30..40:0..3"),
                clause("drop:50..60:*:1"),
            ],
            7,
        );
        // Outside every window: transparent.
        assert_eq!(m.delivery(&ctx(&g, 2, 3, 5.0)), Delivery::After(0.2));
        // Crash kills both directions at the crashed node.
        let fault = Delivery::Drop(DropCause::Fault);
        assert_eq!(m.delivery(&ctx(&g, 2, 3, 15.0)), fault);
        assert_eq!(m.delivery(&ctx(&g, 1, 2, 15.0)), fault);
        assert_eq!(m.delivery(&ctx(&g, 4, 5, 15.0)), Delivery::After(0.2));
        // Partition kills the cut edge only, and heals.
        assert_eq!(m.delivery(&ctx(&g, 2, 3, 35.0)), fault);
        assert_eq!(m.delivery(&ctx(&g, 3, 2, 35.0)), fault);
        assert_eq!(m.delivery(&ctx(&g, 1, 2, 35.0)), Delivery::After(0.2));
        assert_eq!(m.delivery(&ctx(&g, 2, 3, 40.0)), Delivery::After(0.2));
        // Probability-1 drop kills everything in its window.
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 55.0)), fault);
    }

    #[test]
    fn clog_and_flap_replace_the_inner_delay() {
        let g = topology::path(3);
        let mut m = ChaosDelay::new(
            ConstantDelay::new(0.2),
            vec![clause("clog:10..20:0-1:0.9"), clause("flap:30..50:*:2:0.6")],
            7,
        );
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 15.0)), Delivery::After(0.9));
        assert_eq!(m.delivery(&ctx(&g, 1, 0, 15.0)), Delivery::After(0.9));
        assert_eq!(m.delivery(&ctx(&g, 1, 2, 15.0)), Delivery::After(0.2));
        // Flap starts slow, then alternates with phase length 2.
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 30.5)), Delivery::After(0.6));
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 32.5)), Delivery::After(0.0));
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 34.5)), Delivery::After(0.6));
    }

    #[test]
    fn dup_turns_a_delay_into_an_echo_pair() {
        let g = topology::path(2);
        let mut m = ChaosDelay::new(
            ConstantDelay::new(0.2),
            vec![clause("dup:0..10:*:1:0.3")],
            7,
        );
        assert_eq!(
            m.delivery(&ctx(&g, 0, 1, 5.0)),
            Delivery::AfterEcho {
                delay: 0.2,
                echo: 0.5
            }
        );
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 10.0)), Delivery::After(0.2));
    }

    #[test]
    fn chaos_decisions_are_pure_and_seed_sensitive() {
        let g = topology::path(2);
        let c = vec![clause("drop:0..100:*:0.5")];
        let mut a = ChaosDelay::new(ConstantDelay::new(0.2), c.clone(), 1);
        let mut b = ChaosDelay::new(ConstantDelay::new(0.2), c.clone(), 1);
        let mut other_seed = ChaosDelay::new(ConstantDelay::new(0.2), c, 2);
        let times: Vec<f64> = (0..200).map(|i| i as f64 * 0.37).collect();
        // Same seed: identical decisions regardless of call interleaving
        // (b evaluates in reverse order).
        let da: Vec<_> = times
            .iter()
            .map(|&t| a.delivery(&ctx(&g, 0, 1, t)))
            .collect();
        let db: Vec<_> = times
            .iter()
            .rev()
            .map(|&t| b.delivery(&ctx(&g, 0, 1, t)))
            .collect();
        let db_fwd: Vec<_> = db.into_iter().rev().collect();
        assert_eq!(da, db_fwd);
        // Different seed: a different decision pattern.
        let dc: Vec<_> = times
            .iter()
            .map(|&t| other_seed.delivery(&ctx(&g, 0, 1, t)))
            .collect();
        assert_ne!(da, dc);
        // And the rate is roughly right.
        let dropped = da
            .iter()
            .filter(|d| **d == Delivery::Drop(DropCause::Fault))
            .count();
        let rate = dropped as f64 / times.len() as f64;
        assert!((rate - 0.5).abs() < 0.15, "observed drop rate {rate}");
    }

    #[test]
    fn floor_folds_clogs_and_flaps() {
        let clogged = ChaosDelay::new(
            ConstantDelay::new(0.2),
            vec![clause("clog:10..20:*:0.05"), clause("drop:30..40:*:0.5")],
            7,
        );
        // A clog lowers the floor; drops schedule nothing and leave it.
        assert_eq!(clogged.min_delay(), Some(0.05));
        let flapping = ChaosDelay::new(
            ConstantDelay::new(0.2),
            vec![clause("flap:10..20:*:1:0.4")],
            7,
        );
        // The static floor truthfully reports the fast phases.
        assert_eq!(flapping.min_delay(), Some(0.0));
    }

    #[test]
    fn empty_schedule_is_transparent() {
        let g = topology::path(2);
        let mut m = ChaosDelay::new(ConstantDelay::new(0.2), Vec::new(), 7);
        assert_eq!(m.delivery(&ctx(&g, 0, 1, 1.0)), Delivery::After(0.2));
        assert_eq!(m.uncertainty(), Some(0.2));
        assert_eq!(m.min_delay(), Some(0.2));
    }

    #[test]
    fn rate_overlay_attacks_and_resumes() {
        let base = RateSchedule::from_steps(vec![(0.0, 1.0), (25.0, 1.02)]).unwrap();
        let mut schedules = vec![base.clone(), base.clone()];
        apply_rate_faults(&mut schedules, &[clause("rate:10..30:1:0.9")]).unwrap();
        // Node 0 untouched.
        assert_eq!(schedules[0], base);
        // Node 1: base until 10, attacked until 30, then resumed at the
        // base rate in force at 30 (the 25.0 step's 1.02).
        let s = &schedules[1];
        assert_eq!(s.rate_at(5.0), 1.0);
        assert_eq!(s.rate_at(10.0), 0.9);
        assert_eq!(s.rate_at(29.9), 0.9);
        assert_eq!(s.rate_at(30.0), 1.02);
        assert_eq!(s.rate_at(100.0), 1.02);
    }

    #[test]
    fn rate_overlay_handles_boundary_collisions() {
        let base = RateSchedule::from_steps(vec![(0.0, 1.0), (10.0, 1.02), (30.0, 0.98)]).unwrap();
        let mut schedules = vec![base];
        // Attack window exactly on existing steps.
        apply_rate_faults(&mut schedules, &[clause("rate:10..30:0:1.2")]).unwrap();
        let s = &schedules[0];
        assert_eq!(s.rate_at(9.9), 1.0);
        assert_eq!(s.rate_at(10.0), 1.2);
        assert_eq!(s.rate_at(29.9), 1.2);
        assert_eq!(s.rate_at(30.0), 0.98);
        // And an attack from time 0.
        let mut schedules = vec![RateSchedule::constant(1.0).unwrap()];
        apply_rate_faults(&mut schedules, &[clause("rate:0..5:0:0.9")]).unwrap();
        assert_eq!(schedules[0].rate_at(0.0), 0.9);
        assert_eq!(schedules[0].rate_at(5.0), 1.0);
    }

    #[test]
    fn violation_expectations_follow_the_fault_taxonomy() {
        let bounds = DriftBounds::new(0.02).unwrap();
        let t = Some(0.4);
        // Within-model faults: no violation expected.
        assert!(!clause("clog:0..5:*:0.4").violation_allowed(bounds, t));
        assert!(!clause("flap:0..5:*:1:0.4").violation_allowed(bounds, t));
        assert!(!clause("drop:0..5:*:0.3").violation_allowed(bounds, t));
        assert!(!clause("dup:0..5:*:0.3:0.2").violation_allowed(bounds, t));
        assert!(!clause("rate:0..5:0:1.01").violation_allowed(bounds, t));
        // Model-breaking faults: a watchdog trip is expected.
        assert!(clause("clog:0..5:*:0.5").violation_allowed(bounds, t));
        assert!(clause("flap:0..5:*:1:0.6").violation_allowed(bounds, t));
        assert!(clause("rate:0..5:0:0.9").violation_allowed(bounds, t));
        assert!(clause("partition:0..5:0..2").violation_allowed(bounds, t));
        assert!(clause("crash:0..5:1").violation_allowed(bounds, t));
        // Unbounded base model: no clog can exceed 𝒯.
        assert!(!clause("clog:0..5:*:99").violation_allowed(bounds, None));
    }

    #[test]
    fn schedule_parses_compact_and_document_forms() {
        assert_eq!(parse_schedule("none").unwrap(), Vec::new());
        assert_eq!(parse_schedule("  ").unwrap(), Vec::new());
        let compact = parse_schedule("clog:10..20:*:0.8; drop:5..15:*:0.3").unwrap();
        assert_eq!(compact.len(), 2);
        let doc = parse_schedule(
            "# scenario\nseed = 7\nfault = clog:10..20:*:0.8\n\nfault = drop:5..15:*:0.3\n",
        )
        .unwrap();
        assert_eq!(doc, compact);
        assert_eq!(
            format_schedule(&compact),
            "clog:10..20:*:0.8;drop:5..15:*:0.3"
        );
        assert_eq!(parse_schedule(&format_schedule(&compact)).unwrap(), compact);
        assert_eq!(format_schedule(&[]), "none");
        assert!(parse_schedule("clog:bad").is_err());
        assert!(parse_schedule("fault = clog:bad").is_err());
    }

    #[test]
    fn node_selector_iterates_and_clamps() {
        assert_eq!(NodeSel::Range(2, 6).iter(4), vec![2, 3]);
        assert_eq!(NodeSel::List(vec![0, 7, 3]).iter(4), vec![0, 3]);
        assert!(NodeSel::Range(0, 2).contains(NodeId(1)));
        assert!(!NodeSel::Range(0, 2).contains(NodeId(2)));
    }
}
