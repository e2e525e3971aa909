//! Causal skew provenance — the `gcs trace blame` query.
//!
//! Two steps:
//!
//! 1. **Peak finding.** Reconstructed logical clocks are piecewise linear,
//!    so global skew (max − min over all clocks) and local skew (max
//!    |L_u − L_v| over communication edges) attain their maxima at segment
//!    kinks or at the evaluation horizon. Scanning those finitely many
//!    instants finds the exact peak and its node pair.
//!
//! 2. **Chain walking.** From a peak endpoint the walk repeatedly asks
//!    "what was the last message this node heard before that instant?",
//!    hops to the sender, and recurses — producing the chain of
//!    deliveries, latencies, and multiplier updates along which skew
//!    propagated. This is precisely the mechanism in the paper's §5 upper
//!    bound (Thm 5.10): skew estimates travel as a wavefront of messages
//!    along a path, each hop aging the estimate by the message delay.

use gcs_graph::NodeId;
use gcs_sim::EngineEvent;

use crate::clocks::ClockReconstruction;
use crate::dag::{Dag, EventId};

/// The located skew peaks of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakReport {
    /// Real time of the global-skew peak.
    pub global_t: f64,
    /// Peak global skew (max − min logical clock).
    pub global: f64,
    /// `(argmax, argmin)` node pair at the global peak.
    pub global_pair: (NodeId, NodeId),
    /// Real time of the local-skew peak.
    pub local_t: f64,
    /// Peak local skew (max |L_u − L_v| over edges).
    pub local: f64,
    /// The edge attaining the local peak, `(ahead, behind)`.
    pub local_pair: (NodeId, NodeId),
}

/// Locates the exact skew peaks of a reconstructed execution.
///
/// Candidate instants are every clock-trajectory kink plus `end` (pass
/// the run horizon to include skew still growing at the end of the
/// stream). Ties keep the earliest instant; pair ties keep the lowest
/// node ids — both make the report deterministic.
///
/// Returns `None` when fewer than two nodes ever woke.
pub fn find_peaks(
    clocks: &ClockReconstruction,
    edges: &[(usize, usize)],
    end: Option<f64>,
) -> Option<PeakReport> {
    let mut times = clocks.kink_times();
    if let Some(end) = end {
        times.push(end);
        times.sort_by(f64::total_cmp);
        times.dedup();
    }

    let mut report: Option<PeakReport> = None;
    let mut logical = vec![None; clocks.node_count()];
    for &t in &times {
        for (i, slot) in logical.iter_mut().enumerate() {
            *slot = clocks.logical(NodeId(i), t);
        }
        let mut max: Option<(f64, usize)> = None;
        let mut min: Option<(f64, usize)> = None;
        for (i, l) in logical.iter().enumerate() {
            let Some(l) = *l else { continue };
            if max.is_none_or(|(m, _)| l > m) {
                max = Some((l, i));
            }
            if min.is_none_or(|(m, _)| l < m) {
                min = Some((l, i));
            }
        }
        let (Some((lmax, imax)), Some((lmin, imin))) = (max, min) else {
            continue;
        };
        if imax == imin {
            continue;
        }
        let global = lmax - lmin;

        let mut local = 0.0;
        let mut local_pair = (NodeId(0), NodeId(0));
        for &(a, b) in edges {
            let la = logical.get(a).copied().flatten();
            let lb = logical.get(b).copied().flatten();
            let (Some(la), Some(lb)) = (la, lb) else {
                continue;
            };
            let skew = (la - lb).abs();
            if skew > local {
                local = skew;
                local_pair = if la >= lb {
                    (NodeId(a), NodeId(b))
                } else {
                    (NodeId(b), NodeId(a))
                };
            }
        }

        let r = report.get_or_insert(PeakReport {
            global_t: t,
            global,
            global_pair: (NodeId(imax), NodeId(imin)),
            local_t: t,
            local,
            local_pair,
        });
        if global > r.global {
            r.global = global;
            r.global_t = t;
            r.global_pair = (NodeId(imax), NodeId(imin));
        }
        if local > r.local {
            r.local = local;
            r.local_t = t;
            r.local_pair = local_pair;
        }
    }
    report
}

/// One message hop of a causal chain, walking backwards in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The `deliver` event at this hop's receiving end.
    pub deliver: EventId,
    /// The matched `send` event, when the stream contains it.
    pub send: Option<EventId>,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Real time the message left `src`.
    pub sent_t: f64,
    /// Real time it reached `dst`.
    pub delivered_t: f64,
    /// Multiplier the receiver switched to while processing this message,
    /// if the delivery triggered a change.
    pub multiplier_after: Option<f64>,
}

/// The causal history of one node at one instant, as message hops walking
/// back towards the origin of its information.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The node whose state is being explained.
    pub endpoint: NodeId,
    /// The instant being explained.
    pub at_t: f64,
    /// Message hops, most recent first.
    pub hops: Vec<Hop>,
    /// The wake event terminating the walk, when reached.
    pub origin_wake: Option<EventId>,
    /// True when the walk stopped at the hop limit instead of a wake.
    pub truncated: bool,
}

/// Walks the causal chain of `node`'s state at time `t`: the most recent
/// delivery before `t`, then the most recent delivery the *sender* had
/// heard before sending, and so on, until a node's wake-up or `max_hops`.
pub fn causal_chain(dag: &Dag, node: NodeId, t: f64, max_hops: usize) -> Chain {
    let mut chain = Chain {
        endpoint: node,
        at_t: t,
        hops: Vec::new(),
        origin_wake: None,
        truncated: false,
    };
    let mut cur_node = node;
    let mut cur_t = t;
    loop {
        // Last deliver at cur_node with time ≤ cur_t; earlier-in-stream on
        // ties, so a hop never revisits the same instant forever.
        let deliver =
            dag.events_at(cur_node)
                .iter()
                .rev()
                .copied()
                .find(|&i| match dag.events()[i] {
                    EngineEvent::Deliver { t: dt, .. } => {
                        dt < cur_t || (dt == cur_t && chain.hops.is_empty())
                    }
                    _ => false,
                });
        let Some(deliver) = deliver else {
            chain.origin_wake = dag
                .events_at(cur_node)
                .iter()
                .copied()
                .find(|&i| matches!(dag.events()[i], EngineEvent::Wake { .. }));
            break;
        };
        if chain.hops.len() == max_hops {
            chain.truncated = true;
            break;
        }
        // A deliver without a matched transmit means the stream starts
        // mid-run; the walk cannot cross it.
        let Some(msg) = dag.message_of(deliver).copied() else {
            break;
        };
        let delivered_t = msg.delivered_t.expect("matched via deliver");
        chain.hops.push(Hop {
            deliver,
            send: msg.send,
            src: msg.src,
            dst: msg.dst,
            sent_t: msg.sent_t,
            delivered_t,
            multiplier_after: multiplier_after(dag, deliver),
        });
        cur_node = msg.src;
        cur_t = msg.sent_t;
    }
    chain
}

/// The multiplier set by the handler that processed `deliver`, i.e. the
/// first `multiplier` event at the same node and instant that follows it
/// in program order.
fn multiplier_after(dag: &Dag, deliver: EventId) -> Option<f64> {
    let EngineEvent::Deliver { dst, t, .. } = dag.events()[deliver] else {
        return None;
    };
    let at_node = dag.events_at(dst);
    let pos = at_node.iter().position(|&i| i == deliver)?;
    for &i in &at_node[pos + 1..] {
        match dag.events()[i] {
            EngineEvent::MultiplierChange {
                t: mt, multiplier, ..
            } if mt == t => return Some(multiplier),
            ref e if e.time() > t => return None,
            _ => {}
        }
    }
    None
}

/// A full blame report: the peaks plus the causal chains of both
/// endpoints of the chosen peak pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// The located peaks.
    pub peak: PeakReport,
    /// True when the chains explain the *global* peak pair; false for the
    /// local (per-edge) pair.
    pub global_mode: bool,
    /// Causal chains for the (ahead, behind) endpoints of the chosen pair.
    pub chains: [Chain; 2],
}

/// Runs the full blame query: locate peaks, then walk the causal chains
/// of the chosen pair's endpoints.
pub fn blame(
    dag: &Dag,
    clocks: &ClockReconstruction,
    end: Option<f64>,
    max_hops: usize,
    global_mode: bool,
) -> Option<BlameReport> {
    let peak = find_peaks(clocks, dag.edges(), end)?;
    let (pair, t) = if global_mode {
        (peak.global_pair, peak.global_t)
    } else {
        (peak.local_pair, peak.local_t)
    };
    Some(BlameReport {
        peak,
        global_mode,
        chains: [
            causal_chain(dag, pair.0, t, max_hops),
            causal_chain(dag, pair.1, t, max_hops),
        ],
    })
}

impl BlameReport {
    /// Renders the annotated report: peak lines, then each endpoint's
    /// chain with clock readings from the reconstruction.
    pub fn render(&self, clocks: &ClockReconstruction) -> String {
        let mut out = String::new();
        let p = &self.peak;
        out.push_str(&format!(
            "peak global skew {:.6} at t={} between nodes {} (ahead) and {} (behind)\n",
            p.global, p.global_t, p.global_pair.0 .0, p.global_pair.1 .0
        ));
        out.push_str(&format!(
            "peak local skew  {:.6} at t={} on edge {}-{} ({} ahead)\n",
            p.local, p.local_t, p.local_pair.0 .0, p.local_pair.1 .0, p.local_pair.0 .0
        ));
        let (pair_kind, t) = if self.global_mode {
            ("global", p.global_t)
        } else {
            ("local", p.local_t)
        };
        out.push_str(&format!(
            "\nexplaining the {pair_kind} peak pair at t={t}:\n"
        ));
        for chain in &self.chains {
            out.push('\n');
            out.push_str(&render_chain(chain, clocks));
        }
        out
    }
}

fn render_chain(chain: &Chain, clocks: &ClockReconstruction) -> String {
    let clock_note = |node: NodeId, t: f64| -> String {
        match (clocks.logical(node, t), clocks.hardware(node, t)) {
            (Some(l), Some(h)) => format!("L={l:.6} H={h:.6}"),
            _ => "not yet awake".to_string(),
        }
    };
    let mut out = format!(
        "causal chain of node {} at t={} ({}):\n",
        chain.endpoint.0,
        chain.at_t,
        clock_note(chain.endpoint, chain.at_t),
    );
    for hop in &chain.hops {
        let mult = hop
            .multiplier_after
            .map_or(String::new(), |m| format!("  -> multiplier {m}"));
        out.push_str(&format!(
            "  t={:<12} deliver {} -> {}  (sent t={}, latency {:.6}){}\n",
            hop.delivered_t,
            hop.src.0,
            hop.dst.0,
            hop.sent_t,
            hop.delivered_t - hop.sent_t,
            mult,
        ));
    }
    if chain.truncated {
        out.push_str("  ... (hop limit reached; raise --max-hops to walk further)\n");
    } else if chain.origin_wake.is_some() {
        let origin = chain.hops.last().map_or(chain.endpoint, |h| h.src);
        out.push_str(&format!(
            "  origin: node {} wake-up (no earlier messages)\n",
            origin.0
        ));
    } else {
        out.push_str("  origin: stream begins mid-run (no wake recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// Three nodes on a path 0-1-2. Node 0 runs fast (multiplier raised),
    /// its updates wavefront to 1 then 2 via messages.
    fn wavefront_stream() -> Vec<EngineEvent> {
        vec![
            EngineEvent::Wake {
                node: n(0),
                t: 0.0,
                hw: 0.0,
            },
            EngineEvent::Wake {
                node: n(1),
                t: 0.0,
                hw: 0.0,
            },
            EngineEvent::Wake {
                node: n(2),
                t: 0.0,
                hw: 0.0,
            },
            EngineEvent::MultiplierChange {
                node: n(0),
                t: 0.0,
                multiplier: 1.5,
            },
            EngineEvent::Send {
                node: n(0),
                t: 2.0,
                hw: 2.0,
            },
            EngineEvent::Transmit {
                src: n(0),
                dst: n(1),
                t: 2.0,
                delay: Some(1.0),
            },
            EngineEvent::Deliver {
                src: n(0),
                dst: n(1),
                t: 3.0,
                dst_hw: 3.0,
            },
            EngineEvent::MultiplierChange {
                node: n(1),
                t: 3.0,
                multiplier: 1.5,
            },
            EngineEvent::Send {
                node: n(1),
                t: 4.0,
                hw: 4.0,
            },
            EngineEvent::Transmit {
                src: n(1),
                dst: n(2),
                t: 4.0,
                delay: Some(1.0),
            },
            EngineEvent::Deliver {
                src: n(1),
                dst: n(2),
                t: 5.0,
                dst_hw: 5.0,
            },
            EngineEvent::MultiplierChange {
                node: n(2),
                t: 5.0,
                multiplier: 1.5,
            },
        ]
    }

    #[test]
    fn finds_peak_pair_and_time() {
        let events = wavefront_stream();
        let clocks = ClockReconstruction::from_events(&events);
        let dag = Dag::from_events(events);
        let peak = find_peaks(&clocks, dag.edges(), Some(5.0)).unwrap();
        // Node 0 runs at 1.5 from t=0; node 2 at 1.0 until t=5. The gap
        // 0-vs-2 grows until node 2 catches the wavefront at t=5.
        assert_eq!(peak.global_pair, (n(0), n(2)));
        assert!((peak.global_t - 5.0).abs() < 1e-12);
        assert!((peak.global - 2.5).abs() < 1e-12, "0.5/s for 5s");
        // Local peak: edge 0-1 reaches 1.5 at t=3 (node 1 catches the
        // wavefront there, so the gap stops growing — earliest tie wins).
        assert_eq!(peak.local_pair, (n(0), n(1)));
        assert!((peak.local - 1.5).abs() < 1e-12);
        assert!((peak.local_t - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_non_finite_end_does_not_panic() {
        let events = wavefront_stream();
        let clocks = ClockReconstruction::from_events(&events);
        let dag = Dag::from_events(events);
        let plain = find_peaks(&clocks, dag.edges(), None).unwrap();
        for end in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let peak = find_peaks(&clocks, dag.edges(), Some(end)).unwrap();
            assert_eq!(peak.global_pair, plain.global_pair, "end {end}");
            assert_eq!(peak.local_pair, plain.local_pair, "end {end}");
        }
    }

    #[test]
    fn walks_wavefront_back_to_origin() {
        let events = wavefront_stream();
        let clocks = ClockReconstruction::from_events(&events);
        let dag = Dag::from_events(events);
        let chain = causal_chain(&dag, n(2), 5.0, 16);
        assert_eq!(chain.hops.len(), 2);
        assert_eq!((chain.hops[0].src, chain.hops[0].dst), (n(1), n(2)));
        assert_eq!((chain.hops[1].src, chain.hops[1].dst), (n(0), n(1)));
        assert_eq!(chain.hops[0].multiplier_after, Some(1.5));
        assert!(!chain.truncated);
        assert!(chain.origin_wake.is_some(), "walk ends at node 0's wake");

        let report = blame(&dag, &clocks, Some(5.0), 16, false).unwrap();
        assert_eq!(report.chains[0].endpoint, n(0), "ahead end of local pair");
        assert_eq!(report.chains[1].endpoint, n(1), "behind end of local pair");
        let text = report.render(&clocks);
        assert!(text.contains("peak local skew"), "{text}");
        assert!(text.contains("deliver 0 -> 1"), "{text}");
        assert!(text.contains("multiplier 1.5"), "{text}");
    }

    #[test]
    fn hop_limit_truncates() {
        let events = wavefront_stream();
        let dag = Dag::from_events(events);
        let chain = causal_chain(&dag, n(2), 5.0, 1);
        assert_eq!(chain.hops.len(), 1);
        assert!(chain.truncated);
    }

    #[test]
    fn single_node_has_no_peaks() {
        let events = vec![EngineEvent::Wake {
            node: n(0),
            t: 0.0,
            hw: 0.0,
        }];
        let clocks = ClockReconstruction::from_events(&events);
        assert!(find_peaks(&clocks, &[], None).is_none());
    }
}
