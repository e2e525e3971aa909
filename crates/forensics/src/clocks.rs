//! Reconstructing per-node hardware and logical clock trajectories from a
//! recorded event stream.
//!
//! The stream never carries clock snapshots, but it carries enough to
//! rebuild both clocks exactly at every event time:
//!
//! * `wake` anchors the hardware clock (`hw` is its reading at `t`, by
//!   construction 0) and starts the logical clock at `L = 0`.
//! * `send`, `timer_fire`, and `deliver` carry exact hardware readings —
//!   **anchors** the reconstruction snaps to, eliminating drift from
//!   floating-point integration.
//! * `rate_step` gives the exact hardware rate from `t` onward. The only
//!   unknown is the initial rate between wake and the first `rate_step`;
//!   it is solved from the first anchor in that window (default 1.0 when
//!   no anchor exists — the engine's default for stepless rate models).
//! * `multiplier` gives the logical-rate multiplier from `t` onward
//!   (1.0 before the first change, matching `LogicalClock::start`).
//!
//! Between events both clocks are piecewise linear:
//! `dH/dt = rate`, `dL/dt = multiplier × rate`. `A^opt`'s logical clock is
//! continuous, so this reconstruction is exact for it; `aopt-jump`'s
//! discrete jumps are applied via `LogicalClock::add` and do not appear in
//! the stream, so its reconstructed `L` omits the jumps (documented in
//! `docs/TRACE_FORMAT.md`).

use gcs_graph::NodeId;
use gcs_sim::EngineEvent;

/// One linear piece of a node's clock trajectory: from `t` onward (until
/// the next segment) the hardware clock reads `hw + rate·(τ−t)` and the
/// logical clock reads `l + multiplier·rate·(τ−t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Real time at which this piece starts.
    pub t: f64,
    /// Hardware reading at `t`.
    pub hw: f64,
    /// Logical reading at `t`.
    pub l: f64,
    /// Hardware rate on this piece.
    pub rate: f64,
    /// Logical multiplier on this piece.
    pub multiplier: f64,
}

/// The reconstructed trajectory of one node's clocks.
#[derive(Debug, Clone)]
pub struct NodeClock {
    /// Real time the node woke (clocks undefined before this).
    pub wake_t: f64,
    segments: Vec<Segment>,
}

impl NodeClock {
    fn segment_at(&self, t: f64) -> Option<&Segment> {
        if t.is_nan() || t < self.wake_t {
            return None;
        }
        let idx = match self
            .segments
            .binary_search_by(|s| s.t.partial_cmp(&t).expect("finite times"))
        {
            // Equal start times keep the *last* segment (latest state at t).
            Ok(mut i) => {
                while i + 1 < self.segments.len() && self.segments[i + 1].t == t {
                    i += 1;
                }
                i
            }
            Err(0) => return None,
            Err(i) => i - 1,
        };
        Some(&self.segments[idx])
    }

    /// Hardware reading at real time `t`, or `None` before wake-up or at a NaN `t`.
    pub fn hardware(&self, t: f64) -> Option<f64> {
        self.segment_at(t).map(|s| s.hw + s.rate * (t - s.t))
    }

    /// Logical reading at real time `t`, or `None` before wake-up or at a NaN `t`.
    pub fn logical(&self, t: f64) -> Option<f64> {
        self.segment_at(t)
            .map(|s| s.l + s.multiplier * s.rate * (t - s.t))
    }

    /// Hardware rate in effect at `t`.
    pub fn rate(&self, t: f64) -> Option<f64> {
        self.segment_at(t).map(|s| s.rate)
    }

    /// Logical multiplier in effect at `t`.
    pub fn multiplier(&self, t: f64) -> Option<f64> {
        self.segment_at(t).map(|s| s.multiplier)
    }

    /// The linear pieces, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

/// Per-node clock trajectories rebuilt from a full event stream.
#[derive(Debug, Clone, Default)]
pub struct ClockReconstruction {
    nodes: Vec<Option<NodeClock>>,
    last_event_t: f64,
}

/// Points where a node's trajectory changes, gathered per node before the
/// integration pass.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Exact hardware reading reported by the stream.
    Anchor(f64),
    Rate(f64),
    Multiplier(f64),
}

impl ClockReconstruction {
    /// Rebuilds all node clocks from a stream in recorded order.
    pub fn from_events(events: &[EngineEvent]) -> Self {
        // Per node: wake (t, hw) and the time-ordered change list. Stream
        // order is already global time order with deterministic ties, so a
        // single forward pass per node suffices.
        let mut wakes: Vec<Option<(f64, f64)>> = Vec::new();
        let mut changes: Vec<Vec<(f64, Change)>> = Vec::new();
        let mut last_event_t = 0.0f64;
        let ensure = |wakes: &mut Vec<Option<(f64, f64)>>,
                      changes: &mut Vec<Vec<(f64, Change)>>,
                      node: NodeId| {
            if node.0 >= wakes.len() {
                wakes.resize(node.0 + 1, None);
                changes.resize(node.0 + 1, Vec::new());
            }
        };
        for event in events {
            last_event_t = last_event_t.max(event.time());
            match *event {
                EngineEvent::Wake { node, t, hw } => {
                    ensure(&mut wakes, &mut changes, node);
                    if wakes[node.0].is_none() {
                        wakes[node.0] = Some((t, hw));
                    }
                }
                EngineEvent::Send { node, t, hw } | EngineEvent::TimerFire { node, t, hw, .. } => {
                    ensure(&mut wakes, &mut changes, node);
                    changes[node.0].push((t, Change::Anchor(hw)));
                }
                EngineEvent::Deliver { dst, t, dst_hw, .. } => {
                    ensure(&mut wakes, &mut changes, dst);
                    changes[dst.0].push((t, Change::Anchor(dst_hw)));
                }
                EngineEvent::RateStep { node, t, rate } => {
                    ensure(&mut wakes, &mut changes, node);
                    changes[node.0].push((t, Change::Rate(rate)));
                }
                EngineEvent::MultiplierChange {
                    node,
                    t,
                    multiplier,
                } => {
                    ensure(&mut wakes, &mut changes, node);
                    changes[node.0].push((t, Change::Multiplier(multiplier)));
                }
                EngineEvent::Transmit { src, dst, .. } | EngineEvent::Drop { src, dst, .. } => {
                    ensure(&mut wakes, &mut changes, src);
                    ensure(&mut wakes, &mut changes, dst);
                }
                EngineEvent::TimerSet { node, .. } | EngineEvent::TimerCancel { node, .. } => {
                    ensure(&mut wakes, &mut changes, node);
                }
            }
        }

        let nodes = wakes
            .iter()
            .zip(&changes)
            .map(|(wake, list)| wake.map(|(wt, whw)| build_node(wt, whw, list)))
            .collect();
        ClockReconstruction {
            nodes,
            last_event_t,
        }
    }

    /// Number of node slots (highest node id seen + 1).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The trajectory of `node`, if it ever woke.
    pub fn node(&self, node: NodeId) -> Option<&NodeClock> {
        self.nodes.get(node.0).and_then(Option::as_ref)
    }

    /// Logical reading of `node` at `t` (None before wake / unknown node).
    pub fn logical(&self, node: NodeId, t: f64) -> Option<f64> {
        self.node(node).and_then(|c| c.logical(t))
    }

    /// Hardware reading of `node` at `t` (None before wake / unknown node).
    pub fn hardware(&self, node: NodeId, t: f64) -> Option<f64> {
        self.node(node).and_then(|c| c.hardware(t))
    }

    /// Real time of the last recorded event.
    pub fn last_event_time(&self) -> f64 {
        self.last_event_t
    }

    /// Sorted, deduplicated union of all segment-start times across nodes.
    ///
    /// Skew as a function of time is piecewise linear with kinks exactly
    /// at these instants, so a peak search only needs to evaluate here
    /// (plus any extra horizon the caller supplies).
    pub fn kink_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .nodes
            .iter()
            .flatten()
            .flat_map(|c| c.segments.iter().map(|s| s.t))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup();
        times
    }
}

fn build_node(wake_t: f64, wake_hw: f64, changes: &[(f64, Change)]) -> NodeClock {
    // Initial hardware rate: solve from the first anchor that is strictly
    // after wake and not preceded by a rate step. Anchors *at* wake time
    // (e.g. an immediate send) carry no rate information.
    let mut initial_rate = 1.0;
    for &(t, change) in changes {
        match change {
            Change::Rate(_) => break,
            Change::Anchor(hw) if t > wake_t => {
                initial_rate = (hw - wake_hw) / (t - wake_t);
                break;
            }
            _ => {}
        }
    }

    let mut segments = vec![Segment {
        t: wake_t,
        hw: wake_hw,
        l: 0.0,
        rate: initial_rate,
        multiplier: 1.0,
    }];
    let mut cur = segments[0];
    for &(t, change) in changes {
        let dt = t - cur.t;
        let hw = cur.hw + cur.rate * dt;
        let l = cur.l + cur.multiplier * cur.rate * dt;
        let next = match change {
            // Snap to the reported reading: L is unaffected (it integrates
            // rates, not hardware offsets), later H readings become exact.
            Change::Anchor(reported_hw) => Segment {
                t,
                hw: reported_hw,
                l,
                ..cur
            },
            Change::Rate(rate) => Segment {
                t,
                hw,
                l,
                rate,
                multiplier: cur.multiplier,
            },
            Change::Multiplier(multiplier) => Segment {
                t,
                hw,
                l,
                rate: cur.rate,
                multiplier,
            },
        };
        cur = next;
        segments.push(next);
    }
    NodeClock { wake_t, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::TimerId;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn integrates_rates_and_multipliers() {
        // Node 0 wakes at t=1 with rate 1.02 (solved from the send anchor),
        // then multiplier 1.1 from t=3, then rate 0.98 from t=5.
        let events = vec![
            EngineEvent::Wake {
                node: n(0),
                t: 1.0,
                hw: 0.0,
            },
            EngineEvent::Send {
                node: n(0),
                t: 2.0,
                hw: 1.02,
            },
            EngineEvent::MultiplierChange {
                node: n(0),
                t: 3.0,
                multiplier: 1.1,
            },
            EngineEvent::RateStep {
                node: n(0),
                t: 5.0,
                rate: 0.98,
            },
        ];
        let rec = ClockReconstruction::from_events(&events);
        let c = rec.node(n(0)).unwrap();
        assert!(c.hardware(0.5).is_none(), "before wake");
        assert!((c.hardware(2.0).unwrap() - 1.02).abs() < 1e-12);
        assert!((c.rate(2.5).unwrap() - 1.02).abs() < 1e-12);
        // L: 2s at m=1·r=1.02, then 2s at m=1.1·r=1.02, then m=1.1·r=0.98.
        let l5 = 2.0 * 1.02 + 2.0 * 1.1 * 1.02;
        assert!((c.logical(5.0).unwrap() - l5).abs() < 1e-12);
        assert!((c.logical(6.0).unwrap() - (l5 + 1.1 * 0.98)).abs() < 1e-12);
        assert_eq!(rec.node_count(), 1);
        assert!((rec.last_event_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn anchors_snap_hardware_but_not_logical() {
        // Reported deliver hw disagrees slightly with dead-reckoning; the
        // hardware reading snaps, logical integration is untouched.
        let events = vec![
            EngineEvent::Wake {
                node: n(1),
                t: 0.0,
                hw: 0.0,
            },
            EngineEvent::Deliver {
                src: n(0),
                dst: n(1),
                t: 4.0,
                dst_hw: 4.25,
            },
            EngineEvent::TimerFire {
                node: n(1),
                timer: TimerId(0),
                t: 6.0,
                hw: 6.5,
            },
        ];
        let rec = ClockReconstruction::from_events(&events);
        let c = rec.node(n(1)).unwrap();
        // Initial rate solved from first anchor: 4.25/4.
        assert!((c.rate(1.0).unwrap() - 4.25 / 4.0).abs() < 1e-12);
        assert!((c.hardware(4.0).unwrap() - 4.25).abs() < 1e-12);
        // After the second anchor the reading is exactly the reported one.
        assert!((c.hardware(6.0).unwrap() - 6.5).abs() < 1e-12);
        // Logical keeps integrating multiplier×rate across the snap.
        let expected_l = 6.0 * (4.25 / 4.0);
        assert!((c.logical(6.0).unwrap() - expected_l).abs() < 1e-12);
    }

    #[test]
    fn default_rate_is_one_without_anchors() {
        let events = vec![EngineEvent::Wake {
            node: n(2),
            t: 0.5,
            hw: 0.0,
        }];
        let rec = ClockReconstruction::from_events(&events);
        let c = rec.node(n(2)).unwrap();
        assert!((c.hardware(2.5).unwrap() - 2.0).abs() < 1e-12);
        assert!((c.logical(2.5).unwrap() - 2.0).abs() < 1e-12);
        assert!(rec.node(n(0)).is_none(), "node 0 never woke");
        assert_eq!(rec.node_count(), 3);
    }

    #[test]
    fn kink_times_cover_all_segment_starts() {
        let events = vec![
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
            EngineEvent::MultiplierChange {
                node: n(0),
                t: 2.0,
                multiplier: 1.2,
            },
            EngineEvent::RateStep {
                node: n(1),
                t: 3.0,
                rate: 0.99,
            },
        ];
        let rec = ClockReconstruction::from_events(&events);
        assert_eq!(rec.kink_times(), vec![0.0, 2.0, 3.0]);
    }
}
