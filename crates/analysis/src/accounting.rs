//! Message/bit/space complexity accounting (paper Section 6).

use gcs_core::Params;
use gcs_sim::MessageStats;

/// Ratio of the busiest node's delivery count to the mean (1.0 = perfectly
/// balanced, and the value when nothing was delivered). Unlike
/// [`ComplexityReport::from_stats`] it needs no duration, so it is defined
/// for zero-horizon runs too.
pub fn delivery_imbalance(stats: &MessageStats) -> f64 {
    let Some(&max) = stats.per_node_deliveries.iter().max() else {
        return 1.0;
    };
    let mean = stats.deliveries as f64 / stats.per_node_deliveries.len() as f64;
    if mean > 0.0 {
        max as f64 / mean
    } else {
        1.0
    }
}

/// Complexity figures for one execution, in the units of the paper's
/// Section 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexityReport {
    /// Send events per node per unit of real time (amortized message
    /// frequency; the paper proves `Θ(1/H₀)`, Section 6.1).
    pub sends_per_node_per_time: f64,
    /// Send events per node per `𝒯̂` window.
    pub sends_per_node_per_t: f64,
    /// The paper's predicted amortized frequency `1/H₀`.
    pub predicted_frequency: f64,
    /// Per-edge transmissions per node per time.
    pub transmissions_per_node_per_time: f64,
    /// Bits per message for the discretized encoding
    /// (`⌈log₂⌉` of the two field ranges, Section 6.2).
    pub bits_per_message: u32,
    /// Estimated per-node state bits (Section 6.3): the estimate/`ℓ` pair
    /// per neighbour, the `L^max` offset, and the timer state.
    pub state_bits_per_node: u32,
    /// Messages delivered to each node (index = node id). Empty when the
    /// stats predate per-node accounting.
    pub per_node_deliveries: Vec<u64>,
    /// Transmissions dropped en route to each node. All-zero under the
    /// paper's reliable-links model; a lossy delay model makes the drop
    /// attribution visible here.
    pub per_node_dropped: Vec<u64>,
    /// Drops attributed to the delay model itself (`lossy`'s i.i.d. loss).
    pub dropped_model: u64,
    /// Drops attributed to injected faults (the chaos layer). Disjoint
    /// from `dropped_model`: each dropped transmission is counted exactly
    /// once, under its cause.
    pub dropped_faults: u64,
    /// Fault-injected duplicate transmissions.
    pub duplicated: u64,
    /// Ratio of the busiest node's delivery count to the mean (1.0 = perfectly
    /// balanced; grows with degree imbalance, e.g. the hub of a star).
    pub delivery_imbalance: f64,
}

impl ComplexityReport {
    /// Builds the report from an execution's message counters.
    ///
    /// # Panics
    ///
    /// Panics if `duration <= 0` or there are no nodes.
    pub fn from_stats(
        stats: &MessageStats,
        params: &Params,
        nodes: usize,
        max_degree: usize,
        diameter: u32,
        duration: f64,
    ) -> Self {
        assert!(duration > 0.0, "invalid duration {duration}");
        assert!(nodes > 0, "no nodes");
        let sends_per_node_per_time = stats.send_events as f64 / nodes as f64 / duration;
        let t_hat = params.t_hat();
        ComplexityReport {
            sends_per_node_per_time,
            sends_per_node_per_t: sends_per_node_per_time * t_hat,
            predicted_frequency: 1.0 / params.h0(),
            transmissions_per_node_per_time: stats.transmissions as f64 / nodes as f64 / duration,
            bits_per_message: gcs_core::DiscreteAOpt::bits_per_message(params),
            state_bits_per_node: Self::state_bits(params, max_degree, diameter),
            per_node_deliveries: stats.per_node_deliveries.clone(),
            per_node_dropped: stats.per_node_dropped.clone(),
            dropped_model: stats.dropped_model,
            dropped_faults: stats.dropped_faults,
            duplicated: stats.duplicated,
            delivery_imbalance: delivery_imbalance(stats),
        }
    }

    /// The Section 6.3 state estimate: per neighbour, the skew estimate
    /// `L_v − L_v^w` (bounded by the local-skew bound, stored in quanta of
    /// `μH₀`) plus the freshness counter; per node, the `L^max − L_v`
    /// difference (a multiple of `H₀` bounded by `𝒢`).
    fn state_bits(params: &Params, max_degree: usize, diameter: u32) -> u32 {
        let quanta = params.mu() * params.h0();
        let per_neighbor_range = (params.local_skew_bound(diameter) / quanta).max(2.0);
        let per_neighbor_bits = per_neighbor_range.log2().ceil() as u32 + 1;
        let lmax_range = (params.global_skew_bound(diameter) / params.h0()).max(2.0);
        let lmax_bits = lmax_range.log2().ceil() as u32 + 1;
        max_degree as u32 * per_neighbor_bits + lmax_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(sends: u64, transmissions: u64) -> MessageStats {
        MessageStats {
            send_events: sends,
            transmissions,
            deliveries: transmissions,
            ..MessageStats::default()
        }
    }

    #[test]
    fn frequencies_are_normalized() {
        let p = Params::recommended(0.01, 1.0).unwrap();
        let r = ComplexityReport::from_stats(&stats(1000, 2000), &p, 10, 2, 9, 50.0);
        assert!((r.sends_per_node_per_time - 2.0).abs() < 1e-12);
        assert!((r.transmissions_per_node_per_time - 4.0).abs() < 1e-12);
        assert!((r.sends_per_node_per_t - 2.0).abs() < 1e-12);
        assert!((r.predicted_frequency - 1.0 / p.h0()).abs() < 1e-12);
    }

    #[test]
    fn state_bits_grow_logarithmically_with_diameter() {
        let p = Params::recommended(0.01, 1.0).unwrap();
        let small = ComplexityReport::from_stats(&stats(1, 1), &p, 2, 2, 8, 1.0);
        let large = ComplexityReport::from_stats(&stats(1, 1), &p, 2, 2, 1024, 1.0);
        assert!(large.state_bits_per_node > small.state_bits_per_node);
        assert!(large.state_bits_per_node < small.state_bits_per_node + 32);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_zero_duration() {
        let p = Params::recommended(0.01, 1.0).unwrap();
        let _ = ComplexityReport::from_stats(&stats(1, 1), &p, 1, 1, 1, 0.0);
    }
}
