//! Helpers shared by the integration tests.

use std::cell::Cell;

use gcs_graph::NodeId;
use gcs_sim::{ClockView, EventSink};

/// Feeds `sink` one sample through a view that notes whether the sink read
/// the clock vector ([`ClockView::values`]); returns whether it did.
pub fn sample_noting_vector<S: EventSink>(
    sink: &mut S,
    t: f64,
    touched: &[NodeId],
    clocks: &dyn ClockView,
    queue_depth: usize,
) -> bool {
    let noting = Noting {
        clocks,
        read: Cell::new(false),
    };
    sink.sample(t, touched, &noting, queue_depth);
    noting.read.get()
}

/// A [`ClockView`] that notes whether its vector was read.
struct Noting<'a> {
    clocks: &'a dyn ClockView,
    read: Cell<bool>,
}

impl ClockView for Noting<'_> {
    fn len(&self) -> usize {
        self.clocks.len()
    }

    fn value(&self, v: NodeId) -> f64 {
        self.clocks.value(v)
    }

    fn values(&self) -> &[f64] {
        self.read.set(true);
        self.clocks.values()
    }

    fn value_at(&self, v: NodeId, t: f64) -> f64 {
        self.clocks.value_at(v, t)
    }

    fn rate_floor(&self) -> f64 {
        self.clocks.rate_floor()
    }

    fn previous_sample(&self) -> Option<(f64, &[f64])> {
        self.clocks.previous_sample()
    }
}
