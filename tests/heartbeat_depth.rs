//! Pins the heartbeat `queue_depth` semantics: the depth handed to
//! observers is the *total* event count across every region of the
//! calendar queue (near heap, ring buckets, overflow heap), not just the
//! sift-able near region.
//!
//! The lever is the delay model's floor promise: a strictly positive
//! `min_delay` engages the timing wheel, while hiding the promise runs
//! the identical simulation on a plain heap. Event order is contractually
//! the same either way, so the heartbeat streams — `queue_depth`
//! included — must be byte-identical. If calendar mode ever reported only
//! the near heap, this diverges immediately.

use clock_sync::core::{AOpt, Params};
use clock_sync::graph::topology;
use clock_sync::sim::{
    rates, ConstantDelay, DelayCtx, DelayModel, Delivery, Engine, EngineEvent, EventSink,
};
use clock_sync::telemetry::{parse_stream, BeatInput, HeartbeatEmitter, Record, WatchdogStatus};
use clock_sync::time::DriftBounds;

/// Delegates delays verbatim but withholds the floor promise, so the
/// engine falls back to the plain 4-ary heap while every delivery time
/// stays bit-for-bit the same.
#[derive(Clone)]
struct HideFloor<M>(M);

impl<M: DelayModel> DelayModel for HideFloor<M> {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        self.0.delivery(ctx)
    }

    fn uncertainty(&self) -> Option<f64> {
        self.0.uncertainty()
    }

    // `min_delay` stays at the default `None`: same delays, plain-heap
    // queue.
}

/// Sink that streams deterministic heartbeats from engine snapshots and
/// remembers the raw `(t, queue_depth)` samples.
struct DepthProbe {
    events: u64,
    hb: HeartbeatEmitter<Vec<u8>>,
    samples: Vec<(f64, usize)>,
}

impl DepthProbe {
    fn new(every: f64) -> Self {
        DepthProbe {
            events: 0,
            hb: HeartbeatEmitter::new(Vec::new(), every, 0.0, true),
            samples: Vec::new(),
        }
    }
}

impl EventSink for DepthProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _event: &EngineEvent) {
        self.events += 1;
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, _clocks: &[f64], queue_depth: usize) {
        self.samples.push((t, queue_depth));
        if self.hb.due(t) {
            self.hb
                .beat(&BeatInput {
                    t,
                    events: self.events,
                    queue_depth: queue_depth as u64,
                    timers_armed: 0,
                    dropped_model: 0,
                    dropped_faults: 0,
                    skew_global: None,
                    skew_local: None,
                    watchdog: WatchdogStatus::Off,
                })
                .expect("in-memory heartbeat write");
        }
    }
}

/// Runs A^opt on a path under a constant delay, heartbeating every 5 time
/// units; `hide_floor` switches the queue between calendar and plain-heap
/// mode without touching a single delivery time.
fn run_probe(hide_floor: bool) -> (String, Vec<(f64, usize)>) {
    let n = 6;
    let delay = 0.05;
    let horizon = 60.0;
    let params = Params::recommended(0.01, delay).unwrap();
    let g = topology::path(n);
    let drift = DriftBounds::new(0.01).unwrap();
    let schedules = rates::random_walk(n, drift, 3.0, horizon, 42);
    // The builder is generic over the delay model, so each mode builds
    // its own engine; everything else is identical.
    let probe = if hide_floor {
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); n])
            .rate_schedules(schedules)
            .delay_model(HideFloor(ConstantDelay::new(delay)))
            .event_sink(DepthProbe::new(5.0))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(horizon);
        engine.into_sink()
    } else {
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); n])
            .rate_schedules(schedules)
            .delay_model(ConstantDelay::new(delay))
            .event_sink(DepthProbe::new(5.0))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(horizon);
        engine.into_sink()
    };
    (
        String::from_utf8(probe.hb.into_inner()).unwrap(),
        probe.samples,
    )
}

/// Calendar-mode heartbeats are byte-identical to plain-heap heartbeats:
/// `queue_depth` counts near + ring + overflow, not whatever happens to
/// be sifted into the near heap.
#[test]
fn const_delay_calendar_heartbeats_match_plain_heap() {
    let (calendar_hb, calendar_samples) = run_probe(false);
    let (plain_hb, plain_samples) = run_probe(true);

    assert!(!calendar_hb.is_empty(), "run must produce heartbeats");
    assert_eq!(
        calendar_hb, plain_hb,
        "calendar-mode heartbeat stream must be byte-identical to plain heap"
    );
    assert_eq!(calendar_samples, plain_samples, "raw snapshot depths too");

    // The comparison is not vacuous: the run actually queues events, and
    // the beats carry non-zero depths.
    assert!(calendar_samples.iter().any(|&(_, d)| d > 0));
    let (records, skipped) = parse_stream(&calendar_hb);
    assert_eq!(skipped, 0, "every line parses as gcs-heartbeat/v1");
    let depths: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Run(beat) => Some(beat.queue_depth),
            _ => None,
        })
        .collect();
    assert!(depths.len() >= 5, "expected several beats, got {depths:?}");
    assert!(
        depths.iter().any(|&d| d > 0),
        "beats never saw a queued event: {depths:?}"
    );
}
