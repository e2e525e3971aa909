//! Behavioural tests of the discrete-event engine.

use gcs_graph::{topology, NodeId};
use gcs_sim::{
    ConstantDelay, Context, DelayCtx, Delivery, Engine, FnDelay, Protocol, TimerId, UniformDelay,
};
use gcs_time::RateSchedule;

/// A protocol that records everything that happens to it.
#[derive(Debug, Clone, Default)]
struct Recorder {
    started_at_hw: Option<f64>,
    messages: Vec<(NodeId, u32, f64)>, // (from, payload, hw at delivery)
    timer_fires: Vec<(u32, f64)>,      // (timer id, hw at fire)
    announce_on_start: bool,
    timer_request: Option<(u32, f64)>, // set this timer at start
}

impl Protocol for Recorder {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.started_at_hw = Some(ctx.hw());
        if self.announce_on_start {
            ctx.send_all(ctx.me().index() as u32);
        }
        if let Some((id, target)) = self.timer_request {
            ctx.set_timer(TimerId(id), target);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        self.messages.push((from, msg, ctx.hw()));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, timer: TimerId) {
        self.timer_fires.push((timer.0, ctx.hw()));
    }

    fn logical_value(&self, hw: f64) -> f64 {
        hw
    }
}

fn recorders(n: usize) -> Vec<Recorder> {
    vec![Recorder::default(); n]
}

#[test]
fn constant_delay_delivers_on_time() {
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.5))
        .build();
    engine.wake(NodeId(0), 1.0);
    engine.run_until(2.0);
    let r1 = engine.protocol(NodeId(1));
    // Node 1 was woken by the message at t = 1.5; its hw clock read 0 then.
    assert_eq!(r1.messages.len(), 1);
    assert_eq!(r1.messages[0].0, NodeId(0));
    assert_eq!(r1.messages[0].2, 0.0);
    assert_eq!(r1.started_at_hw, Some(0.0));
    // Node 1's hardware clock started at 1.5 and runs at rate 1.
    assert!((engine.hardware_value(NodeId(1)) - 0.5).abs() < 1e-12);
}

#[test]
fn wake_is_idempotent_after_message_initialization() {
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.wake(NodeId(1), 5.0); // after it was already woken by the message
    engine.run_until(10.0);
    // started exactly once, at the message arrival
    assert_eq!(engine.protocol(NodeId(1)).started_at_hw, Some(0.0));
    assert!((engine.hardware_value(NodeId(1)) - 10.0).abs() < 1e-12);
}

#[test]
fn hardware_timer_fires_at_target_value() {
    let g = topology::path(1);
    let mut protos = recorders(1);
    protos[0].timer_request = Some((7, 3.0));
    let schedule = RateSchedule::constant(0.5).unwrap();
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .rate_schedules(vec![schedule])
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(10.0);
    let r = engine.protocol(NodeId(0));
    assert_eq!(r.timer_fires.len(), 1);
    assert_eq!(r.timer_fires[0].0, 7);
    // H reaches 3.0 at t = 6.0 under rate 0.5.
    assert!((r.timer_fires[0].1 - 3.0).abs() < 1e-12);
}

#[test]
fn timer_reschedules_across_rate_speedup() {
    // Rate jumps from 0.5 to 2.0 at t = 2 (H = 1). Target H = 3 is then
    // reached at t = 3, not at the originally computed t = 6.
    let g = topology::path(1);
    let mut protos = recorders(1);
    protos[0].timer_request = Some((0, 3.0));
    let schedule = RateSchedule::from_steps(vec![(0.0, 0.5), (2.0, 2.0)]).unwrap();
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .rate_schedules(vec![schedule])
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(2.5);
    assert!(engine.protocol(NodeId(0)).timer_fires.is_empty());
    engine.run_until(3.5);
    let fires = &engine.protocol(NodeId(0)).timer_fires;
    assert_eq!(fires.len(), 1);
    assert!((fires[0].1 - 3.0).abs() < 1e-12);
}

#[test]
fn timer_does_not_fire_early_across_rate_slowdown() {
    // Rate drops from 2.0 to 0.25 at t = 1 (H = 2). Target H = 4 is then
    // reached at t = 9, not at the originally computed t = 2.
    let g = topology::path(1);
    let mut protos = recorders(1);
    protos[0].timer_request = Some((0, 4.0));
    let schedule = RateSchedule::from_steps(vec![(0.0, 2.0), (1.0, 0.25)]).unwrap();
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .rate_schedules(vec![schedule])
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(8.9);
    assert!(engine.protocol(NodeId(0)).timer_fires.is_empty());
    engine.run_until(9.1);
    let fires = &engine.protocol(NodeId(0)).timer_fires;
    assert_eq!(fires.len(), 1);
    assert!((fires[0].1 - 4.0).abs() < 1e-9);
}

#[test]
fn manual_rate_override_reschedules_timers() {
    let g = topology::path(1);
    let mut protos = recorders(1);
    protos[0].timer_request = Some((0, 10.0));
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(5.0);
    engine.set_hardware_rate(NodeId(0), 5.0); // H = 5 now, reaches 10 at t = 6
    engine.run_until(7.0);
    let fires = &engine.protocol(NodeId(0)).timer_fires;
    assert_eq!(fires.len(), 1);
    assert!((fires[0].1 - 10.0).abs() < 1e-9);
}

#[test]
fn hardware_targeted_delivery_waits_for_receiver_clock() {
    // Node 1 runs at rate 0.5. A message sent at t = 1 targeted at receiver
    // hw value 2.0 must arrive at t = 4 (H_1(4) = 2).
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    let schedules = vec![
        RateSchedule::constant(1.0).unwrap(),
        RateSchedule::constant(0.5).unwrap(),
    ];
    let delay = FnDelay::new(|_: &DelayCtx<'_>| Delivery::AtReceiverHw(2.0), Some(1.0));
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(1.0);
    // re-wake node 0 does nothing; instead send from node 0 at t=1 via timer…
    // node 0 announced at t = 0 already; the message targeted H_1 = 2.
    engine.run_until(3.9);
    assert!(engine.protocol(NodeId(1)).messages.is_empty());
    engine.run_until(4.1);
    let msgs = &engine.protocol(NodeId(1)).messages;
    assert_eq!(msgs.len(), 1);
    assert!((msgs[0].2 - 2.0).abs() < 1e-12);
}

#[test]
fn hardware_targeted_delivery_tracks_rate_changes() {
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    let schedules = vec![
        RateSchedule::constant(1.0).unwrap(),
        RateSchedule::from_steps(vec![(0.0, 0.5), (2.0, 4.0)]).unwrap(),
    ];
    let delay = FnDelay::new(|_: &DelayCtx<'_>| Delivery::AtReceiverHw(3.0), Some(1.0));
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    // H_1: 0.5t until t=2 (H=1), then 4/s; reaches 3 at t = 2.5.
    engine.run_until(2.4);
    assert!(engine.protocol(NodeId(1)).messages.is_empty());
    engine.run_until(2.6);
    assert_eq!(engine.protocol(NodeId(1)).messages.len(), 1);
}

#[test]
fn message_stats_count_broadcasts_and_transmissions() {
    let g = topology::star(4); // hub 0 with 3 leaves
    let mut protos = recorders(4);
    protos[0].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.1))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(1.0);
    let stats = engine.message_stats();
    assert_eq!(stats.send_events, 1);
    assert_eq!(stats.transmissions, 3);
    assert_eq!(stats.deliveries, 3);
    assert_eq!(stats.per_node_sends[0], 1);
    assert_eq!(stats.per_node_sends[1], 0);
}

#[test]
fn engine_clone_supports_extended_executions() {
    // Snapshot mid-run, continue both copies differently, and verify they
    // diverge from a common prefix.
    let g = topology::path(3);
    let mut protos = recorders(3);
    protos[0].announce_on_start = true;
    protos[1].announce_on_start = true;
    protos[2].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(UniformDelay::new(0.3, 17))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(0.15);
    let snapshot = engine.clone();
    assert_eq!(engine.now(), snapshot.now());

    let mut fast = snapshot.clone();
    fast.set_hardware_rate(NodeId(2), 1.5);
    engine.run_until(2.0);
    fast.run_until(2.0);
    let slow_h = engine.hardware_value(NodeId(2));
    let fast_h = fast.hardware_value(NodeId(2));
    assert!(fast_h > slow_h + 0.5);
    // Node 0 is untouched: identical in both continuations.
    assert_eq!(
        engine.hardware_value(NodeId(0)),
        fast.hardware_value(NodeId(0))
    );
}

#[test]
fn determinism_same_seed_same_history() {
    let run = || {
        let g = topology::erdos_renyi(8, 0.3, 5);
        let mut protos = recorders(8);
        for p in &mut protos {
            p.announce_on_start = true;
        }
        let mut engine = Engine::builder(g)
            .protocols(protos)
            .delay_model(UniformDelay::new(0.4, 99))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(3.0);
        (
            engine.message_stats().clone(),
            (0..8)
                .map(|v| engine.protocol(NodeId(v)).messages.clone())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn run_until_observed_sees_every_event_and_horizon() {
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.25))
        .build();
    engine.wake_all_at(0.0);
    let mut observations = Vec::new();
    engine.run_until_observed(1.0, |e| observations.push(e.now()));
    // wake(0), wake(1), delivery at 0.25 (node 1 announced too -> delivery to 0), horizon.
    assert!(observations.len() >= 4);
    assert_eq!(*observations.last().unwrap(), 1.0);
    assert!(observations.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
#[should_panic(expected = "non-neighbour")]
fn sending_to_non_neighbour_panics() {
    #[derive(Debug, Clone)]
    struct Bad;
    impl Protocol for Bad {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.send(NodeId(2), ()); // not adjacent on a path of 3
        }
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, _: &mut Context<'_, ()>, _: TimerId) {}
        fn logical_value(&self, hw: f64) -> f64 {
            hw
        }
    }
    let g = topology::path(3);
    let mut engine = Engine::builder(g)
        .protocols(vec![Bad, Bad, Bad])
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(1.0);
}

#[test]
fn zero_delay_messages_process_in_send_order() {
    let g = topology::path(2);
    let mut protos = recorders(2);
    protos[0].announce_on_start = true;
    protos[1].announce_on_start = true;
    let mut engine = Engine::builder(g)
        .protocols(protos)
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(0.0);
    // Both woke and exchanged messages at t = 0 without livelock.
    assert_eq!(engine.protocol(NodeId(0)).messages.len(), 1);
    assert_eq!(engine.protocol(NodeId(1)).messages.len(), 1);
}

#[test]
fn cancel_timer_prevents_fire() {
    #[derive(Debug, Clone, Default)]
    struct CancelSelf {
        fired: bool,
    }
    impl Protocol for CancelSelf {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(TimerId(0), 1.0);
            ctx.cancel_timer(TimerId(0));
        }
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, _: &mut Context<'_, ()>, _: TimerId) {
            self.fired = true;
        }
        fn logical_value(&self, hw: f64) -> f64 {
            hw
        }
    }
    let g = topology::path(1);
    let mut engine = Engine::builder(g)
        .protocols(vec![CancelSelf::default()])
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(5.0);
    assert!(!engine.protocol(NodeId(0)).fired);
}

#[test]
fn rearming_timer_replaces_previous_target() {
    #[derive(Debug, Clone, Default)]
    struct Rearm {
        fires: Vec<f64>,
    }
    impl Protocol for Rearm {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(TimerId(0), 1.0);
            ctx.set_timer(TimerId(0), 2.0); // replaces the 1.0 target
        }
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _: TimerId) {
            self.fires.push(ctx.hw());
        }
        fn logical_value(&self, hw: f64) -> f64 {
            hw
        }
    }
    let g = topology::path(1);
    let mut engine = Engine::builder(g)
        .protocols(vec![Rearm::default()])
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.run_until(5.0);
    let fires = &engine.protocol(NodeId(0)).fires;
    assert_eq!(fires.len(), 1);
    assert!((fires[0] - 2.0).abs() < 1e-12);
}

#[test]
fn past_timer_target_fires_immediately() {
    #[derive(Debug, Clone, Default)]
    struct Immediate {
        fires: Vec<f64>,
    }
    impl Protocol for Immediate {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(TimerId(0), -5.0);
        }
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _: TimerId) {
            self.fires.push(ctx.hw());
        }
        fn logical_value(&self, hw: f64) -> f64 {
            hw
        }
    }
    let g = topology::path(1);
    let mut engine = Engine::builder(g)
        .protocols(vec![Immediate::default()])
        .delay_model(ConstantDelay::new(0.0))
        .build();
    engine.wake(NodeId(0), 3.0);
    engine.run_until(3.0);
    let fires = &engine.protocol(NodeId(0)).fires;
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0], 0.0);
}

/// Jumps its logical clock by 1 on every message and re-broadcasts from a
/// periodic timer, so touches change both slope (rate steps) and offset.
#[derive(Debug, Clone, Default)]
struct Jumper {
    offset: f64,
}

thread_local! {
    /// `Jumper::logical_value` evaluations on this thread.
    static CLOCK_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Protocol for Jumper {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.send_all(0);
        ctx.set_timer(TimerId(0), ctx.hw() + 0.3);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, _msg: u32) {
        self.offset += 1.0;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _timer: TimerId) {
        ctx.send_all(0);
        ctx.set_timer(TimerId(0), ctx.hw() + 0.3);
    }

    fn logical_value(&self, hw: f64) -> f64 {
        CLOCK_READS.set(CLOCK_READS.get() + 1);
        hw + self.offset
    }
}

/// Checks each sample's previous-sample readings against the previous
/// sample's clock vector.
struct PreviousCheck {
    last: Option<(f64, Vec<f64>)>,
    checked: usize,
}

impl gcs_sim::EventSink for PreviousCheck {
    fn wants_snapshots(&self) -> bool {
        true
    }

    fn wants_previous_sample(&self) -> bool {
        true
    }

    fn sample(
        &mut self,
        t: f64,
        touched: &[NodeId],
        clocks: &dyn gcs_sim::ClockView,
        _queue_depth: usize,
    ) {
        let (t0, before) = clocks.previous_sample().expect("the engine records them");
        assert_eq!(before.len(), touched.len());
        let last = self.last.replace((t, clocks.values().to_vec()));
        let Some((t_last, vector)) = &last else {
            return;
        };
        assert_eq!(t0.to_bits(), t_last.to_bits());
        let mut seen = Vec::new();
        for (&v, &value) in touched.iter().zip(before) {
            if !seen.contains(&v) {
                seen.push(v);
                assert_eq!(
                    value.to_bits(),
                    vector[v.index()].to_bits(),
                    "{v:?} at {t0}"
                );
                self.checked += 1;
            }
        }
        // Untouched nodes read back to t₀ under their current state.
        for v in (0..vector.len()).map(NodeId) {
            if !seen.contains(&v) {
                assert_eq!(
                    clocks.value_at(v, t0).to_bits(),
                    vector[v.index()].to_bits()
                );
            }
        }
    }
}

#[test]
fn samples_carry_each_touched_clock_at_the_previous_sample() {
    let n = 6;
    let schedules = (0..n)
        .map(|v| {
            RateSchedule::from_steps(vec![(0.0, 1.0), (0.7 + 0.1 * v as f64, 0.98), (2.5, 1.03)])
                .unwrap()
        })
        .collect();
    let mut engine = Engine::builder(topology::cycle(n))
        .protocols(vec![Jumper::default(); n])
        .delay_model(UniformDelay::new(0.2, 5))
        .rate_schedules(schedules)
        .event_sink(PreviousCheck {
            last: None,
            checked: 0,
        })
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.wake(NodeId(3), 0.4);
    let mut k = 0;
    while engine.next_event_time().is_some_and(|t| t <= 4.0) {
        engine.step();
        k += 1;
        if k % 5 == 0 && engine.is_started(NodeId(k % n)) {
            // Twice between steps: the second touch repeats the node.
            engine.set_hardware_rate(NodeId(k % n), 1.01);
            engine.set_hardware_rate(NodeId(k % n), 0.99);
        }
    }
    engine.run_until(4.0);
    assert!(engine.sink().checked > 100, "{}", engine.sink().checked);
}

/// Shaped like a sink that only wants vectors: `wants_snapshots` and
/// `snapshot`, fed through the default `sample`.
#[derive(Default)]
struct VectorSink {
    last: Option<(f64, Vec<f64>)>,
    samples: usize,
}

impl gcs_sim::EventSink for VectorSink {
    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], _queue_depth: usize) {
        self.last = Some((t, clocks.to_vec()));
        self.samples += 1;
    }
}

#[test]
fn a_vector_sink_gets_the_exact_clock_vector_at_every_sample() {
    let n = 5;
    let mut engine = Engine::builder(topology::path(n))
        .protocols(vec![Jumper::default(); n])
        .delay_model(UniformDelay::new(0.2, 3))
        .rate_schedules(
            (0..n)
                .map(|v| RateSchedule::from_steps(vec![(0.0, 1.0), (0.5 + 0.2 * v as f64, 0.98)]))
                .collect::<Result<_, _>>()
                .unwrap(),
        )
        .event_sink(VectorSink::default())
        .build();
    engine.wake_all_at(0.0);
    let mut expected = Vec::new();
    let mut check = |engine: &Engine<Jumper, UniformDelay, VectorSink>| {
        engine.logical_values_into(&mut expected);
        let (t, got) = engine.sink().last.as_ref().expect("sampled");
        assert_eq!(t.to_bits(), engine.now().to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&expected), "at {t}");
    };
    let mut events = 0;
    while engine.next_event_time().is_some_and(|t| t <= 3.0) {
        engine.step();
        check(&engine);
        events += 1;
    }
    // The horizon pass samples once more.
    engine.run_until(3.0);
    check(&engine);
    assert_eq!(engine.sink().samples, events + 1);
    assert!(events > 50, "{events}");
}

/// Reads the clock vector twice per sample, noting whether the second read
/// evaluated any clock and handed back the first read's buffer.
#[derive(Default)]
struct TwiceReader {
    samples: usize,
}

impl gcs_sim::EventSink for TwiceReader {
    fn wants_snapshots(&self) -> bool {
        true
    }

    fn sample(
        &mut self,
        _t: f64,
        _touched: &[NodeId],
        clocks: &dyn gcs_sim::ClockView,
        _queue_depth: usize,
    ) {
        let before = CLOCK_READS.get();
        let first = clocks.values();
        assert_eq!(CLOCK_READS.get() - before, clocks.len(), "built once, O(n)");
        let second = clocks.values();
        assert_eq!(CLOCK_READS.get() - before, clocks.len(), "not rebuilt");
        assert!(std::ptr::eq(first, second), "the same buffer");
        self.samples += 1;
    }
}

#[test]
fn a_sample_builds_the_clock_vector_at_most_once() {
    let n = 6;
    let mut engine = Engine::builder(topology::cycle(n))
        .protocols(vec![Jumper::default(); n])
        .delay_model(UniformDelay::new(0.2, 5))
        .event_sink(TwiceReader::default())
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(2.0);
    assert!(engine.sink().samples > 50, "{}", engine.sink().samples);
}
