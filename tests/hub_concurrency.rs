//! Serving-hub concurrency semantics: a sharded [`iot_serve::Hub`] must be
//! behaviourally invisible — per-home verdict sequences are bit-identical
//! to driving one sequential [`causaliot::OwnedMonitor`] per home — while
//! providing explicit `QueueFull` backpressure instead of blocking.

use causaliot::{CausalIot, FittedModel, OwnedMonitor, Verdict};
use iot_model::{Attribute, BinaryEvent, DeviceRegistry, Room, Timestamp};
use iot_serve::{Hub, HubConfig, ModelUpdate, SubmitError};
use iot_telemetry::TelemetryHandle;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn fitted_model(seed: u64) -> (DeviceRegistry, FittedModel) {
    let mut reg = DeviceRegistry::new();
    let pe = reg
        .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
        .unwrap();
    let lamp = reg
        .add("S_lamp", Attribute::Switch, Room::new("room"))
        .unwrap();
    let door = reg
        .add("C_door", Attribute::ContactSensor, Room::new("hall"))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let (mut pe_s, mut lamp_s, mut door_s) = (false, false, false);
    for i in 0..400u64 {
        let t = i * 60;
        match rng.gen_range(0..3) {
            0 => {
                pe_s = !pe_s;
                events.push(BinaryEvent::new(Timestamp::from_secs(t), pe, pe_s));
                if rng.gen_bool(0.9) && lamp_s != pe_s {
                    lamp_s = pe_s;
                    events.push(BinaryEvent::new(Timestamp::from_secs(t + 15), lamp, lamp_s));
                }
            }
            1 => {
                door_s = !door_s;
                events.push(BinaryEvent::new(Timestamp::from_secs(t), door, door_s));
            }
            _ => {}
        }
    }
    let model = CausalIot::builder()
        .tau(2)
        .k_max(3)
        .build()
        .fit_binary(&reg, &events)
        .unwrap();
    (reg, model)
}

/// A per-home runtime stream mixing normal follow patterns with ghost
/// activations, seeded per home so the four streams differ.
fn home_stream(reg: &DeviceRegistry, seed: u64, len: usize) -> Vec<BinaryEvent> {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let door = reg.id_of("C_door").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(len);
    for i in 0..len as u64 {
        let t = 1_000_000 + seed * 10_000_000 + i * 30;
        let event = match rng.gen_range(0..4) {
            0 => BinaryEvent::new(Timestamp::from_secs(t), pe, rng.gen_bool(0.5)),
            1 => BinaryEvent::new(Timestamp::from_secs(t), lamp, rng.gen_bool(0.5)),
            2 => BinaryEvent::new(Timestamp::from_secs(t), door, rng.gen_bool(0.5)),
            // Ghost lamp activation: the anomaly the monitor exists for.
            _ => BinaryEvent::new(Timestamp::from_secs(t), lamp, true),
        };
        events.push(event);
    }
    events
}

#[test]
fn four_homes_on_two_workers_match_sequential_monitors() {
    let (reg, model) = fitted_model(7);
    let streams: Vec<Vec<BinaryEvent>> = (0..4).map(|h| home_stream(&reg, h, 500)).collect();

    // Reference: four independent sequential owned monitors.
    let expected: Vec<Vec<Verdict>> = streams
        .iter()
        .map(|stream| {
            let mut monitor: OwnedMonitor = model.clone().into_monitor();
            stream.iter().map(|e| monitor.observe(*e)).collect()
        })
        .collect();

    // Served: 4 homes sharded across a 2-worker pool, events interleaved
    // round-robin across homes (so shard queues interleave too).
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig {
            workers: 2,
            queue_capacity: 64,
            record_verdicts: true,
            ..HubConfig::default()
        },
        &telemetry,
    );
    let homes: Vec<_> = (0..4)
        .map(|h| hub.register(&format!("home-{h}"), &model))
        .collect();
    let len = streams[0].len();
    let mut cursors: Vec<_> = streams.iter().map(|s| s.iter()).collect();
    for _ in 0..len {
        for (home, cursor) in homes.iter().zip(cursors.iter_mut()) {
            let event = *cursor.next().expect("streams have equal length");
            // Bounded queue: spin on explicit backpressure.
            loop {
                match hub.submit(*home, event) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }
    hub.drain();
    let reports = hub.shutdown();

    assert_eq!(reports.len(), 4);
    for (h, report) in reports.iter().enumerate() {
        assert_eq!(report.id.index(), h);
        assert_eq!(
            report.monitor.events_observed, len as u64,
            "home {h} lost events"
        );
        assert_eq!(
            report.verdicts, expected[h],
            "home {h}: served verdict sequence diverged from sequential monitor"
        );
    }

    // The telemetry wiring saw every event.
    assert_eq!(telemetry.counter("hub.submitted").get(), 4 * len as u64);
    let shard_events: u64 = (0..2)
        .map(|i| telemetry.counter(&format!("hub.shard.{i}.events")).get())
        .sum();
    assert_eq!(shard_events, 4 * len as u64);
}

#[test]
fn multi_threaded_producers_preserve_per_home_order() {
    let (reg, model) = fitted_model(13);
    let streams: Vec<Vec<BinaryEvent>> = (0..4).map(|h| home_stream(&reg, 100 + h, 300)).collect();
    let expected: Vec<Vec<Verdict>> = streams
        .iter()
        .map(|stream| {
            let mut monitor = model.clone().into_monitor();
            stream.iter().map(|e| monitor.observe(*e)).collect()
        })
        .collect();

    let mut hub = Hub::new(HubConfig {
        workers: 2,
        queue_capacity: 128,
        record_verdicts: true,
        ..HubConfig::default()
    });
    let homes: Vec<_> = (0..4)
        .map(|h| hub.register(&format!("home-{h}"), &model))
        .collect();

    // One producer thread per home: cross-home interleaving is arbitrary,
    // per-home order is each producer's submission order.
    std::thread::scope(|scope| {
        for (h, stream) in streams.iter().enumerate() {
            let hub = &hub;
            let home = homes[h];
            scope.spawn(move || {
                for event in stream {
                    loop {
                        match hub.submit(home, *event) {
                            Ok(()) => break,
                            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
            });
        }
    });
    let reports = hub.shutdown();
    for (h, report) in reports.iter().enumerate() {
        assert_eq!(report.verdicts, expected[h], "home {h} order violated");
    }
}

#[test]
fn queue_full_backpressure_is_reported_and_lossless() {
    let (reg, model) = fitted_model(23);
    let lamp = reg.id_of("S_lamp").unwrap();
    let mut hub = Hub::new(HubConfig {
        workers: 1,
        queue_capacity: 1,
        record_verdicts: false,
        ..HubConfig::default()
    });
    let home = hub.register("tiny-queue", &model);
    let total = 5_000u64;
    let mut queue_full_hits = 0u64;
    let mut accepted = 0u64;
    for i in 0..total {
        let event = BinaryEvent::new(Timestamp::from_secs(2_000_000 + i), lamp, i % 2 == 0);
        loop {
            match hub.submit(home, event) {
                Ok(()) => {
                    accepted += 1;
                    break;
                }
                Err(SubmitError::QueueFull { capacity, .. }) => {
                    assert_eq!(capacity, 1);
                    queue_full_hits += 1;
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    let reports = hub.shutdown();
    assert_eq!(accepted, total);
    assert_eq!(
        reports[0].monitor.events_observed, total,
        "accepted events must all be scored exactly once"
    );
    assert!(
        queue_full_hits > 0,
        "a 1-slot queue under a tight submission loop must exert backpressure"
    );
}

#[test]
fn hot_swap_under_concurrent_producers_is_exact_and_lossless() {
    // Each home's producer submits a pre-stream, hot-swaps its model, and
    // submits a post-stream. The swap must land exactly at the boundary:
    // pre events judged by the old model, post events by a fresh monitor
    // from the new model, nothing dropped or reordered.
    let (reg, old_model) = fitted_model(41);
    let (_, new_model) = fitted_model(43);
    let pre_streams: Vec<Vec<BinaryEvent>> =
        (0..4).map(|h| home_stream(&reg, 200 + h, 250)).collect();
    let post_streams: Vec<Vec<BinaryEvent>> =
        (0..4).map(|h| home_stream(&reg, 300 + h, 250)).collect();

    // Sequential reference: old monitor for the pre-stream, then a fresh
    // monitor from the new model for the post-stream (swap semantics:
    // the replacement resumes from the new model's training state).
    let expected: Vec<Vec<Verdict>> = (0..4)
        .map(|h| {
            let mut old_ref = old_model.clone().into_monitor();
            let mut verdicts: Vec<Verdict> =
                pre_streams[h].iter().map(|e| old_ref.observe(*e)).collect();
            let mut new_ref = new_model.clone().into_monitor();
            verdicts.extend(post_streams[h].iter().map(|e| new_ref.observe(*e)));
            verdicts
        })
        .collect();

    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig {
            workers: 2,
            queue_capacity: 32,
            record_verdicts: true,
            ..HubConfig::default()
        },
        &telemetry,
    );
    let homes: Vec<_> = (0..4)
        .map(|h| hub.register(&format!("home-{h}"), &old_model))
        .collect();
    std::thread::scope(|scope| {
        for h in 0..4 {
            let hub = &hub;
            let home = homes[h];
            let pre = &pre_streams[h];
            let post = &post_streams[h];
            let new_model = &new_model;
            scope.spawn(move || {
                let push = |event: BinaryEvent| loop {
                    match hub.submit(home, event) {
                        Ok(()) => break,
                        Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                };
                for event in pre {
                    push(*event);
                }
                hub.apply(ModelUpdate::Swap {
                    home,
                    model: new_model,
                })
                .expect("swap accepted");
                for event in post {
                    push(*event);
                }
            });
        }
    });
    let reports = hub.shutdown();
    for (h, report) in reports.iter().enumerate() {
        assert_eq!(
            report.verdicts, expected[h],
            "home {h}: swap boundary leaked events across models"
        );
        assert_eq!(report.swaps, 1, "home {h}");
        assert_eq!(report.retired.len(), 1, "home {h}");
        assert_eq!(
            report.retired[0].events_observed,
            pre_streams[h].len() as u64,
            "home {h}: old monitor must have scored exactly the pre-stream"
        );
        assert_eq!(
            report.monitor.events_observed,
            post_streams[h].len() as u64,
            "home {h}: new monitor must have scored exactly the post-stream"
        );
    }
    assert_eq!(telemetry.counter("hub.swaps").get(), 4);
    let shard_swaps: u64 = (0..2)
        .map(|i| telemetry.counter(&format!("hub.shard.{i}.swaps")).get())
        .sum();
    assert_eq!(shard_swaps, 4);
}

#[test]
fn shutdown_after_submit_scores_everything() {
    // shutdown() must drain queued-but-unprocessed jobs before reporting.
    let (reg, model) = fitted_model(31);
    let stream = home_stream(&reg, 5, 1_000);
    let mut hub = Hub::new(HubConfig {
        workers: 4,
        queue_capacity: 2_048,
        record_verdicts: false,
        ..HubConfig::default()
    });
    let home = hub.register("drain-on-shutdown", &model);
    hub.submit_batch(home, &stream).unwrap();
    let reports = hub.shutdown();
    assert_eq!(reports[0].monitor.events_observed, stream.len() as u64);
}
