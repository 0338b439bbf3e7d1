//! Hub × model-store integration: `bulk_load` must serve exactly the
//! models the store's lineage heads name, and a `ModelUpdate::BulkSwap`
//! on a *live* hub — concurrent producers, events genuinely in flight —
//! must be verdict-identical to a `ModelUpdate::Swap` per home.

use std::sync::Barrier;

use causaliot::fleet::{FleetError, ModelStore};
use causaliot::{CausalIot, FittedModel, OwnedMonitor, Verdict};
use iot_model::{Attribute, BinaryEvent, DeviceRegistry, Room, Timestamp};
use iot_serve::{Hub, HubConfig, ModelUpdate, SubmitError, UpdateOutcome};
use iot_telemetry::TelemetryHandle;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    reg.add("PE_room", Attribute::PresenceSensor, Room::new("room"))
        .unwrap();
    reg.add("S_lamp", Attribute::Switch, Room::new("room"))
        .unwrap();
    reg.add("C_door", Attribute::ContactSensor, Room::new("hall"))
        .unwrap();
    reg
}

fn fitted(reg: &DeviceRegistry, seed: u64) -> FittedModel {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let door = reg.id_of("C_door").unwrap();
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
    CausalIot::builder()
        .tau(2)
        .k_max(3)
        .build()
        .fit_binary(reg, &events)
        .unwrap()
}

fn home_stream(reg: &DeviceRegistry, seed: u64, len: usize) -> Vec<BinaryEvent> {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let door = reg.id_of("C_door").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(len);
    for i in 0..len as u64 {
        let t = 1_000_000 + seed * 10_000_000 + i * 30;
        events.push(match rng.gen_range(0..4) {
            0 => BinaryEvent::new(Timestamp::from_secs(t), pe, rng.gen_bool(0.5)),
            1 => BinaryEvent::new(Timestamp::from_secs(t), lamp, rng.gen_bool(0.5)),
            2 => BinaryEvent::new(Timestamp::from_secs(t), door, rng.gen_bool(0.5)),
            _ => BinaryEvent::new(Timestamp::from_secs(t), lamp, true),
        });
    }
    events
}

/// A scratch store removed on drop.
struct ScratchStore {
    store: ModelStore,
    root: std::path::PathBuf,
}

impl ScratchStore {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("causaliot-fleet-bulk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ModelStore::open(&root).expect("open scratch store");
        ScratchStore { store, root }
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn submit_spin(hub: &Hub, home: iot_serve::HomeId, event: BinaryEvent) {
    loop {
        match hub.submit(home, event) {
            Ok(()) => break,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

#[test]
fn bulk_load_serves_exactly_the_lineage_heads() {
    const HOMES: usize = 4;
    let reg = registry();
    let scratch = ScratchStore::new("load");
    // Per-home models: each home gets its own fit, and home 0 also gets
    // an older generation so bulk_load must pick the *head*, not gen 1.
    let stale = fitted(&reg, 99);
    let models: Vec<FittedModel> = (0..HOMES as u64).map(|h| fitted(&reg, h)).collect();
    let names: Vec<String> = (0..HOMES).map(|h| format!("home-{h}")).collect();
    let stale_hash = scratch.store.put(&stale).unwrap();
    scratch.store.commit(&names[0], stale_hash).unwrap();
    for (name, model) in names.iter().zip(&models) {
        let hash = scratch.store.put(model).unwrap();
        scratch.store.commit(name, hash).unwrap();
    }

    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig {
            workers: 2,
            queue_capacity: 256,
            record_verdicts: true,
            ..HubConfig::default()
        },
        &telemetry,
    );
    let ids = hub.bulk_load(&scratch.store, &names).unwrap();
    assert_eq!(ids.len(), HOMES);

    let streams: Vec<Vec<BinaryEvent>> = (0..HOMES as u64)
        .map(|h| home_stream(&reg, h, 400))
        .collect();
    for (id, stream) in ids.iter().zip(&streams) {
        for event in stream {
            submit_spin(&hub, *id, *event);
        }
    }
    hub.drain();
    let reports = hub.shutdown();

    // Reference: one sequential monitor per home on the *committed head*
    // model. Home 0's stale generation must play no part.
    for (h, report) in reports.iter().enumerate() {
        let mut monitor: OwnedMonitor = models[h].clone().into_monitor();
        let expected: Vec<Verdict> = streams[h].iter().map(|e| monitor.observe(*e)).collect();
        assert_eq!(
            report.verdicts, expected,
            "home {h} diverged from its lineage head"
        );
    }
}

#[test]
fn bulk_load_is_all_or_nothing() {
    let reg = registry();
    let scratch = ScratchStore::new("atomic");
    let model = fitted(&reg, 1);
    let hash = scratch.store.put(&model).unwrap();
    scratch.store.commit("home-0", hash).unwrap();

    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig {
            workers: 1,
            ..HubConfig::default()
        },
        &telemetry,
    );
    // "home-1" has no lineage: the whole load must fail with the hub
    // untouched — not register home-0 and then error.
    match hub.bulk_load(&scratch.store, &["home-0", "home-1"]) {
        Err(FleetError::UnknownHome { name }) => assert_eq!(name, "home-1"),
        other => panic!("expected UnknownHome, got {other:?}"),
    }
    assert_eq!(hub.num_homes(), 0, "a failed bulk_load must not register");
}

/// The acceptance gate: upgrading a live fleet with one bulk swap must
/// be verdict-identical to sequential per-home swaps, with
/// concurrent producers and events genuinely in flight (no drain before
/// the swap). Per home the ordering pre-events → swap → post-events is
/// pinned with barriers so both hubs score the same sequences; what
/// varies is the swap machinery under test.
#[test]
fn bulk_swap_is_verdict_identical_to_sequential_swaps_under_live_producers() {
    const HOMES: usize = 4;
    const PRE: usize = 300;
    const POST: usize = 300;
    let reg = registry();
    let scratch = ScratchStore::new("swap");
    let gen_a: Vec<FittedModel> = (0..HOMES as u64).map(|h| fitted(&reg, h)).collect();
    let gen_b: Vec<FittedModel> = (0..HOMES as u64).map(|h| fitted(&reg, 100 + h)).collect();
    let names: Vec<String> = (0..HOMES).map(|h| format!("home-{h}")).collect();
    // Gen A is committed too, so the bulk rollout genuinely advances a
    // two-generation lineage to its head rather than a fresh one.
    for (name, model) in names.iter().zip(&gen_a) {
        let hash = scratch.store.put(model).unwrap();
        scratch.store.commit(name, hash).unwrap();
    }

    let streams_pre: Vec<Vec<BinaryEvent>> = (0..HOMES as u64)
        .map(|h| home_stream(&reg, h, PRE))
        .collect();
    let streams_post: Vec<Vec<BinaryEvent>> = (0..HOMES as u64)
        .map(|h| home_stream(&reg, 50 + h, POST))
        .collect();

    let run = |swap: &dyn Fn(&Hub, &[iot_serve::HomeId])| -> Vec<Vec<Verdict>> {
        let telemetry = TelemetryHandle::with_noop_sink();
        let mut hub = Hub::with_telemetry(
            HubConfig {
                workers: 2,
                queue_capacity: 2048,
                record_verdicts: true,
                ..HubConfig::default()
            },
            &telemetry,
        );
        // Both runs start from the same gen-A models, registered
        // directly so later lineage commits cannot change the baseline.
        let ids: Vec<_> = names
            .iter()
            .zip(&gen_a)
            .map(|(name, model)| hub.register(name, model))
            .collect();
        let pre_done = Barrier::new(HOMES + 1);
        let swapped = Barrier::new(HOMES + 1);
        std::thread::scope(|scope| {
            for (id, (pre, post)) in ids.iter().zip(streams_pre.iter().zip(&streams_post)) {
                let hub = &hub;
                let (pre_done, swapped) = (&pre_done, &swapped);
                scope.spawn(move || {
                    for event in pre {
                        submit_spin(hub, *id, *event);
                    }
                    pre_done.wait();
                    // Main thread swaps here; pre-events may still be
                    // queued — the hub must drain them under gen A.
                    swapped.wait();
                    for event in post {
                        submit_spin(hub, *id, *event);
                    }
                });
            }
            pre_done.wait();
            swap(&hub, &ids);
            swapped.wait();
        });
        hub.drain();
        let reports = hub.shutdown();
        reports.into_iter().map(|r| r.verdicts).collect()
    };

    // Sequential baseline: one swap per home to gen B.
    let sequential = run(&|hub, ids| {
        for (&home, model) in ids.iter().zip(&gen_b) {
            hub.apply(ModelUpdate::Swap { home, model }).unwrap();
        }
    });

    // Now advance every lineage to gen B and roll out with one bulk swap.
    for (name, model) in names.iter().zip(&gen_b) {
        let hash = scratch.store.put(model).unwrap();
        scratch.store.commit(name, hash).unwrap();
    }
    let bulk = run(&|hub, ids| {
        let update = ModelUpdate::BulkSwap {
            store: &scratch.store,
            homes: ids,
        };
        let UpdateOutcome::BulkSwapped(swapped) = hub.apply(update).unwrap() else {
            unreachable!("a bulk swap reports BulkSwapped");
        };
        assert_eq!(swapped.len(), HOMES);
        for (_, generation) in &swapped {
            assert_eq!(
                *generation, 2,
                "every home must be on its second generation"
            );
        }
    });

    for h in 0..HOMES {
        assert_eq!(
            sequential[h],
            bulk[h],
            "home {h}: the bulk swap diverged from sequential swaps ({} vs {} verdicts)",
            sequential[h].len(),
            bulk[h].len()
        );
    }
    // Both runs scored every submitted event.
    for verdicts in sequential.iter().take(HOMES) {
        assert_eq!(verdicts.len(), PRE + POST);
    }
}
