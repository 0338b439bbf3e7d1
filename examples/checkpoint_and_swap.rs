//! Checkpoint a fitted model, restore it in a "new process", and hot-swap
//! it into a running hub with zero downtime.
//!
//! Real homes drift: automations are reprogrammed, so the mined DIG goes
//! stale and must be re-learned and redeployed without dropping the live
//! event stream. This example:
//!
//! 1. fits a model on the original automation (lamp follows motion),
//! 2. serves two homes from a running [`iot_serve::Hub`],
//! 3. refits on the *new* automation (the door now also drives the lamp)
//!    and saves the result as a `causaliot-model v2` checkpoint file,
//! 4. loads the checkpoint back — only through the file, as a freshly
//!    started process would — and verifies the restored model is
//!    verdict-identical to the one that was saved,
//! 5. hot-swaps it into the still-running hub: queued events drain under
//!    the old model, later events are judged by the new one, and nothing
//!    is dropped or reordered.
//!
//! ```text
//! cargo run -p causaliot-examples --example checkpoint_and_swap
//! ```

use causaliot::prelude::*;
use causaliot_examples::banner;
use rand::{rngs::StdRng, Rng, SeedableRng};

const HOMES: usize = 2;

/// The home's automation. `door_drives_lamp` is the drift: after a
/// firmware update the hallway lamp also follows the front door.
fn automation(
    reg: &DeviceRegistry,
    seed: u64,
    rounds: u64,
    base_t: u64,
    door_drives_lamp: bool,
) -> Vec<BinaryEvent> {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let door = reg.id_of("C_door").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let (mut pe_s, mut lamp_s, mut door_s) = (false, false, false);
    for i in 0..rounds {
        let t = base_t + i * 60;
        match rng.gen_range(0..3) {
            0 => {
                pe_s = !pe_s;
                events.push(BinaryEvent::new(Timestamp::from_secs(t), pe, pe_s));
                if rng.gen_bool(0.95) && lamp_s != pe_s {
                    lamp_s = pe_s;
                    events.push(BinaryEvent::new(Timestamp::from_secs(t + 15), lamp, lamp_s));
                }
            }
            1 => {
                door_s = !door_s;
                events.push(BinaryEvent::new(Timestamp::from_secs(t), door, door_s));
                if door_drives_lamp && rng.gen_bool(0.95) && lamp_s != door_s {
                    lamp_s = door_s;
                    events.push(BinaryEvent::new(Timestamp::from_secs(t + 20), lamp, lamp_s));
                }
            }
            _ => {}
        }
    }
    events
}

fn submit_all(hub: &Hub, home: HomeId, events: Vec<BinaryEvent>) {
    // Resume from the partial-acceptance offset under backpressure: the
    // slice API reports how many leading events were enqueued.
    let mut offset = 0usize;
    while offset < events.len() {
        match hub.submit_batch(home, &events[offset..]) {
            Ok(outcome) => {
                offset += outcome.accepted;
                if !outcome.is_complete() {
                    std::thread::yield_now();
                }
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut reg = DeviceRegistry::new();
    reg.add("PE_room", Attribute::PresenceSensor, Room::new("room"))?;
    reg.add("S_lamp", Attribute::Switch, Room::new("room"))?;
    reg.add("C_door", Attribute::ContactSensor, Room::new("hall"))?;

    banner("Fit v1 on the original automation (motion -> lamp)");
    let fit = |events: &[BinaryEvent]| {
        CausalIot::builder()
            .tau(2)
            .k_max(3)
            .q(99.9)
            .build()
            .fit_binary(&reg, events)
    };
    let old_model = fit(&automation(&reg, 7, 1_500, 0, false))?;
    println!(
        "v1 model: {} interaction pairs, threshold {:.3}",
        old_model.dig().interaction_pairs().len(),
        old_model.threshold()
    );

    banner("Serve two homes while the fleet runs on v1");
    let telemetry = TelemetryHandle::with_summary_sink();
    let config = HubConfig::builder()
        .workers(2)
        .queue_capacity(256)
        .record_verdicts(false)
        .try_build()?;
    let mut hub = Hub::with_telemetry(config, &telemetry);
    let homes: Vec<_> = (0..HOMES)
        .map(|h| hub.register(&format!("home-{h}"), &old_model))
        .collect();
    for (h, &home) in homes.iter().enumerate() {
        submit_all(
            &hub,
            home,
            automation(&reg, 100 + h as u64, 400, 10_000_000, false),
        );
    }

    banner("The automation drifts: refit, checkpoint to disk");
    let new_model = fit(&automation(&reg, 8, 1_500, 0, true))?;
    let checkpoint_path = std::env::temp_dir().join("causaliot_example.model");
    // Crash-safe save: written to a temp file, fsynced, atomically
    // renamed, and sealed with a CRC32 footer — a crash mid-save can
    // never leave a half-written checkpoint at this path.
    new_model.save_to_path(&checkpoint_path)?;
    println!(
        "v2 model: {} interaction pairs, checkpoint written to {}",
        new_model.dig().interaction_pairs().len(),
        checkpoint_path.display()
    );

    banner("A 'new process' restores the checkpoint from the file alone");
    // The loader verifies the checksum and fails closed (with the path
    // and byte offset) on corrupt or truncated files.
    let restored = FittedModel::load_from_path(&checkpoint_path)?;
    assert_eq!(restored.dig(), new_model.dig());
    assert_eq!(restored.threshold(), new_model.threshold());
    // Spot-check: the restored model judges a held-out stream exactly as
    // the model it was saved from.
    let holdout = automation(&reg, 55, 200, 20_000_000, true);
    let mut a = new_model.clone().into_monitor();
    let mut b = restored.clone().into_monitor();
    assert!(holdout.iter().all(|e| a.observe(*e) == b.observe(*e)));
    println!("restored model is verdict-identical to the saved one");

    banner("Hot-swap the restored model into the running hub");
    for &home in &homes {
        hub.apply(ModelUpdate::Swap {
            home,
            model: &restored,
        })?;
    }
    // Post-swap traffic follows the *new* automation; the refreshed DIG
    // judges it with no downtime and no dropped events.
    for (h, &home) in homes.iter().enumerate() {
        submit_all(
            &hub,
            home,
            automation(&reg, 200 + h as u64, 400, 30_000_000, true),
        );
    }
    hub.drain();

    banner("Per-home reports");
    for report in hub.shutdown() {
        let retired_events: u64 = report.retired.iter().map(|r| r.events_observed).sum();
        println!(
            "{:8}  swaps {}  events under v1 {:>4}  under v2 {:>4}",
            report.name, report.swaps, retired_events, report.monitor.events_observed
        );
    }
    println!(
        "\nhub totals: {} events submitted, {} swaps",
        telemetry.counter("hub.submitted").get(),
        telemetry.counter("hub.swaps").get()
    );
    std::fs::remove_file(&checkpoint_path).ok();
    Ok(())
}
