//! Industrial IoT (Section IV): a smart-warehouse interaction chain
//! `Sensor → Robot → Truck`, with DIG mining and detection of a
//! command-injection attack on the robot.
//!
//! ```text
//! cargo run -p causaliot-examples --example industrial_iot
//! ```

use causaliot::prelude::*;
use causaliot_examples::banner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("A smart warehouse: inventory sensor -> picking robot -> truck");
    let mut registry = DeviceRegistry::new();
    let sensor = registry.add(
        "LowInventory",
        Attribute::PresenceSensor,
        Room::new("shelf"),
    )?;
    let robot = registry.add("PickingRobot", Attribute::Switch, Room::new("floor"))?;
    let truck = registry.add("DeliveryTruck", Attribute::Switch, Room::new("dock"))?;
    let forklift = registry.add("Forklift", Attribute::Switch, Room::new("floor"))?;

    // Business logic: a low-inventory reading dispatches the robot; the
    // loaded robot dispatches the truck. The forklift runs independently.
    let mut rng = StdRng::seed_from_u64(99);
    let mut events = Vec::new();
    let mut t = 0u64;
    for _ in 0..1200 {
        t += rng.gen_range(120..600);
        if rng.gen_bool(0.5) {
            // Restock cycle. The robot occasionally needs a manual
            // dispatch and the truck is occasionally pre-positioned —
            // the noise that makes the direct chain strictly more
            // informative than its Markov-equivalent shortcuts.
            events.push(BinaryEvent::new(Timestamp::from_secs(t), sensor, true));
            let robot_dispatched = rng.gen_bool(0.9);
            let mut truck_sent = false;
            if robot_dispatched {
                t += rng.gen_range(5..20);
                events.push(BinaryEvent::new(Timestamp::from_secs(t), robot, true));
                if rng.gen_bool(0.9) {
                    truck_sent = true;
                    t += rng.gen_range(30..90);
                    events.push(BinaryEvent::new(Timestamp::from_secs(t), truck, true));
                }
            }
            t += rng.gen_range(60..180);
            events.push(BinaryEvent::new(Timestamp::from_secs(t), sensor, false));
            if robot_dispatched {
                t += rng.gen_range(5..20);
                events.push(BinaryEvent::new(Timestamp::from_secs(t), robot, false));
            }
            if truck_sent {
                t += rng.gen_range(30..120);
                events.push(BinaryEvent::new(Timestamp::from_secs(t), truck, false));
            }
        } else {
            // Unrelated forklift traffic.
            events.push(BinaryEvent::new(Timestamp::from_secs(t), forklift, true));
            t += rng.gen_range(60..300);
            events.push(BinaryEvent::new(Timestamp::from_secs(t), forklift, false));
        }
    }

    banner("Mine the interaction chain");
    let model = CausalIot::builder()
        .tau(2)
        .unseen(causaliot::graph::UnseenContext::MaxAnomaly)
        .build()
        .fit_binary(&registry, &events)?;
    for edge in model.dig().interactions() {
        if !edge.is_autocorrelation() {
            println!(
                "  {} --(lag {})--> {}",
                registry.name(edge.cause.device),
                edge.cause.lag,
                registry.name(edge.outcome)
            );
        }
    }
    let pairs = model.dig().interaction_pairs();
    assert!(pairs.contains(&(sensor, robot)), "Sensor -> Robot mined");
    assert!(pairs.contains(&(robot, truck)), "Robot -> Truck mined");

    banner("Detect command injection: robot dispatched with full shelves");
    let mut monitor = model
        .clone()
        .into_monitor_with(3, iot_model::SystemState::all_off(4));
    let injected = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(9_000_000),
        robot,
        true,
    ));
    println!(
        "robot misbehaviour score {:.4} vs threshold {:.4}",
        injected.score,
        model.threshold()
    );
    // The compromised robot then triggers the unsolicited truck dispatch —
    // the k-sequence detector tracks the propagation.
    let follow = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(9_000_060),
        truck,
        true,
    ));
    let _ = follow;
    let wrapup = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(9_000_120),
        forklift,
        true,
    ));
    for alarm in injected
        .alarms
        .iter()
        .chain(follow.alarms.iter())
        .chain(wrapup.alarms.iter())
    {
        println!("\nreported {:?} anomaly chain:", alarm.kind);
        for anomalous in &alarm.events {
            println!(
                "  {} -> {} (score {:.3})",
                registry.name(anomalous.event.device),
                if anomalous.event.value { "ON" } else { "OFF" },
                anomalous.score
            );
        }
    }
    Ok(())
}
