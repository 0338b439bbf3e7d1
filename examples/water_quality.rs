//! Water-quality monitoring (Section IV): sensors along a river interact
//! through the water flow; a DIG profiles the network and pollution shows
//! up as a collective anomaly propagating downstream.
//!
//! ```text
//! cargo run -p causaliot-examples --example water_quality
//! ```

use causaliot::prelude::*;
use causaliot_examples::banner;
use iot_model::SystemState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Four turbidity sensors along a river (upstream to downstream)");
    let mut registry = DeviceRegistry::new();
    let stations: Vec<_> = (0..4)
        .map(|i| {
            registry
                .add(
                    format!("Turbidity_{i}"),
                    Attribute::PresenceSensor, // binary High/Low turbidity
                    Room::new(format!("station_{i}")),
                )
                .expect("unique names")
        })
        .collect();

    // Natural turbidity pulses (rainfall upstream) travel down the river:
    // each round, station 0 takes a fresh reading and every downstream
    // station takes its upstream neighbour's *previous* level, with a
    // little sensing noise. Events are reported in flow order.
    let mut rng = StdRng::seed_from_u64(11);
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut levels = [false; 4];
    for _ in 0..4000 {
        t += rng.gen_range(200..400);
        let fresh = rng.gen_bool(0.3);
        let mut next = levels;
        next[0] = fresh;
        for i in 1..4 {
            next[i] = if rng.gen_bool(0.93) {
                levels[i - 1]
            } else {
                !levels[i - 1]
            };
        }
        for i in 0..4 {
            if next[i] != levels[i] {
                events.push(BinaryEvent::new(
                    Timestamp::from_secs(t + 10 * i as u64),
                    stations[i],
                    next[i],
                ));
            }
        }
        levels = next;
    }

    banner("Mine the flow network");
    // q encodes the confidence that the log is anomaly-free; with ~7%
    // sensing noise, the 95th percentile separates noise from the truly
    // unexplained readings.
    let model = CausalIot::builder()
        .tau(2)
        .q(95.0)
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

    banner("A pollution spill at station 2 (no upstream cause)");
    let mut monitor = model.clone().into_monitor_with(3, SystemState::all_off(4));
    let spill = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(5_000_000),
        stations[2],
        true,
    ));
    println!(
        "station-2 spike with clean upstream water: score {:.4} (threshold {:.4})",
        spill.score,
        model.threshold()
    );
    // The polluted water reaches station 3 — a legitimate interaction
    // execution under a malicious context: the collective anomaly.
    let downstream = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(5_000_020),
        stations[3],
        true,
    ));
    let flush = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(5_000_400),
        stations[0],
        true,
    ));
    for alarm in spill
        .alarms
        .iter()
        .chain(downstream.alarms.iter())
        .chain(flush.alarms.iter())
    {
        println!(
            "\nreported {:?} anomaly ({} events):",
            alarm.kind,
            alarm.len()
        );
        for anomalous in &alarm.events {
            println!(
                "  {} turbidity {} (score {:.3})",
                registry.name(anomalous.event.device),
                if anomalous.event.value { "HIGH" } else { "LOW" },
                anomalous.score
            );
        }
    }
    Ok(())
}
