//! Quickstart: simulate a smart home, mine its Device Interaction Graph,
//! and catch a ghost device activation.
//!
//! ```text
//! cargo run -p causaliot-examples --example quickstart
//! ```

use causaliot::prelude::*;
use causaliot_examples::banner;
use testbed::{contextact_profile, simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("1. Simulate a week in a 22-device smart home");
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 7.0,
            ..SimConfig::default()
        },
    );
    println!(
        "simulated {} raw events across {} devices",
        sim.log.len(),
        profile.registry().len()
    );

    banner("2. Fit the CausalIoT pipeline (preprocess + TemporalPC + threshold)");
    let model = CausalIot::builder()
        .tau(2) // the paper's evaluation setting
        .alpha(0.001)
        .q(99.0)
        .build()
        .fit(profile.registry(), &sim.log)?;
    println!(
        "mined {} interactions (max in-degree {}), anomaly threshold c = {:.4}",
        model.dig().num_interactions(),
        model.dig().max_in_degree(),
        model.threshold()
    );
    let registry = profile.registry();
    println!("\nsome mined interactions:");
    for edge in model.dig().interactions().take(8) {
        println!(
            "  {} --(lag {})--> {}",
            registry.name(edge.cause.device),
            edge.cause.lag,
            registry.name(edge.outcome)
        );
    }

    banner("3. Monitor runtime events");
    let stove = registry.require("P_stove")?;
    let mut monitor = model.clone().into_monitor();
    // Wind the home down to all-off, then ghost-activate the stove.
    let mut t = Timestamp::from_secs(700_000);
    for device in registry.ids() {
        if monitor.current_state().get(device) {
            monitor.observe(BinaryEvent::new(t, device, false));
            t = t + 30.0;
        }
    }
    monitor.reset_tracking();
    let verdict = monitor.observe(BinaryEvent::new(t + 600.0, stove, true));
    println!(
        "ghost stove activation: score {:.4} (threshold {:.4}) -> {}",
        verdict.score,
        model.threshold(),
        if verdict.alarms.is_empty() {
            "no alarm"
        } else {
            "ALARM raised"
        }
    );
    if let Some(alarm) = verdict.alarms.first() {
        for anomalous in &alarm.events {
            println!(
                "  anomalous event: {} = {}, context:",
                registry.name(anomalous.event.device),
                anomalous.event.value
            );
            for (cause, value) in &anomalous.cause_values {
                println!(
                    "    {}@-{} was {}",
                    registry.name(cause.device),
                    cause.lag,
                    if *value { "ON" } else { "OFF" }
                );
            }
        }
    }
    Ok(())
}
