//! Burglar forensics: track a collective anomaly (Section VI-D case 1)
//! and reconstruct the intruder's trace for the incident report.
//!
//! ```text
//! cargo run -p causaliot-examples --example burglar_forensics
//! ```

use causaliot::prelude::*;
use causaliot_examples::{banner, pct};
use testbed::inject::{inject_collective, CollectiveCase};
use testbed::{contextact_profile, simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Train on three weeks of normal living");
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 21.0,
            ..SimConfig::default()
        },
    );
    let (train, test) = sim.log.split_at_fraction(0.8);
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit(profile.registry(), &train)?;
    let preprocessor = model.preprocessor().expect("raw-log fit");

    banner("Inject burglar-wandering chains into the testing stream");
    let test_initial = model.final_train_state().clone();
    let mut state = test_initial.clone();
    let mut test_events = Vec::new();
    for event in &test {
        if preprocessor.sanitizer().is_extreme(event) {
            continue;
        }
        let bin = preprocessor.binarize_event(event);
        if state.get(bin.device) != bin.value {
            state.set(bin.device, bin.value);
            test_events.push(bin);
        }
    }
    let k_max = 4;
    let injection = inject_collective(
        &profile,
        &test_events,
        &test_initial,
        CollectiveCase::BurglarWandering,
        40,
        k_max,
        &[],
        7,
    );
    println!("injected {} intrusion chains", injection.chains.len());

    banner("Run k-sequence detection and reconstruct the traces");
    let registry = profile.registry();
    let mut monitor = model.into_monitor_with(k_max, test_initial);
    let mut reported = 0usize;
    let mut shown = 0usize;
    let chain_positions: std::collections::HashSet<usize> = injection
        .chains
        .iter()
        .flat_map(|c| c.positions.iter().copied())
        .collect();
    for event in &injection.events {
        let verdict = monitor.observe(*event);
        for alarm in &verdict.alarms {
            let hits = alarm
                .events
                .iter()
                .filter(|a| chain_positions.contains(&(a.ordinal as usize)))
                .count();
            if hits == 0 {
                continue;
            }
            reported += 1;
            if shown < 3 {
                shown += 1;
                println!(
                    "\nincident report #{shown} ({:?}, {} events):",
                    alarm.kind,
                    alarm.len()
                );
                for anomalous in &alarm.events {
                    println!(
                        "  {} -> {}  (score {:.3})",
                        registry.name(anomalous.event.device),
                        if anomalous.event.value { "ON" } else { "OFF" },
                        anomalous.score
                    );
                }
            }
        }
    }
    println!(
        "\nalarms overlapping injected intrusions: {reported} (≈{} per injected chain, {} chains)",
        pct(reported as f64 / injection.chains.len().max(1) as f64),
        injection.chains.len()
    );
    Ok(())
}
