//! Integration tests pinning the exact semantics of Algorithm 2 and the
//! implemented extensions (PC-stable, Pearson χ²) on realistic fitted
//! models.

use causaliot::graph::UnseenContext;
use causaliot::miner::{mine_dig, mine_dig_stable, MinerConfig};
use causaliot::monitor::AlarmKind;
use causaliot::pipeline::CausalIot;
use causaliot::snapshot::SnapshotData;
use integration_tests::TEST_SEED;
use iot_model::{BinaryEvent, StateSeries, SystemState, Timestamp};
use iot_stats::gsquare::CiTestKind;
use testbed::{contextact_profile, simulate, SimConfig};

fn fitted_home() -> (testbed::HomeProfile, causaliot::pipeline::FittedModel) {
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 6.0,
            seed: TEST_SEED,
            ..SimConfig::default()
        },
    );
    let model = CausalIot::builder()
        .tau(2)
        .unseen(UnseenContext::MaxAnomaly)
        .build()
        .fit(profile.registry(), &sim.log)
        .expect("fit");
    (profile, model)
}

/// Quiets a monitor to the all-OFF state.
fn quiet(monitor: &mut causaliot::OwnedMonitor, registry: &iot_model::DeviceRegistry) {
    let mut t = 500_000u64;
    for device in registry.ids() {
        if monitor.current_state().get(device) {
            monitor.observe(BinaryEvent::new(Timestamp::from_secs(t), device, false));
            t += 20;
        }
    }
    monitor.reset_tracking();
}

#[test]
fn kmax_one_reports_each_contextual_anomaly_separately() {
    let (profile, model) = fitted_home();
    let registry = profile.registry();
    let stove = registry.id_of("P_stove").unwrap();
    let player = registry.id_of("S_player").unwrap();
    let mut monitor = model
        .clone()
        .into_monitor_with(1, SystemState::all_off(registry.len()));
    quiet(&mut monitor, registry);
    let v1 = monitor.observe(BinaryEvent::new(Timestamp::from_secs(600_000), stove, true));
    let v2 = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(600_030),
        player,
        true,
    ));
    for (name, v) in [("stove", &v1), ("player", &v2)] {
        assert_eq!(v.alarms.len(), 1, "{name}: {v:?}");
        assert_eq!(v.alarms[0].kind, AlarmKind::Contextual);
        assert_eq!(v.alarms[0].len(), 1);
    }
}

#[test]
fn collective_alarm_carries_ordinals_and_contexts() {
    let (profile, model) = fitted_home();
    let registry = profile.registry();
    let stove = registry.id_of("P_stove").unwrap();
    // Probe for a device whose quiet-context activation is guaranteed to
    // cross the threshold (some device always does: quiet contexts are
    // sparse and the policy scores unseen ones at 1.0).
    let ghost_device = registry
        .ids()
        .find(|&d| {
            let mut probe = model
                .clone()
                .into_monitor_with(1, SystemState::all_off(registry.len()));
            quiet(&mut probe, registry);
            probe
                .observe(BinaryEvent::new(Timestamp::from_secs(690_000), d, true))
                .exceeds_threshold
        })
        .expect("at least one quiet-context ghost must alarm");
    let mut monitor = model
        .clone()
        .into_monitor_with(2, SystemState::all_off(registry.len()));
    quiet(&mut monitor, registry);
    // Attacker camouflage: the ghost opens W, a follower either joins it
    // (collective alarm at k_max = 2) or interrupts it (abrupt flush) —
    // either way an alarm with events is reported.
    let v1 = monitor.observe(BinaryEvent::new(
        Timestamp::from_secs(700_000),
        ghost_device,
        true,
    ));
    let v2 = monitor.observe(BinaryEvent::new(Timestamp::from_secs(700_020), stove, true));
    let all_alarms: Vec<_> = v1.alarms.iter().chain(v2.alarms.iter()).collect();
    assert!(!all_alarms.is_empty(), "ghost activation must alarm");
    for alarm in all_alarms {
        // Ordinals are strictly increasing within an alarm; every event
        // carries its cause context.
        for pair in alarm.events.windows(2) {
            assert!(pair[0].ordinal < pair[1].ordinal);
        }
        for event in &alarm.events {
            assert_eq!(
                event.cause_values.len(),
                model.dig().causes_of(event.event.device).len()
            );
        }
    }
}

#[test]
fn pc_stable_and_pearson_mine_usable_models_on_the_testbed() {
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 5.0,
            seed: TEST_SEED + 7,
            ..SimConfig::default()
        },
    );
    // Build the preprocessed series by fitting the standard pipeline first.
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit(profile.registry(), &sim.log)
        .expect("fit");
    let events = model.preprocessor().expect("raw fit").transform(&sim.log);
    let series = StateSeries::derive(SystemState::all_off(profile.registry().len()), events);
    let data = SnapshotData::from_series(&series, 2);

    let stable = mine_dig_stable(&data, &MinerConfig::default());
    let pearson = mine_dig(
        &data,
        &MinerConfig {
            ci_test: CiTestKind::PearsonChi2,
            ..MinerConfig::default()
        },
    );
    let baseline = mine_dig(&data, &MinerConfig::default());
    for (name, dig) in [("pc-stable", &stable), ("pearson", &pearson)] {
        assert!(
            dig.num_interactions() > 10,
            "{name} mined too little: {}",
            dig.num_interactions()
        );
        // The variants agree with the default miner on the bulk of the
        // graph (they are alternative estimators of the same structure).
        let a = dig.interaction_pairs();
        let b = baseline.interaction_pairs();
        let overlap = a.intersection(&b).count();
        assert!(
            overlap * 3 >= b.len(),
            "{name} diverged: overlap {overlap} of {}",
            b.len()
        );
    }
}
