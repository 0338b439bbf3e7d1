//! End-to-end integration: simulate → inject rules → fit → monitor.

use causaliot::pipeline::CausalIot;
use integration_tests::{assert_in_range, TEST_SEED};
use iot_model::BinaryEvent;
use testbed::{contextact_profile, generate_rules, inject_automation, simulate, SimConfig};

#[test]
fn full_pipeline_from_raw_log_to_alarm() {
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 6.0,
            seed: TEST_SEED,
            ..SimConfig::default()
        },
    );
    let rules = generate_rules(&profile, 12, TEST_SEED);
    let with_rules = inject_automation(&profile, &sim.log, &rules, TEST_SEED);
    let (train, test) = with_rules.log.split_at_fraction(0.8);

    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit(profile.registry(), &train)
        .expect("fit succeeds");
    assert_in_range("threshold", model.threshold(), 0.2, 1.0);
    assert!(model.dig().num_interactions() > 20);
    assert!(model.dig().max_in_degree() <= 44);

    // The monitor consumes the raw test log without panicking and keeps
    // its state machine in sync.
    let mut monitor = model.monitor();
    let mut processed = 0;
    let mut alarms = 0;
    for event in &test {
        if let Ok(verdict) = monitor.observe_raw(event) {
            processed += 1;
            alarms += verdict.alarms.len();
        }
    }
    assert!(
        processed > 100,
        "only {processed} events reached the detector"
    );
    // Clean data: some alarms fire (behavioural deviation) but they must
    // be a small minority.
    let alarm_rate = alarms as f64 / processed as f64;
    assert_in_range("clean-data alarm rate", alarm_rate, 0.0, 0.15);
}

#[test]
fn ghost_event_raises_alarm_on_fitted_home() {
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 6.0,
            seed: TEST_SEED + 1,
            ..SimConfig::default()
        },
    );
    let model = CausalIot::builder()
        .tau(2)
        .unseen(causaliot::graph::UnseenContext::MaxAnomaly)
        .build()
        .fit(profile.registry(), &sim.log)
        .expect("fit succeeds");
    let registry = profile.registry();
    let stove = registry.id_of("P_stove").unwrap();
    let mut monitor = model.monitor();
    // Quiet the home: every device off (normal wind-down events), then
    // ghost-activate the stove with nobody in the kitchen.
    let mut t = 90_000u64;
    for device in registry.ids() {
        if monitor.current_state().get(device) {
            monitor.observe(BinaryEvent::new(
                iot_model::Timestamp::from_secs(t),
                device,
                false,
            ));
            t += 30;
        }
    }
    monitor.reset_tracking();
    let verdict = monitor.observe(BinaryEvent::new(
        iot_model::Timestamp::from_secs(t + 600),
        stove,
        true,
    ));
    assert!(
        verdict.score > 0.9,
        "ghost stove activation score {} too low",
        verdict.score
    );
}

#[test]
fn casas_profile_pipeline_works_without_numeric_devices() {
    let profile = testbed::casas_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 8.0,
            seed: TEST_SEED,
            ..SimConfig::default()
        },
    );
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit(profile.registry(), &sim.log)
        .expect("CASAS fit succeeds");
    // Motion-only homes still yield movement interactions.
    let pairs = model.dig().interaction_pairs();
    let cross_presence = pairs
        .iter()
        .filter(|&&(c, o)| {
            c != o
                && profile.registry().name(c).starts_with("PE_")
                && profile.registry().name(o).starts_with("PE_")
        })
        .count();
    assert!(
        cross_presence >= 3,
        "expected movement interactions, got {cross_presence}"
    );
}

/// Fit golden: a seeded ContextAct fit must keep producing the same model,
/// byte for byte. Eleven days leave each of the four ambient sensors over
/// 2100 readings after sanitation, above `JenksBinarizer::MAX_FIT_SAMPLES`,
/// so the strided Jenks fit runs too. A change to preprocessing, mining or
/// calibration that alters a fitted model fails here; a deliberate one
/// re-pins the hash and says why.
#[test]
fn contextact_fit_content_hash_is_pinned() {
    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 11.0,
            seed: TEST_SEED,
            ..SimConfig::default()
        },
    );
    let model = CausalIot::builder()
        .build()
        .fit(profile.registry(), &sim.log)
        .expect("fit succeeds");
    assert_eq!(model.content_hash(), 0x7f38_f2d9);
}
