//! Telemetry must be observational only: enabling it may never change a
//! fit or a verdict. These tests fit the same data with a disabled and an
//! enabled handle and require bit-identical results, and check that the
//! always-on fit report is populated either way.

use causaliot::pipeline::{CausalIot, DropReason, Observation, ObserveCtx};
use iot_model::{
    Attribute, BinaryEvent, DeviceEvent, DeviceRegistry, EventLog, Room, StateValue, Timestamp,
};
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

fn training_events(reg: &DeviceRegistry, rounds: u64) -> Vec<BinaryEvent> {
    let mut rng = StdRng::seed_from_u64(11);
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let door = reg.id_of("C_door").unwrap();
    let mut events = Vec::new();
    let (mut pe_s, mut lamp_s, mut door_s) = (false, false, false);
    for i in 0..rounds {
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
    events
}

#[test]
fn verdicts_are_bit_identical_with_and_without_telemetry() {
    let reg = registry();
    let train = training_events(&reg, 400);
    let pipeline = CausalIot::builder().tau(2).build();
    let model_off = pipeline
        .fit_binary_with_telemetry(&reg, &train, &TelemetryHandle::disabled())
        .unwrap();
    let model_on = pipeline
        .fit_binary_with_telemetry(&reg, &train, &TelemetryHandle::with_summary_sink())
        .unwrap();

    // The fits themselves are identical to the last bit.
    assert_eq!(
        model_off.threshold().to_bits(),
        model_on.threshold().to_bits()
    );
    assert_eq!(
        model_off.dig().interaction_pairs(),
        model_on.dig().interaction_pairs()
    );

    // Replaying a fresh stream gives bit-identical verdicts.
    let replay = training_events(&reg, 150);
    let mut mon_off = model_off.into_monitor();
    let mut mon_on = model_on.into_monitor();
    for &event in &replay {
        let v_off = mon_off.observe(event);
        let v_on = mon_on.observe(event);
        assert_eq!(v_off.score.to_bits(), v_on.score.to_bits());
        assert_eq!(v_off.exceeds_threshold, v_on.exceeds_threshold);
        assert_eq!(v_off.alarms, v_on.alarms);
    }

    // The telemetry-enabled monitor actually recorded its session.
    let report = mon_on.report();
    assert_eq!(report.events_observed, replay.len() as u64);
    assert!(report.observe_latency_us.count > 0);
    let report_off = mon_off.report();
    assert_eq!(report_off.events_observed, replay.len() as u64);
    assert_eq!(report_off.observe_latency_us.count, 0);
}

/// The introspection layer must be observational too: a hub running with
/// every new facility enabled — live metrics, a chrome-trace span sink,
/// and the per-home flight recorder — produces verdicts bit-identical to
/// a bare hub with everything off.
#[test]
fn hub_verdicts_are_bit_identical_with_introspection_on_and_off() {
    use causaliot::prelude::{Hub, HubConfig};

    let reg = registry();
    let train = training_events(&reg, 400);
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit_binary(&reg, &train)
        .unwrap();
    let replay = training_events(&reg, 150);

    let run = |config: HubConfig, telemetry: &TelemetryHandle| {
        let mut hub = Hub::with_telemetry(config, telemetry);
        let home = hub.register("home", &model);
        hub.submit_batch(home, &replay).unwrap();
        let mut reports = hub.shutdown();
        reports.remove(0)
    };

    let off = run(
        HubConfig::builder().workers(1).build(),
        &TelemetryHandle::disabled(),
    );

    let trace = std::env::temp_dir().join("causaliot_equivalence_trace.json");
    let telemetry = TelemetryHandle::with_chrome_sink(&trace).unwrap();
    let on = run(
        HubConfig::builder().workers(1).flight_recorder(32).build(),
        &telemetry,
    );
    telemetry.flush();

    assert_eq!(off.verdicts.len(), on.verdicts.len());
    for (v_off, v_on) in off.verdicts.iter().zip(&on.verdicts) {
        assert_eq!(v_off.score.to_bits(), v_on.score.to_bits());
        assert_eq!(v_off.exceeds_threshold, v_on.exceeds_threshold);
        assert_eq!(v_off.alarms, v_on.alarms);
        assert_eq!(v_off.confidence.to_bits(), v_on.confidence.to_bits());
    }

    // The instrumented run actually observed: the hub counters ticked,
    // the flight recorder kept the tail of the stream, and the chrome
    // sink wrote a span trace.
    assert_eq!(telemetry.counter("hub.events").get(), replay.len() as u64);
    let flight = on.flight.expect("flight recorder enabled");
    assert_eq!(flight.recorded, replay.len() as u64);
    assert_eq!(flight.entries.len(), 32);
    assert!(off.flight.is_none());
    let rendered = iot_telemetry::render_prometheus(&telemetry.metrics_snapshot());
    assert!(rendered.contains("hub_events_total"), "{rendered}");
    let trace_json = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_json.trim_start().starts_with('['), "{trace_json}");
    assert!(trace_json.contains("hub.batch"), "{trace_json}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn fit_report_is_populated_even_with_telemetry_disabled() {
    let reg = registry();
    let train = training_events(&reg, 400);
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit_binary_with_telemetry(&reg, &train, &TelemetryHandle::disabled())
        .unwrap();
    let report = model.fit_report();
    assert_eq!(report.num_devices, 3);
    assert_eq!(report.tau, 2);
    assert!(report.mining.ci_tests_total > 0);
    assert_eq!(
        report.mining.ci_tests_total,
        report.mining.ci_tests_per_level.iter().sum::<u64>()
    );
    assert_eq!(report.mining.per_outcome_ms.len(), 3);
    assert!(report.calibration_scores.count > 0);
    assert!(report.stages.total_ms > 0.0);
    assert!((0.0..=1.0).contains(&report.threshold));
    // The rendered JSON round-trips the headline numbers.
    let json = report.to_json();
    assert!(json.contains("\"kind\":\"fit_report\""), "{json}");
    assert!(
        json.contains(&format!(
            "\"ci_tests_total\":{}",
            report.mining.ci_tests_total
        )),
        "{json}"
    );
}

#[test]
fn raw_monitoring_reports_drop_reasons_and_counts() {
    let reg = registry();
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let mut log = EventLog::new();
    for i in 0..200u64 {
        let t = i * 60;
        let on = i % 2 == 0;
        log.push(DeviceEvent::new(
            Timestamp::from_secs(t),
            pe,
            StateValue::Binary(on),
        ));
        log.push(DeviceEvent::new(
            Timestamp::from_secs(t + 15),
            lamp,
            StateValue::Binary(on),
        ));
    }
    let telemetry = TelemetryHandle::with_summary_sink();
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit_with_telemetry(&reg, &log, &telemetry)
        .unwrap();
    // Preprocess counters were recorded during the fit.
    assert_eq!(
        telemetry.counter("preprocess.events_in").get(),
        log.len() as u64
    );
    assert!(telemetry.counter("mining.ci_tests").get() > 0);

    let mut monitor = model.into_monitor();
    let current = monitor.current_state().get(lamp);
    let dup = DeviceEvent::new(
        Timestamp::from_secs(50_000),
        lamp,
        StateValue::Binary(current),
    );
    let ctx = ObserveCtx::new();
    assert_eq!(
        monitor.observe_with(Observation::Raw(&dup), &ctx),
        Err(DropReason::Duplicate)
    );
    let flip = DeviceEvent::new(
        Timestamp::from_secs(50_001),
        lamp,
        StateValue::Binary(!current),
    );
    assert!(monitor.observe_with(Observation::Raw(&flip), &ctx).is_ok());
    let nan = DeviceEvent::new(
        Timestamp::from_secs(50_002),
        lamp,
        StateValue::Numeric(f64::NAN),
    );
    assert_eq!(
        monitor.observe_with(Observation::Raw(&nan), &ctx),
        Err(DropReason::NonFinite)
    );
    let report = monitor.report();
    assert_eq!(report.dropped_duplicate, 1);
    assert_eq!(report.dropped_non_finite, 1);
    assert_eq!(report.events_observed, 1);
    assert_eq!(telemetry.counter("monitor.drop.duplicate").get(), 1);
    assert_eq!(telemetry.counter("monitor.drop.non_finite").get(), 1);
    assert_eq!(telemetry.counter("monitor.events").get(), 1);
}
