//! Live monitoring: stream *raw* platform events (duplicates, numeric
//! readings, extreme glitches and all) through a fitted monitor, the way
//! an IoT platform integration would — with the telemetry layer recording
//! the whole session to a JSONL trace and an end-of-run report.
//!
//! ```text
//! cargo run -p causaliot-examples --example live_monitoring
//! ```

use causaliot::prelude::*;
use causaliot_examples::banner;
use testbed::inject::{inject_contextual, ContextualCase};
use testbed::{contextact_profile, simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Fit on two weeks, then monitor the next few days live");
    // Spans, mining events and drop counters for the whole session land in
    // one JSON-lines trace (equivalent: CAUSALIOT_TELEMETRY=jsonl:<path>).
    let trace_path = "results/telemetry/live_monitoring.jsonl";
    std::fs::create_dir_all("results/telemetry")?;
    let telemetry = TelemetryHandle::with_jsonl_sink(trace_path)?;

    let profile = contextact_profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days: 18.0,
            ..SimConfig::default()
        },
    );
    let (train, live) = sim.log.split_at_fraction(0.8);
    let model = CausalIot::builder()
        .tau(2)
        .unseen(causaliot::graph::UnseenContext::MaxAnomaly)
        .calibration_fraction(0.25)
        .build()
        .fit_with_telemetry(profile.registry(), &train, &telemetry)?;
    println!("model ready: {}", model.fit_report().summary_line());

    banner("Streaming raw events (attacker flips actuators occasionally)");
    // Derive the clean binary stream the injector needs, remembering for
    // each surviving event the raw events since the previous survivor
    // (dropped duplicates / extreme glitches included) so the injected
    // stream can be replayed below in *raw* form.
    let preprocessor = model.preprocessor().expect("raw fit");
    let test_initial = model.final_train_state().clone();
    let mut state = test_initial.clone();
    let mut binary_live = Vec::new();
    let mut chunks: Vec<Vec<DeviceEvent>> = Vec::new();
    let mut pending: Vec<DeviceEvent> = Vec::new();
    for event in &live {
        pending.push(*event);
        if preprocessor.sanitizer().is_extreme(event) {
            continue;
        }
        let bin = preprocessor.binarize_event(event);
        if state.get(bin.device) != bin.value {
            state.set(bin.device, bin.value);
            binary_live.push(bin);
            chunks.push(std::mem::take(&mut pending));
        }
    }
    let injection = inject_contextual(
        &profile,
        &binary_live,
        &test_initial,
        ContextualCase::RemoteControl,
        30,
        5,
    );

    // Interleave: each legitimate event carries its raw noise ahead of it;
    // each injected ghost operation is a genuine actuator flip the
    // attacker performs, so it bypasses the raw-ingest dedup.
    enum Feed {
        Raw(DeviceEvent),
        Attack(iot_model::BinaryEvent),
    }
    let mut feed: Vec<Feed> = Vec::new();
    let mut chunk_iter = chunks.into_iter();
    for (i, event) in injection.events.iter().enumerate() {
        if injection.injected_positions.contains(&i) {
            feed.push(Feed::Attack(*event));
        } else {
            let chunk = chunk_iter.next().expect("one raw chunk per survivor");
            feed.extend(chunk.into_iter().map(Feed::Raw));
        }
    }

    let registry = profile.registry();
    let mut monitor = model.into_monitor_with(1, test_initial);
    let ctx = ObserveCtx::new();
    let mut alarms = 0usize;
    let mut caught = 0usize;
    for (i, item) in feed.iter().enumerate() {
        let (verdict, device, injected) = match item {
            Feed::Raw(event) => match monitor.observe_with(Observation::Raw(event), &ctx) {
                Ok(verdict) => (verdict, event.device, false),
                // Duplicate or extreme — counted in the session report.
                Err(_reason) => continue,
            },
            Feed::Attack(bin) => (monitor.observe(*bin), bin.device, true),
        };
        if !verdict.alarms.is_empty() {
            alarms += 1;
            if injected {
                caught += 1;
            }
            if alarms <= 8 {
                println!(
                    "  [{}] ALARM {} score {:.3} {}",
                    i,
                    registry.name(device),
                    verdict.score,
                    if injected {
                        "(injected attack)"
                    } else {
                        "(behavioural)"
                    }
                );
            }
        }
    }

    banner("Session summary");
    println!("{}", monitor.report().summary());
    println!(
        "caught {caught} of {} injected attacks ({alarms} alarms total)",
        injection.injected_positions.len()
    );
    telemetry.flush();
    println!("telemetry trace: {trace_path}");
    Ok(())
}
