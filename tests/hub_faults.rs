//! Chaos suite for the serving hub's fault tolerance: injected monitor
//! panics must quarantine exactly one home (siblings bit-identical to a
//! no-fault run), quarantined homes must round-trip through manual and
//! checkpoint auto-restore, supervised shards must survive worker deaths
//! with zero events dropped or reordered, and the submit policies must
//! surface retries and deadline overruns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaliot::{CausalIot, FittedModel, Verdict};
use iot_model::{Attribute, BinaryEvent, DeviceId, DeviceRegistry, Room, Timestamp};
use iot_serve::{
    BackoffPolicy, FaultHook, Hub, HubConfig, ModelUpdate, RestorePolicy, SubmitError, SubmitPolicy,
};
use iot_telemetry::TelemetryHandle;
use rand::{rngs::StdRng, Rng, SeedableRng};
use testbed::inject::{FaultSchedule, INJECTED_PANIC};

/// Silences the panic-hook output of *injected* faults (scheduled monitor
/// panics and worker kills) while delegating everything else — real
/// assertion failures keep their backtraces.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let injected = message.is_some_and(|m| {
                m.contains(INJECTED_PANIC)
                    || m.contains("injected worker death")
                    // The burst-boundary test panics the monitor with a
                    // sentinel out-of-range device id (999).
                    || m.contains("the index is 999")
            });
            if !injected {
                previous(info);
            }
        }));
    });
}

fn fitted_model(seed: u64) -> (DeviceRegistry, FittedModel) {
    let mut reg = DeviceRegistry::new();
    let pe = reg
        .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
        .unwrap();
    let lamp = reg
        .add("S_lamp", Attribute::Switch, Room::new("room"))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for i in 0..400u64 {
        let t = i * 60;
        let on = rng.gen_bool(0.5);
        events.push(BinaryEvent::new(Timestamp::from_secs(t), pe, on));
        if rng.gen_bool(0.9) {
            events.push(BinaryEvent::new(Timestamp::from_secs(t + 15), lamp, on));
        }
    }
    let model = CausalIot::builder()
        .tau(2)
        .build()
        .fit_binary(&reg, &events)
        .unwrap();
    (reg, model)
}

fn home_stream(reg: &DeviceRegistry, seed: u64, len: usize) -> Vec<BinaryEvent> {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len as u64)
        .map(|i| {
            let t = 1_000_000 + seed * 10_000_000 + i * 30;
            match rng.gen_range(0..3) {
                0 => BinaryEvent::new(Timestamp::from_secs(t), pe, rng.gen_bool(0.5)),
                1 => BinaryEvent::new(Timestamp::from_secs(t), lamp, rng.gen_bool(0.5)),
                _ => BinaryEvent::new(Timestamp::from_secs(t), lamp, true),
            }
        })
        .collect()
}

fn sequential_verdicts(model: &FittedModel, stream: &[BinaryEvent]) -> Vec<Verdict> {
    let mut monitor = model.clone().into_monitor();
    stream.iter().map(|e| monitor.observe(*e)).collect()
}

#[test]
fn panicking_home_never_affects_sibling_verdicts() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(7);
    let len = 400usize;
    let panic_seq = 100u64;
    let streams: Vec<Vec<BinaryEvent>> = (0..4).map(|h| home_stream(&reg, h, len)).collect();
    let expected: Vec<Vec<Verdict>> = streams
        .iter()
        .map(|s| sequential_verdicts(&model, s))
        .collect();

    // Home 0 panics on its 101st event; homes 1..4 (including home 2,
    // which shares shard 0 with the victim) must be untouched.
    let schedule = Arc::new(FaultSchedule::new().panic_at(0, panic_seq));
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(2)
            .queue_capacity(64)
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&schedule) as Arc<dyn FaultHook>,
    );
    let homes: Vec<_> = (0..4)
        .map(|h| hub.register(&format!("home-{h}"), &model))
        .collect();

    // Interleave submissions round-robin; once home 0's quarantine is
    // visible at the gate, stop submitting to it and count the skips.
    let mut skipped = [0u64; 4];
    let mut done = [false; 4];
    // Round-robin needs the event index across all four streams at once.
    #[allow(clippy::needless_range_loop)]
    for i in 0..len {
        for h in 0..4 {
            if done[h] {
                skipped[h] += 1;
                continue;
            }
            let event = streams[h][i];
            loop {
                match hub.submit(homes[h], event) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(SubmitError::Quarantined(q)) => {
                        assert_eq!(h, 0, "only home 0 may be quarantined");
                        assert!(q.panic.contains(INJECTED_PANIC));
                        done[h] = true;
                        skipped[h] += 1;
                        break;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }
    hub.drain();
    assert!(hub.is_quarantined(homes[0]));
    assert_eq!(schedule.panics_fired(), 1);
    let reports = hub.shutdown();

    // Siblings: bit-identical to the no-fault sequential reference.
    for h in 1..4 {
        assert_eq!(reports[h].verdicts, expected[h], "home {h} diverged");
        assert_eq!(reports[h].monitor.events_observed, len as u64);
        assert!(!reports[h].quarantined, "home {h} must not be quarantined");
        assert!(reports[h].panics.is_empty());
        assert_eq!(reports[h].dropped_quarantined, 0);
    }
    // The victim: an exact verdict prefix up to the panic, then nothing.
    let victim = &reports[0];
    assert!(victim.quarantined);
    assert_eq!(victim.panics.len(), 1);
    assert!(victim.panics[0].contains(INJECTED_PANIC));
    assert_eq!(victim.verdicts[..], expected[0][..panic_seq as usize]);
    assert_eq!(victim.monitor.events_observed, panic_seq);
    // Every victim event is accounted for: scored, consumed by the
    // panic, dropped at the poisoned monitor, or rejected at the gate.
    assert_eq!(
        panic_seq + 1 + victim.dropped_quarantined + skipped[0],
        len as u64
    );
    assert_eq!(telemetry.counter("hub.quarantines").get(), 1);
    assert_eq!(
        telemetry.counter("hub.quarantine_dropped").get(),
        victim.dropped_quarantined
    );
}

#[test]
fn quarantine_then_manual_restore_roundtrips() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(11);
    let pre = home_stream(&reg, 21, 11); // 11th event (seq 10) panics
    let post = home_stream(&reg, 22, 50);
    let schedule = Arc::new(FaultSchedule::new().panic_at(0, 10));
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder().workers(1).try_build().unwrap(),
        &telemetry,
        Arc::clone(&schedule) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    assert!(hub.submit_batch(home, &pre).unwrap().is_complete());
    hub.drain();

    // Quarantined: the gate reports the captured panic.
    assert!(hub.is_quarantined(home));
    let spare = pre[0];
    match hub.submit(home, spare) {
        Err(SubmitError::Quarantined(q)) => {
            assert!(q.panic.contains(INJECTED_PANIC));
            assert_eq!(q.restores, 0);
        }
        other => panic!("expected quarantine rejection, got {other:?}"),
    }

    // Manual restore: fresh monitor from the same model, gate re-opens.
    hub.apply(ModelUpdate::Restore {
        home,
        model: &model,
    })
    .unwrap();
    hub.drain();
    assert!(!hub.is_quarantined(home));
    assert!(hub.submit_batch(home, &post).unwrap().is_complete());
    hub.drain();
    let reports = hub.shutdown();

    let mut expected = sequential_verdicts(&model, &pre[..10]);
    expected.extend(sequential_verdicts(&model, &post));
    assert_eq!(reports[0].verdicts, expected);
    assert!(!reports[0].quarantined);
    assert_eq!(reports[0].restores, 1);
    assert_eq!(reports[0].retired.len(), 1, "poisoned monitor was retired");
    assert_eq!(reports[0].swaps, 0, "a restore is not a swap");
    assert_eq!(telemetry.counter("hub.restores").get(), 1);
}

#[test]
fn restore_policy_auto_restores_from_checkpoint() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(13);
    let pre = home_stream(&reg, 31, 6); // 6th event (seq 5) panics
    let post = home_stream(&reg, 32, 40);
    let checkpoint = std::env::temp_dir().join(format!(
        "causaliot_hub_faults_autorestore_{}.model",
        std::process::id()
    ));
    std::fs::write(&checkpoint, model.save()).unwrap();

    let schedule = Arc::new(FaultSchedule::new().panic_at(0, 5));
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .restore_policy(RestorePolicy {
                from_checkpoint: checkpoint.clone(),
                backoff: BackoffPolicy {
                    max_attempts: 3,
                    initial: Duration::from_millis(1),
                    max: Duration::from_millis(4),
                },
            })
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&schedule) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    assert!(hub.submit_batch(home, &pre).unwrap().is_complete());
    hub.drain();

    // The supervisor must notice the quarantine and restore hands-off.
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.is_quarantined(home) {
        assert!(
            Instant::now() < deadline,
            "auto-restore did not happen within 10s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(hub.submit_batch(home, &post).unwrap().is_complete());
    hub.drain();
    let reports = hub.shutdown();
    let _ = std::fs::remove_file(&checkpoint);

    // A checkpoint round-trip is verdict-exact, so the post-restore
    // verdicts match a fresh monitor from the original model.
    let mut expected = sequential_verdicts(&model, &pre[..5]);
    expected.extend(sequential_verdicts(&model, &post));
    assert_eq!(reports[0].verdicts, expected);
    assert_eq!(reports[0].restores, 1, "exactly one auto-restore");
    assert!(!reports[0].quarantined);
    assert_eq!(telemetry.counter("hub.restores").get(), 1);
}

#[test]
fn supervised_shard_survives_worker_deaths_losslessly() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(17);
    let len = 300usize;
    let streams: Vec<Vec<BinaryEvent>> = (0..2).map(|h| home_stream(&reg, 40 + h, len)).collect();
    let expected: Vec<Vec<Verdict>> = streams
        .iter()
        .map(|s| sequential_verdicts(&model, s))
        .collect();

    // Both homes share the single shard; its worker is killed twice
    // mid-stream and must be respawned by the supervisor both times.
    let schedule = Arc::new(FaultSchedule::new().kill_at(0, 100).kill_at(0, 350));
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .queue_capacity(32)
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&schedule) as Arc<dyn FaultHook>,
    );
    let homes: Vec<_> = (0..2)
        .map(|h| hub.register(&format!("home-{h}"), &model))
        .collect();
    // Round-robin needs the event index across both streams at once.
    #[allow(clippy::needless_range_loop)]
    for i in 0..len {
        for h in 0..2 {
            let event = streams[h][i];
            loop {
                match hub.submit(homes[h], event) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }
    hub.drain();
    assert_eq!(schedule.kills_fired(), 2, "both kills must have fired");
    let reports = hub.shutdown();

    for h in 0..2 {
        assert_eq!(
            reports[h].verdicts, expected[h],
            "home {h}: worker deaths dropped or reordered events"
        );
        assert_eq!(reports[h].monitor.events_observed, len as u64);
        assert!(!reports[h].quarantined);
    }
    assert_eq!(telemetry.counter("hub.shard.0.restarts").get(), 2);
}

/// A hook that (while engaged) stalls the worker at every burst boundary,
/// making full-queue conditions deterministic for the submit policies.
struct StallWorker {
    engaged: AtomicBool,
    pause: Duration,
}

impl FaultHook for StallWorker {
    fn kill_worker(&self, _shard: usize, _jobs_done: u64) -> bool {
        if self.engaged.load(Ordering::Acquire) {
            std::thread::sleep(self.pause);
        }
        false
    }
}

/// A scheduled monitor panic plus a worker stalled at every burst
/// boundary while engaged.
struct PanicThenStall {
    schedule: FaultSchedule,
    stall: StallWorker,
}

impl FaultHook for PanicThenStall {
    fn before_observe(&self, home: iot_serve::HomeId, seq: u64) {
        self.schedule.before_observe(home, seq);
    }

    fn kill_worker(&self, shard: usize, jobs_done: u64) -> bool {
        self.stall.kill_worker(shard, jobs_done)
    }
}

#[test]
fn restore_queued_behind_a_stalled_worker_is_sent_once() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(13);
    let pre = home_stream(&reg, 31, 6); // 6th event (seq 5) panics
    let post = home_stream(&reg, 32, 40);
    let checkpoint = std::env::temp_dir().join(format!(
        "causaliot_hub_faults_stalled_restore_{}.model",
        std::process::id()
    ));
    std::fs::write(&checkpoint, model.save()).unwrap();

    // Each burst boundary stalls for longer than the whole backoff
    // schedule (1 + 2 ms, jittered), so the restore the supervisor sends
    // on quarantine waits in the queue through every retry point.
    let hook = Arc::new(PanicThenStall {
        schedule: FaultSchedule::new().panic_at(0, 5),
        stall: StallWorker {
            engaged: AtomicBool::new(true),
            pause: Duration::from_millis(100),
        },
    });
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .restore_policy(RestorePolicy {
                from_checkpoint: checkpoint.clone(),
                backoff: BackoffPolicy {
                    max_attempts: 3,
                    initial: Duration::from_millis(1),
                    max: Duration::from_millis(4),
                },
            })
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&hook) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    assert!(hub.submit_batch(home, &pre).unwrap().is_complete());
    hub.drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.is_quarantined(home) {
        assert!(
            Instant::now() < deadline,
            "auto-restore did not happen within 10s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    hook.stall.engaged.store(false, Ordering::Release);
    assert!(hub.submit_batch(home, &post).unwrap().is_complete());
    hub.drain();
    let reports = hub.shutdown();
    let _ = std::fs::remove_file(&checkpoint);

    let mut expected = sequential_verdicts(&model, &pre[..5]);
    expected.extend(sequential_verdicts(&model, &post));
    assert_eq!(reports[0].verdicts, expected);
    assert_eq!(reports[0].restores, 1, "one restore per quarantine");
    assert_eq!(telemetry.counter("hub.restores").get(), 1);
}

#[test]
fn block_policy_reports_deadline_exceeded() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(19);
    let lamp = reg.id_of("S_lamp").unwrap();
    let stall = Arc::new(StallWorker {
        engaged: AtomicBool::new(true),
        pause: Duration::from_millis(200),
    });
    let deadline = Duration::from_millis(10);
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .submit_policy(SubmitPolicy::Block { deadline })
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&stall) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    // The 1-slot queue holds the register job while the worker stalls;
    // the next submission must block and then time out.
    let err = hub
        .submit(home, BinaryEvent::new(Timestamp::from_secs(1), lamp, true))
        .unwrap_err();
    assert_eq!(err, SubmitError::DeadlineExceeded { home, deadline });
    assert_eq!(telemetry.counter("hub.deadline_exceeded").get(), 1);
    stall.engaged.store(false, Ordering::Release);
    hub.drain();
    let reports = hub.shutdown();
    assert_eq!(reports[0].monitor.events_observed, 0);
}

#[test]
fn retry_policy_counts_retries_and_eventually_succeeds() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(23);
    let lamp = reg.id_of("S_lamp").unwrap();
    let stall = Arc::new(StallWorker {
        engaged: AtomicBool::new(true),
        pause: Duration::from_millis(5),
    });
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .submit_policy(SubmitPolicy::Retry {
                max_retries: 500,
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            })
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&stall) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    // Each submission may need retries while the worker crawls (5ms per
    // burst boundary), but the budget is ample: all must land.
    for i in 0..10u64 {
        hub.submit(
            home,
            BinaryEvent::new(Timestamp::from_secs(10 + i * 60), lamp, i % 2 == 0),
        )
        .unwrap();
    }
    let retries = telemetry.counter("hub.retries").get();
    assert!(retries > 0, "a crawling 1-slot queue must force retries");
    stall.engaged.store(false, Ordering::Release);
    hub.drain();
    let reports = hub.shutdown();
    assert_eq!(reports[0].monitor.events_observed, 10);
}

#[test]
fn retry_policy_gives_up_after_its_budget() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(29);
    let lamp = reg.id_of("S_lamp").unwrap();
    let stall = Arc::new(StallWorker {
        engaged: AtomicBool::new(true),
        pause: Duration::from_millis(200),
    });
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .submit_policy(SubmitPolicy::Retry {
                max_retries: 3,
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(400),
            })
            .try_build()
            .unwrap(),
        &telemetry,
        Arc::clone(&stall) as Arc<dyn FaultHook>,
    );
    let home = hub.register("home", &model);
    let err = hub
        .submit(home, BinaryEvent::new(Timestamp::from_secs(1), lamp, true))
        .unwrap_err();
    assert!(matches!(err, SubmitError::QueueFull { .. }));
    assert_eq!(telemetry.counter("hub.retries").get(), 3);
    stall.engaged.store(false, Ordering::Release);
    drop(hub); // plain drop must also stop supervisor + workers cleanly
}

/// The seeds driven by the chaos-ingest scenario. CI pins a matrix of
/// seeds through the `CHAOS_SEEDS` environment variable (comma-separated
/// integers); local runs fall back to a fixed default pair so the test is
/// deterministic everywhere.
fn chaos_seeds() -> Vec<u64> {
    let raw = std::env::var("CHAOS_SEEDS").unwrap_or_else(|_| "11,23".to_string());
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("CHAOS_SEEDS must be comma-separated integers: {raw:?}"))
        })
        .collect()
}

/// Chaos-ingest: four homes fed seeded storms of in-window jitter plus
/// poison events (late stragglers, deep clock regressions, unknown
/// devices — binary streams cannot carry NaN, which the ingestion guard
/// covers on the raw path and `properties.rs` exercises). Every home's
/// verdicts must be bit-identical to its clean sequential run, every
/// poison event must land in that home's dead-letter counts with the
/// injected cause, and the `ingest.drop.*` counters must account for the
/// fleet-wide totals.
#[test]
fn chaos_ingest_repairs_jitter_and_dead_letters_poison_across_homes() {
    install_quiet_panic_hook();
    for seed in chaos_seeds() {
        chaos_ingest_case(seed);
    }
}

fn chaos_ingest_case(seed: u64) {
    use causaliot::IngestPolicy;
    use testbed::inject::{corrupt_stream, ChaosSpec};

    let (reg, model) = fitted_model(seed);
    let spec = ChaosSpec {
        swaps: 8,
        stragglers: 2,
        regressions: 2,
        unknown_devices: 1,
        ..ChaosSpec::default()
    };
    let policy = IngestPolicy {
        reorder_window: spec.reorder_window,
        max_skew: spec.max_skew,
        ..IngestPolicy::default()
    };
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig::builder()
            .workers(2)
            .queue_capacity(64)
            .ingest(policy)
            .try_build()
            .unwrap(),
        &telemetry,
    );
    let mut expected = Vec::new();
    let mut storms = Vec::new();
    let mut homes = Vec::new();
    for h in 0..4u64 {
        let clean = home_stream(&reg, seed * 10 + h, 300);
        expected.push(sequential_verdicts(&model, &clean));
        let mut rng = StdRng::seed_from_u64(seed ^ (h << 32));
        storms.push(corrupt_stream(&clean, model.num_devices(), &spec, &mut rng));
        homes.push(hub.register(&format!("home-{h}"), &model));
    }
    for (h, storm) in storms.iter().enumerate() {
        for chunk in storm.events.chunks(48) {
            assert!(hub.submit_batch(homes[h], chunk).unwrap().is_complete());
        }
    }
    let reports = hub.shutdown();
    let mut fleet_dead = 0u64;
    for (h, report) in reports.iter().enumerate() {
        let injected = storms[h].expected_dead;
        assert_eq!(
            report.verdicts, expected[h],
            "seed {seed} home {h}: verdicts diverged from the clean run"
        );
        assert_eq!(
            report.dead_letter_causes.late_arrival, injected.late_arrival,
            "seed {seed} home {h}"
        );
        assert_eq!(
            report.dead_letter_causes.clock_regression, injected.clock_regression,
            "seed {seed} home {h}"
        );
        assert_eq!(
            report.dead_letter_causes.unknown_device, injected.unknown_device,
            "seed {seed} home {h}"
        );
        assert_eq!(
            report.dead_letters,
            injected.total(),
            "seed {seed} home {h}"
        );
        assert!(!report.quarantined, "seed {seed} home {h}");
        fleet_dead += report.dead_letters;
    }
    assert!(fleet_dead > 0, "seed {seed}: the storm injected nothing");
    let counted = telemetry.counter("ingest.drop.late_arrival").get()
        + telemetry.counter("ingest.drop.clock_regression").get()
        + telemetry.counter("ingest.drop.unknown_device").get();
    assert_eq!(
        counted, fleet_dead,
        "seed {seed}: ingest.drop.* counters disagree"
    );
}

/// Burst draining must be behaviourally invisible: with no fault hook the
/// worker drains whole queue bursts through the batched fast path, and a
/// panic in the *middle* of a submitted batch must quarantine at exactly
/// the panicking event — an exact verdict prefix, the panicking event as
/// the frozen flight recording's last entry, the events queued behind it
/// counted as quarantine-dropped — while a sibling home whose jobs were
/// interleaved (per-event and batched shapes mixed) stays bit-identical.
#[test]
fn burst_batches_preserve_ordering_and_exact_quarantine_boundary() {
    install_quiet_panic_hook();
    let (reg, model) = fitted_model(17);
    let clean = home_stream(&reg, 71, 120);
    let mut poison = home_stream(&reg, 72, 40);
    let panic_index = 17usize;
    // A device id far outside the registry panics inside scoring — no
    // fault hook needed, so the burst fast path is actually exercised.
    poison[panic_index] =
        BinaryEvent::new(poison[panic_index].time, DeviceId::from_index(999), true);
    let sibling_stream = home_stream(&reg, 73, 300);

    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig::builder()
            .workers(1)
            .queue_capacity(1_024)
            .flight_recorder(8)
            .try_build()
            .unwrap(),
        &telemetry,
    );
    let victim = hub.register("victim", &model);
    let sibling = hub.register("sibling", &model);

    // Mixed submission shapes land on the single shard's queue and are
    // burst-drained together: per-event jobs, then interleaved batches.
    for event in &sibling_stream[..50] {
        loop {
            match hub.submit(sibling, *event) {
                Ok(()) => break,
                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    assert!(hub.submit_batch(victim, &clean).unwrap().is_complete());
    assert!(hub
        .submit_batch(sibling, &sibling_stream[50..170])
        .unwrap()
        .is_complete());
    assert!(hub.submit_batch(victim, &poison).unwrap().is_complete());
    assert!(hub
        .submit_batch(sibling, &sibling_stream[170..])
        .unwrap()
        .is_complete());
    hub.drain();

    // The gate closed with the captured out-of-range panic.
    assert!(hub.is_quarantined(victim));
    match hub.submit(victim, clean[0]) {
        Err(SubmitError::Quarantined(q)) => assert!(q.panic.contains("the index is 999")),
        other => panic!("expected quarantine rejection, got {other:?}"),
    }
    let reports = hub.shutdown();

    // Victim: an exact verdict prefix — every clean event plus the
    // poisoned batch up to (not including) the panicking event.
    let mut prefix = clean.clone();
    prefix.extend_from_slice(&poison[..panic_index]);
    let victim_report = &reports[0];
    assert_eq!(victim_report.verdicts, sequential_verdicts(&model, &prefix));
    assert_eq!(victim_report.monitor.events_observed, prefix.len() as u64);
    assert!(victim_report.quarantined);
    assert_eq!(victim_report.panics.len(), 1);
    assert_eq!(
        victim_report.dropped_quarantined,
        (poison.len() - panic_index - 1) as u64,
        "exactly the events queued behind the panicking one are dropped"
    );
    // The frozen flight recording ends with the panicking event.
    assert_eq!(victim_report.quarantine_flights.len(), 1);
    let recording = &victim_report.quarantine_flights[0];
    let last = recording.entries.last().expect("non-empty recording");
    assert!(last.panicked);
    assert!(last.score.is_nan());
    assert!(last.verdict.is_none());
    assert_eq!(last.seq, (clean.len() + panic_index) as u64);
    assert_eq!(last.event.device.index(), 999);
    // Entries before the panic carry real verdicts in sequence order.
    for window in recording.entries.windows(2) {
        assert_eq!(window[1].seq, window[0].seq + 1, "recording is contiguous");
    }

    // Sibling: bit-identical to the sequential reference despite the
    // mixed shapes and the sibling's jobs sharing bursts with the victim.
    let sibling_report = &reports[1];
    assert_eq!(
        sibling_report.verdicts,
        sequential_verdicts(&model, &sibling_stream)
    );
    assert!(!sibling_report.quarantined);
    assert_eq!(sibling_report.dropped_quarantined, 0);
    assert_eq!(telemetry.counter("hub.quarantines").get(), 1);
    assert_eq!(
        telemetry.counter("hub.quarantine_dropped").get(),
        victim_report.dropped_quarantined
    );
}

/// The liveness timeout of the degraded-ingest scenario: twenty of
/// `home_stream`'s 30-s event gaps.
const LIVENESS: Duration = Duration::from_secs(600);

/// `home_stream` with `PE_room` silent over two stretches of sixty
/// events, three times [`LIVENESS`]: the presence sensor goes stale
/// inside each and is live again at its next reading.
fn silent_stream(reg: &DeviceRegistry, seed: u64, len: usize) -> Vec<BinaryEvent> {
    let lamp = reg.id_of("S_lamp").unwrap();
    let mut stream = home_stream(reg, seed, len);
    for silence in [len / 5..len * 2 / 5, len * 3 / 5..len * 4 / 5] {
        for event in &mut stream[silence] {
            event.device = lamp;
        }
    }
    stream
}

/// How one home's stream is submitted: consecutive spans, each one job —
/// `submit` for a span of one event, `submit_batch` for a longer one.
fn submission_plan(rng: &mut StdRng, len: usize) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at < len {
        let n = if rng.gen_bool(0.3) {
            1
        } else {
            rng.gen_range(16..=64)
        };
        let end = (at + n).min(len);
        spans.push(at..end);
        at = end;
    }
    spans
}

/// One event at a time through an ingest guard: every release is scored
/// with `observe_with` against the stale set of the offer that released
/// it, and the end-of-stream flush against the final set.
struct GuardedReference {
    /// One verdict per release, in release (= per-home seq) order.
    verdicts: Vec<Verdict>,
    /// The released events, parallel to `verdicts`.
    released: Vec<BinaryEvent>,
    /// For each release, the stream position of the offer that released
    /// it (the stream length for the final flush).
    offer_of: Vec<usize>,
    /// Stream positions whose offer changed the stale set.
    stale_changes: Vec<usize>,
}

fn guarded_reference(
    model: &FittedModel,
    policy: causaliot::IngestPolicy,
    stream: &[BinaryEvent],
) -> GuardedReference {
    let mut guard = causaliot::IngestGuard::<BinaryEvent>::new(policy, model.num_devices());
    let mut monitor = model.clone().into_monitor();
    let mut reference = GuardedReference {
        verdicts: Vec::new(),
        released: Vec::new(),
        offer_of: Vec::new(),
        stale_changes: Vec::new(),
    };
    let mut last_stale = guard.stale_set();
    let mut score = |ready: Vec<BinaryEvent>, stale: &causaliot::StaleSet, at: usize| {
        let ctx = causaliot::ObserveCtx::with_stale(stale);
        for event in ready {
            let verdict = monitor.observe_with(event.into(), &ctx);
            reference
                .verdicts
                .push(verdict.expect("binary observations are always scored"));
            reference.released.push(event);
            reference.offer_of.push(at);
        }
    };
    for (at, event) in stream.iter().enumerate() {
        let step = guard.offer(*event);
        if step.ready.is_empty() {
            continue;
        }
        let stale = guard.stale_set();
        if stale != last_stale {
            reference.stale_changes.push(at);
            last_stale = stale.clone();
        }
        score(step.ready, &stale, at);
    }
    let remaining = guard.flush();
    score(remaining, &guard.stale_set(), stream.len());
    reference
}

/// Degraded ingest through the hub's one scoring path: four homes behind
/// an ingest guard with a liveness clock, fed in-window jitter and a
/// presence sensor that falls silent twice, submitted as a seeded mix of
/// `submit` and `submit_batch` jobs so stale-set changes fall *inside*
/// batch jobs. Every home's verdicts — `confidence` included — must be
/// bit-identical to scoring one guard offer at a time, and some must be
/// degraded.
#[test]
fn degraded_ingest_scores_every_stale_run_like_per_offer_scoring() {
    install_quiet_panic_hook();
    for seed in chaos_seeds() {
        degraded_ingest_case(seed, false);
    }
}

/// [`degraded_ingest_scores_every_stale_run_like_per_offer_scoring`]
/// with a fault hook: a scheduled monitor panic inside a batch job, one
/// release after a stale-set change, and a worker kill on the victim's
/// shard. The victim's verdicts must be an exact prefix ending
/// at the panic, its quarantine recording must end at the panicking
/// seq, every sibling must stay bit-identical, and the kill must fire.
#[test]
fn degraded_ingest_with_faults_quarantines_at_the_exact_event() {
    install_quiet_panic_hook();
    for seed in chaos_seeds() {
        degraded_ingest_case(seed, true);
    }
}

fn degraded_ingest_case(seed: u64, faults: bool) {
    use causaliot::IngestPolicy;
    use testbed::inject::{corrupt_stream, ChaosSpec};

    const HOMES: usize = 4;
    const WORKERS: usize = 2;
    let (reg, model) = fitted_model(seed);
    let spec = ChaosSpec {
        swaps: 8,
        stragglers: 0,
        regressions: 0,
        unknown_devices: 0,
        ..ChaosSpec::default()
    };
    let policy = IngestPolicy {
        reorder_window: spec.reorder_window,
        max_skew: spec.max_skew,
        liveness_timeout: Some(LIVENESS),
        ..IngestPolicy::default()
    };
    let mut streams = Vec::new();
    let mut plans = Vec::new();
    let mut references = Vec::new();
    for h in 0..HOMES as u64 {
        let clean = silent_stream(&reg, seed * 10 + h, 300);
        let mut rng = StdRng::seed_from_u64(seed ^ (h << 32) ^ 0x5a1e);
        let stream = corrupt_stream(&clean, model.num_devices(), &spec, &mut rng).events;
        plans.push(submission_plan(&mut rng, stream.len()));
        references.push(guarded_reference(&model, policy, &stream));
        streams.push(stream);
    }

    // The victim panics one release after the first stale-set change
    // strictly inside a batch job, with that release in the same job and
    // the same stale run: the panic is the first event of neither a job
    // nor a monitor call, and the run before it splits off mid-job.
    let (victim, panic_seq) = (0..HOMES)
        .flat_map(|h| references[h].stale_changes.iter().map(move |&at| (h, at)))
        .find_map(|(h, at)| {
            let reference = &references[h];
            let job = plans[h]
                .iter()
                .find(|span| span.len() > 1 && span.start < at && at < span.end)?;
            let seq = reference.offer_of.iter().position(|&offer| offer == at)? + 1;
            let offer = *reference.offer_of.get(seq)?;
            let same_run = offer == at || !reference.stale_changes.contains(&offer);
            (offer < job.end && same_run).then_some((h, seq))
        })
        .unwrap_or_else(|| panic!("seed {seed}: no stale-set change falls inside a batch job"));
    let victim_shard = victim % WORKERS;
    let shard_jobs: usize = (0..HOMES)
        .filter(|h| h % WORKERS == victim_shard)
        .map(|h| plans[h].len())
        .sum();

    let schedule = Arc::new(if faults {
        FaultSchedule::new()
            .panic_at(victim, panic_seq as u64)
            .kill_at(victim_shard, shard_jobs as u64 / 2)
    } else {
        FaultSchedule::new()
    });
    let mut hub = Hub::with_fault_hook(
        HubConfig::builder()
            .workers(WORKERS)
            .queue_capacity(1 << 14)
            .ingest(policy)
            .flight_recorder(8)
            .record_verdicts(true)
            .try_build()
            .unwrap(),
        &TelemetryHandle::with_noop_sink(),
        Arc::clone(&schedule) as Arc<dyn FaultHook>,
    );
    let ids: Vec<_> = (0..HOMES)
        .map(|h| hub.register(&format!("home-{h}"), &model))
        .collect();

    // Round-robin over the homes' jobs, so each shard's queue interleaves
    // its two homes and both submission shapes.
    let mut quarantined = [false; HOMES];
    let rounds = plans.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for h in 0..HOMES {
            let Some(span) = plans[h].get(round) else {
                continue;
            };
            if quarantined[h] {
                continue;
            }
            let events = &streams[h][span.clone()];
            let submitted = match events {
                [event] => hub.submit(ids[h], *event),
                _ => hub
                    .submit_batch(ids[h], events)
                    .map(|outcome| assert!(outcome.is_complete())),
            };
            match submitted {
                Ok(()) => {}
                Err(SubmitError::Quarantined(_)) if faults && h == victim => {
                    quarantined[h] = true;
                }
                Err(e) => panic!("seed {seed} home {h}: unexpected submit error: {e}"),
            }
        }
    }
    let reports = hub.shutdown();

    for (h, report) in reports.iter().enumerate() {
        let expected = &references[h];
        if faults && h == victim {
            assert_eq!(
                report.verdicts[..],
                expected.verdicts[..panic_seq],
                "seed {seed} victim {h}: not an exact prefix ending at the panic"
            );
            assert!(report.quarantined, "seed {seed} victim {h}");
            let recording = report
                .quarantine_flights
                .last()
                .expect("a quarantine freezes the flight recording");
            let last = recording.entries.last().expect("non-empty recording");
            assert!(last.panicked, "seed {seed} victim {h}");
            assert_eq!(last.seq, panic_seq as u64, "seed {seed} victim {h}");
            assert_eq!(last.event, expected.released[panic_seq]);
            continue;
        }
        assert_eq!(
            report.verdicts, expected.verdicts,
            "seed {seed} home {h}: verdicts diverged from per-offer scoring"
        );
        for (got, want) in report.verdicts.iter().zip(&expected.verdicts) {
            assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
        }
        assert!(!report.quarantined, "seed {seed} home {h}");
    }
    assert!(
        reports
            .iter()
            .flat_map(|report| &report.verdicts)
            .any(|verdict| verdict.confidence < 1.0),
        "seed {seed}: no verdict was scored in degraded mode"
    );
    if faults {
        assert_eq!(schedule.panics_fired(), 1, "seed {seed}");
        assert_eq!(schedule.kills_fired(), 1, "seed {seed}");
    }
}
