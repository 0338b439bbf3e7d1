//! Seeded mutation suite for the four line-oriented text decoders:
//! `causaliot-dig v1`, `causaliot-model v2`, `causaliot-runtime v1` and
//! `causaliot-hub-snapshot v1`.
//!
//! Each seed mutates real documents — a fitted model with a
//! preprocessor, a fitted model whose monitor has `W` in flight, that
//! monitor's runtime state, and a hub snapshot carrying a verdict history
//! and a drift window — one seeded change at a time: a token replaced by
//! `0`, `1`, a small integer, `u32::MAX`, `u64::MAX`, a float or a
//! non-number; a line deleted or duplicated; or a cut at a random byte.
//! CRC-protected documents get their footer recomputed after the
//! mutation, so the damage meets the parser rather than the checksum.
//!
//! Under `catch_unwind`, no decoder may panic, and whatever a decoder
//! accepts must be usable: an accepted model scores a few dozen events
//! and re-saves to a fixed point, an accepted runtime state scores on and
//! re-exports to a fixed point, and a hub recovered from an accepted
//! snapshot serves events without quarantining the home. The hub
//! snapshot decoder is crate-private, so it is driven through
//! `Hub::recover` on a temporary durability directory.
//!
//! Seeds come from `DECODER_SEEDS` (comma-separated integers; one seed by
//! default), as `CHAOS_SEEDS` drives the chaos suite:
//!
//! ```text
//! DECODER_SEEDS=11,23,47,101 cargo test --release --offline \
//!     -p integration-tests --test decoder_mutations
//! ```

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use causaliot::graph::{load_dig, save_dig};
use causaliot::persist::{append_crc_footer, find_crc_footer};
use causaliot::{CausalIot, DriftConfig, DriftSeverity, FittedModel};
use iot_model::{Attribute, BinaryEvent, DeviceId, DeviceRegistry, Room, Timestamp};
use iot_serve::{
    AdaptationPolicy, BackoffPolicy, DurabilityConfig, DurabilityPolicy, Hub, HubConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Mutants of each in-memory format per seed.
const MUTANTS: usize = 300;
/// Mutants of the hub snapshot per seed (each one recovers a hub).
const SNAPSHOT_MUTANTS: usize = 60;
/// Events scored through whatever a decoder accepted.
const PROBE_EVENTS: u64 = 40;

/// The seeds to run: `DECODER_SEEDS`, or one fixed seed.
fn decoder_seeds() -> Vec<u64> {
    let raw = std::env::var("DECODER_SEEDS").unwrap_or_else(|_| "11".to_string());
    raw.split(',')
        .map(|s| {
            s.trim().parse::<u64>().unwrap_or_else(|_| {
                panic!("DECODER_SEEDS must be comma-separated integers: {raw:?}")
            })
        })
        .collect()
}

/// A two-device binary model with `k_max = 3`, so collective tracking
/// keeps `W` open across events.
fn tracking_model() -> (DeviceRegistry, FittedModel) {
    let mut reg = DeviceRegistry::new();
    let pe = reg
        .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
        .unwrap();
    let lamp = reg
        .add("S_lamp", Attribute::Switch, Room::new("room"))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut events = Vec::new();
    for i in 0..300u64 {
        let t = i * 60;
        let on = rng.gen_bool(0.5);
        events.push(BinaryEvent::new(Timestamp::from_secs(t), pe, on));
        if rng.gen_bool(0.9) {
            events.push(BinaryEvent::new(Timestamp::from_secs(t + 15), lamp, on));
        }
    }
    let model = CausalIot::builder()
        .tau(2)
        .k_max(3)
        .build()
        .fit_binary(&reg, &events)
        .unwrap();
    (reg, model)
}

/// The committed v2 fixture: a fitted model with a preprocessor.
fn fixture_model() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/smart_home_v2.model");
    fs::read_to_string(path).expect("v2 fixture")
}

/// A seeded stream over `devices` devices, starting after training.
fn probe_stream(seed: u64, devices: usize, len: u64) -> Vec<BinaryEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            BinaryEvent::new(
                Timestamp::from_secs(2_000_000 + i * 20),
                DeviceId::from_index(rng.gen_range(0..devices)),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

/// A lamp switching on right after presence went off: opens `W`.
fn ghost(reg: &DeviceRegistry, at: u64) -> [BinaryEvent; 2] {
    let pe = reg.id_of("PE_room").unwrap();
    let lamp = reg.id_of("S_lamp").unwrap();
    [
        BinaryEvent::new(Timestamp::from_secs(at), pe, false),
        BinaryEvent::new(Timestamp::from_secs(at + 60), lamp, true),
    ]
}

/// Applies one seeded mutation to `doc`; returns the mutant and what was
/// done to it.
fn mutate(doc: &str, rng: &mut StdRng) -> (String, String) {
    let lines: Vec<&str> = doc.split_inclusive('\n').collect();
    match rng.gen_range(0..10u32) {
        0..=6 => {
            let candidates: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].split_whitespace().next().is_some())
                .collect();
            let at = candidates[rng.gen_range(0..candidates.len())];
            let mut tokens: Vec<String> =
                lines[at].split_whitespace().map(str::to_string).collect();
            let which = rng.gen_range(0..tokens.len());
            let replacement = match rng.gen_range(0..7u32) {
                0 => "0".to_string(),
                1 => "1".to_string(),
                2 => rng.gen_range(2..=64u32).to_string(),
                3 => u32::MAX.to_string(),
                4 => u64::MAX.to_string(),
                5 => ["0.5", "-1.5", "1e300", "NaN", "inf", "-0.0"][rng.gen_range(0..6usize)]
                    .to_string(),
                _ => ["x", "-", "true", "1:1", "-7"][rng.gen_range(0..5usize)].to_string(),
            };
            let what = format!(
                "line {}: token {which} `{}` -> `{replacement}`",
                at + 1,
                tokens[which]
            );
            tokens[which] = replacement;
            let mut out: String = lines[..at].concat();
            out.push_str(&tokens.join(" "));
            out.push('\n');
            out.push_str(&lines[at + 1..].concat());
            (out, what)
        }
        7 => {
            let at = rng.gen_range(0..lines.len());
            let out = [&lines[..at], &lines[at + 1..]].concat().concat();
            (out, format!("line {} deleted", at + 1))
        }
        8 => {
            let at = rng.gen_range(0..lines.len());
            let out = [&lines[..=at], &lines[at..]].concat().concat();
            (out, format!("line {} duplicated", at + 1))
        }
        _ => {
            let cut = rng.gen_range(0..doc.len());
            (doc[..cut].to_string(), format!("cut at byte {cut}"))
        }
    }
}

/// Mutates the body of a footered document and recomputes its footer.
fn mutate_footered(doc: &str, rng: &mut StdRng) -> (String, String) {
    let body = &doc[..find_crc_footer(doc).expect("footered document")];
    let (mut mutant, what) = mutate(body, rng);
    if !mutant.ends_with('\n') {
        mutant.push('\n');
    }
    append_crc_footer(&mut mutant);
    (mutant, what)
}

/// Panic messages from every thread while a check runs: the hub scores
/// on worker threads, whose panics its supervision absorbs.
static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());
/// Whether a check is running (panics outside one report as usual).
static CHECKING: AtomicBool = AtomicBool::new(false);

/// Routes the message of every panic during a check into [`PANICS`].
fn record_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !CHECKING.load(Ordering::Acquire) {
            return previous(info);
        }
        let message = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        let at = info.location().map(|l| l.to_string()).unwrap_or_default();
        PANICS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(format!("{message} at {at}"));
    }));
}

/// Runs `check` under `catch_unwind`, recording a failed property or a
/// panic on any thread against the mutant it came from.
fn run_guarded(
    failures: &mut Vec<String>,
    label: &str,
    what: &str,
    check: impl FnOnce() -> Result<(), String>,
) {
    CHECKING.store(true, Ordering::Release);
    // A panic here is reported below through the hook's record of it.
    let outcome = catch_unwind(AssertUnwindSafe(check)).unwrap_or(Ok(()));
    CHECKING.store(false, Ordering::Release);
    let panics = std::mem::take(&mut *PANICS.lock().unwrap_or_else(PoisonError::into_inner));
    if let Err(problem) = outcome {
        failures.push(format!("{label} [{what}]: {problem}"));
    }
    for panic in panics {
        failures.push(format!("{label} [{what}]: panicked: {panic}"));
    }
}

/// An accepted model must score and re-save to a fixed point.
fn check_model(text: &str, seed: u64) -> Result<(), String> {
    let Ok(model) = FittedModel::load(text) else {
        return Ok(());
    };
    let mut monitor = model.clone().into_monitor();
    for event in probe_stream(seed, model.num_devices(), PROBE_EVENTS) {
        monitor.observe(event);
    }
    let once = model.save();
    let reloaded = FittedModel::load(&once).map_err(|e| format!("re-save rejected: {e}"))?;
    if reloaded.save() != once {
        return Err("re-save is not a fixed point".into());
    }
    Ok(())
}

/// An accepted v1 DIG must load as a model through the same checks.
fn check_dig(text: &str, seed: u64) -> Result<(), String> {
    let Ok((dig, threshold)) = load_dig(text) else {
        return Ok(());
    };
    check_model(&save_dig(&dig, threshold), seed)
}

/// An accepted runtime state must score on and re-export to a fixed
/// point.
fn check_runtime(model: &FittedModel, text: &str, seed: u64) -> Result<(), String> {
    let mut monitor = model.clone().into_monitor();
    if monitor.restore_runtime_state(text).is_err() {
        return Ok(());
    }
    let exported = monitor.export_runtime_state();
    let mut again = model.clone().into_monitor();
    again
        .restore_runtime_state(&exported)
        .map_err(|e| format!("re-export rejected: {e}"))?;
    if again.export_runtime_state() != exported {
        return Err("re-export is not a fixed point".into());
    }
    for event in probe_stream(seed, model.num_devices(), PROBE_EVENTS) {
        monitor.observe(event);
    }
    Ok(())
}

fn hub_config(dir: &Path) -> HubConfig {
    HubConfig::builder()
        .workers(1)
        .record_verdicts(true)
        .adaptation(AdaptationPolicy {
            // Armed but quiet: the window is kept and persisted, but no
            // report can fire, so no refit changes the documents.
            drift: DriftConfig {
                window: 64,
                check_every: 16,
                score_shift: 0.99,
                loglik_decay: 1e9,
                min_device_samples: 4,
            },
            min_severity: DriftSeverity::Critical,
            refit_window: 128,
            queue_capacity: 4,
            backoff: BackoffPolicy {
                max_attempts: 1,
                initial: Duration::from_millis(1),
                max: Duration::from_millis(1),
            },
            store: None,
        })
        .durability(DurabilityConfig {
            policy: DurabilityPolicy::Interval {
                events: 1 << 20,
                max_delay: Duration::from_secs(3600),
            },
            snapshot_every: 1 << 20,
            ..DurabilityConfig::at(dir)
        })
        .try_build()
        .expect("hub config")
}

/// A scratch directory removed on drop, even when the test panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "causaliot-decoder-mutations-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Serves a stream with alarms into a durable hub and shuts it down
/// cleanly, leaving a snapshot with a verdict history and a drift window.
fn durable_fleet(reg: &DeviceRegistry, model: &FittedModel, dir: &Path) -> String {
    let mut hub = Hub::new(hub_config(dir));
    let home = hub.register("home", model);
    let mut stream = probe_stream(7, model.num_devices(), 150);
    stream.extend(ghost(reg, 3_000_000));
    stream.extend(probe_stream(8, model.num_devices(), 10).iter().map(|e| {
        BinaryEvent::new(
            Timestamp::from_millis(e.time.as_millis() + 1_000_000_000),
            e.device,
            e.value,
        )
    }));
    assert!(hub.submit_batch(home, &stream).unwrap().is_complete());
    hub.drain();
    hub.shutdown();
    let snap = fs::read_to_string(dir.join("home-0/state.snap")).expect("shutdown snapshot");
    for section in [
        "\nverdicts ",
        "\na 1 ",
        "\ne ",
        "\nc ",
        "\ndrift 1\n",
        "\ndrift.w ",
    ] {
        assert!(
            snap.contains(section),
            "snapshot lacks `{section}`:\n{snap}"
        );
    }
    snap
}

/// An accepted snapshot must recover a hub that serves events without
/// quarantining the home.
fn check_snapshot(
    pristine: &Path,
    work: &Path,
    text: &str,
    devices: usize,
    seed: u64,
) -> Result<(), String> {
    let _ = fs::remove_dir_all(work);
    copy_dir(pristine, work);
    fs::write(work.join("home-0/state.snap"), text).unwrap();
    let Ok((hub, report)) = Hub::recover(hub_config(work)) else {
        return Ok(());
    };
    let home = report.homes[0].home;
    let events = probe_stream(seed, devices, PROBE_EVENTS);
    let offered = hub.submit_batch(home, &events);
    hub.drain();
    let quarantined = hub.is_quarantined(home);
    hub.shutdown();
    match offered {
        Err(e) => Err(format!("recovered hub refused events: {e}")),
        Ok(_) if quarantined => Err("recovered home was quarantined".into()),
        Ok(_) => Ok(()),
    }
}

#[test]
fn every_decoder_fails_closed_on_seeded_mutants() {
    record_panics();
    let (reg, model) = tracking_model();
    let fixture = fixture_model();
    let fixture_dig = {
        let loaded = FittedModel::load(&fixture).expect("fixture loads");
        save_dig(loaded.dig(), loaded.threshold())
    };
    let tracked = model.save();
    let devices = model.num_devices();
    let runtime = {
        let mut monitor = model.clone().into_monitor();
        for event in ghost(&reg, 500_000) {
            monitor.observe(event);
        }
        assert_eq!(
            monitor.tracking_len(),
            1,
            "the ghost must leave W in flight"
        );
        let doc = monitor.export_runtime_state();
        assert!(doc.contains("\nw.cause "), "W must carry cause context");
        doc
    };
    let scratch = Scratch::new("hub");
    let pristine = scratch.0.join("pristine");
    let snapshot = durable_fleet(&reg, &model, &pristine);
    let work = scratch.0.join("work");

    // The unmutated documents pass every check.
    let mut failures = Vec::new();
    run_guarded(&mut failures, "model", "none", || check_model(&fixture, 0));
    run_guarded(&mut failures, "model", "none", || check_model(&tracked, 0));
    run_guarded(&mut failures, "dig", "none", || check_dig(&fixture_dig, 0));
    run_guarded(&mut failures, "runtime", "none", || {
        check_runtime(&model, &runtime, 0)
    });
    run_guarded(&mut failures, "snapshot", "none", || {
        check_snapshot(&pristine, &work, &snapshot, devices, 0)
    });
    assert!(failures.is_empty(), "{failures:#?}");
    FittedModel::load(&fixture).expect("fixture loads");
    model
        .clone()
        .into_monitor()
        .restore_runtime_state(&runtime)
        .expect("runtime state loads");

    for seed in decoder_seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..MUTANTS {
            let probe = seed ^ i as u64;
            let (text, what) = mutate(&fixture, &mut rng);
            run_guarded(&mut failures, "model (fixture)", &what, || {
                check_model(&text, probe)
            });
            let (text, what) = mutate(&tracked, &mut rng);
            run_guarded(&mut failures, "model (k_max 3)", &what, || {
                check_model(&text, probe)
            });
            let (text, what) = mutate(&fixture_dig, &mut rng);
            run_guarded(&mut failures, "dig", &what, || check_dig(&text, probe));
            let (text, what) = mutate(&runtime, &mut rng);
            run_guarded(&mut failures, "runtime", &what, || {
                check_runtime(&model, &text, probe)
            });
        }
        for i in 0..SNAPSHOT_MUTANTS {
            let (text, what) = mutate_footered(&snapshot, &mut rng);
            run_guarded(&mut failures, "snapshot", &what, || {
                check_snapshot(&pristine, &work, &text, devices, seed ^ i as u64)
            });
        }
        assert!(
            failures.is_empty(),
            "seed {seed}: {} mutants broke a decoder:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }
}
