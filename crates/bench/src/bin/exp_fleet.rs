//! Fleet-scale fit→store→serve: sweeps a fleet of homes across child OS
//! processes into a content-addressed [`causaliot::fleet::ModelStore`],
//! bulk-loads the whole fleet into a serving [`iot_serve::Hub`], spot
//! checks served verdicts against direct monitors, and bulk-swaps the
//! live fleet to a new lineage generation.
//!
//! Defaults to 10 000 homes across 4 children; the CI fleet smoke step
//! runs the same binary with `--homes 64 --children 4`. The binary
//! doubles as its own sweep child via the `--fleet-child` re-exec flag.
//!
//! ```text
//! exp_fleet [--homes N] [--children K] [--store PATH]
//! ```
//!
//! With `--store` the model store is written (and kept) at PATH;
//! otherwise a temp directory is used and removed afterwards.

use std::path::PathBuf;
use std::time::Instant;

use causaliot::fleet::{child_store_root, run_child, run_sweep, FitJob, ModelStore, SweepConfig};
use causaliot::{CausalIot, FittedModel, OwnedMonitor, Verdict};
use causaliot_bench::telemetry_out;
use iot_model::{Attribute, BinaryEvent, DeviceRegistry, Room, Timestamp};
use iot_serve::{Hub, HubConfig, ModelUpdate, SubmitError, UpdateOutcome};
use iot_telemetry::json::JsonValue;
use iot_telemetry::TelemetryHandle;

const DEFAULT_HOMES: usize = 10_000;
const DEFAULT_CHILDREN: usize = 4;
/// Homes spot-checked for verdict identity after bulk_load.
const SPOT_HOMES: usize = 64;
/// Runtime events scored per spot-checked home.
const SPOT_EVENTS: usize = 120;

fn registry() -> (DeviceRegistry, [iot_model::DeviceId; 2]) {
    let mut reg = DeviceRegistry::new();
    let pe = reg
        .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
        .unwrap();
    let lamp = reg
        .add("S_lamp", Attribute::Switch, Room::new("room"))
        .unwrap();
    (reg, [pe, lamp])
}

/// Deterministic per-seed fit. The activity pattern varies with
/// `seed % 23` and `seed % 7`, so a large fleet yields a few hundred
/// *distinct* models — the content-addressed store deduplicates the
/// rest, which is exactly the behaviour worth measuring.
fn fit_for_seed(seed: u64) -> Result<FittedModel, String> {
    let (reg, [pe, lamp]) = registry();
    let period = 2 + seed % 23;
    let skip = 3 + seed % 7;
    let mut events = Vec::new();
    for i in 0..240u64 {
        let on = (i / period).is_multiple_of(2);
        events.push(BinaryEvent::new(Timestamp::from_secs(i * 60), pe, on));
        if i % skip != 0 {
            events.push(BinaryEvent::new(
                Timestamp::from_secs(i * 60 + 15),
                lamp,
                on,
            ));
        }
    }
    CausalIot::builder()
        .tau(2)
        .build()
        .fit_binary(&reg, &events)
        .map_err(|e| e.to_string())
}

fn child_fit(job: &FitJob) -> Result<FittedModel, String> {
    let seed = job
        .payload
        .strip_prefix("seed=")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("bad payload `{}`", job.payload))?;
    fit_for_seed(seed)
}

/// The runtime stream a spot-checked home is scored on (same for the
/// served and the direct monitor, distinct per home).
fn spot_stream(seed: u64, [pe, lamp]: [iot_model::DeviceId; 2]) -> Vec<BinaryEvent> {
    (0..SPOT_EVENTS as u64)
        .map(|i| {
            let t = 1_000_000 + seed * 1_000_000 + i * 30;
            let device = if (i + seed).is_multiple_of(3) {
                pe
            } else {
                lamp
            };
            BinaryEvent::new(
                Timestamp::from_secs(t),
                device,
                (i / 2 + seed).is_multiple_of(2),
            )
        })
        .collect()
}

struct Args {
    homes: usize,
    children: usize,
    store: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        homes: DEFAULT_HOMES,
        children: DEFAULT_CHILDREN,
        store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--homes" => args.homes = value("--homes").parse().expect("--homes: integer"),
            "--children" => {
                args.children = value("--children").parse().expect("--children: integer");
            }
            "--store" => args.store = Some(PathBuf::from(value("--store"))),
            other => panic!(
                "unknown flag {other} (usage: exp_fleet [--homes N] [--children K] [--store PATH])"
            ),
        }
    }
    args
}

fn main() {
    // Sweep-child entry: the orchestrator re-executed this binary.
    if let Some(root) = child_store_root(std::env::args()) {
        let store = ModelStore::open(root).expect("child opens store");
        run_child(&store, child_fit).expect("child protocol");
        return;
    }

    let args = parse_args();
    let (homes, children) = (args.homes, args.children);
    println!(
        "== Fleet fit -> store -> bulk-load -> serve ({homes} homes, {children} children) ==\n"
    );

    let (keep_store, root) = match &args.store {
        Some(path) => (true, path.clone()),
        None => (
            false,
            std::env::temp_dir().join(format!("causaliot-exp-fleet-{}", std::process::id())),
        ),
    };
    let _ = std::fs::remove_dir_all(&root);
    let store = ModelStore::open(&root).expect("open model store");
    let names: Vec<String> = (0..homes).map(|h| format!("home-{h:05}")).collect();

    // 1. Process-sharded sweep: fit every home into the store.
    let jobs: Vec<FitJob> = names
        .iter()
        .enumerate()
        .map(|(h, name)| FitJob::new(name.clone(), format!("seed={h}")))
        .collect();
    let mut config = SweepConfig::current_exe().expect("current exe");
    config.workers = children;
    let sweep_start = Instant::now();
    let report = run_sweep(&store, jobs, &config).expect("sweep runs");
    let sweep_wall_s = sweep_start.elapsed().as_secs_f64();
    assert_eq!(report.committed.len(), homes, "every home must commit");
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let fits_per_sec = homes as f64 / sweep_wall_s;
    println!("sweep: {homes} fits in {sweep_wall_s:.2}s  ({fits_per_sec:.0} fits/s across {children} children)");

    // 2. Store integrity + dedup factor.
    let fsck = store.fsck().expect("fsck walks");
    assert!(fsck.is_clean(), "store must be clean: {:?}", fsck.issues);
    let distinct_blobs = fsck.blobs_checked;
    println!("store: {distinct_blobs} distinct blobs for {homes} homes (content-addressed dedup)");

    // 3. Bulk-load the whole fleet into a serving hub.
    let telemetry = TelemetryHandle::with_noop_sink();
    let mut hub = Hub::with_telemetry(
        HubConfig {
            workers: 4,
            queue_capacity: 4_096,
            record_verdicts: true,
            ..HubConfig::default()
        },
        &telemetry,
    );
    let load_start = Instant::now();
    let ids = hub.bulk_load(&store, &names).expect("bulk_load");
    let bulk_load_wall_s = load_start.elapsed().as_secs_f64();
    assert_eq!(ids.len(), homes);
    println!("bulk_load: {homes} homes in {bulk_load_wall_s:.2}s");

    // 4. Serve a runtime stream on a spot-check sample of homes.
    let (_, devices) = registry();
    let stride = (homes / SPOT_HOMES).max(1);
    let sample: Vec<usize> = (0..homes).step_by(stride).collect();
    let serve_start = Instant::now();
    for &h in &sample {
        for event in spot_stream(h as u64, devices) {
            loop {
                match hub.submit(ids[h], event) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
    }
    hub.drain();
    let serve_wall_s = serve_start.elapsed().as_secs_f64();
    let serve_events = sample.len() * SPOT_EVENTS;
    let serve_eps = serve_events as f64 / serve_wall_s;
    println!(
        "serve: {serve_events} events across {} sampled homes  ({serve_eps:.0} events/s)",
        sample.len()
    );

    // 5. Bulk-swap the live fleet to a new lineage generation.
    for name in &names {
        let (_, hash) = store.resolve(name).expect("resolve").expect("head");
        store.commit(name, hash).expect("commit generation 2");
    }
    let swap_start = Instant::now();
    let update = ModelUpdate::BulkSwap {
        store: &store,
        homes: &ids,
    };
    let UpdateOutcome::BulkSwapped(swapped) = hub.apply(update).expect("bulk swap") else {
        unreachable!("a bulk swap reports BulkSwapped");
    };
    hub.drain();
    let bulk_swap_wall_s = swap_start.elapsed().as_secs_f64();
    assert_eq!(swapped.len(), homes);
    assert!(swapped.iter().all(|(_, generation)| *generation == 2));
    let swaps_per_sec = homes as f64 / bulk_swap_wall_s;
    println!("bulk_swap: {homes} homes to generation 2 in {bulk_swap_wall_s:.2}s  ({swaps_per_sec:.0} swaps/s)");

    // 6. Verdict spot-check: served verdicts (recorded since
    //    registration) must match a direct monitor on the home's stored
    //    model, event for event.
    let reports = hub.shutdown();
    let mut checked = 0usize;
    for &h in &sample {
        let (_, hash) = store.resolve(&names[h]).expect("resolve").expect("head");
        let model = store.get(hash).expect("stored model loads");
        let mut monitor: OwnedMonitor = model.into_monitor();
        let expected: Vec<Verdict> = spot_stream(h as u64, devices)
            .into_iter()
            .map(|e| monitor.observe(e))
            .collect();
        assert_eq!(
            reports[h].verdicts, expected,
            "home {h}: served verdicts diverged from the stored model"
        );
        checked += 1;
    }
    println!("spot-check: {checked} homes verdict-identical to their stored models");

    let mut obj = JsonValue::object();
    obj.push("kind", "run_report")
        .push("binary", "exp_fleet")
        .push("homes", homes as f64)
        .push("children", children as f64)
        .push("distinct_blobs", distinct_blobs as f64)
        .push("child_restarts", report.child_restarts as f64)
        .push("sweep_wall_s", sweep_wall_s)
        .push("fits_per_sec", fits_per_sec)
        .push("bulk_load_wall_s", bulk_load_wall_s)
        .push("serve_events", serve_events as f64)
        .push("serve_eps", serve_eps)
        .push("bulk_swap_wall_s", bulk_swap_wall_s)
        .push("swaps_per_sec", swaps_per_sec)
        .push("spot_checked_homes", checked as f64);
    telemetry_out::write_report("exp_fleet.json", &obj.render());

    if !keep_store {
        let _ = std::fs::remove_dir_all(&root);
    } else {
        println!("store kept at {}", root.display());
    }
}
