//! Isolated layer replays: after a traced run, each layer that runs
//! inside the hub worker (or is not on the workload's timed path at all)
//! is priced by feeding the run's own inputs through its public API,
//! one layer at a time, on the benchmark thread.

use std::fs;
use std::path::{Path, PathBuf};

use causaliot_core::preprocess::{FittedPreprocessor, PreprocessConfig};
use causaliot_core::{DriftConfig, FittedModel, IngestGuard, IngestPolicy, Verdict};
use iot_fleet::ModelStore;
use iot_model::{BinaryEvent, DeviceEvent, DeviceRegistry, EventLog};
use iot_serve::wal::{self, SegmentWriter};
use iot_serve::{AdaptationPolicy, FlightEntry};
use iot_telemetry::{FlightRecorder, TelemetryHandle};

use crate::harness::{ns_of, Metrics};
use crate::inputs::Gateway;

/// Flight-recorder ring size armed on the hub.
pub const FLIGHT_CAPACITY: usize = 256;

/// An armed-but-quiet adaptation policy: the drift detector runs on
/// every scored event, but its triggers sit at the top of their valid
/// ranges so replaying a home's own held-out data never starts a refit.
pub fn quiet_adaptation() -> AdaptationPolicy {
    AdaptationPolicy {
        drift: quiet_drift(),
        ..AdaptationPolicy::default()
    }
}

fn quiet_drift() -> DriftConfig {
    DriftConfig {
        score_shift: 0.999,
        loglik_decay: 1e6,
        ..DriftConfig::default()
    }
}

/// One home's inputs for the isolated replays.
pub struct HomeInput<'a> {
    pub model: &'a FittedModel,
    /// Raw readings, in arrival order.
    pub raw: Vec<DeviceEvent>,
    /// The binary events the hub scored for them, in order.
    pub scored: Vec<BinaryEvent>,
}

/// How the hub's worker scores a home's events on this workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// `Hub::submit_batch` jobs scored by the batched stats-only path and
    /// logged to the WAL `n` events at a time.
    Batched(usize),
    /// Per-event jobs through the ingest guard: one observe and one WAL
    /// append per event.
    PerEvent,
}

/// Serving-side layer prices (ns per event unless named otherwise).
#[derive(Default)]
pub struct ServingLayers {
    pub monitor_ns: f64,
    pub ingest_ns: f64,
    pub drift_ns: f64,
    pub flight_ns: f64,
    pub wal_append_ns: f64,
}

/// Replays `homes` through every serving-side layer in isolation and
/// records their per-layer metrics; returns the per-event prices the
/// hub-worker residual is computed from. `segments` are WAL segments to
/// price recovery replay on (the run's own, when it wrote any).
pub fn serving(
    homes: &[HomeInput<'_>],
    scoring: Scoring,
    segments: &[PathBuf],
    dir: &Path,
    out: &mut Metrics,
) -> ServingLayers {
    let mut raw = 0u64;
    let mut kept = 0u64;
    let mut preprocess_ns = 0.0;
    let mut scored = 0u64;
    let mut layers = ServingLayers::default();
    let mut snapshot_ns = 0.0;
    let mut snapshot_bytes = 0usize;
    let mut restore_ns = 0.0;
    let mut written: Vec<PathBuf> = Vec::new();
    let mut wal_bytes = 0u64;
    let mut sync_ns = 0.0;
    let mut syncs = 0u64;

    for (h, home) in homes.iter().enumerate() {
        // Preprocessing: the producer's per-reading gateway step.
        let mut gateway = Gateway::new(home.model);
        let (survivors, ns) = ns_of(|| {
            home.raw
                .iter()
                .filter(|event| gateway.offer(event).is_some())
                .count()
        });
        raw += home.raw.len() as u64;
        kept += survivors as u64;
        preprocess_ns += ns;

        let events = &home.scored;
        scored += events.len() as u64;

        // Ingest guard: every event offered to a default-policy guard.
        let mut guard =
            IngestGuard::<BinaryEvent>::new(IngestPolicy::default(), home.model.num_devices());
        let (_, ns) = ns_of(|| {
            let mut released = 0usize;
            for &event in events {
                released += guard.offer(event).ready.len();
            }
            std::hint::black_box(released)
        });
        layers.ingest_ns += ns;

        // Monitor: the path the hub's worker takes for this workload.
        let mut monitor = home.model.clone().into_monitor();
        let ns = match scoring {
            Scoring::Batched(n) => {
                let mut count = 0usize;
                ns_of(|| {
                    for batch in events.chunks(n) {
                        monitor.observe_batch_stats_only(batch, &mut count);
                    }
                })
                .1
            }
            Scoring::PerEvent => {
                ns_of(|| {
                    for &event in events {
                        std::hint::black_box(monitor.observe(event));
                    }
                })
                .1
            }
        };
        layers.monitor_ns += ns;

        // Verdicts for the drift detector and flight recorder (untimed).
        let mut scorer = home.model.clone().into_monitor();
        let verdicts: Vec<Verdict> = events.iter().map(|&e| scorer.observe(e)).collect();

        let mut detector = home
            .model
            .drift_detector(quiet_drift())
            .expect("the quiet drift config is valid");
        let (_, ns) = ns_of(|| {
            let mut reports = 0usize;
            for (event, verdict) in events.iter().zip(&verdicts) {
                reports += usize::from(detector.record(event.device, verdict.score).is_some());
            }
            std::hint::black_box(reports)
        });
        layers.drift_ns += ns;

        let mut ring = FlightRecorder::<FlightEntry>::new(FLIGHT_CAPACITY);
        let (_, ns) = ns_of(|| {
            for (seq, (event, verdict)) in events.iter().zip(&verdicts).enumerate() {
                ring.record(FlightEntry {
                    seq: seq as u64,
                    event: *event,
                    score: verdict.score,
                    verdict: Some(verdict.clone()),
                    panicked: false,
                    update: None,
                });
            }
        });
        std::hint::black_box(ring.recorded());
        layers.flight_ns += ns;

        // WAL append at the hub's group sizes, then one fsync of the
        // home's segment.
        let path = dir.join(format!("home-{h}.log"));
        let mut writer = SegmentWriter::create(&path).expect("isolated WAL segment");
        let group = match scoring {
            Scoring::Batched(n) => n,
            Scoring::PerEvent => 1,
        };
        let (_, ns) = ns_of(|| {
            for chunk in events.chunks(group) {
                writer.append_events(chunk).expect("isolated WAL append");
            }
        });
        layers.wal_append_ns += ns;
        let (_, ns) = ns_of(|| writer.sync().expect("isolated WAL fsync"));
        sync_ns += ns;
        syncs += 1;
        wal_bytes += fs::metadata(&path).map_or(0, |m| m.len());
        written.push(path);

        // Snapshot export and restore of the replayed monitor's state.
        let (doc, ns) = ns_of(|| monitor.export_runtime_state());
        snapshot_ns += ns;
        snapshot_bytes += doc.len();
        let mut fresh = home.model.clone().into_monitor();
        let (restored, ns) = ns_of(|| fresh.restore_runtime_state(&doc));
        restored.expect("an exported runtime state restores");
        restore_ns += ns;
    }

    // Recovery replay: decode and verify every record of the segments.
    let segments: &[PathBuf] = if segments.is_empty() {
        &written
    } else {
        segments
    };
    let (replayed, ns) = ns_of(|| {
        segments
            .iter()
            .map(|p| {
                wal::replay_segment(p)
                    .expect("segment readable")
                    .events
                    .len()
            })
            .sum::<usize>()
    });

    let per = |ns: f64| ns / scored.max(1) as f64;
    let homes_n = homes.len().max(1) as f64;
    let serving = ServingLayers {
        monitor_ns: per(layers.monitor_ns),
        ingest_ns: per(layers.ingest_ns),
        drift_ns: per(layers.drift_ns),
        flight_ns: per(layers.flight_ns),
        wal_append_ns: per(layers.wal_append_ns),
    };
    out.put(
        "preprocess.ns_per_raw",
        preprocess_ns / raw.max(1) as f64,
        "ns",
    );
    out.put(
        "preprocess.kept_frac",
        kept as f64 / raw.max(1) as f64,
        "frac",
    );
    out.put("monitor.ns_per_event", serving.monitor_ns, "ns");
    out.put("ingest.ns_per_event", serving.ingest_ns, "ns");
    out.put("drift.ns_per_event", serving.drift_ns, "ns");
    out.put("flight.ns_per_event", serving.flight_ns, "ns");
    out.put("wal.append_ns_per_event", serving.wal_append_ns, "ns");
    out.put("wal.sync_us", sync_ns / 1e3 / syncs.max(1) as f64, "us");
    out.put(
        "wal.bytes_per_event",
        wal_bytes as f64 / scored.max(1) as f64,
        "B",
    );
    out.put("snapshot.export_us", snapshot_ns / 1e3 / homes_n, "us");
    out.put("snapshot.bytes", snapshot_bytes as f64 / homes_n, "B");
    out.put(
        "recover.replay_ns_per_event",
        ns / replayed.max(1) as f64,
        "ns",
    );
    out.put("recover.restore_us", restore_ns / 1e3 / homes_n, "us");
    for path in written {
        let _ = fs::remove_file(path);
    }
    serving
}

/// Times `f` over `reps` calls and returns the mean in milliseconds.
fn mean_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let (_, ns) = ns_of(|| (0..reps).for_each(|_| f()));
    ns / 1e6 / reps as f64
}

/// Fit-side layers that the serving workloads only touch in set-up:
/// the preprocessor fit, the checkpoint codec and the model store, each
/// priced on the workload's own models and training logs.
pub fn fit_side(
    models: &[(&FittedModel, &EventLog)],
    registry: &DeviceRegistry,
    store_dir: &Path,
    out: &mut Metrics,
) {
    const REPS: usize = 10;
    let n = models.len() as f64;
    let mut fit_ms = 0.0;
    let mut save_ms = 0.0;
    let mut load_ms = 0.0;
    let mut bytes = 0usize;
    let mut put_ms = 0.0;
    let mut get_ms = 0.0;
    let store = ModelStore::open_with_telemetry(store_dir, &TelemetryHandle::disabled())
        .expect("isolated model store opens");
    let disabled = TelemetryHandle::disabled();
    for (i, (model, train)) in models.iter().enumerate() {
        fit_ms += mean_ms(1, || {
            std::hint::black_box(
                FittedPreprocessor::fit(registry, train, &PreprocessConfig::default())
                    .expect("training logs are non-empty"),
            );
        });
        let text = model.save();
        bytes += text.len();
        save_ms += mean_ms(REPS, || {
            std::hint::black_box(model.save());
        });
        load_ms += mean_ms(REPS, || {
            std::hint::black_box(
                FittedModel::load_with_telemetry(&text, &disabled).expect("saved models load"),
            );
        });
        let home = format!("home-{i}");
        let mut hash = None;
        put_ms += mean_ms(1, || {
            let h = store.put(model).expect("store put");
            store.commit(&home, h).expect("store commit");
            hash = Some(h);
        });
        let hash = hash.expect("put ran");
        get_ms += mean_ms(REPS, || {
            std::hint::black_box(store.get(hash).expect("store get"));
        });
    }
    out.put("preprocess.fit_ms", fit_ms / n, "ms");
    out.put("checkpoint.save_ms", save_ms / n, "ms");
    out.put("checkpoint.load_ms", load_ms / n, "ms");
    out.put("checkpoint.bytes", bytes as f64 / n, "B");
    out.put("store.put_ms", put_ms / n, "ms");
    out.put("store.get_ms", get_ms / n, "ms");
}
