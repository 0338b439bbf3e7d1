//! The sharded, supervised multi-home serving hub.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use causaliot_core::{
    DeadLetterCounts, DriftReport, FittedModel, IngestGuard, ObserveCtx, OwnedMonitor, Verdict,
};
use iot_fleet::{FleetError, Generation, ModelStore};
use iot_model::BinaryEvent;
use iot_telemetry::{
    Buckets, Counter, Gauge, Histogram, MetricsServer, MonitorReport, TelemetryHandle,
};

use crate::config::{DurabilityConfig, HubConfig, SubmitPolicy};
use crate::durable::{
    home_dir, list_home_dirs, list_segments, parse_snapshot, DurableHome, HomeRecovery,
    RecoveryReport, ResumeState, META_FILE, MODEL_FILE, SNAP_FILE,
};
use crate::error::{QuarantinedError, RecoveryError, ShutdownTimeout};
use crate::fault::{FaultHook, HomeHealth};
use crate::refit::{spawn_refitter, RefitRequest, Refitter, RefitterGuard};
use crate::stats::{FlightRecording, HomeStats, HomeStatsCell, HubStats, LatencyStats, ShardStats};
use crate::supervisor::{
    flight_recording, spawn_worker, DriftState, Job, ShardCore, SupervisedHome, Supervisor,
    SupervisorGuard, SupervisorShared, WorkerContext,
};
use crate::update::{ModelUpdate, UpdateError, UpdateOutcome, UpdateReason};
use crate::util::lock;
use crate::wal::{replay_segment, segment_file_name, SegmentOutcome, SegmentWriter};
use crate::SubmitError;

/// How long one [`crate::SubmitPolicy::Block`] wait-for-space pause lasts.
const BLOCK_POLL: Duration = Duration::from_micros(50);

/// Largest number of events [`Hub::submit_batch`] packs into one queue
/// job. Bounds a single job's worker occupancy (and the granularity of
/// partial acceptance) without forcing callers to pre-chunk.
pub const SUBMIT_CHUNK: usize = 1024;

/// How much of a [`Hub::submit_batch`] call was actually enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Leading events accepted onto the home's shard queue (`0..accepted`
    /// of the submitted slice).
    pub accepted: usize,
    /// Index of the first rejected event when backpressure cut the batch
    /// short — always equal to `accepted`, on a [`SUBMIT_CHUNK`]
    /// boundary; `None` when the whole batch was accepted.
    pub rejected_at: Option<usize>,
}

impl BatchOutcome {
    /// Whether every submitted event was accepted.
    pub fn is_complete(&self) -> bool {
        self.rejected_at.is_none()
    }
}

/// Identifies a home registered with a [`Hub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HomeId(pub(crate) usize);

impl HomeId {
    /// The home's dense registration index (`0` for the first home).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds the id with the given registration index — the inverse of
    /// [`HomeId::index`], for callers that persist ids outside the hub.
    /// An index never registered is rejected at submission time with
    /// [`SubmitError::UnknownHome`].
    pub fn from_index(index: usize) -> Self {
        HomeId(index)
    }
}

impl fmt::Display for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// End-of-session results for one home, returned by [`Hub::shutdown`].
///
/// Non-exhaustive: future sessions may add fields (e.g. batch-depth
/// histograms) without a breaking change, so build instances by reading
/// them off [`Hub::shutdown`] rather than literally.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HomeReport {
    /// The home's id.
    pub id: HomeId,
    /// The name it was registered under.
    pub name: String,
    /// Every verdict in submission order (empty when
    /// [`HubConfig::record_verdicts`] is off). Spans all models the home
    /// was served under: a [`ModelUpdate::Swap`] does not reset it.
    pub verdicts: Vec<Verdict>,
    /// The aggregated monitoring session report of the home's *current*
    /// monitor (the one installed by the latest swap/restore, or
    /// registration).
    pub monitor: MonitorReport,
    /// Number of model swaps processed for this home
    /// (restores are counted separately, in [`HomeReport::restores`]).
    pub swaps: u64,
    /// Session reports of monitors retired by swaps and restores, in
    /// order (empty when the home was never swapped or restored).
    pub retired: Vec<MonitorReport>,
    /// Every panic payload captured from this home's monitors, oldest
    /// first (empty for a home that never panicked).
    pub panics: Vec<String>,
    /// Restores processed for this home ([`ModelUpdate::Restore`] and the
    /// [`crate::RestorePolicy`] combined).
    pub restores: u64,
    /// Whether the home ended the session quarantined (its last panic was
    /// never restored).
    pub quarantined: bool,
    /// Events dropped because they were already queued when the home's
    /// monitor panicked (they reached a poisoned monitor and were never
    /// scored).
    pub dropped_quarantined: u64,
    /// Events the home's ingestion guard refused to score, in total
    /// (always `0` when [`HubConfig::ingest`] is off).
    pub dead_letters: u64,
    /// The same dead letters broken out by cause.
    pub dead_letter_causes: DeadLetterCounts,
    /// Devices the liveness clock flagged stale at shutdown (`0` when
    /// [`HubConfig::ingest`] is off or liveness detection is disabled).
    pub stale_devices: u64,
    /// The home's end-of-session flight recording — the last N scored
    /// events still in the ring at shutdown (`None` when
    /// [`HubConfig::flight_recorder`] is off).
    pub flight: Option<FlightRecording>,
    /// One frozen recording per quarantine, captured at the instant of
    /// each panic (the panicking event is each recording's last entry).
    /// Empty when the home never panicked or recording is off.
    pub quarantine_flights: Vec<FlightRecording>,
    /// Every model update processed for this home, in order — the typed
    /// audit trail of [`crate::UpdateReason`]s behind each swap, restore,
    /// bulk swap, drift refit, and rollback.
    pub updates: Vec<UpdateReason>,
    /// Every drift report the home's detector emitted, in order (empty
    /// when the hub runs without an [`crate::AdaptationPolicy`]).
    pub drift_reports: Vec<DriftReport>,
}

struct Shard {
    sender: SyncSender<Job>,
    /// Jobs currently queued (mirrored into the telemetry gauge).
    depth: Arc<AtomicUsize>,
    depth_gauge: Gauge,
}

struct HomeEntry {
    shard: usize,
    name: String,
    health: Arc<HomeHealth>,
    stats: Arc<HomeStatsCell>,
}

/// A concurrent, fault-tolerant serving hub for a fleet of smart homes.
///
/// See the crate docs for the full semantics. Registration takes `&mut
/// self`; submission takes `&self` and is safe from many producer threads
/// at once (per-home ordering then follows each producer's own submission
/// order).
///
/// # Fault tolerance
///
/// * A panic unwinding out of one home's monitor is caught at the worker;
///   the home is **quarantined** (submissions return
///   [`SubmitError::Quarantined`], queued events for it are dropped) and
///   every sibling home — on the same shard or elsewhere — continues with
///   bit-identical verdicts.
/// * A quarantined home re-enters service through a
///   [`ModelUpdate::Restore`], a [`ModelUpdate::Swap`], or the hub's
///   automatic [`crate::RestorePolicy`].
/// * A worker *thread* death is detected by the hub's supervisor, which
///   respawns the worker onto the same queue and homes: nothing is
///   dropped or reordered, and the `hub.shard.<i>.restarts` counter
///   ticks.
pub struct Hub {
    // Field order is drop order: the supervisor guard must drop (stop +
    // join the supervisor, releasing its sender clones) before the shard
    // senders, or a plain `drop(hub)` would never disconnect the workers.
    // The refitter guard follows for the same reason — it also holds
    // sender clones.
    supervisor: SupervisorGuard,
    /// The adaptation loop's background refit thread (`None` without an
    /// [`crate::AdaptationPolicy`]).
    refitter: Option<RefitterGuard>,
    config: HubConfig,
    shards: Vec<Shard>,
    cores: Vec<Arc<ShardCore>>,
    shared: Arc<SupervisorShared>,
    homes: Vec<HomeEntry>,
    submitted: Counter,
    swaps: Counter,
    bulk_swaps: Counter,
    retries: Counter,
    deadline_exceeded: Counter,
    /// Always-on submission count backing [`Hub::stats`] — unlike the
    /// `hub.submitted` counter it keeps counting with telemetry disabled.
    events_submitted: AtomicU64,
    /// Handle to the `hub.e2e_latency_us` histogram, for
    /// [`Hub::stats`]'s latency quantiles.
    latency_us: Histogram,
    /// Kept so per-home ingestion guards built at registration time can
    /// attach their `ingest.*` instruments.
    telemetry: TelemetryHandle,
}

impl fmt::Debug for Hub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hub")
            .field("config", &self.config)
            .field("homes", &self.homes.len())
            .field("workers", &self.shards.len())
            .finish()
    }
}

impl Hub {
    /// Starts a hub with the given configuration, using the
    /// `CAUSALIOT_TELEMETRY`-derived telemetry handle.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`crate::HubConfigBuilder::try_build`]
    /// would reject — impossible for builder-produced configs, and the
    /// two historical sizing fields (`workers`, `queue_capacity`) are
    /// clamped rather than rejected for backward compatibility.
    pub fn new(config: HubConfig) -> Self {
        Self::with_telemetry(config, &TelemetryHandle::from_env())
    }

    /// Starts a hub reporting to an explicit telemetry handle.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Hub::new`].
    pub fn with_telemetry(config: HubConfig, telemetry: &TelemetryHandle) -> Self {
        Self::build(config, telemetry, None)
    }

    /// Starts a hub with a fault-injection hook attached to every worker
    /// — the chaos-testing entry point (see [`FaultHook`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Hub::new`].
    pub fn with_fault_hook(
        config: HubConfig,
        telemetry: &TelemetryHandle,
        hook: Arc<dyn FaultHook>,
    ) -> Self {
        Self::build(config, telemetry, Some(hook))
    }

    fn build(
        config: HubConfig,
        telemetry: &TelemetryHandle,
        hook: Option<Arc<dyn FaultHook>>,
    ) -> Self {
        let config = HubConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        if let Err(e) = config.check() {
            panic!("Hub: invalid HubConfig: {e}");
        }
        let latency_us =
            telemetry.histogram("hub.e2e_latency_us", Buckets::exponential(1.0, 2.0, 24));
        let events_total = telemetry.counter("hub.events");
        let quarantines = telemetry.counter("hub.quarantines");
        let restores = telemetry.counter("hub.restores");
        let dropped_quarantined = telemetry.counter("hub.quarantine_dropped");
        let drift_reports = telemetry.counter("hub.drift.reports");
        let drift_refit_requests = telemetry.counter("hub.drift.refit_requests");
        let drift_dropped = telemetry.counter("hub.drift.dropped");
        let wal_appended = telemetry.counter("hub.wal.appended");
        let wal_fsyncs = telemetry.counter("hub.wal.fsyncs");
        let wal_rotations = telemetry.counter("hub.wal.rotations");
        let wal_errors = telemetry.counter("hub.wal.errors");
        let snapshots_written = telemetry.counter("hub.snapshot.written");
        // The refitter's bounded request queue exists exactly when the
        // adaptation policy does.
        let (refit_tx, refit_rx) = match &config.adaptation {
            Some(policy) => {
                let (tx, rx) = sync_channel::<RefitRequest>(policy.queue_capacity);
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let mut shards = Vec::with_capacity(config.workers);
        let mut cores = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        let mut senders = Vec::with_capacity(config.workers);
        let mut restarts = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (sender, receiver) = sync_channel::<Job>(config.queue_capacity);
            let depth = Arc::new(AtomicUsize::new(0));
            let context = WorkerContext {
                shard: i,
                depth: Arc::clone(&depth),
                depth_gauge: telemetry.gauge(&format!("hub.shard.{i}.queue_depth")),
                events: telemetry.counter(&format!("hub.shard.{i}.events")),
                events_total: events_total.clone(),
                swaps: telemetry.counter(&format!("hub.shard.{i}.swaps")),
                quarantines: quarantines.clone(),
                restores: restores.clone(),
                dropped_quarantined: dropped_quarantined.clone(),
                latency_us: latency_us.clone(),
                record_verdicts: config.record_verdicts,
                flight_recorder: config.flight_recorder,
                adaptation: config.adaptation.clone(),
                refit_tx: refit_tx.clone(),
                drift_reports: drift_reports.clone(),
                drift_refit_requests: drift_refit_requests.clone(),
                drift_dropped: drift_dropped.clone(),
                wal_appended: wal_appended.clone(),
                wal_fsyncs: wal_fsyncs.clone(),
                wal_rotations: wal_rotations.clone(),
                wal_errors: wal_errors.clone(),
                snapshots_written: snapshots_written.clone(),
                telemetry: telemetry.clone(),
            };
            let core = Arc::new(ShardCore {
                receiver: Mutex::new(receiver),
                homes: Mutex::new(BTreeMap::new()),
                jobs_done: std::sync::atomic::AtomicU64::new(0),
                context,
                hook: hook.clone(),
            });
            handles.push(Some(spawn_worker(Arc::clone(&core))));
            cores.push(core);
            senders.push(sender.clone());
            restarts.push(telemetry.counter(&format!("hub.shard.{i}.restarts")));
            shards.push(Shard {
                sender,
                depth,
                depth_gauge: telemetry.gauge(&format!("hub.shard.{i}.queue_depth")),
            });
        }
        let shared = Arc::new(SupervisorShared {
            stop: AtomicBool::new(false),
            workers: Mutex::new(handles),
            homes: Mutex::new(Vec::new()),
        });
        let supervisor = Supervisor {
            shared: Arc::clone(&shared),
            cores: cores.clone(),
            senders,
            restarts,
            restore_policy: config.restore_policy.clone(),
            telemetry: telemetry.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("iot-serve-supervisor".to_string())
            .spawn(move || supervisor.run())
            .expect("spawn hub supervisor");
        let refitter = match (config.adaptation.clone(), refit_rx) {
            (Some(policy), Some(receiver)) => Some(spawn_refitter(Refitter {
                receiver,
                stop: Arc::new(AtomicBool::new(false)),
                policy,
                senders: shards.iter().map(|s| s.sender.clone()).collect(),
                depths: shards.iter().map(|s| Arc::clone(&s.depth)).collect(),
                refits: telemetry.counter("hub.refits"),
                refit_failures: telemetry.counter("hub.refit_failures"),
                telemetry: telemetry.clone(),
                hook,
            })),
            _ => None,
        };
        Hub {
            supervisor: SupervisorGuard {
                shared: Arc::clone(&shared),
                handle: Some(handle),
            },
            refitter,
            config,
            shards,
            cores,
            shared,
            homes: Vec::new(),
            submitted: telemetry.counter("hub.submitted"),
            swaps: telemetry.counter("hub.swaps"),
            bulk_swaps: telemetry.counter("hub.bulk_swaps"),
            retries: telemetry.counter("hub.retries"),
            deadline_exceeded: telemetry.counter("hub.deadline_exceeded"),
            events_submitted: AtomicU64::new(0),
            latency_us,
            telemetry: telemetry.clone(),
        }
    }

    /// The configuration the hub was started with (after clamping).
    pub fn config(&self) -> &HubConfig {
        &self.config
    }

    /// Number of registered homes.
    pub fn num_homes(&self) -> usize {
        self.homes.len()
    }

    /// Number of worker threads (= shards).
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Jobs currently queued on `shard` (an instantaneous reading).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_workers()`.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.shards[shard].depth.load(Ordering::Relaxed)
    }

    /// A non-blocking point-in-time sample of the hub's live state:
    /// per-shard queue depths and job counts, per-home event / verdict /
    /// dead-letter / quarantine counters, and end-to-end latency
    /// quantiles.
    ///
    /// Reads only always-on relaxed atomics — no shard queue is touched
    /// and no worker lock is taken, so this never blocks scoring and
    /// scoring never blocks it. Counters are sampled independently;
    /// cross-counter invariants (submitted = scored + dead-lettered +
    /// dropped + parked in reordering buffers) hold exactly only on a
    /// quiescent hub, e.g. right after
    /// [`Hub::drain`]. Latency quantiles come from the telemetry
    /// histogram and are all zero when the hub runs with telemetry
    /// disabled; every other field works regardless.
    pub fn stats(&self) -> HubStats {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                shard: i,
                queue_depth: shard.depth.load(Ordering::Relaxed),
                jobs_done: self.cores[i].jobs_done.load(Ordering::Relaxed),
            })
            .collect();
        let homes = self
            .homes
            .iter()
            .enumerate()
            .map(|(id, entry)| HomeStats {
                id: HomeId(id),
                name: entry.name.clone(),
                shard: entry.shard,
                events_scored: entry.stats.events_scored(),
                verdicts_recorded: entry.stats.verdicts_recorded(),
                dead_letters: entry.stats.dead_letters(),
                dropped_quarantined: entry.stats.dropped_quarantined(),
                quarantined: entry.health.is_quarantined(),
                restores: entry.health.restores(),
            })
            .collect();
        HubStats {
            events_submitted: self.events_submitted.load(Ordering::Relaxed),
            shards,
            homes,
            latency: LatencyStats::from_snapshot(&self.latency_us.snapshot()),
        }
    }

    /// Starts a background HTTP endpoint serving the hub's telemetry
    /// registry in Prometheus text format at `GET /metrics` — point a
    /// scraper (or `curl`) at it. The server runs on its own thread until
    /// the returned [`MetricsServer`] is stopped or dropped; bind to port
    /// 0 to let the OS pick (see [`MetricsServer::local_addr`]).
    ///
    /// With telemetry disabled the endpoint stays up but serves an empty
    /// registry.
    ///
    /// # Errors
    ///
    /// Propagates the listener's bind error.
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::serve(addr, self.telemetry.clone())
    }

    /// Dumps `home`'s flight recorder: the last
    /// [`HubConfig::flight_recorder`] events it scored, oldest first.
    ///
    /// The dump rides the home's own shard queue like any other job, so
    /// it lands at an event boundary — a consistent cut, never a
    /// half-scored event — after everything queued before this call.
    /// Quarantined homes can be dumped too (the recording ends with the
    /// panicking entry). Returns `None` when recording is disabled.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownHome`] for an unregistered id,
    /// [`SubmitError::Shutdown`] when the workers are gone.
    pub fn dump_home(&self, home: HomeId) -> Result<Option<FlightRecording>, SubmitError> {
        let entry = self.entry(home)?;
        let (ack, recording) = sync_channel(1);
        self.enqueue_blocking(entry.shard, Job::Dump { home: home.0, ack });
        recording.recv().map_err(|_| SubmitError::Shutdown)
    }

    /// Whether `home` is currently quarantined after a monitor panic.
    ///
    /// Returns `false` for unknown homes too; submission paths report
    /// those as [`SubmitError::UnknownHome`].
    pub fn is_quarantined(&self, home: HomeId) -> bool {
        self.homes
            .get(home.0)
            .is_some_and(|e| e.health.is_quarantined())
    }

    /// Registers a home: the model handle is cloned (an `Arc` bump) and a
    /// dedicated [`causaliot_core::OwnedMonitor`] is created on the
    /// home's shard, resuming from the model's end-of-training state.
    ///
    /// Homes are assigned to shards round-robin by registration order.
    /// Registration may block briefly if the shard's queue is full.
    ///
    /// With a [`crate::DurabilityConfig`] armed, registration also
    /// creates the home's durable directory (`home-<id>/` under the
    /// configured root) with its name, model checkpoint, and WAL segment
    /// 0. A durable I/O failure here disarms durability for this home
    /// (counted in `hub.wal.errors`) — serving always starts.
    pub fn register(&mut self, name: &str, model: &FittedModel) -> HomeId {
        let monitor = Box::new(model.clone().into_monitor());
        let resume = self.fresh_resume(self.homes.len(), name, model);
        self.register_inner(name, model, monitor, resume)
    }

    /// Creates the on-disk durable state for a freshly registered home,
    /// when the hub's durability config is armed.
    fn fresh_resume(&self, id: usize, name: &str, model: &FittedModel) -> Option<Box<ResumeState>> {
        let d = self.config.durability.as_ref().filter(|d| d.is_armed())?;
        let build = || -> io::Result<DurableHome> {
            let durable =
                DurableHome::create(home_dir(&d.dir, id), name, d.policy, d.snapshot_every)?;
            model
                .save_to_path(durable.model_path())
                .map_err(io::Error::other)?;
            Ok(durable)
        };
        match build() {
            Ok(durable) => Some(Box::new(ResumeState {
                seq: 0,
                verdicts: Vec::new(),
                drift: None,
                durable,
            })),
            Err(_) => {
                self.telemetry.counter("hub.wal.errors").inc();
                None
            }
        }
    }

    fn register_inner(
        &mut self,
        name: &str,
        model: &FittedModel,
        monitor: Box<OwnedMonitor>,
        resume: Option<Box<ResumeState>>,
    ) -> HomeId {
        let id = self.homes.len();
        let shard = id % self.shards.len();
        let health = Arc::new(HomeHealth::new());
        let stats = Arc::new(HomeStatsCell::default());
        self.homes.push(HomeEntry {
            shard,
            name: name.to_string(),
            health: Arc::clone(&health),
            stats: Arc::clone(&stats),
        });
        lock(&self.shared.homes).push(SupervisedHome {
            home: id,
            shard,
            health: Arc::clone(&health),
        });
        let guard = self.config.ingest.map(|policy| {
            let mut guard = IngestGuard::new(policy, model.num_devices());
            guard.set_telemetry(&self.telemetry);
            Box::new(guard)
        });
        self.enqueue_blocking(
            shard,
            Job::Register {
                home: id,
                name: name.to_string(),
                monitor,
                health,
                guard,
                stats,
                model: model.clone(),
                resume,
            },
        );
        HomeId(id)
    }

    /// Rebuilds a whole fleet from its durability directory after a
    /// crash (including `kill -9`), using the `CAUSALIOT_TELEMETRY`
    /// telemetry handle.
    ///
    /// For every `home-<id>/` under the config's durability root, in id
    /// order: loads the model checkpoint, restores the latest live-state
    /// snapshot (monitor runtime state, sequence number, verdict history,
    /// drift window), replays the WAL tail through the restored monitor,
    /// reopens the WAL where it stopped, and re-registers the home under
    /// its original id and name. Recovery writes no snapshot: an unsealed
    /// last segment is truncated to its last verified record and appended
    /// to (a sealed one gives way to a fresh segment), and the replayed
    /// tail counts toward the snapshot cadence. A second crash therefore
    /// replays the same snapshot plus a longer tail, which the cadence
    /// still bounds to one snapshot interval. The resumed hub's verdict
    /// stream — for every event the durability policy had made durable —
    /// is **bit-identical** to an uninterrupted run; the
    /// [`RecoveryReport`] tells the caller each home's durable event
    /// count, so clients that number their submissions know exactly where
    /// to resume.
    ///
    /// Recovery is fail-closed and all-or-nothing: every home is verified
    /// and replayed *before* the hub spins up, and any record or document
    /// that fails verification aborts the whole recovery with the file
    /// and offset — except a *torn tail* (an incomplete final WAL record
    /// from dying mid-append), which is discarded and counted.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::NotArmed`] when `config` has no armed
    /// [`crate::DurabilityConfig`]; [`RecoveryError::Io`] on I/O
    /// failures; [`RecoveryError::Corrupt`] for a checkpoint, snapshot,
    /// or WAL record that fails verification, or a non-dense /
    /// gap-containing home or segment layout.
    ///
    /// # Panics
    ///
    /// Same configuration conditions as [`Hub::new`].
    pub fn recover(config: HubConfig) -> Result<(Hub, RecoveryReport), RecoveryError> {
        Self::recover_with_telemetry(config, &TelemetryHandle::from_env())
    }

    /// [`Hub::recover`] reporting to an explicit telemetry handle. Each
    /// home's recovery phases are spans on it: `hub.recover.load` (name
    /// and model checkpoint), `hub.recover.snapshot` (read, verify, parse
    /// and restore), `hub.recover.replay` (WAL decode and re-scoring) and
    /// `hub.recover.resume` (the segment reopened or opened).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hub::recover`].
    ///
    /// # Panics
    ///
    /// Same configuration conditions as [`Hub::new`].
    pub fn recover_with_telemetry(
        config: HubConfig,
        telemetry: &TelemetryHandle,
    ) -> Result<(Hub, RecoveryReport), RecoveryError> {
        let Some(durability) = config.durability.clone().filter(|d| d.is_armed()) else {
            return Err(RecoveryError::NotArmed);
        };
        let dirs = list_home_dirs(&durability.dir)?;
        // Ids are dense registration indices and recovery re-registers in
        // id order (register_inner re-derives id and shard the same way),
        // so the directory set must be exactly home-0..home-(N-1).
        for (expect, (id, dir)) in dirs.iter().enumerate() {
            if *id != expect {
                return Err(RecoveryError::Corrupt {
                    file: dir.clone(),
                    detail: format!(
                        "home directories are not dense: expected home-{expect}, found home-{id}"
                    ),
                });
            }
        }
        // Verify and replay every home before spinning up threads: a
        // corrupt home aborts with nothing started.
        let mut recovered = Vec::with_capacity(dirs.len());
        for (id, dir) in &dirs {
            recovered.push(recover_home(*id, dir, &durability, &config, telemetry)?);
        }
        let homes_counter = telemetry.counter("hub.recovery.homes");
        let replayed_counter = telemetry.counter("hub.recovery.replayed");
        let torn_counter = telemetry.counter("hub.recovery.torn_tails");
        let mut hub = Self::with_telemetry(config, telemetry);
        let mut report = RecoveryReport::default();
        for home in recovered {
            homes_counter.inc();
            replayed_counter.add(home.record.replayed_events);
            if home.record.torn_tail.is_some() {
                torn_counter.inc();
            }
            let id = hub.register_inner(
                &home.record.name,
                &home.model,
                home.monitor,
                Some(home.resume),
            );
            debug_assert_eq!(id, home.record.home);
            report.homes.push(home.record);
        }
        Ok((hub, report))
    }

    /// Submits one event for `home` under the hub's
    /// [`crate::SubmitPolicy`].
    ///
    /// Under the default fail-fast policy this is non-blocking; the block
    /// and retry policies may sleep on a full queue (see
    /// [`crate::SubmitPolicy`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Quarantined`] when the home is quarantined after a
    /// monitor panic, [`SubmitError::QueueFull`] when the home's shard
    /// queue is at capacity (fail-fast, or retry after its budget),
    /// [`SubmitError::DeadlineExceeded`] when a block deadline lapses,
    /// [`SubmitError::UnknownHome`] for an unregistered id,
    /// [`SubmitError::Shutdown`] when the workers are gone.
    pub fn submit(&self, home: HomeId, event: BinaryEvent) -> Result<(), SubmitError> {
        let entry = self.entry(home)?;
        self.check_quarantine(home, entry)?;
        let submitted = Instant::now();
        self.enqueue_with_policy(
            home,
            entry,
            Job::Event {
                home: home.0,
                event,
                submitted,
            },
            1,
        )
    }

    /// Submits a batch of events for `home`, enqueued in
    /// [`SUBMIT_CHUNK`]-sized queue jobs. Batching amortises the queue
    /// handoff and feeds the workers' batched scoring path: it is the
    /// preferred shape for high-throughput ingestion.
    ///
    /// Events are accepted strictly in order; per-home ordering covers the
    /// events inside the batch too. Under backpressure
    /// ([`crate::SubmitPolicy::FailFast`]'s full queue, or an exhausted
    /// block/retry budget) the batch may be accepted *partially*: the
    /// returned [`BatchOutcome`] reports how many leading events were
    /// enqueued and where the first rejection happened, so the caller can
    /// resubmit `&events[outcome.accepted..]`. Acceptance is
    /// chunk-granular, so `rejected_at` always falls on a
    /// [`SUBMIT_CHUNK`] boundary.
    ///
    /// # Errors
    ///
    /// Pre-conditions only — [`SubmitError::UnknownHome`],
    /// [`SubmitError::Quarantined`], or [`SubmitError::Shutdown`] with no
    /// event accepted. Backpressure is reported through the `Ok`
    /// outcome's `rejected_at`, not as an error.
    pub fn submit_batch(
        &self,
        home: HomeId,
        events: &[BinaryEvent],
    ) -> Result<BatchOutcome, SubmitError> {
        let entry = self.entry(home)?;
        self.check_quarantine(home, entry)?;
        let mut accepted = 0usize;
        for chunk in events.chunks(SUBMIT_CHUNK) {
            let job = Job::Batch {
                home: home.0,
                events: chunk.to_vec(),
                submitted: Instant::now(),
            };
            match self.enqueue_with_policy(home, entry, job, chunk.len() as u64) {
                Ok(()) => accepted += chunk.len(),
                Err(SubmitError::QueueFull { .. } | SubmitError::DeadlineExceeded { .. }) => {
                    return Ok(BatchOutcome {
                        accepted,
                        rejected_at: Some(accepted),
                    });
                }
                Err(e) if accepted == 0 => return Err(e),
                Err(_) => {
                    return Ok(BatchOutcome {
                        accepted,
                        rejected_at: Some(accepted),
                    })
                }
            }
        }
        Ok(BatchOutcome {
            accepted,
            rejected_at: None,
        })
    }

    /// Applies one typed model-lifecycle update — the unified entry
    /// point behind every way a serving model changes: rollouts
    /// ([`ModelUpdate::Swap`]), recoveries ([`ModelUpdate::Restore`]),
    /// fleet-wide store-head upgrades ([`ModelUpdate::BulkSwap`]), and
    /// drift refits ([`ModelUpdate::DriftRefit`]). Each variant documents
    /// its own semantics and accounting.
    ///
    /// Every variant rides the affected homes' own shard queues, so each
    /// update lands at an event boundary: events submitted before it are
    /// judged by the old model, events after by the new one, and nothing
    /// is dropped or reordered. The update's [`crate::UpdateReason`] is
    /// recorded in the home's [`HomeReport::updates`] log and the
    /// `hub.updates.<reason>` counter (and, with an
    /// [`crate::AdaptationPolicy`] armed, as a flight-recorder marker at
    /// the swap boundary).
    ///
    /// Unlike [`Hub::submit`] this blocks (briefly) instead of failing
    /// when a shard queue is at capacity — a rollout should not be
    /// droppable by backpressure.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Submit`] for single-home updates
    /// ([`SubmitError::UnknownHome`], [`SubmitError::Shutdown`]);
    /// [`UpdateError::Fleet`] for bulk swaps (store resolution/load
    /// failures, [`FleetError::Shutdown`]).
    pub fn apply(&self, update: ModelUpdate<'_>) -> Result<UpdateOutcome, UpdateError> {
        match update {
            ModelUpdate::Swap { home, model } => {
                self.replace_monitor(home, model, UpdateReason::Rollout)?;
                self.swaps.inc();
                Ok(UpdateOutcome::Applied)
            }
            ModelUpdate::Restore { home, model } => {
                self.replace_monitor(home, model, UpdateReason::Restore)?;
                Ok(UpdateOutcome::Applied)
            }
            ModelUpdate::DriftRefit { home, model } => {
                self.replace_monitor(home, model, UpdateReason::DriftRefit)?;
                self.swaps.inc();
                Ok(UpdateOutcome::Applied)
            }
            ModelUpdate::BulkSwap { store, homes } => Ok(UpdateOutcome::BulkSwapped(
                self.bulk_swap_inner(store, homes)?,
            )),
        }
    }

    fn replace_monitor(
        &self,
        home: HomeId,
        model: &FittedModel,
        reason: UpdateReason,
    ) -> Result<(), SubmitError> {
        let entry = self.entry(home)?;
        let monitor = Box::new(model.clone().into_monitor());
        let shard = &self.shards[entry.shard];
        shard.depth.fetch_add(1, Ordering::Relaxed);
        if shard
            .sender
            .send(Job::Swap {
                home: home.0,
                monitor,
                reason,
                model: model.clone(),
            })
            .is_err()
        {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(SubmitError::Shutdown);
        }
        Ok(())
    }

    /// Reverts `home` to its *previous* lineage generation in `store` —
    /// the escape hatch when a refit (or rollout) turns out bad. Drops
    /// the lineage head ([`ModelStore::rollback`], counted in
    /// `fleet.store.rollbacks`), loads the surviving head, and swaps it
    /// in at an event boundary with reason [`UpdateReason::Rollback`].
    /// Returns the generation now serving the home and refreshes its
    /// `hub.home.<name>.generation` gauge.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownHome`] for an unregistered id or a home with
    /// no lineage, [`FleetError::Lineage`] when only one generation
    /// exists (nothing to roll back *to* — the store is left untouched),
    /// store load failures as for [`ModelUpdate::BulkSwap`], and
    /// [`FleetError::Shutdown`] when the workers are gone.
    pub fn rollback(&self, store: &ModelStore, home: HomeId) -> Result<Generation, FleetError> {
        let entry = self.entry(home).map_err(|_| FleetError::UnknownHome {
            name: format!("home id {home}"),
        })?;
        let (generation, hash) = store.rollback(&entry.name)?;
        let model = store.get(hash)?;
        self.replace_monitor(home, &model, UpdateReason::Rollback)
            .map_err(|_| FleetError::Shutdown)?;
        self.swaps.inc();
        self.telemetry
            .gauge(&format!("hub.home.{}.generation", entry.name))
            .set(generation);
        Ok(generation)
    }

    /// Registers a whole fleet from a model store: for each name in
    /// `homes`, resolves the lineage head in `store`, loads (and
    /// CRC-verifies) the blob, and registers the home exactly as
    /// [`Hub::register`] would. Returns the new ids in input order.
    ///
    /// All-or-nothing: every model is resolved, loaded, and verified
    /// *before* the first home is registered, so a corrupt blob or an
    /// uncommitted home leaves the hub untouched. On success the
    /// `hub.home.<name>.generation` gauge records which lineage
    /// generation each home serves.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownHome`] for a name with no lineage in the
    /// store, and any [`iot_fleet::ModelStore::get`] failure
    /// ([`FleetError::MissingBlob`], or [`FleetError::Model`] wrapping
    /// the loader's corrupt/truncated/io detail).
    pub fn bulk_load<S: AsRef<str>>(
        &mut self,
        store: &ModelStore,
        homes: &[S],
    ) -> Result<Vec<HomeId>, FleetError> {
        let staged = self.stage_from_store(store, homes.iter().map(AsRef::as_ref))?;
        let mut ids = Vec::with_capacity(staged.len());
        for (name, generation, model) in staged {
            let id = self.register(&name, &model);
            self.telemetry
                .gauge(&format!("hub.home.{name}.generation"))
                .set(generation);
            ids.push(id);
        }
        Ok(ids)
    }

    fn bulk_swap_inner(
        &self,
        store: &ModelStore,
        homes: &[HomeId],
    ) -> Result<Vec<(HomeId, Generation)>, FleetError> {
        // Stage 1: resolve + load + verify + build every monitor first.
        let mut staged = Vec::with_capacity(homes.len());
        for &id in homes {
            let entry = self.entry(id).map_err(|_| FleetError::UnknownHome {
                name: format!("home id {id}"),
            })?;
            let Some((generation, hash)) = store.resolve(&entry.name)? else {
                return Err(FleetError::UnknownHome {
                    name: entry.name.clone(),
                });
            };
            let model = store.get(hash)?;
            let monitor = Box::new(model.clone().into_monitor());
            staged.push((
                id,
                entry.shard,
                entry.name.clone(),
                generation,
                monitor,
                model,
            ));
        }
        // Stage 2: release shard by shard so each queue's swap batch
        // lands contiguously; per-home ordering only needs each home's
        // swap to ride its own shard queue.
        staged.sort_by_key(|(id, shard, ..)| (*shard, id.0));
        let mut swapped = Vec::with_capacity(staged.len());
        for (id, shard_idx, name, generation, monitor, model) in staged {
            let shard = &self.shards[shard_idx];
            shard.depth.fetch_add(1, Ordering::Relaxed);
            if shard
                .sender
                .send(Job::Swap {
                    home: id.0,
                    monitor,
                    reason: UpdateReason::BulkSwap,
                    model,
                })
                .is_err()
            {
                shard.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(FleetError::Shutdown);
            }
            self.swaps.inc();
            self.telemetry
                .gauge(&format!("hub.home.{name}.generation"))
                .set(generation);
            swapped.push((id, generation));
        }
        self.bulk_swaps.inc();
        swapped.sort_by_key(|(id, _)| id.0);
        Ok(swapped)
    }

    /// Resolves and loads each named home's lineage head, failing before
    /// anything is touched if any step fails.
    fn stage_from_store<'a>(
        &self,
        store: &ModelStore,
        homes: impl Iterator<Item = &'a str>,
    ) -> Result<Vec<(String, Generation, FittedModel)>, FleetError> {
        let mut staged = Vec::new();
        for name in homes {
            let Some((generation, hash)) = store.resolve(name)? else {
                return Err(FleetError::UnknownHome {
                    name: name.to_string(),
                });
            };
            staged.push((name.to_string(), generation, store.get(hash)?));
        }
        Ok(staged)
    }

    /// A barrier: blocks until every job queued so far on every shard has
    /// been fully processed. Survives worker deaths — a killed worker's
    /// replacement processes the barrier job after draining everything
    /// queued before it.
    pub fn drain(&self) {
        let mut acks = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let (tx, rx) = sync_channel::<()>(1);
            self.enqueue_blocking(shard, Job::Barrier(tx));
            acks.push(rx);
        }
        for ack in acks {
            // A permanently-dead shard cannot ack; treat it as drained.
            let _ = ack.recv();
        }
    }

    /// Drains every queue, stops the supervisor and workers, and returns
    /// one [`HomeReport`] per home in registration order.
    ///
    /// Homes that ended the session quarantined are reported too, with
    /// [`HomeReport::quarantined`] set and their panic payloads in
    /// [`HomeReport::panics`].
    #[inline]
    pub fn shutdown(self) -> Vec<HomeReport> {
        self.shutdown_inner(None)
            .expect("shutdown without a deadline cannot time out")
    }

    /// [`Hub::shutdown`] with an upper bound on how long to wait for the
    /// worker threads to finish their queues and exit.
    ///
    /// On success this is exactly `shutdown()`. If the deadline lapses
    /// first — a monitor wedged in an infinite loop, a pathological
    /// backlog — the still-running workers are left detached and
    /// [`ShutdownTimeout`] reports how many; no reports can be collected
    /// and the process should be treated as needing an external restart
    /// (with durability armed, [`Hub::recover`] picks up from the synced
    /// WAL tail).
    ///
    /// # Errors
    ///
    /// [`ShutdownTimeout`] when worker threads outlive `deadline`.
    pub fn shutdown_within(self, deadline: Duration) -> Result<Vec<HomeReport>, ShutdownTimeout> {
        self.shutdown_inner(Some(deadline))
    }

    fn shutdown_inner(
        self,
        deadline: Option<Duration>,
    ) -> Result<Vec<HomeReport>, ShutdownTimeout> {
        let started = Instant::now();
        let Hub {
            supervisor,
            refitter,
            shards,
            cores,
            shared,
            ..
        } = self;
        // 1. Stop the supervisor first: it holds sender clones that would
        //    otherwise keep the channels connected, and it must not
        //    respawn workers while we join them. Then the refitter, whose
        //    pending swap (if any) completes against still-live shards.
        drop(supervisor);
        drop(refitter);
        // 2. Drop the shard senders; each live worker finishes its queue
        //    and exits on disconnect.
        for shard in &shards {
            shard.depth_gauge.set(0);
        }
        drop(shards);
        // 3. Join whatever workers are (still) alive.
        let handles: Vec<_> = std::mem::take(&mut *lock(&shared.workers));
        match deadline {
            None => {
                for handle in handles.into_iter().flatten() {
                    // A worker that died to an injected kill carries that
                    // panic; its queue leftovers are drained below.
                    let _ = handle.join();
                }
            }
            Some(deadline) => {
                let mut pending: Vec<_> = handles.into_iter().flatten().collect();
                while !pending.is_empty() {
                    if let Some(pos) = pending.iter().position(|h| h.is_finished()) {
                        let _ = pending.swap_remove(pos).join();
                        continue;
                    }
                    if started.elapsed() >= deadline {
                        return Err(ShutdownTimeout {
                            deadline,
                            stuck_workers: pending.len(),
                        });
                    }
                    std::thread::sleep(BLOCK_POLL);
                }
            }
        }
        // 4. Score anything a dead worker left behind, release every
        //    reordering buffer (end of stream), settle durable state
        //    (final snapshots for healthy homes, a WAL fsync for poisoned
        //    ones), then collect.
        let mut reports = Vec::new();
        for core in cores {
            core.drain_remaining();
            core.flush_guards();
            core.final_snapshots();
            let slots = std::mem::take(&mut *lock(&core.homes));
            for (id, slot) in slots {
                let monitor =
                    catch_unwind(AssertUnwindSafe(|| slot.monitor.report())).unwrap_or_default();
                let dead_letter_causes =
                    slot.guard.as_ref().map(|g| g.counts()).unwrap_or_default();
                let stale_devices = slot
                    .guard
                    .as_ref()
                    .map_or(0, |g| g.stale_set().count() as u64);
                let flight = flight_recording(id, &slot);
                reports.push(HomeReport {
                    id: HomeId(id),
                    name: slot.name,
                    verdicts: slot.verdicts,
                    monitor,
                    swaps: slot.swaps,
                    retired: slot.retired,
                    updates: slot.updates,
                    drift_reports: slot.drift.map(|d| d.reports).unwrap_or_default(),
                    panics: slot.health.panics(),
                    restores: slot.health.restores(),
                    quarantined: slot.poisoned,
                    dropped_quarantined: slot.dropped_quarantined,
                    dead_letters: dead_letter_causes.total(),
                    dead_letter_causes,
                    stale_devices,
                    flight,
                    quarantine_flights: slot.quarantine_flights,
                });
            }
        }
        reports.sort_by_key(|r| r.id);
        Ok(reports)
    }

    fn entry(&self, home: HomeId) -> Result<&HomeEntry, SubmitError> {
        self.homes
            .get(home.0)
            .ok_or(SubmitError::UnknownHome { home })
    }

    fn check_quarantine(&self, home: HomeId, entry: &HomeEntry) -> Result<(), SubmitError> {
        if entry.health.is_quarantined() {
            return Err(SubmitError::Quarantined(QuarantinedError {
                home,
                panic: entry
                    .health
                    .last_panic()
                    .unwrap_or_else(|| "unknown panic".to_string()),
                restores: entry.health.restores(),
            }));
        }
        Ok(())
    }

    fn enqueue_with_policy(
        &self,
        home: HomeId,
        entry: &HomeEntry,
        mut job: Job,
        events: u64,
    ) -> Result<(), SubmitError> {
        let shard = &self.shards[entry.shard];
        let started = Instant::now();
        let mut retries_left = match self.config.submit_policy {
            SubmitPolicy::Retry { max_retries, .. } => max_retries,
            _ => 0,
        };
        let mut backoff = match self.config.submit_policy {
            SubmitPolicy::Retry {
                initial_backoff, ..
            } => initial_backoff,
            _ => Duration::ZERO,
        };
        loop {
            let depth = shard.depth.fetch_add(1, Ordering::Relaxed) + 1;
            match shard.sender.try_send(job) {
                Ok(()) => {
                    shard.depth_gauge.set(depth as u64);
                    self.submitted.add(events);
                    self.events_submitted.fetch_add(events, Ordering::Relaxed);
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => {
                    shard.depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(SubmitError::Shutdown);
                }
                Err(TrySendError::Full(returned)) => {
                    shard.depth.fetch_sub(1, Ordering::Relaxed);
                    job = returned;
                    match self.config.submit_policy {
                        SubmitPolicy::FailFast => {
                            return Err(SubmitError::QueueFull {
                                home,
                                capacity: self.config.queue_capacity,
                            });
                        }
                        SubmitPolicy::Block { deadline } => {
                            if started.elapsed() >= deadline {
                                self.deadline_exceeded.inc();
                                return Err(SubmitError::DeadlineExceeded { home, deadline });
                            }
                            // std's mpsc has no timed send; poll in short
                            // sleeps against the deadline.
                            std::thread::sleep(BLOCK_POLL.min(deadline));
                        }
                        SubmitPolicy::Retry { max_backoff, .. } => {
                            if retries_left == 0 {
                                return Err(SubmitError::QueueFull {
                                    home,
                                    capacity: self.config.queue_capacity,
                                });
                            }
                            retries_left -= 1;
                            self.retries.inc();
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(max_backoff);
                        }
                    }
                }
            }
        }
    }

    fn enqueue_blocking(&self, shard: usize, job: Job) {
        let shard = &self.shards[shard];
        shard.depth.fetch_add(1, Ordering::Relaxed);
        if shard.sender.send(job).is_err() {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One home rebuilt off disk, ready to re-register.
struct RecoveredHome {
    model: FittedModel,
    /// The monitor with its runtime state restored and the WAL tail
    /// already replayed through it.
    monitor: Box<OwnedMonitor>,
    resume: Box<ResumeState>,
    record: HomeRecovery,
}

/// Rebuilds one home from its durable directory: checkpoint → snapshot →
/// WAL-tail replay → the live segment reopened for append (or a fresh
/// one after a sealed tail). Writes no snapshot: the one it restored
/// plus the resumed log still replay to the same point after a second
/// crash. Each phase is a `hub.recover.*` span on `telemetry`.
fn recover_home(
    id: usize,
    dir: &Path,
    durability: &DurabilityConfig,
    config: &HubConfig,
    telemetry: &TelemetryHandle,
) -> Result<RecoveredHome, RecoveryError> {
    let load = telemetry.span("hub.recover.load");
    let meta_path = dir.join(META_FILE);
    let name = fs::read_to_string(&meta_path)?.trim_end().to_string();
    if name.is_empty() {
        return Err(RecoveryError::Corrupt {
            file: meta_path,
            detail: "empty home name".into(),
        });
    }
    let model_path = dir.join(MODEL_FILE);
    let model =
        FittedModel::load_from_path_with_telemetry(&model_path, telemetry).map_err(|e| {
            RecoveryError::Corrupt {
                file: model_path.clone(),
                detail: e.to_string(),
            }
        })?;
    load.finish();

    let snapshot = telemetry.span("hub.recover.snapshot");
    let mut monitor = model.clone().into_monitor();
    let adaptation = config.adaptation.as_ref();
    // Drift state is rebuilt alongside the monitor so the recovered
    // detector has seen exactly what the monitor has. (The drift *report
    // history* is not persisted; only verdict bit-identity is
    // guaranteed across a crash.)
    let mut drift = adaptation.and_then(|p| DriftState::new(model.clone(), &p.drift));
    let snap_path = dir.join(SNAP_FILE);
    let mut seq = 0u64;
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut next_epoch = 0u64;
    let mut snapshot_loaded = false;
    match fs::read_to_string(&snap_path) {
        Ok(text) => {
            let doc = parse_snapshot(&text, model.num_devices()).map_err(|detail| {
                RecoveryError::Corrupt {
                    file: snap_path.clone(),
                    detail,
                }
            })?;
            monitor
                .restore_runtime_state(doc.monitor_doc)
                .map_err(|e| RecoveryError::Corrupt {
                    file: snap_path.clone(),
                    detail: e.to_string(),
                })?;
            seq = doc.seq;
            next_epoch = doc.next_epoch;
            if config.record_verdicts {
                verdicts = doc.verdicts.unwrap_or_default();
            }
            if let (Some(drift), Some(saved)) = (drift.as_mut(), doc.drift) {
                drift.restore(saved);
            }
            snapshot_loaded = true;
        }
        // A home that never reached its first snapshot replays from the
        // model's end-of-training state alone.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    snapshot.finish();

    // Replay the WAL tail: segments below the snapshot's epoch are
    // superseded (skipped), everything at or above it must be present,
    // consecutive, and verify record by record.
    let replay_span = telemetry.span("hub.recover.replay");
    let segments = list_segments(dir)?;
    let skipped = segments.iter().take_while(|(e, _)| *e < next_epoch).count();
    let mut sealed_segments = skipped;
    let mut replayed_events = 0u64;
    let mut torn_tail = None;
    let mut expected = next_epoch;
    // The last segment, when it ended unsealed: its epoch, path and
    // verified event count, for the writer to resume.
    let mut live = None;
    let replay_count = segments.len() - skipped;
    let mut out: Vec<Verdict> = Vec::new();
    for (idx, (epoch, path)) in segments[skipped..].iter().enumerate() {
        if *epoch != expected {
            return Err(RecoveryError::Corrupt {
                file: path.clone(),
                detail: format!("WAL epoch gap: expected segment {expected}, found {epoch}"),
            });
        }
        expected += 1;
        let last = idx + 1 == replay_count;
        let replay = replay_segment(path)?;
        match replay.outcome {
            SegmentOutcome::Sealed => sealed_segments += 1,
            SegmentOutcome::Unsealed if last => {}
            SegmentOutcome::TornTail { offset } if last => torn_tail = Some(offset),
            SegmentOutcome::Corrupt { offset, cause } => {
                return Err(RecoveryError::Corrupt {
                    file: path.clone(),
                    detail: format!("offset {offset}: {cause}"),
                });
            }
            SegmentOutcome::Unsealed | SegmentOutcome::TornTail { .. } => {
                return Err(RecoveryError::Corrupt {
                    file: path.clone(),
                    detail: "non-final WAL segment is not sealed".into(),
                });
            }
        }
        let events = &replay.events;
        if replay.outcome != SegmentOutcome::Sealed {
            live = Some((*epoch, path, events.len() as u64));
        }
        if events.is_empty() {
            continue;
        }
        // Re-score through the verdict path, whatever the worker's mode:
        // it is the one that rebuilds every tracked record in full
        // (cause values included), so an alarm flushed after recovery
        // matches an uninterrupted run's in any configuration.
        // Replay cannot panic: only events that scored cleanly pre-crash
        // were ever appended.
        out.clear();
        monitor.observe_batch_into(events, &ObserveCtx::new(), &mut out);
        if let Some((drift, policy)) = drift.as_mut().zip(adaptation) {
            for (event, verdict) in events.iter().zip(&out) {
                // Mirror the live path's reset-on-trigger, minus the
                // refit enqueue: a refit that landed pre-crash is in the
                // model checkpoint already, one that didn't is simply
                // re-triggerable.
                if drift
                    .detector
                    .record(event.device, verdict.score)
                    .is_some_and(|report| report.severity >= policy.min_severity)
                {
                    drift.detector.reset();
                }
            }
            drift.push_batch(events, policy.refit_window);
        }
        if config.record_verdicts {
            verdicts.append(&mut out);
        }
        seq += events.len() as u64;
        replayed_events += events.len() as u64;
    }
    replay_span.finish();

    // Appends continue where the log stopped: in the unsealed last
    // segment, truncated to its last verified record, or in a fresh
    // segment after a sealed (or missing) tail.
    let resume = telemetry.span("hub.recover.resume");
    let (epoch, writer) = match live {
        Some((epoch, path, events)) => (epoch, SegmentWriter::reopen(path, events)?),
        None => (
            expected,
            SegmentWriter::create(dir.join(segment_file_name(expected)))?,
        ),
    };
    let durable = DurableHome::resume(
        dir.to_path_buf(),
        epoch,
        writer,
        replayed_events,
        durability.policy,
        durability.snapshot_every,
    );
    resume.finish();

    Ok(RecoveredHome {
        model,
        monitor: Box::new(monitor),
        resume: Box::new(ResumeState {
            seq,
            verdicts,
            drift,
            durable,
        }),
        record: HomeRecovery {
            home: HomeId(id),
            name,
            snapshot_loaded,
            durable_events: seq,
            replayed_events,
            sealed_segments,
            torn_tail,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaliot_core::CausalIot;
    use iot_model::{Attribute, DeviceRegistry, Room, Timestamp};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn fitted_model() -> (DeviceRegistry, FittedModel) {
        fitted_model_seeded(11)
    }

    fn fitted_model_seeded(seed: u64) -> (DeviceRegistry, FittedModel) {
        fitted_model_tracking(seed, 1)
    }

    /// The seeded two-device home, monitored with anomaly chains up to
    /// `k_max` events long.
    fn fitted_model_tracking(seed: u64, k_max: usize) -> (DeviceRegistry, FittedModel) {
        let mut reg = DeviceRegistry::new();
        let pe = reg
            .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
            .unwrap();
        let lamp = reg
            .add("S_lamp", Attribute::Switch, Room::new("room"))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for i in 0..300u64 {
            let on = rng.gen_bool(0.5);
            events.push(BinaryEvent::new(Timestamp::from_secs(i * 60), pe, on));
            if rng.gen_bool(0.9) {
                events.push(BinaryEvent::new(
                    Timestamp::from_secs(i * 60 + 15),
                    lamp,
                    on,
                ));
            }
        }
        let model = CausalIot::builder()
            .tau(2)
            .k_max(k_max)
            .build()
            .fit_binary(&reg, &events)
            .unwrap();
        (reg, model)
    }

    #[test]
    fn hub_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Hub>();
    }

    #[test]
    fn serves_registered_homes_and_reports() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut hub = Hub::new(HubConfig {
            workers: 2,
            ..HubConfig::default()
        });
        let a = hub.register("home-a", &model);
        let b = hub.register("home-b", &model);
        assert_eq!(hub.num_homes(), 2);
        for i in 0..10u64 {
            hub.submit(
                a,
                BinaryEvent::new(Timestamp::from_secs(100_000 + i * 60), lamp, i % 2 == 0),
            )
            .unwrap();
        }
        hub.submit(
            b,
            BinaryEvent::new(Timestamp::from_secs(100_000), lamp, true),
        )
        .unwrap();
        hub.drain();
        assert!(!hub.is_quarantined(a));
        let reports = hub.shutdown();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "home-a");
        assert_eq!(reports[0].monitor.events_observed, 10);
        assert_eq!(reports[0].verdicts.len(), 10);
        assert!(!reports[0].quarantined);
        assert!(reports[0].panics.is_empty());
        assert_eq!(reports[1].monitor.events_observed, 1);
    }

    #[test]
    fn unknown_home_is_rejected() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut hub = Hub::new(HubConfig::default());
        let _ = hub.register("home-a", &model);
        let ghost = HomeId(7);
        assert_eq!(
            hub.submit(ghost, BinaryEvent::new(Timestamp::from_secs(1), lamp, true)),
            Err(SubmitError::UnknownHome { home: ghost })
        );
    }

    #[test]
    fn swap_takes_effect_at_the_event_boundary() {
        let (reg, old_model) = fitted_model_seeded(11);
        let (_, new_model) = fitted_model_seeded(77);
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let stream = |base: u64| -> Vec<BinaryEvent> {
            (0..30u64)
                .map(|i| {
                    let dev = if i % 3 == 0 { pe } else { lamp };
                    BinaryEvent::new(Timestamp::from_secs(base + i * 30), dev, i % 2 == 0)
                })
                .collect()
        };
        let pre = stream(200_000);
        let post = stream(400_000);
        // Sequential reference: pre under the old model, post under a
        // fresh monitor from the new model.
        let mut old_ref = old_model.clone().into_monitor();
        let mut expected: Vec<Verdict> = pre.iter().map(|e| old_ref.observe(*e)).collect();
        let mut new_ref = new_model.clone().into_monitor();
        expected.extend(post.iter().map(|e| new_ref.observe(*e)));

        let mut hub = Hub::new(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let home = hub.register("home", &old_model);
        assert!(hub.submit_batch(home, &pre).unwrap().is_complete());
        hub.apply(ModelUpdate::Swap {
            home,
            model: &new_model,
        })
        .unwrap();
        assert!(hub.submit_batch(home, &post).unwrap().is_complete());
        let reports = hub.shutdown();
        assert_eq!(reports[0].verdicts, expected);
        assert_eq!(reports[0].swaps, 1);
        assert_eq!(reports[0].retired.len(), 1);
        assert_eq!(reports[0].retired[0].events_observed, pre.len() as u64);
        assert_eq!(reports[0].monitor.events_observed, post.len() as u64);
    }

    #[test]
    fn swap_on_unknown_home_is_rejected() {
        let (_, model) = fitted_model();
        let mut hub = Hub::new(HubConfig::default());
        let _ = hub.register("home", &model);
        let ghost = HomeId(9);
        assert_eq!(
            hub.apply(ModelUpdate::Swap {
                home: ghost,
                model: &model,
            }),
            Err(UpdateError::Submit(SubmitError::UnknownHome {
                home: ghost
            }))
        );
    }

    #[test]
    fn batch_preserves_order_and_counts() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let events: Vec<BinaryEvent> = (0..50u64)
            .map(|i| {
                let dev = if i % 3 == 0 { pe } else { lamp };
                BinaryEvent::new(Timestamp::from_secs(200_000 + i * 30), dev, i % 2 == 0)
            })
            .collect();
        // Sequential reference.
        let mut reference = model.clone().into_monitor();
        let expected: Vec<Verdict> = events.iter().map(|e| reference.observe(*e)).collect();
        // Served in two chunks.
        let mut hub = Hub::new(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let home = hub.register("home", &model);
        let first = hub.submit_batch(home, &events[..20]).unwrap();
        assert_eq!(
            first,
            BatchOutcome {
                accepted: 20,
                rejected_at: None
            }
        );
        hub.submit_batch(home, &events[20..]).unwrap();
        let reports = hub.shutdown();
        assert_eq!(reports[0].verdicts, expected);
    }

    #[test]
    #[should_panic(expected = "max_retries")]
    fn hub_new_rejects_invalid_policy() {
        let _ = Hub::new(HubConfig {
            submit_policy: SubmitPolicy::Retry {
                max_retries: 0,
                initial_backoff: Duration::from_micros(1),
                max_backoff: Duration::from_micros(2),
            },
            ..HubConfig::default()
        });
    }

    #[test]
    fn ingest_guard_is_transparent_on_clean_streams() {
        use causaliot_core::IngestPolicy;
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let events: Vec<BinaryEvent> = (0..40u64)
            .map(|i| {
                let dev = if i % 3 == 0 { pe } else { lamp };
                BinaryEvent::new(Timestamp::from_secs(200_000 + i * 30), dev, i % 2 == 0)
            })
            .collect();
        let mut reference = model.clone().into_monitor();
        let expected: Vec<Verdict> = events.iter().map(|e| reference.observe(*e)).collect();
        let mut hub = Hub::new(HubConfig {
            workers: 1,
            ingest: Some(IngestPolicy::default()),
            ..HubConfig::default()
        });
        let home = hub.register("home", &model);
        hub.submit_batch(home, &events).unwrap();
        let reports = hub.shutdown();
        assert_eq!(reports[0].verdicts, expected);
        assert_eq!(reports[0].dead_letters, 0);
        assert_eq!(reports[0].stale_devices, 0);
    }

    #[test]
    fn ingest_guard_reports_dead_letters_per_home() {
        use causaliot_core::IngestPolicy;
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut hub = Hub::new(HubConfig {
            workers: 1,
            ingest: Some(IngestPolicy::default()),
            ..HubConfig::default()
        });
        let clean = hub.register("clean", &model);
        let noisy = hub.register("noisy", &model);
        hub.submit(
            clean,
            BinaryEvent::new(Timestamp::from_secs(1_000), lamp, true),
        )
        .unwrap();
        // Noisy home: advance the watermark, then a mild straggler
        // (LateArrival) and a deep regression (ClockRegression).
        for (t, on) in [(1_000u64, true), (2_000, false)] {
            hub.submit(noisy, BinaryEvent::new(Timestamp::from_secs(t), lamp, on))
                .unwrap();
        }
        hub.submit(
            noisy,
            BinaryEvent::new(Timestamp::from_secs(1_950), lamp, true),
        )
        .unwrap();
        hub.submit(
            noisy,
            BinaryEvent::new(Timestamp::from_secs(100), lamp, true),
        )
        .unwrap();
        let reports = hub.shutdown();
        assert_eq!(reports[0].dead_letters, 0);
        assert_eq!(reports[0].monitor.events_observed, 1);
        assert_eq!(reports[1].dead_letters, 2);
        assert_eq!(reports[1].dead_letter_causes.late_arrival, 1);
        assert_eq!(reports[1].dead_letter_causes.clock_regression, 1);
        assert_eq!(reports[1].monitor.events_observed, 2);
    }

    #[test]
    fn shutdown_within_succeeds_on_a_healthy_hub() {
        let (_, model) = fitted_model();
        let mut hub = Hub::new(HubConfig::default());
        let _ = hub.register("home", &model);
        let reports = hub.shutdown_within(Duration::from_secs(30)).unwrap();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn recover_requires_armed_durability() {
        assert!(matches!(
            Hub::recover(HubConfig::default()),
            Err(RecoveryError::NotArmed)
        ));
    }

    #[test]
    fn durable_hub_round_trips_through_recovery() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let events: Vec<BinaryEvent> = (0..120u64)
            .map(|i| {
                let dev = if i % 3 == 0 { pe } else { lamp };
                BinaryEvent::new(Timestamp::from_secs(200_000 + i * 30), dev, i % 2 == 0)
            })
            .collect();
        let mut reference = model.clone().into_monitor();
        let expected: Vec<Verdict> = events.iter().map(|e| reference.observe(*e)).collect();

        let dir =
            std::env::temp_dir().join(format!("iot-serve-hub-recover-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = || {
            HubConfig::builder()
                .workers(1)
                .durability(DurabilityConfig::at(&dir))
                .try_build()
                .unwrap()
        };
        let mut hub = Hub::new(config());
        let home = hub.register("kitchen", &model);
        assert!(hub.submit_batch(home, &events[..70]).unwrap().is_complete());
        let reports = hub.shutdown();
        assert_eq!(reports[0].verdicts.len(), 70);

        // A clean shutdown leaves a final snapshot and an empty WAL tail:
        // recovery restores everything from the snapshot and serving
        // resumes with verdicts bit-identical to the uninterrupted run.
        let (hub2, recovery) = Hub::recover(config()).unwrap();
        assert_eq!(recovery.homes.len(), 1);
        assert_eq!(recovery.homes[0].name, "kitchen");
        assert_eq!(recovery.homes[0].durable_events, 70);
        assert_eq!(recovery.homes[0].replayed_events, 0);
        assert!(recovery.homes[0].snapshot_loaded);
        assert!(hub2
            .submit_batch(home, &events[70..])
            .unwrap()
            .is_complete());
        let reports = hub2.shutdown();
        assert_eq!(reports[0].name, "kitchen");
        assert_eq!(reports[0].verdicts, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A durable config for the crash tests: a snapshot every 32 events,
    /// so a few 10-event batches cross one.
    fn crash_config(dir: &Path) -> HubConfig {
        HubConfig::builder()
            .workers(1)
            .durability(DurabilityConfig {
                snapshot_every: 32,
                ..DurabilityConfig::at(dir)
            })
            .try_build()
            .unwrap()
    }

    /// Serves `events` in 10-event batches (each its own run, so each
    /// settles durability), then crashes: drained, dropped unshut. Returns
    /// how many events the hub scored.
    fn serve_then_crash(hub: Hub, home: HomeId, events: &[BinaryEvent]) -> u64 {
        for chunk in events.chunks(10) {
            assert!(hub.submit_batch(home, chunk).unwrap().is_complete());
        }
        hub.drain();
        let scored = hub.stats().homes[home.index()].events_scored;
        drop(hub);
        scored
    }

    #[test]
    fn second_crash_after_a_torn_tail_recovers_every_scored_event() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let events: Vec<BinaryEvent> = (0..120u64)
            .map(|i| {
                let dev = if i % 3 == 0 { pe } else { lamp };
                BinaryEvent::new(Timestamp::from_secs(200_000 + i * 30), dev, i % 5 < 2)
            })
            .collect();
        let mut reference = model.clone().into_monitor();
        let expected: Vec<Verdict> = events.iter().map(|e| reference.observe(*e)).collect();
        let dir =
            std::env::temp_dir().join(format!("iot-serve-hub-double-crash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let home_dir = dir.join("home-0");

        // Serve past one snapshot (at 40 events), leaving 10 in the live
        // segment, and crash with part of a record on its end.
        let mut hub = Hub::new(crash_config(&dir));
        let home = hub.register("kitchen", &model);
        let scored = serve_then_crash(hub, home, &events[..50]);
        assert_eq!(scored, 50);
        let (_, live) = list_segments(&home_dir).unwrap().pop().unwrap();
        let mut file = fs::OpenOptions::new().append(true).open(&live).unwrap();
        io::Write::write_all(&mut file, &[14, 0, 0, 0, 0xab]).unwrap();
        drop(file);
        let snapshot = fs::read(home_dir.join(SNAP_FILE)).unwrap();

        let (hub, report) = Hub::recover(crash_config(&dir)).unwrap();
        let recovered = &report.homes[0];
        assert!(recovered.torn_tail.is_some());
        assert_eq!(recovered.durable_events, scored);
        assert_eq!(recovered.replayed_events, 10);
        assert_eq!(
            fs::read(home_dir.join(SNAP_FILE)).unwrap(),
            snapshot,
            "recovery wrote no snapshot"
        );

        // Twenty more events stay under the cadence (10 replayed + 20 <
        // 32), so they land in the reopened segment behind the replayed
        // records — where the torn bytes were.
        let scored = scored + serve_then_crash(hub, home, &events[50..70]);
        let (hub, report) = match Hub::recover(crash_config(&dir)) {
            Ok(ok) => ok,
            Err(e) => panic!("second recovery failed: {e}"),
        };
        let recovered = &report.homes[0];
        assert_eq!(recovered.durable_events, scored);
        assert_eq!(recovered.replayed_events, 30);
        assert_eq!(recovered.torn_tail, None);

        assert!(hub.submit_batch(home, &events[70..]).unwrap().is_complete());
        let reports = hub.shutdown();
        assert_eq!(reports[0].verdicts, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_without_a_verdict_log_restores_what_the_flight_recorder_shows() {
        let (reg, model) = fitted_model_tracking(11, 3);
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        // Random readings, so the lamp often ignores presence: anomaly
        // chains keep the tracking window `W` open across many event
        // boundaries.
        let mut rng = StdRng::seed_from_u64(5);
        let events: Vec<BinaryEvent> = (0..100u64)
            .map(|i| {
                let dev = if rng.gen_bool(0.5) { pe } else { lamp };
                BinaryEvent::new(
                    Timestamp::from_secs(400_000 + i * 30),
                    dev,
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        // The crash lands 30 events past the snapshot at 40, and an alarm
        // raised after it reports some of those 30 — records the recovery
        // rebuilt by replay — together with their cause values.
        let crash = 70;
        let mut reference = model.clone().into_monitor();
        let verdicts: Vec<Verdict> = events.iter().map(|e| reference.observe(*e)).collect();
        assert!(
            verdicts[crash..]
                .iter()
                .flat_map(|v| &v.alarms)
                .flat_map(|a| &a.events)
                .any(|e| (40..crash as u64).contains(&e.ordinal) && !e.cause_values.is_empty()),
            "no alarm after the crash reports a replayed record"
        );
        let root = std::env::temp_dir().join(format!(
            "iot-serve-hub-recover-flight-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        // Verdicts are not logged, but the flight recorder keeps them:
        // the worker scores through the verdict path.
        let config = |dir: &Path| {
            HubConfig::builder()
                .workers(1)
                .record_verdicts(false)
                .flight_recorder(events.len() - crash)
                .durability(DurabilityConfig {
                    snapshot_every: 32,
                    ..DurabilityConfig::at(dir)
                })
                .try_build()
                .unwrap()
        };
        let serve = |hub: &Hub, home: HomeId, events: &[BinaryEvent]| {
            for chunk in events.chunks(10) {
                assert!(hub.submit_batch(home, chunk).unwrap().is_complete());
            }
            hub.dump_home(home).unwrap().unwrap().entries
        };

        let mut hub = Hub::new(config(&root.join("uninterrupted")));
        let home = hub.register("kitchen", &model);
        let want = serve(&hub, home, &events);
        hub.shutdown();

        let mut hub = Hub::new(config(&root.join("crashed")));
        let home = hub.register("kitchen", &model);
        serve_then_crash(hub, home, &events[..crash]);
        let (hub, report) = Hub::recover(config(&root.join("crashed"))).unwrap();
        assert_eq!(report.homes[0].replayed_events, 30);
        // The ring holds exactly the events served since recovery.
        assert_eq!(serve(&hub, home, &events[crash..]), want);
        hub.shutdown();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshots_carry_the_capped_drift_window_and_restore_its_refit_view() {
        use crate::durable::{render_snapshot, DriftParts};
        use causaliot_core::persist::append_crc_footer;
        use causaliot_core::DriftConfig;

        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let pe = reg.id_of("PE_room").unwrap();
        let stream: Vec<BinaryEvent> = (0..87u64)
            .map(|i| {
                let dev = if i % 4 == 0 { pe } else { lamp };
                BinaryEvent::new(Timestamp::from_secs(300_000 + i * 20), dev, i % 3 == 0)
            })
            .collect();
        let cap = 20;
        let drift_config = DriftConfig::default();
        let seeded = || DriftState::new(model.clone(), &drift_config).unwrap();
        let mut live = seeded();
        for batch in stream[..35].chunks(7) {
            live.push_batch(batch, cap);
        }
        assert!((cap + 1..2 * cap).contains(&live.window.len()));

        let monitor_doc = model.clone().into_monitor().export_runtime_state();
        let render = |parts: &DriftParts<'_>| {
            let mut doc = render_snapshot(35, 1, &monitor_doc, None, Some(parts));
            append_crc_footer(&mut doc);
            doc
        };
        let capped = render(&live.snapshot_parts(cap));
        let window_lines = capped.lines().filter(|l| l.starts_with("drift.w ")).count();
        assert_eq!(window_lines, cap);
        // Earlier builds persisted the whole physical buffer.
        let whole = render(&DriftParts {
            window: &live.window,
            base_state: live.base_state.clone(),
            ..live.snapshot_parts(cap)
        });
        let restored = |doc: &str| {
            let mut state = seeded();
            let devices = model.num_devices();
            state.restore(parse_snapshot(doc, devices).unwrap().drift.unwrap());
            state
        };
        let mut states = [live, restored(&capped), restored(&whole)];
        let mut rest = &stream[35..];
        for len in [0, 9, 9, 25, 9] {
            let (batch, tail) = rest.split_at(len);
            rest = tail;
            for state in &mut states {
                state.push_batch(batch, cap);
            }
            let want = states[0].refit_snapshot(cap);
            assert_eq!(want.1.len(), cap);
            assert_eq!(states[1].refit_snapshot(cap), want, "capped, after {len}");
            assert_eq!(states[2].refit_snapshot(cap), want, "whole, after {len}");
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn recovery_phases_are_spans_once_per_home() {
        use iot_telemetry::MemorySink;

        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let dir = std::env::temp_dir().join(format!(
            "iot-serve-hub-recover-spans-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut hub = Hub::new(crash_config(&dir));
        let homes: Vec<HomeId> = ["a", "b", "c"]
            .iter()
            .map(|name| hub.register(name, &model))
            .collect();
        let events: Vec<BinaryEvent> = (0..45u64)
            .map(|i| BinaryEvent::new(Timestamp::from_secs(100_000 + i * 60), lamp, i % 2 == 0))
            .collect();
        serve_then_crash(hub, homes[1], &events);

        let telemetry = TelemetryHandle::new(Box::new(MemorySink::new()));
        let (hub, report) = Hub::recover_with_telemetry(crash_config(&dir), &telemetry).unwrap();
        assert_eq!(report.homes.len(), 3);
        drop(hub);
        let summary = telemetry.sink_summary().unwrap();
        for name in [
            "hub.recover.load",
            "hub.recover.snapshot",
            "hub.recover.replay",
            "hub.recover.resume",
        ] {
            let count = summary.lines().find_map(|line| {
                let mut fields = line.split_whitespace();
                (fields.next() == Some(name)).then(|| fields.next()?.parse::<u64>().ok())?
            });
            assert_eq!(count, Some(3), "{name} in:\n{summary}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_restore_on_healthy_home_counts() {
        let (reg, model) = fitted_model();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut hub = Hub::new(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let home = hub.register("home", &model);
        hub.submit(home, BinaryEvent::new(Timestamp::from_secs(1), lamp, true))
            .unwrap();
        hub.apply(ModelUpdate::Restore {
            home,
            model: &model,
        })
        .unwrap();
        let reports = hub.shutdown();
        assert_eq!(reports[0].restores, 1);
        assert_eq!(reports[0].swaps, 0);
        assert_eq!(reports[0].retired.len(), 1);
    }
}
