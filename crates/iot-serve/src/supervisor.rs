//! Worker machinery and shard supervision.
//!
//! Every shard's state lives in a shared [`ShardCore`] rather than inside
//! the worker thread: the bounded receiver, the home slots, and the
//! job counter are all reachable from outside the worker. That is what
//! makes supervision possible — when a worker thread dies (a fault hook
//! kill, or a defect in the hub itself), the supervisor joins the corpse
//! and spawns a replacement that picks up the *same* receiver and the
//! *same* homes, so the shard's queue resumes exactly where it stopped:
//! nothing dropped, nothing reordered. Worker deaths are only ever
//! detected at a burst boundary (the kill check runs before the worker
//! takes the receiver, with no drained job pending), so no job is lost
//! in flight.
//!
//! ### One scoring path
//!
//! A worker does not `recv` one job at a time: after blocking for the
//! first job it `try_recv`s the rest of the queue (up to
//! [`WORKER_BURST`]) into a reusable buffer and processes the burst in
//! order. Consecutive `Event` jobs for the same home coalesce into one
//! run; a `Batch` job is a run of its own. Every run, for every home and
//! every hub configuration, takes the same three steps:
//!
//! 1. its events pass through the home's ingest guard, when one is armed;
//! 2. what the guard releases collects in the burst scratch buffer, split
//!    into runs that share one stale set;
//! 3. [`ShardCore::score_batch`] scores each run — one `catch_unwind`,
//!    one set of counter updates — and is the only code here that calls
//!    a monitor.
//!
//! Quarantine still lands at the *exact* panicking event, and per-home
//! FIFO order, flight-recorder sequencing, and verdicts (`confidence`
//! included) stay bit-identical to observing the events one by one. A
//! fault hook rides the same path: `kill_worker` is consulted at every
//! burst boundary, and `before_observe` fires before each event inside
//! `score_batch`, so the chaos suites test the code that is benchmarked.
//!
//! The supervisor thread also drives the hub's optional
//! [`crate::RestorePolicy`]: it watches for quarantined homes and enqueues
//! checkpoint-restore swaps with backoff.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use causaliot_core::{
    DriftConfig, DriftDetector, DriftReport, FittedModel, IngestGuard, ObserveCtx, OwnedMonitor,
    StaleSet, Verdict,
};
use iot_model::{BinaryEvent, DeviceId, SystemState, Timestamp};
use iot_telemetry::{Counter, FlightRecorder, Gauge, Histogram, MonitorReport, TelemetryHandle};

use crate::config::{AdaptationPolicy, RestorePolicy};
use crate::durable::{render_snapshot, DriftParts, DriftResume, DurableHome, ResumeState};
use crate::fault::{panic_message, FaultHook, HomeHealth};
use crate::hub::HomeId;
use crate::refit::RefitRequest;
use crate::stats::{FlightEntry, FlightRecording, HomeStatsCell};
use crate::update::UpdateReason;
use crate::util::lock;

/// How often the supervisor checks worker liveness and quarantines.
const SUPERVISOR_TICK: Duration = Duration::from_millis(1);

/// Most jobs a worker drains from its queue in one burst. Bounds how
/// long the worker holds the receiver lock and how many jobs pass between
/// two kill checks.
const WORKER_BURST: usize = 256;

/// Scheduler yields a worker burns through an empty queue before parking
/// in a blocking `recv` (see the acquire loop in [`worker_loop`] for why).
const IDLE_YIELDS: u32 = 256;

/// Reusable worker-local buffers for burst processing — allocated once
/// per worker incarnation, so steady-state bursts are allocation-free.
#[derive(Default)]
pub(crate) struct BurstScratch {
    /// The current run's events ready to score, in order: what the home's
    /// ingest guard released, or the submitted events when it has none.
    events: Vec<BinaryEvent>,
    /// One entry per job that put events into `events`: the index of its
    /// first one and the job's submission instant.
    jobs: Vec<(usize, Instant)>,
    /// Where the guard's stale set changes inside `events`: from each
    /// index on, events score against the paired set (`None` when no
    /// device is stale). Empty while nothing has been stale.
    stale_runs: Vec<(usize, Option<StaleSet>)>,
    /// Verdict output buffer.
    verdicts: Vec<Verdict>,
}

impl BurstScratch {
    /// Queues one job's events for scoring. Through an ingest guard the
    /// queued events are the guard's releases, and a new stale run starts
    /// wherever the guard's stale set changes, so every release is scored
    /// against the set its own offer left behind.
    fn admit(
        &mut self,
        guard: Option<&mut IngestGuard<BinaryEvent>>,
        events: &[BinaryEvent],
        submitted: Instant,
    ) {
        let first = self.events.len();
        match guard {
            None => self.events.extend_from_slice(events),
            Some(guard) => {
                for &event in events {
                    let step = guard.offer(event);
                    if step.ready.is_empty() {
                        continue;
                    }
                    let stale = stale_devices(guard);
                    let current = self.stale_runs.last().and_then(|(_, set)| set.as_ref());
                    if current != stale.as_ref() {
                        self.stale_runs.push((self.events.len(), stale));
                    }
                    self.events.extend(step.ready);
                }
            }
        }
        if self.events.len() > first {
            self.jobs.push((first, submitted));
        }
    }
}

/// The guard's current stale set, or `None` when no device is stale
/// (degraded scoring against an empty set is plain scoring).
fn stale_devices(guard: &IngestGuard<BinaryEvent>) -> Option<StaleSet> {
    let stale = guard.stale_set();
    (stale.count() > 0).then_some(stale)
}

pub(crate) enum Job {
    Register {
        home: usize,
        name: String,
        monitor: Box<OwnedMonitor>,
        health: Arc<HomeHealth>,
        guard: Option<Box<IngestGuard<BinaryEvent>>>,
        stats: Arc<HomeStatsCell>,
        /// The model behind the monitor — an `Arc` handle, kept to seed
        /// the home's drift detector when adaptation is armed.
        model: FittedModel,
        /// Durable serving state to install: present exactly when the
        /// hub's [`crate::DurabilityConfig`] is armed. For a fresh
        /// registration it carries just the open WAL handle; for a
        /// recovered home it also restores the sequence number, verdict
        /// history, and drift window.
        resume: Option<Box<ResumeState>>,
    },
    /// One submitted event. Kept apart from `Batch` because it needs no
    /// allocation: a one-element `Vec` per `Hub::submit` would cost the
    /// producer one per event.
    Event {
        home: usize,
        event: BinaryEvent,
        submitted: Instant,
    },
    Batch {
        home: usize,
        events: Vec<BinaryEvent>,
        submitted: Instant,
    },
    Swap {
        home: usize,
        monitor: Box<OwnedMonitor>,
        /// Why the monitor is being replaced — recorded in the slot's
        /// update log, the `hub.updates.<reason>` counter, and (when
        /// adaptation is armed) the flight recorder's swap marker.
        reason: UpdateReason,
        /// The model behind the new monitor, for re-seeding drift state.
        model: FittedModel,
    },
    /// Dumps `home`'s flight recorder at an event boundary (`None` when
    /// recording is disabled).
    Dump {
        home: usize,
        ack: SyncSender<Option<FlightRecording>>,
    },
    Barrier(SyncSender<()>),
}

pub(crate) struct HomeSlot {
    pub(crate) name: String,
    pub(crate) monitor: OwnedMonitor,
    pub(crate) verdicts: Vec<Verdict>,
    pub(crate) swaps: u64,
    pub(crate) retired: Vec<MonitorReport>,
    pub(crate) health: Arc<HomeHealth>,
    /// Worker-local quarantine flag guarding the *logically poisoned*
    /// monitor. Distinct from the shared gate in [`HomeHealth`]: events
    /// already queued when the panic struck pass the submit-side gate but
    /// must still not reach the poisoned monitor — this flag drops them.
    pub(crate) poisoned: bool,
    /// Events offered to this home's monitor so far (the fault hook's
    /// per-home sequence number).
    pub(crate) seq: u64,
    /// Events dropped because they arrived for a poisoned monitor.
    pub(crate) dropped_quarantined: u64,
    /// The home's ingestion guard, when [`crate::HubConfig::ingest`] is
    /// configured; `None` scores events in the order they arrive.
    pub(crate) guard: Option<IngestGuard<BinaryEvent>>,
    /// Always-on live counters shared with the hub's [`crate::Hub::stats`].
    pub(crate) stats: Arc<HomeStatsCell>,
    /// The home's flight recorder, when
    /// [`crate::HubConfig::flight_recorder`] is configured. Owned by the
    /// slot (single writer), so recording is lock-free.
    pub(crate) recorder: Option<FlightRecorder<FlightEntry>>,
    /// One recording captured per quarantine, at the instant of the
    /// panic — the evidence survives even if the home is later restored
    /// and the live ring moves on.
    pub(crate) quarantine_flights: Vec<FlightRecording>,
    /// Per-home drift-detection state. `None` when the hub runs without
    /// an [`crate::AdaptationPolicy`] — in that case every scoring path
    /// is bit-identical to an adaptation-free build.
    pub(crate) drift: Option<DriftState>,
    /// Every model update processed for this home, in order (the typed
    /// audit trail behind [`crate::HomeReport::updates`]).
    pub(crate) updates: Vec<UpdateReason>,
    /// The home's write-ahead log and snapshot cadence, when the hub's
    /// [`crate::DurabilityConfig`] is armed. `None` otherwise — and
    /// dropped (with `hub.wal.errors` counted) if durable I/O ever
    /// fails, so a sick disk degrades durability, never scoring.
    pub(crate) durable: Option<DurableHome>,
}

/// One home's drift-detection state: the detector itself plus the
/// sliding event window a triggered refit re-estimates from.
pub(crate) struct DriftState {
    pub(crate) detector: DriftDetector,
    /// The model currently serving the home (refits resume from it).
    pub(crate) model: FittedModel,
    /// The most recent scored events. Logically capped at the policy's
    /// `refit_window`, physically allowed up to twice that: batches are
    /// appended with one `extend_from_slice` and the excess is folded
    /// into `base_state` in amortised compactions, so the serving hot
    /// path never pays a per-event ring rotation. Refits and snapshots
    /// take the exactly-capped view ([`DriftState::refit_snapshot`],
    /// [`DriftState::snapshot_parts`]).
    pub(crate) window: Vec<BinaryEvent>,
    /// The system state immediately before `window[0]` — the refit's
    /// initial state, advanced as old events are evicted.
    pub(crate) base_state: SystemState,
    /// Every drift report emitted for the home, in order (drained into
    /// [`crate::HomeReport::drift_reports`] at shutdown).
    pub(crate) reports: Vec<DriftReport>,
}

impl DriftState {
    /// Seeds drift state from the model now serving the home. `None`
    /// when the model cannot back a detector (config validation already
    /// passed at hub build, so this is effectively infallible).
    pub(crate) fn new(model: FittedModel, config: &DriftConfig) -> Option<DriftState> {
        let detector = model.drift_detector(config.clone()).ok()?;
        let base_state = model.final_train_state().clone();
        Some(DriftState {
            detector,
            model,
            window: Vec::new(),
            base_state,
            reports: Vec::new(),
        })
    }

    /// Folds an evicted event into the pre-window base state so the
    /// window's starting state stays exact.
    #[inline]
    fn fold(base_state: &mut SystemState, evicted: BinaryEvent) {
        if evicted.device.index() < base_state.len() {
            base_state.set(evicted.device, evicted.value);
        }
    }

    /// Appends a batch of scored events to the sliding window.
    ///
    /// The append is a single `extend_from_slice`; eviction is deferred
    /// until the buffer exceeds twice the cap, then the oldest half is
    /// folded into `base_state` in one pass and the tail shifted down.
    /// Amortised over `cap` events, that is O(1) per event with no
    /// per-event branches on the scoring hot path.
    pub(crate) fn push_batch(&mut self, events: &[BinaryEvent], cap: usize) {
        let cap = cap.max(1);
        if events.len() >= cap {
            // The batch alone fills the window: everything currently
            // buffered plus the batch's own prefix becomes base state.
            for evicted in self.window.drain(..) {
                Self::fold(&mut self.base_state, evicted);
            }
            let (folded, keep) = events.split_at(events.len() - cap);
            for &evicted in folded {
                Self::fold(&mut self.base_state, evicted);
            }
            self.window.extend_from_slice(keep);
            return;
        }
        self.window.extend_from_slice(events);
        if self.window.len() > 2 * cap {
            let excess = self.window.len() - cap;
            for &evicted in &self.window[..excess] {
                Self::fold(&mut self.base_state, evicted);
            }
            self.window.copy_within(excess.., 0);
            self.window.truncate(cap);
        }
    }

    /// The window's exactly-capped view: the system state before it and
    /// the most recent (at most) `cap` events. Folds any amortisation
    /// slack into a cloned base state; the live buffer is untouched.
    fn capped(&self, cap: usize) -> (SystemState, &[BinaryEvent]) {
        let cap = cap.max(1);
        let excess = self.window.len().saturating_sub(cap);
        let mut initial = self.base_state.clone();
        for &evicted in &self.window[..excess] {
            Self::fold(&mut initial, evicted);
        }
        (initial, &self.window[excess..])
    }

    /// The refit inputs: the [capped](Self::capped) view, owned.
    pub(crate) fn refit_snapshot(&self, cap: usize) -> (SystemState, Vec<BinaryEvent>) {
        let (initial, events) = self.capped(cap);
        (initial, events.to_vec())
    }

    /// What a live-state snapshot persists: the detector's window and the
    /// [capped](Self::capped) event window, which restores to the same
    /// refit inputs as the whole buffer would.
    pub(crate) fn snapshot_parts(&self, cap: usize) -> DriftParts<'_> {
        let (base_state, window) = self.capped(cap);
        DriftParts {
            since_check: self.detector.since_check(),
            events_seen: self.detector.events_seen(),
            samples: self.detector.window_samples().collect(),
            window,
            base_state,
        }
    }

    /// Restores the runtime state a snapshot carried into drift state
    /// freshly seeded from the same model.
    pub(crate) fn restore(&mut self, saved: DriftResume) {
        self.detector
            .restore_window(saved.samples, saved.since_check, saved.events_seen);
        self.window = saved.window;
        self.base_state = saved.base_state;
    }
}

/// Snapshots `slot`'s flight recorder into a dump (`None` when recording
/// is disabled).
pub(crate) fn flight_recording(home: usize, slot: &HomeSlot) -> Option<FlightRecording> {
    slot.recorder.as_ref().map(|ring| FlightRecording {
        home: HomeId(home),
        name: slot.name.clone(),
        capacity: ring.capacity(),
        recorded: ring.recorded(),
        entries: ring.snapshot(),
    })
}

pub(crate) struct WorkerContext {
    pub(crate) shard: usize,
    pub(crate) depth: Arc<AtomicUsize>,
    pub(crate) depth_gauge: Gauge,
    pub(crate) events: Counter,
    /// Hub-wide scored-event counter (`hub.events`), shared by every
    /// shard — the exporter's `hub_events_total`.
    pub(crate) events_total: Counter,
    pub(crate) swaps: Counter,
    pub(crate) quarantines: Counter,
    pub(crate) restores: Counter,
    pub(crate) dropped_quarantined: Counter,
    pub(crate) latency_us: Histogram,
    pub(crate) record_verdicts: bool,
    /// Flight-recorder capacity for homes registered on this shard
    /// ([`crate::HubConfig::flight_recorder`]).
    pub(crate) flight_recorder: Option<usize>,
    /// The hub's adaptation policy. `None` (the default) leaves every
    /// scoring path untouched — bit-identical to an adaptation-free hub.
    pub(crate) adaptation: Option<AdaptationPolicy>,
    /// The background refitter's bounded request queue (present exactly
    /// when `adaptation` is).
    pub(crate) refit_tx: Option<SyncSender<RefitRequest>>,
    /// `hub.drift.reports` — drift reports emitted across the fleet.
    pub(crate) drift_reports: Counter,
    /// `hub.drift.refit_requests` — reports that crossed the severity
    /// floor and were accepted onto the refitter queue.
    pub(crate) drift_refit_requests: Counter,
    /// `hub.drift.dropped` — triggered refits dropped because the
    /// refitter queue was full (backpressure, never a stall).
    pub(crate) drift_dropped: Counter,
    /// `hub.wal.appended` — events appended to per-home WALs.
    pub(crate) wal_appended: Counter,
    /// `hub.wal.fsyncs` — WAL group commits flushed to disk.
    pub(crate) wal_fsyncs: Counter,
    /// `hub.wal.rotations` — WAL segment rotations (one per snapshot).
    pub(crate) wal_rotations: Counter,
    /// `hub.wal.errors` — durable I/O failures; each disarms the
    /// affected home's durability rather than stall scoring.
    pub(crate) wal_errors: Counter,
    /// `hub.snapshot.written` — live-state snapshots published.
    pub(crate) snapshots_written: Counter,
    /// For per-job spans (`hub.event` / `hub.batch`); a disabled handle
    /// reduces each span to one `Option` check.
    pub(crate) telemetry: TelemetryHandle,
}

impl WorkerContext {
    /// The drift window's cap (`0` without adaptation, when no home has
    /// drift state to cap).
    fn refit_window(&self) -> usize {
        self.adaptation.as_ref().map_or(0, |p| p.refit_window)
    }
}

/// One shard's complete state, shared between its (current) worker
/// thread, the supervisor, and the hub's shutdown path.
pub(crate) struct ShardCore {
    /// The shard's bounded job queue. A `Mutex` so a respawned worker can
    /// take over consumption; exactly one worker holds it at a time.
    pub(crate) receiver: Mutex<Receiver<Job>>,
    pub(crate) homes: Mutex<BTreeMap<usize, HomeSlot>>,
    /// Jobs fully processed across all worker incarnations.
    pub(crate) jobs_done: AtomicU64,
    pub(crate) context: WorkerContext,
    pub(crate) hook: Option<Arc<dyn FaultHook>>,
}

impl ShardCore {
    /// Processes one control job (register, swap, dump, barrier) to
    /// completion and accounts for it.
    fn process(&self, job: Job) {
        match job {
            Job::Register {
                home,
                name,
                monitor,
                health,
                guard,
                stats,
                model,
                resume,
            } => {
                let (seq, verdicts, drift, durable) = match resume {
                    None => (0, Vec::new(), None, None),
                    Some(resume) => {
                        let ResumeState {
                            seq,
                            verdicts,
                            drift,
                            durable,
                        } = *resume;
                        (seq, verdicts, drift, Some(durable))
                    }
                };
                // A recovered home brings its drift state along; any
                // other home seeds it from the model.
                let drift = drift.or_else(|| {
                    self.context
                        .adaptation
                        .as_ref()
                        .and_then(|policy| DriftState::new(model, &policy.drift))
                });
                lock(&self.homes).insert(
                    home,
                    HomeSlot {
                        name,
                        monitor: *monitor,
                        verdicts,
                        swaps: 0,
                        retired: Vec::new(),
                        health,
                        poisoned: false,
                        seq,
                        dropped_quarantined: 0,
                        guard: guard.map(|g| *g),
                        stats,
                        recorder: self.context.flight_recorder.map(FlightRecorder::new),
                        quarantine_flights: Vec::new(),
                        drift,
                        updates: Vec::new(),
                        durable,
                    },
                );
            }
            Job::Dump { home, ack } => {
                let homes = lock(&self.homes);
                let recording = homes
                    .get(&home)
                    .and_then(|slot| flight_recording(home, slot));
                let _ = ack.send(recording);
            }
            Job::Swap {
                home,
                monitor,
                reason,
                model,
            } => {
                let mut homes = lock(&self.homes);
                if let Some(slot) = homes.get_mut(&home) {
                    if let Some(durable) = slot.durable.as_ref() {
                        // The durable model checkpoint must track the
                        // serving model, or a recovery would replay the
                        // WAL tail against the retired one.
                        if model.save_to_path(durable.model_path()).is_err() {
                            slot.durable = None;
                            self.context.wal_errors.inc();
                        }
                    }
                    let old = std::mem::replace(&mut slot.monitor, *monitor);
                    // A poisoned monitor's report is plain aggregated data,
                    // but its state is unspecified after the unwind: guard
                    // the call and settle for defaults if it panics too.
                    let report =
                        catch_unwind(AssertUnwindSafe(|| old.report())).unwrap_or_default();
                    slot.retired.push(report);
                    slot.updates.push(reason);
                    self.context
                        .telemetry
                        .counter(&format!("hub.updates.{reason}"))
                        .inc();
                    if let Some(policy) = &self.context.adaptation {
                        // Mark the swap boundary in the flight recorder: a
                        // sentinel entry (zero event, NaN score, no
                        // verdict) carrying the update reason, so a dump
                        // shows exactly which verdicts each model owns.
                        if let Some(ring) = slot.recorder.as_mut() {
                            ring.record(FlightEntry {
                                seq: slot.seq,
                                event: BinaryEvent::new(
                                    Timestamp::from_secs(0),
                                    DeviceId::from_index(0),
                                    false,
                                ),
                                score: f64::NAN,
                                verdict: None,
                                panicked: false,
                                update: Some(reason),
                            });
                        }
                        // Re-seed drift state from the incoming model: the
                        // retired model's calibration baseline no longer
                        // describes the serving monitor, and the window
                        // restarts from the new model's training state. The
                        // report log is the home's drift *history* and
                        // survives the swap.
                        let mut next = DriftState::new(model, &policy.drift);
                        if let (Some(next), Some(prev)) = (next.as_mut(), slot.drift.take()) {
                            next.reports = prev.reports;
                        }
                        slot.drift = next;
                    }
                    if reason.is_restore() {
                        slot.poisoned = false;
                        slot.health.note_restore();
                        self.context.restores.inc();
                    } else {
                        if slot.poisoned {
                            // A plain swap also replaces a poisoned
                            // monitor: recover, but don't count a restore.
                            slot.poisoned = false;
                            slot.health.clear_quarantine();
                        }
                        slot.swaps += 1;
                        self.context.swaps.inc();
                    }
                    // A model change is a durability boundary: snapshot
                    // now so no WAL tail ever spans two models.
                    self.snapshot_home(slot);
                }
            }
            Job::Barrier(ack) => {
                // Account for the barrier *before* acking: a caller doing
                // drain-then-stats must see the queue it drained at zero,
                // not a phantom in-flight barrier job.
                self.account_job_done();
                let _ = ack.send(());
                return;
            }
            Job::Event { .. } | Job::Batch { .. } => {
                unreachable!("process_burst scores event jobs")
            }
        }
        self.account_job_done();
    }

    fn account_job_done(&self) {
        self.account_jobs_done(1);
    }

    /// Accounts `jobs` fully-processed jobs at once: one pair of atomic
    /// updates and one gauge write instead of per-job ones.
    fn account_jobs_done(&self, jobs: usize) {
        self.jobs_done.fetch_add(jobs as u64, Ordering::Relaxed);
        let depth = self.context.depth.fetch_sub(jobs, Ordering::Relaxed) - jobs;
        self.context.depth_gauge.set(depth as u64);
    }

    /// Processes a drained burst of jobs in queue order. Consecutive
    /// `Event` jobs for the same home coalesce into one run; a `Batch`
    /// job is a run of its own. Runs never cross another job or a home
    /// change, so per-home FIFO order — including relative to swaps,
    /// dumps, and barriers — is exactly queue order.
    fn process_burst(&self, jobs: &mut Vec<Job>, scratch: &mut BurstScratch) {
        let mut iter = jobs.drain(..).peekable();
        while let Some(job) = iter.next() {
            match job {
                Job::Event {
                    home,
                    event,
                    submitted,
                } => {
                    let _span = self.context.telemetry.span("hub.event");
                    let mut homes = lock(&self.homes);
                    let mut slot = homes.get_mut(&home);
                    let mut run = 0;
                    let mut next = Some((event, submitted));
                    while let Some((event, submitted)) = next {
                        let guard = slot.as_mut().and_then(|slot| slot.guard.as_mut());
                        scratch.admit(guard, &[event], submitted);
                        run += 1;
                        next = match iter.next_if(
                            |job| matches!(job, Job::Event { home: other, .. } if *other == home),
                        ) {
                            Some(Job::Event {
                                event, submitted, ..
                            }) => Some((event, submitted)),
                            _ => None,
                        };
                    }
                    self.score_run(home, slot, scratch);
                    drop(homes);
                    self.account_jobs_done(run);
                }
                Job::Batch {
                    home,
                    events,
                    submitted,
                } => {
                    let _span = self.context.telemetry.span("hub.batch");
                    let mut homes = lock(&self.homes);
                    let mut slot = homes.get_mut(&home);
                    let guard = slot.as_mut().and_then(|slot| slot.guard.as_mut());
                    scratch.admit(guard, &events, submitted);
                    self.score_run(home, slot, scratch);
                    drop(homes);
                    self.account_job_done();
                }
                other => self.process(other),
            }
        }
    }

    /// Scores the run admitted into `scratch` for `home`: one
    /// [`score_batch`](Self::score_batch) call per stale run, then one
    /// latency sample per job with a scored event, then the job-boundary
    /// durability housekeeping. Leaves `scratch` empty.
    fn score_run(&self, home: usize, slot: Option<&mut HomeSlot>, scratch: &mut BurstScratch) {
        let BurstScratch {
            events,
            jobs,
            stale_runs,
            verdicts,
        } = scratch;
        if let Some(slot) = slot {
            if let Some(guard) = &slot.guard {
                slot.stats
                    .dead_letters
                    .store(guard.counts().total(), Ordering::Relaxed);
            }
            if self.context.record_verdicts {
                slot.verdicts.reserve(events.len());
            }
            let mut scored = 0;
            let (mut start, mut stale) = (0, None);
            for (end, next) in stale_runs.drain(..).chain([(events.len(), None)]) {
                if end > start {
                    let stale_run = &events[start..end];
                    scored += self.score_batch(home, slot, stale_run, stale.as_ref(), verdicts);
                }
                (start, stale) = (end, next);
            }
            // Scoring stops at a panic, so the scored events are a prefix
            // of the run: a job scored when its first event is inside it.
            for (_, submitted) in jobs.iter().take_while(|(first, _)| *first < scored) {
                self.context
                    .latency_us
                    .observe(submitted.elapsed().as_secs_f64() * 1e6);
            }
            self.settle_durability(slot);
        }
        events.clear();
        jobs.clear();
        stale_runs.clear();
    }

    /// Scores `events` against `slot`'s monitor under a single
    /// `catch_unwind`, returning how many events were scored — the only
    /// worker code that calls a monitor.
    ///
    /// With `stale` set, verdicts are scored in degraded mode against it
    /// (bit-identical to one `observe_with` per event under the same
    /// context); the stats-only and scores-only paths ignore it, because
    /// confidence is visible only in a verdict. With a fault hook attached,
    /// `before_observe(home, seq)` fires before each event and each event
    /// is its own monitor call, inside the same `catch_unwind`.
    ///
    /// Quarantine lands at the exact event: the monitor counts each event
    /// as it completes, so on a panic the scored count *is* the index of
    /// the panicking event — it gets the NaN flight-recorder entry and
    /// the frozen quarantine recording, and the events behind it are
    /// counted as quarantine-dropped.
    fn score_batch(
        &self,
        home: usize,
        slot: &mut HomeSlot,
        events: &[BinaryEvent],
        stale: Option<&StaleSet>,
        out: &mut Vec<Verdict>,
    ) -> usize {
        if slot.poisoned {
            let dropped = events.len() as u64;
            slot.dropped_quarantined += dropped;
            slot.stats
                .dropped_quarantined
                .fetch_add(dropped, Ordering::Relaxed);
            self.context.dropped_quarantined.add(dropped);
            return 0;
        }
        out.clear();
        let seq_base = slot.seq;
        // When nothing downstream can read per-event verdicts — no verdict
        // log, no flight recorder — score through the stats-only path,
        // which skips verdict and alarm materialisation entirely.
        // Counters, quarantine boundaries, and all monitor state stay
        // bit-identical; only the allocations disappear.
        let discard_verdicts = !self.context.record_verdicts && slot.recorder.is_none();
        let mut drift_pending: Vec<DriftReport> = Vec::new();
        let mut count = 0usize;
        let outcome = {
            let HomeSlot { monitor, drift, .. } = slot;
            // With adaptation armed and verdicts discarded, each score
            // reaches the drift detector as it is produced.
            let mut detector = drift
                .as_mut()
                .filter(|_| discard_verdicts)
                .map(|drift| &mut drift.detector);
            let reports = &mut drift_pending;
            let count = &mut count;
            let ctx = stale.map_or_else(ObserveCtx::new, ObserveCtx::with_stale);
            let mut score = |batch: &[BinaryEvent]| {
                if !discard_verdicts {
                    monitor.observe_batch_into(batch, &ctx, out)
                } else if let Some(detector) = detector.as_deref_mut() {
                    monitor.observe_batch_scores_only(batch, count, &mut |event, score| {
                        if let Some(report) = detector.record(event.device, score) {
                            reports.push(report);
                        }
                    })
                } else {
                    monitor.observe_batch_stats_only(batch, count)
                }
            };
            let hook = self.hook.as_deref();
            catch_unwind(AssertUnwindSafe(|| match hook {
                None => score(events),
                Some(hook) => {
                    for (i, event) in events.iter().enumerate() {
                        hook.before_observe(HomeId(home), seq_base + i as u64);
                        score(std::slice::from_ref(event));
                    }
                }
            }))
        };
        let scored = if discard_verdicts {
            count
        } else {
            // Verdicts were materialised anyway; feed their scores.
            if let Some(drift) = slot.drift.as_mut() {
                for (event, verdict) in events.iter().zip(out.iter()) {
                    if let Some(report) = drift.detector.record(event.device, verdict.score) {
                        drift_pending.push(report);
                    }
                }
            }
            out.len()
        };
        // Scored events consumed one seq each; a panicking event consumed
        // one more (it was offered: its `before_observe` fired).
        slot.seq = seq_base + scored as u64 + outcome.is_err() as u64;
        // Only *scored* events reach the WAL, after scoring: the log is
        // exactly the stream a recovery must replay, and a panicking
        // event (which poisons the monitor) is never logged — so replay
        // cannot re-poison the home.
        self.wal_append(slot, &events[..scored]);
        if scored > 0 {
            self.context.events.add(scored as u64);
            self.context.events_total.add(scored as u64);
            slot.stats
                .events_scored
                .fetch_add(scored as u64, Ordering::Relaxed);
            if let Some(drift) = slot.drift.as_mut() {
                drift.push_batch(&events[..scored], self.context.refit_window());
            }
        }
        self.note_drift(home, slot, drift_pending);
        if let Some(ring) = slot.recorder.as_mut() {
            for (i, (event, verdict)) in events.iter().zip(out.iter()).enumerate() {
                ring.record(FlightEntry {
                    seq: seq_base + i as u64,
                    event: *event,
                    score: verdict.score,
                    verdict: Some(verdict.clone()),
                    panicked: false,
                    update: None,
                });
            }
        }
        if self.context.record_verdicts && scored > 0 {
            slot.stats
                .verdicts_recorded
                .fetch_add(scored as u64, Ordering::Relaxed);
            slot.verdicts.append(out);
        }
        if let Err(payload) = outcome {
            slot.poisoned = true;
            slot.health.record_panic(panic_message(payload.as_ref()));
            self.context.quarantines.inc();
            if scored < events.len() {
                if let Some(ring) = slot.recorder.as_mut() {
                    ring.record(FlightEntry {
                        seq: seq_base + scored as u64,
                        event: events[scored],
                        score: f64::NAN,
                        verdict: None,
                        panicked: true,
                        update: None,
                    });
                }
                if let Some(recording) = flight_recording(home, slot) {
                    slot.quarantine_flights.push(recording);
                }
                let behind = (events.len() - scored - 1) as u64;
                if behind > 0 {
                    slot.dropped_quarantined += behind;
                    slot.stats
                        .dropped_quarantined
                        .fetch_add(behind, Ordering::Relaxed);
                    self.context.dropped_quarantined.add(behind);
                }
            }
        }
        scored
    }

    /// Appends scored events to `slot`'s WAL when durability is armed.
    /// An append failure disarms the home's durability (counted in
    /// `hub.wal.errors`) — scoring always continues.
    fn wal_append(&self, slot: &mut HomeSlot, events: &[BinaryEvent]) {
        if events.is_empty() || slot.durable.is_none() {
            return;
        }
        let durable = slot.durable.as_mut().expect("checked is_some above");
        match durable.append(events) {
            Ok(()) => self.context.wal_appended.add(events.len() as u64),
            Err(_) => {
                slot.durable = None;
                self.context.wal_errors.inc();
            }
        }
    }

    /// Job-boundary durability housekeeping: applies the group-commit
    /// fsync rule, then rotates through a snapshot if the cadence is due.
    /// Any I/O failure disarms the home's durability.
    fn settle_durability(&self, slot: &mut HomeSlot) {
        let Some(durable) = slot.durable.as_mut() else {
            return;
        };
        match durable.sync_if_due() {
            Ok(true) => self.context.wal_fsyncs.inc(),
            Ok(false) => {}
            Err(_) => {
                slot.durable = None;
                self.context.wal_errors.inc();
                return;
            }
        }
        if !slot.poisoned && slot.durable.as_ref().is_some_and(|d| d.needs_snapshot()) {
            self.snapshot_home(slot);
        }
    }

    /// Takes a live-state snapshot of `slot` and rotates its WAL.
    ///
    /// Only ever called at an event boundary, and never for a poisoned
    /// home (its monitor state is unspecified after the unwind — the
    /// previous snapshot plus the synced WAL remain the durable truth).
    fn snapshot_home(&self, slot: &mut HomeSlot) {
        let HomeSlot {
            durable,
            monitor,
            verdicts,
            drift,
            seq,
            poisoned,
            ..
        } = slot;
        if *poisoned {
            return;
        }
        let Some(dur) = durable.as_mut() else {
            return;
        };
        let monitor_doc = monitor.export_runtime_state();
        let drift_parts = drift
            .as_ref()
            .map(|d| d.snapshot_parts(self.context.refit_window()));
        let doc = render_snapshot(
            *seq,
            dur.next_epoch(),
            &monitor_doc,
            self.context.record_verdicts.then_some(verdicts.as_slice()),
            drift_parts.as_ref(),
        );
        match dur.rotate(&doc) {
            Ok(()) => {
                self.context.wal_rotations.inc();
                self.context.snapshots_written.inc();
            }
            Err(_) => {
                *durable = None;
                self.context.wal_errors.inc();
            }
        }
    }

    /// Shutdown-path durability flush, run after the queues drain: every
    /// healthy home gets a final snapshot (so a clean shutdown leaves an
    /// empty WAL tail), every poisoned home gets its WAL fsynced as-is.
    pub(crate) fn final_snapshots(&self) {
        let mut homes = lock(&self.homes);
        for slot in homes.values_mut() {
            if slot.poisoned {
                if let Some(durable) = slot.durable.as_mut() {
                    match durable.sync_now() {
                        Ok(true) => self.context.wal_fsyncs.inc(),
                        Ok(false) => {}
                        Err(_) => {
                            slot.durable = None;
                            self.context.wal_errors.inc();
                        }
                    }
                }
            } else {
                self.snapshot_home(slot);
            }
        }
    }

    /// Files freshly emitted drift reports for one home: counts them,
    /// logs them into the slot, and — when a report crosses the policy's
    /// severity floor — hands the home's sliding window to the background
    /// refitter. The handoff is a `try_send` on a bounded queue: a full
    /// refitter never stalls scoring, the trigger is simply dropped and
    /// counted (`hub.drift.dropped`). Either way the detector is reset,
    /// so the next report reflects only post-trigger events.
    fn note_drift(&self, home: usize, slot: &mut HomeSlot, reports: Vec<DriftReport>) {
        if reports.is_empty() {
            return;
        }
        let Some(policy) = &self.context.adaptation else {
            return;
        };
        let name = slot.name.clone();
        let Some(drift) = slot.drift.as_mut() else {
            return;
        };
        for report in reports {
            self.context.drift_reports.inc();
            let triggered = report.severity >= policy.min_severity;
            drift.reports.push(report);
            if !triggered {
                continue;
            }
            if let Some(tx) = &self.context.refit_tx {
                let (initial, events) = drift.refit_snapshot(policy.refit_window);
                let request = RefitRequest {
                    home,
                    name: name.clone(),
                    shard: self.context.shard,
                    model: drift.model.clone(),
                    initial,
                    events,
                };
                match tx.try_send(request) {
                    Ok(()) => self.context.drift_refit_requests.inc(),
                    Err(_) => self.context.drift_dropped.inc(),
                }
            }
            drift.detector.reset();
        }
    }

    /// Releases every event still parked in a home's reordering buffer
    /// and scores it — the shutdown path's end-of-stream flush, run after
    /// the queues drain so nothing submitted is silently lost.
    pub(crate) fn flush_guards(&self) {
        let mut homes = lock(&self.homes);
        let mut out = Vec::new();
        for (&home, slot) in homes.iter_mut() {
            let Some(guard) = slot.guard.as_mut() else {
                continue;
            };
            let remaining = guard.flush();
            let stale = if remaining.is_empty() {
                None
            } else {
                stale_devices(guard)
            };
            slot.stats
                .dead_letters
                .store(guard.counts().total(), Ordering::Relaxed);
            if !remaining.is_empty() {
                self.score_batch(home, slot, &remaining, stale.as_ref(), &mut out);
            }
        }
    }

    /// Processes whatever is still queued, inline on the calling thread,
    /// as one burst.
    ///
    /// Shutdown fallback for a shard whose worker died after the
    /// supervisor stopped: its leftover jobs are scored here so shutdown
    /// never drops events.
    pub(crate) fn drain_remaining(&self) {
        let mut jobs: Vec<Job> = lock(&self.receiver).try_iter().collect();
        self.process_burst(&mut jobs, &mut BurstScratch::default());
    }
}

pub(crate) fn spawn_worker(core: Arc<ShardCore>) -> JoinHandle<()> {
    let shard = core.context.shard;
    std::thread::Builder::new()
        .name(format!("iot-serve-worker-{shard}"))
        .spawn(move || worker_loop(&core))
        .expect("spawn hub worker")
}

/// The worker body: drains whole queue bursts into a reusable buffer and
/// processes each before the next. The loop top is a clean job boundary.
fn worker_loop(core: &ShardCore) {
    let mut jobs: Vec<Job> = Vec::with_capacity(WORKER_BURST);
    let mut scratch = BurstScratch::default();
    loop {
        // Kill check at the burst boundary, *before* taking the receiver:
        // a worker only ever dies with no job in flight, so its successor
        // loses nothing.
        if let Some(hook) = &core.hook {
            if hook.kill_worker(core.context.shard, core.jobs_done.load(Ordering::Relaxed)) {
                panic!("injected worker death (shard {})", core.context.shard);
            }
        }
        {
            let receiver = lock(&core.receiver);
            // Adaptive acquire: burn a few scheduler yields through an
            // empty queue before falling back to the blocking recv. When
            // producers are actively submitting, the yield hands the CPU
            // to them and the queue refills without a futex sleep/wake
            // round-trip per job — on a loaded box that handoff is the
            // dominant per-job cost once batched scoring is this cheap.
            // A genuinely idle worker still parks in recv after the spin.
            let mut idle = 0u32;
            loop {
                match receiver.try_recv() {
                    Ok(job) => {
                        jobs.push(job);
                        break;
                    }
                    Err(TryRecvError::Disconnected) => return,
                    Err(TryRecvError::Empty) => {
                        if idle >= IDLE_YIELDS {
                            match receiver.recv() {
                                Ok(job) => {
                                    jobs.push(job);
                                    break;
                                }
                                // All senders dropped: shutting down.
                                Err(_) => return,
                            }
                        }
                        idle += 1;
                        std::thread::yield_now();
                    }
                }
            }
            while jobs.len() < WORKER_BURST {
                match receiver.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
        }
        core.process_burst(&mut jobs, &mut scratch);
    }
}

/// A home as the supervisor sees it: which shard it lives on and its
/// shared health record.
#[derive(Clone)]
pub(crate) struct SupervisedHome {
    pub(crate) home: usize,
    pub(crate) shard: usize,
    pub(crate) health: Arc<HomeHealth>,
}

/// State shared between the hub and its supervisor thread.
pub(crate) struct SupervisorShared {
    pub(crate) stop: AtomicBool,
    /// Current worker handle per shard (`None` transiently during a
    /// respawn). Shutdown takes these to join.
    pub(crate) workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Every registered home (the supervisor's restore work-list).
    pub(crate) homes: Mutex<Vec<SupervisedHome>>,
}

#[derive(Default)]
struct RestoreTracker {
    attempts: u32,
    last: Option<Instant>,
    /// The home's restore count when the restore now in flight was sent:
    /// it has landed once the count moves on.
    in_flight: Option<u64>,
}

/// The supervisor thread body: respawns dead workers and drives
/// checkpoint auto-restore.
pub(crate) struct Supervisor {
    pub(crate) shared: Arc<SupervisorShared>,
    pub(crate) cores: Vec<Arc<ShardCore>>,
    pub(crate) senders: Vec<SyncSender<Job>>,
    pub(crate) restarts: Vec<Counter>,
    pub(crate) restore_policy: Option<RestorePolicy>,
    pub(crate) telemetry: TelemetryHandle,
}

impl Supervisor {
    pub(crate) fn run(self) {
        let mut trackers: BTreeMap<usize, RestoreTracker> = BTreeMap::new();
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                return;
            }
            self.respawn_dead_workers();
            self.auto_restore(&mut trackers);
            std::thread::sleep(SUPERVISOR_TICK);
        }
    }

    fn respawn_dead_workers(&self) {
        let mut workers = lock(&self.shared.workers);
        for (shard, slot) in workers.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(|h| h.is_finished());
            if finished {
                if let Some(handle) = slot.take() {
                    // The corpse carries the kill panic's payload; the
                    // respawn itself is the recovery.
                    let _ = handle.join();
                }
                self.restarts[shard].inc();
                *slot = Some(spawn_worker(Arc::clone(&self.cores[shard])));
            }
        }
    }

    fn auto_restore(&self, trackers: &mut BTreeMap<usize, RestoreTracker>) {
        let Some(policy) = &self.restore_policy else {
            return;
        };
        let homes: Vec<SupervisedHome> = lock(&self.shared.homes).clone();
        for entry in homes {
            if !entry.health.is_quarantined() {
                continue;
            }
            let tracker = trackers.entry(entry.home).or_default();
            // One restore per quarantine: a swap still queued behind a busy
            // worker has not failed, so it is never sent twice.
            let restores = entry.health.restores();
            if tracker.in_flight == Some(restores) {
                continue;
            }
            if tracker.attempts >= policy.backoff.max_attempts {
                continue;
            }
            if let Some(last) = tracker.last {
                // Seeded per-home jitter so a fleet-wide outage doesn't
                // stampede every home's restore onto the same tick; the
                // wait is never shorter than the plain schedule.
                let wait = policy
                    .backoff
                    .delay_jittered(tracker.attempts, entry.home as u64);
                if last.elapsed() < wait {
                    continue;
                }
            }
            tracker.last = Some(Instant::now());
            // Re-read the checkpoint on every attempt so an operator can
            // replace the file between attempts. The crash-safe loader
            // verifies the CRC footer, so a corrupt or truncated file
            // burns an attempt instead of installing a broken monitor.
            let Ok(model) = FittedModel::load_from_path_with_telemetry(
                &policy.from_checkpoint,
                &self.telemetry,
            ) else {
                tracker.attempts += 1;
                continue;
            };
            let monitor = Box::new(model.clone().into_monitor());
            let core = &self.cores[entry.shard];
            core.context.depth.fetch_add(1, Ordering::Relaxed);
            // Never a blocking send here: if this shard's worker just died
            // with a full queue, blocking would stall respawns for every
            // shard. A full queue simply retries next tick, uncounted.
            match self.senders[entry.shard].try_send(Job::Swap {
                home: entry.home,
                monitor,
                reason: UpdateReason::AutoRestore,
                model,
            }) {
                Ok(()) => {
                    tracker.attempts += 1;
                    tracker.in_flight = Some(restores);
                }
                Err(_) => {
                    core.context.depth.fetch_sub(1, Ordering::Relaxed);
                    tracker.last = None;
                }
            }
        }
    }
}

/// Owns the supervisor thread; dropping it stops and joins the thread.
///
/// Declared as the *first* field of [`crate::Hub`] so that a plain
/// `drop(hub)` stops the supervisor (whose sender clones would otherwise
/// keep every shard channel connected) before the shard senders drop.
pub(crate) struct SupervisorGuard {
    pub(crate) shared: Arc<SupervisorShared>,
    pub(crate) handle: Option<JoinHandle<()>>,
}

impl Drop for SupervisorGuard {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
