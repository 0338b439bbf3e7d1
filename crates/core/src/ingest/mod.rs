//! Ingestion hardening: the guard layer between the world's event feeds
//! and the monitors.
//!
//! The paper's Event Preprocessor assumes a clean, time-ordered stream.
//! Real smart-home feeds are not: gateways deliver events out of order,
//! devices report NaN readings, clocks jump backwards, a stuck firmware
//! re-reports the same state in a tight loop, and sensors silently die.
//! [`IngestGuard`] sits in front of a monitor's raw observations
//! ([`crate::pipeline::OwnedMonitor::observe_with`]; and, via `iot-serve`,
//! in front of every home's monitor on the shard)
//! and repairs what can be repaired while recording what cannot:
//!
//! * **Ordering repair** — a bounded reordering buffer holds events for up
//!   to [`IngestPolicy::reorder_window`]; a watermark trails the maximum
//!   timestamp seen by that window, and buffered events are released in
//!   timestamp order once the watermark passes them. An in-order stream
//!   comes out bit-identical to its input.
//! * **Dead letters** — events that cannot be scored are never dropped
//!   silently: they are returned as [`DeadLetter`] records with a
//!   structured [`DropReason`] cause (`NonFinite`, `ClockRegression`,
//!   `LateArrival`, `UnknownDevice`, `DuplicateFlood`) and counted in
//!   [`DeadLetterCounts`] and the `ingest.*` telemetry instruments.
//! * **Sensor-dropout detection** — a per-device liveness clock
//!   ([`IngestPolicy::liveness_timeout`], typically derived from the
//!   fitted mean inter-event gap) flags devices that have gone silent;
//!   the resulting [`StaleSet`] drives the monitors' *degraded mode*,
//!   where verdicts carry a [`crate::Verdict::confidence`] discounting
//!   CPT entries conditioned on stale parents.
//!
//! [`GuardedMonitor`] bundles a guard with an [`OwnedMonitor`] for the
//! common single-stream case; the `iot-serve` hub wires a per-home guard
//! into its shards when [`HubConfig::ingest`] is set.
//!
//! [`HubConfig::ingest`]: ../../iot_serve/struct.HubConfig.html

use std::time::Duration;

use iot_model::{BinaryEvent, DeviceEvent, DeviceId, StateValue, Timestamp};
use iot_telemetry::{Counter, Gauge, TelemetryHandle};

use crate::error::ConfigError;
use crate::monitor::Verdict;
use crate::pipeline::{DropReason, FittedModel, Observation, ObserveCtx, OwnedMonitor};

/// Configuration of the ingestion guard.
///
/// All knobs are durations (or counts), so the policy is `Eq` and can sit
/// inside `iot-serve`'s `HubConfig`. Construct with a struct literal over
/// [`IngestPolicy::default`] and adjust the knobs you care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestPolicy {
    /// How long an event may be held for reordering. The guard's
    /// watermark trails the maximum timestamp seen by this much; events
    /// older than the watermark on arrival are too late to reinsert and
    /// become dead letters. `0` disables reordering (every event is
    /// released immediately and any regression is late).
    pub reorder_window: Duration,
    /// How far behind the watermark a timestamp may lie before the guard
    /// classifies it as a clock fault ([`DropReason::ClockRegression`])
    /// rather than network-induced lateness ([`DropReason::LateArrival`]).
    pub max_skew: Duration,
    /// The per-device liveness clock: a device not heard from for this
    /// long (in stream time, measured against the watermark's source —
    /// the maximum timestamp seen) is flagged stale, switching the
    /// monitor into degraded mode. `None` disables dropout detection.
    pub liveness_timeout: Option<Duration>,
    /// Maximum run of consecutive identical readings a device may report
    /// before further repeats become [`DropReason::DuplicateFlood`] dead
    /// letters. `0` disables flood protection.
    pub duplicate_flood_limit: u32,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        IngestPolicy {
            reorder_window: Duration::from_secs(30),
            max_skew: Duration::from_secs(300),
            liveness_timeout: None,
            duplicate_flood_limit: 0,
        }
    }
}

impl IngestPolicy {
    /// Validates the policy, naming the offending parameter on error.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `liveness_timeout` is `Some(0)` (a zero timeout
    /// would flag every device stale on its first quiet millisecond).
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.liveness_timeout == Some(Duration::ZERO) {
            return Err(ConfigError::new(
                "liveness_timeout",
                "must be positive when set (use None to disable dropout detection)",
            ));
        }
        Ok(())
    }

    /// Sets the liveness timeout from a fitted mean inter-event gap (see
    /// [`iot_model::EventLog::mean_inter_event_gap_secs`]), scaled by
    /// `factor` — a device is flagged stale after `factor` mean gaps of
    /// silence. Non-finite or non-positive inputs disable detection.
    #[must_use]
    pub fn with_liveness_from_mean_gap(mut self, mean_gap_secs: f64, factor: f64) -> Self {
        let timeout = mean_gap_secs * factor;
        self.liveness_timeout =
            (timeout.is_finite() && timeout > 0.0).then(|| Duration::from_secs_f64(timeout));
        self
    }
}

/// An event the ingestion guard can validate, buffer, and reorder.
///
/// Implemented for raw [`DeviceEvent`]s (the [`GuardedMonitor`] path) and
/// for preprocessed [`BinaryEvent`]s (the `iot-serve` hub path).
pub trait IngestEvent: Copy {
    /// The event's timestamp.
    fn time(&self) -> Timestamp;
    /// The reporting device.
    fn device(&self) -> DeviceId;
    /// Whether the reading is NaN or infinite (never true for binary
    /// events).
    fn is_non_finite(&self) -> bool;
    /// Whether this event repeats `prev`'s reading (the duplicate-flood
    /// check; timestamps are ignored).
    fn same_reading(&self, prev: &Self) -> bool;
}

impl IngestEvent for DeviceEvent {
    fn time(&self) -> Timestamp {
        self.time
    }

    fn device(&self) -> DeviceId {
        self.device
    }

    fn is_non_finite(&self) -> bool {
        matches!(self.value, StateValue::Numeric(v) if !v.is_finite())
    }

    fn same_reading(&self, prev: &Self) -> bool {
        self.value.is_duplicate_of(prev.value, 1e-9)
    }
}

impl IngestEvent for BinaryEvent {
    fn time(&self) -> Timestamp {
        self.time
    }

    fn device(&self) -> DeviceId {
        self.device
    }

    fn is_non_finite(&self) -> bool {
        false
    }

    fn same_reading(&self, prev: &Self) -> bool {
        self.value == prev.value
    }
}

/// An event the guard refused to forward, with its structured cause.
///
/// Dead letters are the guard's audit trail: nothing is dropped silently,
/// so an operator can replay or inspect exactly what the pipeline did not
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadLetter<E> {
    /// The refused event, unmodified.
    pub event: E,
    /// Why it was refused.
    pub cause: DropReason,
}

/// Dead letters by cause — the per-home counts surfaced through
/// `iot-serve`'s `HomeReport` and the `ingest.drop.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadLetterCounts {
    /// NaN or infinite numeric readings.
    pub non_finite: u64,
    /// Timestamps that regressed beyond `max_skew`.
    pub clock_regression: u64,
    /// Events that arrived after the reorder watermark passed them.
    pub late_arrival: u64,
    /// Events naming devices outside the fitted model.
    pub unknown_device: u64,
    /// Identical readings beyond the duplicate-flood limit.
    pub duplicate_flood: u64,
}

impl DeadLetterCounts {
    /// Total dead letters across all causes.
    pub fn total(&self) -> u64 {
        self.non_finite
            + self.clock_regression
            + self.late_arrival
            + self.unknown_device
            + self.duplicate_flood
    }

    fn record(&mut self, cause: DropReason) {
        match cause {
            DropReason::NonFinite => self.non_finite += 1,
            DropReason::ClockRegression => self.clock_regression += 1,
            DropReason::LateArrival => self.late_arrival += 1,
            DropReason::UnknownDevice => self.unknown_device += 1,
            DropReason::DuplicateFlood => self.duplicate_flood += 1,
            // The preprocessing reasons are counted by the monitor itself.
            DropReason::Duplicate | DropReason::Extreme => {}
        }
    }
}

/// The set of devices currently flagged stale by the liveness clock.
///
/// Carried by an [`ObserveCtx`] into the monitor's `observe_with` and
/// `observe_batch_into`, which discount verdict
/// [`confidence`](crate::Verdict::confidence) for CPT entries conditioned
/// on stale parents. An empty set makes degraded mode a no-op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StaleSet {
    flags: Vec<bool>,
    count: usize,
}

impl StaleSet {
    /// An all-live set over `num_devices` devices.
    pub fn all_live(num_devices: usize) -> Self {
        StaleSet {
            flags: vec![false; num_devices],
            count: 0,
        }
    }

    /// Flags `device` as stale.
    pub fn mark(&mut self, device: DeviceId) {
        if let Some(flag) = self.flags.get_mut(device.index()) {
            if !*flag {
                *flag = true;
                self.count += 1;
            }
        }
    }

    /// Whether `device` is flagged stale (out-of-range devices are not).
    pub fn is_stale(&self, device: DeviceId) -> bool {
        self.flags.get(device.index()).copied().unwrap_or(false)
    }

    /// Number of stale devices.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// What [`IngestGuard::offer`] did with one arriving event.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestStep<E> {
    /// Events released from the reordering buffer in timestamp order
    /// (possibly including the offered event itself), ready to score.
    pub ready: Vec<E>,
    /// The offered event's dead letter, if it was refused.
    pub dead: Option<DeadLetter<E>>,
}

impl<E> IngestStep<E> {
    fn accepted(ready: Vec<E>) -> Self {
        IngestStep { ready, dead: None }
    }

    fn refused(event: E, cause: DropReason) -> Self {
        IngestStep {
            ready: Vec::new(),
            dead: Some(DeadLetter { event, cause }),
        }
    }
}

/// Resolved-once `ingest.*` instruments; disabled handles cost one branch.
#[derive(Debug, Clone, Default)]
struct IngestInstruments {
    enabled: bool,
    non_finite: Counter,
    clock_regression: Counter,
    late_arrival: Counter,
    unknown_device: Counter,
    duplicate_flood: Counter,
    dead_letters: Gauge,
    stale_devices: Gauge,
}

impl IngestInstruments {
    fn from_handle(telemetry: &TelemetryHandle) -> Self {
        IngestInstruments {
            enabled: telemetry.enabled(),
            non_finite: telemetry.counter("ingest.drop.non_finite"),
            clock_regression: telemetry.counter("ingest.drop.clock_regression"),
            late_arrival: telemetry.counter("ingest.drop.late_arrival"),
            unknown_device: telemetry.counter("ingest.drop.unknown_device"),
            duplicate_flood: telemetry.counter("ingest.drop.duplicate_flood"),
            dead_letters: telemetry.gauge("ingest.dead_letters"),
            stale_devices: telemetry.gauge("ingest.stale_devices"),
        }
    }

    fn record(&self, cause: DropReason, total: u64) {
        if !self.enabled {
            return;
        }
        match cause {
            DropReason::NonFinite => self.non_finite.inc(),
            DropReason::ClockRegression => self.clock_regression.inc(),
            DropReason::LateArrival => self.late_arrival.inc(),
            DropReason::UnknownDevice => self.unknown_device.inc(),
            DropReason::DuplicateFlood => self.duplicate_flood.inc(),
            DropReason::Duplicate | DropReason::Extreme => {}
        }
        self.dead_letters.set(total);
    }
}

/// The ingestion guard: validation, bounded reordering, dead-letter
/// accounting, and the liveness clock, in front of a monitor.
///
/// Feed arriving events with [`offer`](Self::offer); score everything in
/// the returned [`IngestStep::ready`] (in order), and log or persist
/// [`IngestStep::dead`]. At end of stream (or shutdown), [`flush`]
/// releases whatever the reordering buffer still holds.
///
/// On a clean, in-order stream the guard is a pure delay line: the
/// concatenation of every `ready` batch plus the final [`flush`] is the
/// input stream, unchanged — so verdicts are bit-identical to an unguarded
/// run.
///
/// [`flush`]: Self::flush
#[derive(Debug, Clone)]
pub struct IngestGuard<E: IngestEvent> {
    policy: IngestPolicy,
    window_ms: u64,
    max_skew_ms: u64,
    liveness_ms: Option<u64>,
    num_devices: usize,
    /// Reordering buffer, sorted ascending by timestamp; ties keep
    /// arrival order.
    buffer: Vec<E>,
    /// Maximum timestamp accepted so far, in milliseconds.
    max_seen_ms: Option<u64>,
    /// First timestamp accepted, for never-heard liveness accounting.
    first_seen_ms: Option<u64>,
    /// Per-device last accepted timestamp (ms).
    last_seen_ms: Vec<Option<u64>>,
    /// Per-device previous reading and current run length, for the
    /// duplicate-flood check.
    last_reading: Vec<Option<(E, u32)>>,
    counts: DeadLetterCounts,
    instruments: IngestInstruments,
}

impl<E: IngestEvent> IngestGuard<E> {
    /// Creates a guard for a model covering `num_devices` devices.
    pub fn new(policy: IngestPolicy, num_devices: usize) -> Self {
        IngestGuard {
            window_ms: duration_ms(policy.reorder_window),
            max_skew_ms: duration_ms(policy.max_skew),
            liveness_ms: policy.liveness_timeout.map(duration_ms),
            policy,
            num_devices,
            buffer: Vec::new(),
            max_seen_ms: None,
            first_seen_ms: None,
            last_seen_ms: vec![None; num_devices],
            last_reading: vec![None; num_devices],
            counts: DeadLetterCounts::default(),
            instruments: IngestInstruments::default(),
        }
    }

    /// Attaches the `ingest.*` telemetry instruments.
    pub fn set_telemetry(&mut self, telemetry: &TelemetryHandle) {
        self.instruments = IngestInstruments::from_handle(telemetry);
    }

    /// The policy in force.
    pub fn policy(&self) -> &IngestPolicy {
        &self.policy
    }

    /// Dead letters by cause so far.
    pub fn counts(&self) -> DeadLetterCounts {
        self.counts
    }

    /// Events currently held in the reordering buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Validates one arriving event and advances the watermark.
    ///
    /// Returns the events released from the reordering buffer (in
    /// timestamp order) and, if the offered event was refused, its dead
    /// letter — exactly one of `ready` containing the event eventually or
    /// `dead` describing why it never will.
    pub fn offer(&mut self, event: E) -> IngestStep<E> {
        if event.device().index() >= self.num_devices {
            return self.refuse(event, DropReason::UnknownDevice);
        }
        if event.is_non_finite() {
            return self.refuse(event, DropReason::NonFinite);
        }
        if let Some(step) = self.flood_check(event) {
            return step;
        }
        let t = event.time().as_millis();
        if let Some(max_seen) = self.max_seen_ms {
            let watermark = max_seen.saturating_sub(self.window_ms);
            if t < watermark {
                let lateness = watermark - t;
                let cause = if lateness > self.max_skew_ms {
                    DropReason::ClockRegression
                } else {
                    DropReason::LateArrival
                };
                return self.refuse(event, cause);
            }
        }
        self.accept(event, t);
        let watermark = self
            .max_seen_ms
            .expect("accept records max_seen")
            .saturating_sub(self.window_ms);
        let release = self
            .buffer
            .partition_point(|e| e.time().as_millis() <= watermark);
        IngestStep::accepted(self.buffer.drain(..release).collect())
    }

    /// Releases every buffered event in timestamp order (end of stream or
    /// shutdown). The guard stays usable; its watermark is unchanged.
    pub fn flush(&mut self) -> Vec<E> {
        std::mem::take(&mut self.buffer)
    }

    /// The devices currently flagged stale by the liveness clock: not
    /// heard from (in accepted-event stream time) for longer than
    /// [`IngestPolicy::liveness_timeout`]. Empty when detection is
    /// disabled or the stream has not yet spanned a full timeout.
    pub fn stale_set(&self) -> StaleSet {
        let mut stale = StaleSet::all_live(self.num_devices);
        let (Some(liveness), Some(now)) = (self.liveness_ms, self.max_seen_ms) else {
            self.gauge_stale(0);
            return stale;
        };
        for index in 0..self.num_devices {
            // A never-heard device ages from the first accepted event.
            let last = self.last_seen_ms[index].or(self.first_seen_ms);
            if let Some(last) = last {
                if now.saturating_sub(last) > liveness {
                    stale.mark(DeviceId::from_index(index));
                }
            }
        }
        self.gauge_stale(stale.count() as u64);
        stale
    }

    fn gauge_stale(&self, count: u64) {
        if self.instruments.enabled {
            self.instruments.stale_devices.set(count);
        }
    }

    fn refuse(&mut self, event: E, cause: DropReason) -> IngestStep<E> {
        self.counts.record(cause);
        self.instruments.record(cause, self.counts.total());
        IngestStep::refused(event, cause)
    }

    /// Updates the per-device duplicate run; returns the dead-letter step
    /// when the run exceeds the flood limit.
    fn flood_check(&mut self, event: E) -> Option<IngestStep<E>> {
        let limit = self.policy.duplicate_flood_limit;
        let slot = &mut self.last_reading[event.device().index()];
        let run = match slot {
            Some((prev, run)) if event.same_reading(prev) => *run + 1,
            _ => 1,
        };
        *slot = Some((event, run));
        (limit > 0 && run > limit).then(|| self.refuse(event, DropReason::DuplicateFlood))
    }

    fn accept(&mut self, event: E, t: u64) {
        // Insert after any buffered event with the same or earlier
        // timestamp, so ties keep arrival order.
        let at = self.buffer.partition_point(|e| e.time().as_millis() <= t);
        self.buffer.insert(at, event);
        self.max_seen_ms = Some(self.max_seen_ms.map_or(t, |m| m.max(t)));
        self.first_seen_ms.get_or_insert(t);
        let last = &mut self.last_seen_ms[event.device().index()];
        *last = Some(last.map_or(t, |l| l.max(t)));
    }
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// An [`OwnedMonitor`] behind an [`IngestGuard`]: the one-stop hardened
/// ingestion path for a single raw stream.
///
/// Created with [`FittedModel::guarded_monitor`]. [`offer`](Self::offer)
/// runs the guard, then scores every released event in degraded mode
/// against the current [`StaleSet`] (a no-op when nothing is stale);
/// refused events accumulate as [`dead_letters`](Self::dead_letters).
#[derive(Debug, Clone)]
pub struct GuardedMonitor {
    guard: IngestGuard<DeviceEvent>,
    monitor: OwnedMonitor,
    dead: Vec<DeadLetter<DeviceEvent>>,
}

impl GuardedMonitor {
    pub(crate) fn new(guard: IngestGuard<DeviceEvent>, monitor: OwnedMonitor) -> Self {
        GuardedMonitor {
            guard,
            monitor,
            dead: Vec::new(),
        }
    }

    /// Feeds one raw event through the guard and scores whatever it
    /// releases, in order. Each released event yields `Ok(Verdict)` or
    /// `Err` with the preprocessing [`DropReason`] (duplicate / extreme),
    /// exactly as [`OwnedMonitor::observe_with`] would for an
    /// [`Observation::Raw`] under the guard's current [`StaleSet`].
    pub fn offer(&mut self, event: DeviceEvent) -> Vec<Result<Verdict, DropReason>> {
        let step = self.guard.offer(event);
        if let Some(dead) = step.dead {
            self.dead.push(dead);
        }
        self.score(step.ready)
    }

    /// Flushes the reordering buffer at end of stream and scores the
    /// remaining events.
    pub fn finish(&mut self) -> Vec<Result<Verdict, DropReason>> {
        let remaining = self.guard.flush();
        self.score(remaining)
    }

    fn score(&mut self, ready: Vec<DeviceEvent>) -> Vec<Result<Verdict, DropReason>> {
        if ready.is_empty() {
            return Vec::new();
        }
        let stale = self.guard.stale_set();
        let ctx = ObserveCtx::with_stale(&stale);
        ready
            .iter()
            .map(|event| self.monitor.observe_with(Observation::Raw(event), &ctx))
            .collect()
    }

    /// Every dead letter so far, oldest first.
    pub fn dead_letters(&self) -> &[DeadLetter<DeviceEvent>] {
        &self.dead
    }

    /// Dead letters by cause.
    pub fn counts(&self) -> DeadLetterCounts {
        self.guard.counts()
    }

    /// Devices currently flagged stale by the liveness clock.
    pub fn stale_devices(&self) -> usize {
        self.guard.stale_set().count()
    }

    /// The underlying monitor (for reports and state inspection).
    pub fn monitor(&self) -> &OwnedMonitor {
        &self.monitor
    }

    /// Consumes the wrapper, returning the underlying monitor.
    pub fn into_monitor(self) -> OwnedMonitor {
        self.monitor
    }
}

impl FittedModel {
    /// Spawns a [`GuardedMonitor`]: an owned monitor behind an ingestion
    /// guard configured by `policy`, sharing the model's telemetry.
    pub fn guarded_monitor(&self, policy: IngestPolicy) -> GuardedMonitor {
        let mut guard = IngestGuard::new(policy, self.num_devices());
        guard.set_telemetry(self.telemetry());
        GuardedMonitor::new(guard, self.clone().into_monitor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(t_ms: u64, dev: usize, on: bool) -> BinaryEvent {
        BinaryEvent::new(Timestamp::from_millis(t_ms), DeviceId::from_index(dev), on)
    }

    fn raw(t_ms: u64, dev: usize, v: f64) -> DeviceEvent {
        DeviceEvent::new(
            Timestamp::from_millis(t_ms),
            DeviceId::from_index(dev),
            StateValue::Numeric(v),
        )
    }

    fn policy(window_ms: u64, skew_ms: u64) -> IngestPolicy {
        IngestPolicy {
            reorder_window: Duration::from_millis(window_ms),
            max_skew: Duration::from_millis(skew_ms),
            ..IngestPolicy::default()
        }
    }

    fn drain(guard: &mut IngestGuard<BinaryEvent>, events: &[BinaryEvent]) -> Vec<BinaryEvent> {
        let mut out = Vec::new();
        for &e in events {
            out.extend(guard.offer(e).ready);
        }
        out.extend(guard.flush());
        out
    }

    #[test]
    fn in_order_stream_passes_through_unchanged() {
        let events: Vec<_> = (0..50)
            .map(|i| bin(i * 1_000, (i % 3) as usize, i % 2 == 0))
            .collect();
        let mut guard = IngestGuard::new(policy(5_000, 60_000), 3);
        assert_eq!(drain(&mut guard, &events), events);
        assert_eq!(guard.counts().total(), 0);
    }

    #[test]
    fn out_of_order_within_window_is_repaired() {
        let mut events: Vec<_> = (0..20u64).map(|i| bin(i * 1_000, 0, i % 2 == 0)).collect();
        let sorted = events.clone();
        events.swap(7, 8);
        events.swap(13, 15);
        let mut guard = IngestGuard::new(policy(5_000, 60_000), 1);
        assert_eq!(drain(&mut guard, &events), sorted);
        assert_eq!(guard.counts().total(), 0);
    }

    #[test]
    fn late_event_becomes_a_dead_letter_not_a_reorder() {
        let mut guard = IngestGuard::new(policy(1_000, 60_000), 1);
        guard.offer(bin(0, 0, true));
        guard.offer(bin(10_000, 0, false));
        // Watermark is now 9 000 ms; an event at 5 000 ms is late but
        // within max_skew.
        let step = guard.offer(bin(5_000, 0, true));
        assert!(step.ready.is_empty());
        assert_eq!(step.dead.unwrap().cause, DropReason::LateArrival);
        assert_eq!(guard.counts().late_arrival, 1);
    }

    #[test]
    fn deep_regression_is_a_clock_fault() {
        let mut guard = IngestGuard::new(policy(1_000, 2_000), 1);
        guard.offer(bin(100_000, 0, true));
        let step = guard.offer(bin(10, 0, false));
        assert_eq!(step.dead.unwrap().cause, DropReason::ClockRegression);
        assert_eq!(guard.counts().clock_regression, 1);
    }

    #[test]
    fn unknown_device_and_non_finite_are_refused() {
        let mut guard: IngestGuard<DeviceEvent> = IngestGuard::new(policy(0, 0), 2);
        let step = guard.offer(raw(0, 5, 1.0));
        assert_eq!(step.dead.unwrap().cause, DropReason::UnknownDevice);
        let step = guard.offer(raw(0, 1, f64::NAN));
        assert_eq!(step.dead.unwrap().cause, DropReason::NonFinite);
        let step = guard.offer(raw(0, 1, f64::INFINITY));
        assert_eq!(step.dead.unwrap().cause, DropReason::NonFinite);
        assert_eq!(guard.counts().unknown_device, 1);
        assert_eq!(guard.counts().non_finite, 2);
        assert_eq!(guard.counts().total(), 3);
    }

    #[test]
    fn duplicate_flood_trips_after_the_limit() {
        let mut guard: IngestGuard<BinaryEvent> = IngestGuard::new(
            IngestPolicy {
                duplicate_flood_limit: 3,
                ..policy(0, 0)
            },
            1,
        );
        // Three identical reports pass; the fourth (run 4 > limit 3) and
        // everything after it are flood dead letters until the value flips.
        for i in 0..3 {
            assert!(guard.offer(bin(i * 10, 0, true)).dead.is_none(), "run {i}");
        }
        let step = guard.offer(bin(30, 0, true));
        assert_eq!(step.dead.unwrap().cause, DropReason::DuplicateFlood);
        assert_eq!(
            guard.offer(bin(40, 0, true)).dead.unwrap().cause,
            DropReason::DuplicateFlood
        );
        assert!(
            guard.offer(bin(50, 0, false)).dead.is_none(),
            "flip resets the run"
        );
        assert_eq!(guard.counts().duplicate_flood, 2);
    }

    #[test]
    fn liveness_clock_flags_silent_devices() {
        let mut guard: IngestGuard<BinaryEvent> = IngestGuard::new(
            IngestPolicy {
                liveness_timeout: Some(Duration::from_secs(10)),
                ..policy(0, 60_000)
            },
            3,
        );
        guard.offer(bin(0, 0, true));
        guard.offer(bin(1_000, 1, true));
        assert_eq!(guard.stale_set().count(), 0);
        // Device 1 and the never-heard device 2 go silent past the
        // timeout; device 0 keeps reporting.
        guard.offer(bin(11_500, 0, false));
        guard.offer(bin(12_000, 0, true));
        let stale = guard.stale_set();
        assert!(!stale.is_stale(DeviceId::from_index(0)));
        assert!(stale.is_stale(DeviceId::from_index(1)));
        assert!(
            stale.is_stale(DeviceId::from_index(2)),
            "never-heard device ages too"
        );
        assert_eq!(stale.count(), 2);
    }

    #[test]
    fn liveness_disabled_flags_nothing() {
        let mut guard: IngestGuard<BinaryEvent> = IngestGuard::new(policy(0, 0), 2);
        guard.offer(bin(0, 0, true));
        guard.offer(bin(1_000_000, 0, false));
        assert_eq!(guard.stale_set().count(), 0);
    }

    #[test]
    fn zero_liveness_timeout_is_rejected_by_check() {
        let bad = IngestPolicy {
            liveness_timeout: Some(Duration::ZERO),
            ..IngestPolicy::default()
        };
        let err = bad.check().unwrap_err();
        assert!(err.to_string().contains("liveness_timeout"), "{err}");
        assert!(IngestPolicy::default().check().is_ok());
    }

    #[test]
    fn mean_gap_helper_scales_and_guards_degenerate_inputs() {
        let p = IngestPolicy::default().with_liveness_from_mean_gap(2.5, 4.0);
        assert_eq!(p.liveness_timeout, Some(Duration::from_secs(10)));
        assert_eq!(
            IngestPolicy::default()
                .with_liveness_from_mean_gap(0.0, 4.0)
                .liveness_timeout,
            None
        );
        assert_eq!(
            IngestPolicy::default()
                .with_liveness_from_mean_gap(f64::NAN, 4.0)
                .liveness_timeout,
            None
        );
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        let events = [
            bin(1_000, 0, true),
            bin(1_000, 1, true),
            bin(1_000, 2, true),
        ];
        let mut guard = IngestGuard::new(policy(5_000, 60_000), 3);
        assert_eq!(drain(&mut guard, &events), events);
    }

    #[test]
    fn stale_set_marks_are_idempotent() {
        let mut stale = StaleSet::all_live(3);
        stale.mark(DeviceId::from_index(1));
        stale.mark(DeviceId::from_index(1));
        assert_eq!(stale.count(), 1);
        assert!(stale.is_stale(DeviceId::from_index(1)));
        assert!(
            !stale.is_stale(DeviceId::from_index(9)),
            "out of range is live"
        );
    }
}
