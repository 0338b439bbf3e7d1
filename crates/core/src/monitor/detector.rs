//! The k-sequence anomaly-detection procedure (Algorithm 2).
//!
//! For each incoming event the detector computes the Eq. 1 anomaly score
//! and interprets it against the tracked anomaly list `W`:
//!
//! * `W` empty, score ≥ c — the event is a **contextual anomaly**; it
//!   opens `W` (and is reported immediately when `k_max = 1`).
//! * `W` non-empty, score < c — the event follows an interaction execution
//!   under the malicious context: it joins the **collective anomaly**.
//! * `W` non-empty, score ≥ c — an *abrupt event*: tracking ends and the
//!   collected list is reported.
//! * `|W| = k_max` — the chain reached the maximum tracked length and is
//!   reported.
//!
//! ### Fidelity note
//!
//! The paper's pseudocode checks `0 < |W| < k_max ∧ score ≥ c` *after*
//! appending, which — read literally — would flush a fresh contextual
//! anomaly before any propagation could be tracked, and silently drops the
//! abrupt event itself. We implement the evident intent (the abrupt-event
//! rule only fires for events that did **not** join `W`), keep the paper's
//! drop-the-abrupt-event semantics by default, and offer
//! [`DetectorConfig::restart_on_abrupt`] as a documented extension that
//! instead treats the abrupt event as a new contextual anomaly.

use std::sync::Arc;
use std::time::Instant;

use iot_model::{BinaryEvent, DeviceId, SystemState};
use iot_telemetry::{Buckets, Counter, Gauge, Histogram, TelemetryHandle};
use serde::{Deserialize, Serialize};

use super::PhantomStateMachine;
use crate::graph::{Dig, LaggedVar, UnseenContext};
use crate::ingest::StaleSet;

/// Configuration of the k-sequence detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The contextual-anomaly score threshold `c`.
    pub threshold: f64,
    /// Maximum tracked anomaly length `k_max ≥ 1` (`1` = contextual
    /// detection only).
    pub k_max: usize,
    /// Scoring policy for cause contexts unseen in training.
    pub unseen: UnseenContext,
    /// Extension: restart tracking at an abrupt event instead of dropping
    /// it (see the module docs). `false` reproduces the paper.
    pub restart_on_abrupt: bool,
}

impl DetectorConfig {
    /// Creates a configuration with the given threshold and `k_max`,
    /// paper-faithful otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0` or the threshold is not in `[0, 1]`.
    pub fn new(threshold: f64, k_max: usize) -> Self {
        assert!(k_max >= 1, "k_max must be at least 1");
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        DetectorConfig {
            threshold,
            k_max,
            unseen: UnseenContext::default(),
            restart_on_abrupt: false,
        }
    }
}

/// One event in a reported anomaly, with the context that explains the
/// verdict ("additional information for later anomaly interpretation",
/// Algorithm 2 line 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalousEvent {
    /// The 0-based position of the event in the observed stream (the
    /// evaluation compares alarm positions against injected positions,
    /// Section VI-C).
    pub ordinal: u64,
    /// The offending event.
    pub event: BinaryEvent,
    /// The values of the device's causes at detection time.
    pub cause_values: Vec<(LaggedVar, bool)>,
    /// The Eq. 1 anomaly score.
    pub score: f64,
}

/// What kind of anomaly an alarm reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlarmKind {
    /// A single event violating an interaction execution (Definition 2).
    Contextual,
    /// A contextual anomaly plus the event chain that followed the
    /// unexpected interaction execution (Definition 3).
    Collective,
}

/// An alarm reported to the user for amendment (Algorithm 2 line 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Contextual or collective.
    pub kind: AlarmKind,
    /// The anomalous events, oldest first; the first entry is always the
    /// triggering contextual anomaly.
    pub events: Vec<AnomalousEvent>,
    /// Whether tracking was cut short by an abrupt high-score event.
    pub ended_by_abrupt: bool,
}

impl Alarm {
    /// Length of the reported chain.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the alarm is empty (never produced by the detector).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The detector's response to one observed event.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The event's anomaly score.
    pub score: f64,
    /// Whether the score met the contextual-anomaly threshold.
    pub exceeds_threshold: bool,
    /// Alarms flushed by this event (usually zero or one; the
    /// restart-on-abrupt extension with `k_max = 1` can produce two).
    pub alarms: Vec<Alarm>,
    /// How much of the CPT context behind the score was *live* when the
    /// event was scored: the fraction of the device's causes whose parent
    /// device was not flagged stale by the ingestion guard's liveness
    /// clock. `1.0` (the value outside degraded mode, and for devices with
    /// no causes) means every conditioning parent was recently heard from;
    /// lower values mean the score conditions on state that may be frozen
    /// by a silent sensor, so the verdict deserves less trust.
    pub confidence: f64,
}

/// Always-on session counts kept by the detector — cheap plain integers,
/// available even with telemetry disabled (they feed
/// [`iot_telemetry::MonitorReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectorStats {
    /// Events scored.
    pub events: u64,
    /// Contextual alarms raised.
    pub contextual_alarms: u64,
    /// Collective alarms raised.
    pub collective_alarms: u64,
    /// Longest tracked anomaly chain observed.
    pub max_tracking_len: u64,
}

/// The detector's optional telemetry instruments, resolved once from a
/// [`TelemetryHandle`] so the per-event hot path never touches the
/// registry. Disabled instruments cost one branch per update.
#[derive(Debug, Clone, Default)]
struct DetectorInstruments {
    enabled: bool,
    events: Counter,
    latency_us: Histogram,
    scores: Histogram,
    contextual: Counter,
    collective: Counter,
    tracking_len: Gauge,
}

impl DetectorInstruments {
    fn from_handle(telemetry: &TelemetryHandle) -> Self {
        DetectorInstruments {
            enabled: telemetry.enabled(),
            events: telemetry.counter("monitor.events"),
            latency_us: telemetry.histogram(
                "monitor.observe_latency_us",
                Buckets::exponential(1.0, 2.0, 20),
            ),
            scores: telemetry.histogram("monitor.score", Buckets::linear(0.0, 1.0, 20)),
            contextual: telemetry.counter("monitor.alarms.contextual"),
            collective: telemetry.counter("monitor.alarms.collective"),
            tracking_len: telemetry.gauge("monitor.tracking_len"),
        }
    }
}

/// Densify a CPT only while its table stays small (`2^16` contexts ≈ 1 MB
/// of scores); larger tables — far beyond real interaction degrees — fall
/// back to the map walk through [`Cpt::prob`].
const DENSE_MAX_CAUSES: usize = 16;

/// Precomputed dense lookup tables for the scoring hot path, built once at
/// detector construction (the DIG and the unseen-context policy are both
/// immutable for the detector's lifetime).
///
/// Replaces the per-event CPT walk with two flat-array reads: the device's
/// cause list (flattened, `cause_offset`-indexed) and its full score table
/// `scores[score_offset[d] + 2*code + outcome] = 1 − P(outcome | code)` —
/// the exact float the [`Cpt::prob`] path would produce, precomputed, so
/// verdicts stay bit-identical.
#[derive(Debug, Clone)]
struct DenseScores {
    /// Device `d`'s causes are `causes[cause_offset[d]..cause_offset[d+1]]`.
    cause_offset: Vec<u32>,
    causes: Vec<LaggedVar>,
    /// `causes` pre-resolved for the scoring loop: each entry packs the
    /// cause's device index (high 32 bits) and `lag − 1` (low 32 bits),
    /// range-checked once here so the per-event queries go through the
    /// assert-free [`PhantomStateMachine::cause_value_fast`].
    fast_causes: Vec<u64>,
    /// Offset of device `d`'s score table in `scores`, or `usize::MAX` for
    /// devices whose CPT exceeds [`DENSE_MAX_CAUSES`] causes.
    score_offset: Vec<usize>,
    scores: Vec<f64>,
}

impl DenseScores {
    fn build(dig: &Dig, unseen: UnseenContext) -> Self {
        let n = dig.num_devices();
        let mut cause_offset = Vec::with_capacity(n + 1);
        let mut causes = Vec::new();
        let mut score_offset = Vec::with_capacity(n);
        let mut scores = Vec::new();
        let mut fast_causes = Vec::new();
        for d in 0..n {
            let cpt = dig.cpt(DeviceId::from_index(d));
            cause_offset.push(causes.len() as u32);
            causes.extend_from_slice(cpt.causes());
            for cause in cpt.causes() {
                assert!(
                    cause.lag >= 1 && cause.lag <= dig.tau(),
                    "mined cause lag {} outside 1..=τ",
                    cause.lag
                );
                fast_causes.push(((cause.device.index() as u64) << 32) | (cause.lag - 1) as u64);
            }
            if cpt.causes().len() <= DENSE_MAX_CAUSES {
                score_offset.push(scores.len());
                for code in 0..cpt.num_contexts() {
                    scores.push(1.0 - cpt.prob(code, false, unseen));
                    scores.push(1.0 - cpt.prob(code, true, unseen));
                }
            } else {
                score_offset.push(usize::MAX);
            }
        }
        cause_offset.push(causes.len() as u32);
        DenseScores {
            cause_offset,
            causes,
            fast_causes,
            score_offset,
            scores,
        }
    }

    /// The (ordered) causes of device `d` — identical contents to
    /// `dig.cpt(d).causes()`.
    #[inline]
    fn causes_of(&self, d: usize) -> &[LaggedVar] {
        &self.causes[self.cause_offset[d] as usize..self.cause_offset[d + 1] as usize]
    }
}

/// The k-sequence anomaly detector (Algorithm 2), the scoring core of
/// [`crate::pipeline::OwnedMonitor`].
///
/// The mined DIG is shared through an [`Arc`], so a detector is `Send +
/// 'static` and any number of detectors score against one model.
#[derive(Debug, Clone)]
pub struct KSequenceDetector {
    dig: Arc<Dig>,
    config: DetectorConfig,
    dense: DenseScores,
    pm: PhantomStateMachine,
    w: Vec<AnomalousEvent>,
    next_ordinal: u64,
    stats: DetectorStats,
    instruments: DetectorInstruments,
}

// The scoring entry points and the step they run are `#[inline]` so that
// callers in other crates (the complexity experiment, the criterion
// benches) can inline them: a non-generic method's body is otherwise not
// available outside this crate, and the out-of-line call cost about 2 ns
// per event on the sequential path (exp_complexity minima, 2-vCPU VM).
impl KSequenceDetector {
    /// Creates a detector over a mined DIG, starting from `initial`.
    pub fn new(dig: Arc<Dig>, initial: SystemState, config: DetectorConfig) -> Self {
        assert!(config.k_max >= 1, "k_max must be at least 1");
        let tau = dig.tau();
        let dense = DenseScores::build(&dig, config.unseen);
        KSequenceDetector {
            dig,
            config,
            dense,
            pm: PhantomStateMachine::new(initial, tau),
            w: Vec::new(),
            next_ordinal: 0,
            stats: DetectorStats::default(),
            instruments: DetectorInstruments::default(),
        }
    }

    /// Attaches telemetry instruments (latency/score histograms, alarm
    /// counters, tracking-length gauge) resolved from `telemetry`. A
    /// disabled handle leaves the hot path at one branch per update.
    pub fn set_telemetry(&mut self, telemetry: &TelemetryHandle) {
        self.instruments = DetectorInstruments::from_handle(telemetry);
    }

    /// The always-on session counts.
    pub fn stats(&self) -> &DetectorStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The phantom state machine's current system state.
    pub fn current_state(&self) -> &SystemState {
        self.pm.current()
    }

    /// Number of events currently tracked in `W`.
    pub fn tracking_len(&self) -> usize {
        self.w.len()
    }

    /// Processes one runtime event and returns the verdict.
    #[inline]
    pub fn observe(&mut self, event: BinaryEvent) -> Verdict {
        self.observe_inner(event, 1.0)
    }

    /// [`observe`](Self::observe) in **degraded mode**: the event is
    /// scored and tracked exactly as usual (state transitions, alarms, and
    /// scores are bit-identical), but the verdict's
    /// [`confidence`](Verdict::confidence) is the fraction of the event
    /// device's CPT causes whose parent device is not in `stale`. With an
    /// empty stale set this is exactly [`observe`](Self::observe).
    #[inline]
    pub fn observe_degraded(&mut self, event: BinaryEvent, stale: &StaleSet) -> Verdict {
        let confidence = self.cause_confidence(event.device, stale);
        self.observe_inner(event, confidence)
    }

    /// Processes a slice of events as one batch, appending one verdict per
    /// event to `out` in stream order; with `stale` set every event is
    /// scored in degraded mode against that snapshot.
    ///
    /// Verdicts (and the always-on [`DetectorStats`]) are **bit-identical**
    /// to observing the same events sequentially — the batch only amortises
    /// the optional telemetry instruments, which are flushed once per batch
    /// (counter deltas, score samples, one final tracking-length mark, and
    /// a single whole-batch latency sample instead of per-event ones).
    ///
    /// Verdicts are appended as each event completes, so if scoring panics
    /// mid-batch, `out` holds exactly the verdicts of the events *before*
    /// the panicking one — the guarantee the serving layer's
    /// quarantine-at-the-exact-event machinery relies on.
    #[inline]
    pub fn observe_batch_into(
        &mut self,
        events: &[BinaryEvent],
        stale: Option<&StaleSet>,
        out: &mut Vec<Verdict>,
    ) {
        let started = self.start_instruments();
        let base = out.len();
        out.reserve(events.len());
        for &event in events {
            let confidence = stale.map_or(1.0, |stale| self.cause_confidence(event.device, stale));
            let verdict = self.step_event(event, confidence);
            out.push(verdict);
        }
        if let Some(started) = started {
            for verdict in &out[base..] {
                self.instruments.scores.observe(verdict.score);
            }
            self.flush_instruments(started, out.len() - base);
        }
    }

    /// The fraction of `device`'s CPT causes whose parent device is live
    /// (not in `stale`); `1.0` for devices with no causes.
    #[inline]
    fn cause_confidence(&self, device: DeviceId, stale: &StaleSet) -> f64 {
        let causes = self.dense.causes_of(device.index());
        if causes.is_empty() || stale.count() == 0 {
            return 1.0;
        }
        let live = causes
            .iter()
            .filter(|cause| !stale.is_stale(cause.device))
            .count();
        live as f64 / causes.len() as f64
    }

    #[inline]
    fn observe_inner(&mut self, event: BinaryEvent, confidence: f64) -> Verdict {
        let started = self.start_instruments();
        let verdict = self.step_event(event, confidence);
        if let Some(started) = started {
            self.instruments.scores.observe(verdict.score);
            self.flush_instruments(started, 1);
        }
        verdict
    }

    /// The start mark of an instrumented call — its clock and the stats
    /// it began from — or `None` when the instruments are disabled.
    #[inline]
    fn start_instruments(&self) -> Option<(Instant, DetectorStats)> {
        self.instruments
            .enabled
            .then(|| (Instant::now(), self.stats))
    }

    /// Flushes the instruments for `events` scored since `started`: the
    /// event count, the alarm counts by kind, the final tracking length,
    /// and one latency sample. The callers record the score samples.
    fn flush_instruments(&mut self, (start, before): (Instant, DetectorStats), events: usize) {
        self.instruments.events.add(events as u64);
        self.instruments.tracking_len.set(self.w.len() as u64);
        self.instruments
            .contextual
            .add(self.stats.contextual_alarms - before.contextual_alarms);
        self.instruments
            .collective
            .add(self.stats.collective_alarms - before.collective_alarms);
        self.instruments
            .latency_us
            .observe(start.elapsed().as_secs_f64() * 1e6);
    }

    /// Line 4-5 of Algorithm 2: resolve the event device's cause values
    /// against the phantom state and look up the anomaly score, all
    /// *before* the state machine absorbs the event. Returns the context
    /// code alongside the score (the map-walk fallback for ultra-wide CPTs
    /// needs it). The context build is branchless — cause values shift
    /// straight into the code word — because on anomalous streams these
    /// bits are close to random and a compare-and-jump per cause would
    /// mispredict constantly.
    #[inline]
    fn score_of(&self, event: &BinaryEvent) -> (usize, f64) {
        let d = event.device.index();
        let range = self.dense.cause_offset[d] as usize..self.dense.cause_offset[d + 1] as usize;
        let mut code = 0usize;
        for (bit, &packed) in self.dense.fast_causes[range].iter().enumerate() {
            let value = self
                .pm
                .cause_value_fast((packed >> 32) as usize, packed & u32::MAX as u64);
            code |= (value as usize) << bit;
        }
        let off = self.dense.score_offset[d];
        let score = if off != usize::MAX {
            self.dense.scores[off + 2 * code + event.value as usize]
        } else {
            1.0 - self
                .dig
                .cpt(event.device)
                .prob(code, event.value, self.config.unseen)
        };
        (code, score)
    }

    /// One full Algorithm 2 step — scoring, phantom-state update, tracking,
    /// and the always-on stats — without the optional telemetry
    /// instruments (the sequential and batched entry points layer those
    /// differently on top).
    #[inline]
    fn step_event(&mut self, event: BinaryEvent, confidence: f64) -> Verdict {
        let (_code, score) = self.score_of(&event);

        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let anomalous = score >= self.config.threshold;
        // Only events that can join W need their cause context materialised
        // (for "anomaly interpretation", Algorithm 2 line 7). The common
        // case — a normal event on a quiet stream — allocates nothing.
        let record = if anomalous || !self.w.is_empty() {
            let cause_values: Vec<(LaggedVar, bool)> = self
                .dense
                .causes_of(event.device.index())
                .iter()
                .map(|&c| (c, self.pm.cause_value_for_next(c)))
                .collect();
            Some(AnomalousEvent {
                ordinal,
                event,
                cause_values,
                score,
            })
        } else {
            None
        };
        self.pm.apply(&event);

        let mut alarms = Vec::new();
        if self.w.is_empty() {
            if anomalous {
                // Line 6-8: a fresh contextual anomaly opens W.
                self.w
                    .push(record.expect("anomalous events carry a record"));
                if self.w.len() == self.config.k_max {
                    alarms.push(self.flush(false));
                }
            }
        } else if !anomalous {
            // Line 6-8: a low-score event continues the collective anomaly.
            self.w.push(record.expect("tracked events carry a record"));
            if self.w.len() == self.config.k_max {
                alarms.push(self.flush(false));
            }
        } else {
            // Line 9-12: an abrupt event ends tracking.
            alarms.push(self.flush(true));
            if self.config.restart_on_abrupt {
                self.w
                    .push(record.expect("anomalous events carry a record"));
                if self.w.len() == self.config.k_max {
                    alarms.push(self.flush(false));
                }
            }
        }
        self.stats.events += 1;
        self.stats.max_tracking_len = self.stats.max_tracking_len.max(self.w.len() as u64);
        for alarm in &alarms {
            match alarm.kind {
                AlarmKind::Contextual => self.stats.contextual_alarms += 1,
                AlarmKind::Collective => self.stats.collective_alarms += 1,
            }
        }
        Verdict {
            score,
            exceeds_threshold: anomalous,
            alarms,
            confidence,
        }
    }

    /// Snapshot of the score histogram (empty unless telemetry is
    /// attached and enabled).
    pub(crate) fn score_snapshot(&self) -> iot_telemetry::HistogramSnapshot {
        self.instruments.scores.snapshot()
    }

    /// Snapshot of the per-event latency histogram, microseconds (empty
    /// unless telemetry is attached and enabled).
    pub(crate) fn latency_snapshot(&self) -> iot_telemetry::HistogramSnapshot {
        self.instruments.latency_us.snapshot()
    }

    /// Flushes `W` into an alarm.
    #[inline]
    fn flush(&mut self, ended_by_abrupt: bool) -> Alarm {
        let events = std::mem::take(&mut self.w);
        let kind = if events.len() <= 1 {
            AlarmKind::Contextual
        } else {
            AlarmKind::Collective
        };
        Alarm {
            kind,
            events,
            ended_by_abrupt,
        }
    }

    /// [`observe_batch_into`](Self::observe_batch_into) minus the verdicts:
    /// every *observable* side effect is preserved — phantom-state
    /// transitions, tracking dynamics, the always-on [`DetectorStats`],
    /// and the once-per-batch telemetry flush all stay bit-identical to
    /// the sequential path — but no [`Verdict`] or [`Alarm`] payload is
    /// ever materialised, which removes every per-event heap allocation.
    ///
    /// This is the serving hot path for configurations where nobody can
    /// read the verdicts anyway (no verdict recording, no flight recorder
    /// attached): the hub's burst loop feeds whole queue drains through
    /// here and reports purely via counters.
    ///
    /// `scored` is incremented once per *completed* event, so if scoring
    /// panics mid-batch it holds the exact index of the panicking event —
    /// the same boundary guarantee `observe_batch_into` provides through
    /// `out.len()`, which quarantine-at-the-exact-event relies on.
    ///
    /// Tracked events accumulated in this mode carry empty `cause_values`
    /// (interpretation context is only needed when an alarm can be shown
    /// to someone), whether or not telemetry is attached. Mixed-mode use
    /// is still coherent — `W` is the same real buffer — but alarms
    /// flushed from such records explain less; the serving layer only
    /// enters this path when those alarms are unobservable by
    /// construction.
    #[inline]
    pub fn observe_batch_stats_only(&mut self, events: &[BinaryEvent], scored: &mut usize) {
        self.verdict_free_batch(events, scored, |_, _| {});
    }

    /// [`observe_batch_stats_only`](Self::observe_batch_stats_only) that
    /// additionally surfaces each event's `(event, score)` pair to
    /// `on_score` as it completes — the hook the drift detector
    /// ([`crate::monitor::DriftDetector`]) rides. Every observable side
    /// effect (phantom state, tracking, [`DetectorStats`], telemetry
    /// flush) stays bit-identical to the stats-only path; the score is a
    /// value `step_event_stats_only` already computes, so the extra cost
    /// is one indirect call per event and nothing else.
    ///
    /// `scored` is incremented once per *completed* event (after
    /// `on_score` returns), preserving the exact panic-boundary
    /// guarantee of the other batched entry points.
    #[inline]
    pub fn observe_batch_scores_only(
        &mut self,
        events: &[BinaryEvent],
        scored: &mut usize,
        on_score: &mut dyn FnMut(BinaryEvent, f64),
    ) {
        self.verdict_free_batch(events, scored, on_score);
    }

    /// The one verdict-free batch loop behind the stats-only and
    /// scores-only entry points: each event takes
    /// [`step_event_stats_only`](Self::step_event_stats_only), and its
    /// score goes to the score histogram (when instrumented) and then to
    /// `on_score`.
    #[inline]
    fn verdict_free_batch(
        &mut self,
        events: &[BinaryEvent],
        scored: &mut usize,
        mut on_score: impl FnMut(BinaryEvent, f64),
    ) {
        let started = self.start_instruments();
        for &event in events {
            let score = self.step_event_stats_only(event);
            if started.is_some() {
                self.instruments.scores.observe(score);
            }
            on_score(event, score);
            *scored += 1;
        }
        if let Some(started) = started {
            self.flush_instruments(started, events.len());
        }
    }

    /// [`step_event`](Self::step_event) with verdict and interpretation
    /// materialisation stripped out. The control flow mirrors `step_event`
    /// line for line (same W pushes, same flush points, same stats
    /// arithmetic) so `DetectorStats` and all future verdicts stay
    /// bit-identical; the only divergence is *what* is allocated: tracked
    /// records carry empty `cause_values`, and flushes count alarms
    /// instead of assembling them ([`flush_stats_only`]
    /// (Self::flush_stats_only) clears `W` in place, so after the first
    /// chain its capacity is reused forever — zero steady-state
    /// allocations).
    #[inline]
    fn step_event_stats_only(&mut self, event: BinaryEvent) -> f64 {
        let (_code, score) = self.score_of(&event);
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let anomalous = score >= self.config.threshold;
        self.pm.apply(&event);

        let record = || AnomalousEvent {
            ordinal,
            event,
            cause_values: Vec::new(),
            score,
        };
        if self.w.is_empty() {
            if anomalous {
                self.w.push(record());
                if self.w.len() == self.config.k_max {
                    self.flush_stats_only();
                }
            }
        } else if !anomalous {
            self.w.push(record());
            if self.w.len() == self.config.k_max {
                self.flush_stats_only();
            }
        } else {
            self.flush_stats_only();
            if self.config.restart_on_abrupt {
                self.w.push(record());
                if self.w.len() == self.config.k_max {
                    self.flush_stats_only();
                }
            }
        }
        self.stats.events += 1;
        self.stats.max_tracking_len = self.stats.max_tracking_len.max(self.w.len() as u64);
        score
    }

    /// [`flush`](Self::flush) without the alarm payload: classifies `W`
    /// exactly like `flush`, bumps the matching stats counter directly
    /// (the caller has no alarm list to count from), and clears `W` *in
    /// place* — keeping its capacity — instead of `mem::take`-ing the
    /// buffer into an `Alarm`.
    #[inline]
    fn flush_stats_only(&mut self) {
        if self.w.len() <= 1 {
            self.stats.contextual_alarms += 1;
        } else {
            self.stats.collective_alarms += 1;
        }
        self.w.clear();
    }

    /// Crate-internal view of the runtime-mutable state a live snapshot
    /// must persist: the phantom state machine, the tracking window `W`,
    /// and the next stream ordinal (the always-on stats come from
    /// [`Self::stats`]). Everything else in the detector — DIG handle,
    /// dense score tables, config, instruments — is rebuilt from the
    /// fitted model on restore.
    pub(crate) fn runtime_parts(&self) -> (&PhantomStateMachine, &[AnomalousEvent], u64) {
        (&self.pm, &self.w, self.next_ordinal)
    }

    /// Crate-internal inverse of [`Self::runtime_parts`]: overwrites the
    /// runtime-mutable state of a freshly built detector so subsequent
    /// verdicts are bit-identical to the detector the parts were exported
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if the phantom state machine's shape (τ, device count) does
    /// not match the detector's DIG.
    pub(crate) fn restore_runtime(
        &mut self,
        pm: PhantomStateMachine,
        w: Vec<AnomalousEvent>,
        next_ordinal: u64,
        stats: DetectorStats,
    ) {
        assert_eq!(pm.tau(), self.dig.tau(), "snapshot τ mismatch");
        assert_eq!(
            pm.current().len(),
            self.dig.num_devices(),
            "snapshot device-count mismatch"
        );
        self.pm = pm;
        self.w = w;
        self.next_ordinal = next_ordinal;
        self.stats = stats;
    }

    /// Clears any in-progress tracking (the phantom state is kept).
    ///
    /// The in-flight collective-anomaly chain `W` is discarded without
    /// being reported, so no later verdict can reference pre-reset events;
    /// the tracking-length gauge is zeroed so telemetry cannot show a
    /// stale chain either.
    pub fn reset_tracking(&mut self) {
        self.w.clear();
        if self.instruments.enabled {
            self.instruments.tracking_len.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cpt;
    use iot_model::{DeviceId, Timestamp};

    fn bev(t: u64, dev: usize, on: bool) -> BinaryEvent {
        BinaryEvent::new(Timestamp::from_secs(t), DeviceId::from_index(dev), on)
    }

    /// Two devices. Device 1's CPT: strongly follows device 0's lag-1
    /// state. Device 0's CPT: flips constantly (any report is normal-ish
    /// when it alternates).
    fn two_device_dig() -> Arc<Dig> {
        let c0 = LaggedVar::new(DeviceId::from_index(0), 1);
        // Device 0: autocorrelation — flips are normal, repeats are not.
        let mut cpt0 = Cpt::new(vec![c0], 0.0);
        for i in 0..100 {
            cpt0.record(0, i < 90); // was off -> mostly turns on
            cpt0.record(1, i >= 90); // was on -> mostly turns off
        }
        // Device 1: copies device 0.
        let mut cpt1 = Cpt::new(vec![c0], 0.0);
        for i in 0..100 {
            cpt1.record(0, i < 10); // cause off -> mostly off
            cpt1.record(1, i >= 10); // cause on -> mostly on
        }
        Arc::new(Dig::new(1, vec![vec![c0], vec![c0]], vec![cpt0, cpt1]))
    }

    #[test]
    fn contextual_anomaly_with_kmax_one() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 1);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        // Device 1 turning ON while device 0 is OFF: P(on | off) = 0.1,
        // score 0.9 -> contextual alarm.
        let verdict = det.observe(bev(1, 1, true));
        assert!(verdict.exceeds_threshold);
        assert_eq!(verdict.alarms.len(), 1);
        assert_eq!(verdict.alarms[0].kind, AlarmKind::Contextual);
        assert_eq!(verdict.alarms[0].len(), 1);
        assert!((verdict.score - 0.9).abs() < 1e-9);
        // Context is reported with the alarm.
        let ctx = &verdict.alarms[0].events[0].cause_values;
        assert_eq!(ctx.len(), 1);
        assert!(!ctx[0].1, "cause (device 0) was off");
    }

    #[test]
    fn normal_events_raise_nothing() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 1);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        // Device 0 turns on (P = 0.9, score 0.1), then device 1 follows
        // (P = 0.9, score 0.1).
        let v0 = det.observe(bev(1, 0, true));
        let v1 = det.observe(bev(2, 1, true));
        assert!(!v0.exceeds_threshold && v0.alarms.is_empty());
        assert!(!v1.exceeds_threshold && v1.alarms.is_empty());
    }

    #[test]
    fn collective_chain_tracked_to_kmax() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 2);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        // Attacker ghost-activates device 1 (contextual, score 0.9); the
        // following device-0 flip is normal (score 0.1) and rides the
        // malicious context -> collective alarm of length 2.
        let v1 = det.observe(bev(1, 1, true));
        assert!(v1.alarms.is_empty(), "tracking should continue");
        assert_eq!(det.tracking_len(), 1);
        let v2 = det.observe(bev(2, 0, true));
        assert_eq!(v2.alarms.len(), 1);
        let alarm = &v2.alarms[0];
        assert_eq!(alarm.kind, AlarmKind::Collective);
        assert_eq!(alarm.len(), 2);
        assert!(!alarm.ended_by_abrupt);
        assert_eq!(alarm.events[0].event.device.index(), 1);
        assert_eq!(alarm.events[1].event.device.index(), 0);
    }

    #[test]
    fn abrupt_event_ends_tracking_and_is_dropped_by_default() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 3);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        // Contextual anomaly opens W.
        det.observe(bev(1, 1, true));
        assert_eq!(det.tracking_len(), 1);
        // Device 1 reporting ON again while device 0 is now... device 0 is
        // off, so P(device1 = on | off) = 0.1 -> score 0.9: abrupt.
        let v = det.observe(bev(2, 1, true));
        assert_eq!(v.alarms.len(), 1);
        assert!(v.alarms[0].ended_by_abrupt);
        assert_eq!(v.alarms[0].len(), 1);
        // Paper semantics: the abrupt event is dropped, W is empty.
        assert_eq!(det.tracking_len(), 0);
    }

    #[test]
    fn restart_on_abrupt_extension_keeps_the_abrupt_event() {
        let dig = two_device_dig();
        let mut cfg = DetectorConfig::new(0.5, 3);
        cfg.restart_on_abrupt = true;
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        det.observe(bev(1, 1, true));
        let v = det.observe(bev(2, 1, true));
        assert_eq!(v.alarms.len(), 1);
        assert_eq!(det.tracking_len(), 1, "abrupt event starts a new chain");
    }

    #[test]
    fn reset_tracking_clears_w() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 4);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        det.observe(bev(1, 1, true));
        assert_eq!(det.tracking_len(), 1);
        det.reset_tracking();
        assert_eq!(det.tracking_len(), 0);
    }

    #[test]
    #[should_panic(expected = "k_max")]
    fn zero_kmax_rejected() {
        DetectorConfig::new(0.5, 0);
    }

    #[test]
    fn reset_mid_chain_never_leaks_pre_reset_events() {
        let dig = two_device_dig();
        let cfg = DetectorConfig::new(0.5, 3);
        let mut det = KSequenceDetector::new(dig, SystemState::all_off(2), cfg);
        // Open a chain: ghost activation (ordinal 0) + a rider (ordinal 1).
        det.observe(bev(1, 1, true));
        det.observe(bev(2, 0, true));
        assert_eq!(det.tracking_len(), 2);
        det.reset_tracking();
        assert_eq!(det.tracking_len(), 0);
        // A fresh chain after the reset: ghost deactivation (ordinal 3)
        // plus two normal riders fills k_max and flushes a collective
        // alarm — it must reference only post-reset ordinals.
        let quiet = det.observe(bev(3, 1, true));
        assert!(quiet.alarms.is_empty());
        det.observe(bev(4, 1, false));
        det.observe(bev(5, 0, false));
        let v = det.observe(bev(6, 1, false));
        assert_eq!(v.alarms.len(), 1);
        let alarm = &v.alarms[0];
        assert_eq!(alarm.kind, AlarmKind::Collective);
        assert!(
            alarm.events.iter().all(|e| e.ordinal >= 3),
            "collective alarm referenced pre-reset events: {:?}",
            alarm.events.iter().map(|e| e.ordinal).collect::<Vec<_>>()
        );
    }
}
