//! The end-to-end CausalIoT facade (Figure 3 of the paper).
//!
//! [`CausalIot`] bundles the Event Preprocessor, the Interaction Miner, and
//! the score-threshold calculator behind a builder; fitting produces a
//! [`FittedModel`] from which stateful [`OwnedMonitor`]s are spawned.
//!
//! Fitting itself is an explicit typed stage pipeline ([`stages`]):
//! `RawEvents → Preprocessed → Snapshotted → MinedGraph → CalibratedModel`.
//! [`CausalIot::fit`] and [`CausalIot::fit_binary`] are thin compositions
//! over those stages; callers that need to inspect intermediate artifacts
//! or resume a partially-completed fit drive a [`FitPipeline`] directly.
//! A fitted model persists as a versioned checkpoint ([`checkpoint`])
//! restorable with [`FittedModel::load`].

pub mod checkpoint;
mod decoded;
pub mod refit;
mod runtime_state;
pub mod stages;

pub use refit::{Refit, StructuralDrift};
pub use stages::{
    CalibratedModel, FitPipeline, FitStage, MinedGraph, Preprocessed, RawEvents, Snapshotted,
};

use std::sync::Arc;

use iot_model::{BinaryEvent, DeviceEvent, DeviceRegistry, EventLog, StateValue, SystemState};
use iot_telemetry::{Counter, DistributionSummary, FitReport, MonitorReport, TelemetryHandle};
use serde::{Deserialize, Serialize};

use crate::graph::{Dig, UnseenContext};
use crate::ingest::StaleSet;
use crate::miner::MinerConfig;
use crate::monitor::{DetectorConfig, KSequenceDetector, Verdict};
use crate::preprocess::{FittedPreprocessor, PreprocessConfig, TauConfig};
use crate::{CausalIotError, ConfigError};

/// How the maximum time lag τ is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TauChoice {
    /// The paper's `τ = d/v` rule on the preprocessed training events.
    Auto(TauConfig),
    /// A fixed value (the paper's evaluation uses `τ = 2`).
    Fixed(usize),
}

impl Default for TauChoice {
    fn default() -> Self {
        TauChoice::Auto(TauConfig::default())
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalIotConfig {
    /// Preprocessing knobs.
    pub preprocess: PreprocessConfig,
    /// τ selection.
    pub tau: TauChoice,
    /// Mining knobs (α, conditioning cap, smoothing, parallelism).
    pub miner: MinerConfig,
    /// Score-threshold percentile `q` (paper default: 99).
    pub q: f64,
    /// Default `k_max` for monitors spawned from the fitted model.
    pub k_max: usize,
    /// Scoring policy for unseen cause contexts.
    pub unseen: UnseenContext,
    /// The restart-on-abrupt extension flag (see
    /// [`DetectorConfig::restart_on_abrupt`]).
    pub restart_on_abrupt: bool,
    /// Fraction of the training events held out for threshold
    /// calibration. The paper computes the q-th percentile over the same
    /// events the CPTs were estimated from (in-sample); with sparse
    /// contexts that replay is optimistic, so holding out a tail of the
    /// training stream calibrates the threshold out-of-sample. `0.0`
    /// reproduces the paper.
    pub calibration_fraction: f64,
}

impl Default for CausalIotConfig {
    fn default() -> Self {
        CausalIotConfig {
            preprocess: PreprocessConfig::default(),
            tau: TauChoice::default(),
            miner: MinerConfig::default(),
            q: 99.0,
            k_max: 1,
            unseen: UnseenContext::default(),
            restart_on_abrupt: false,
            calibration_fraction: 0.0,
        }
    }
}

impl CausalIotConfig {
    /// Validates every parameter range:
    ///
    /// * `alpha ∈ (0, 1)` and `smoothing ≥ 0` (via [`MinerConfig::check`]),
    /// * `q ∈ (0, 100]`,
    /// * `k_max ≥ 1`,
    /// * a fixed `τ ≥ 1`,
    /// * `calibration_fraction ∈ [0, 0.5]` (`0` reproduces the paper's
    ///   in-sample calibration; more than half the stream held out would
    ///   starve the miner).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending parameter.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.miner.check()?;
        if !(self.q > 0.0 && self.q <= 100.0) {
            return Err(ConfigError::new(
                "q",
                format!("percentile must be in (0, 100], got {}", self.q),
            ));
        }
        if self.k_max == 0 {
            return Err(ConfigError::new("k_max", "must be at least 1"));
        }
        if let TauChoice::Fixed(0) = self.tau {
            return Err(ConfigError::new("tau", "must be at least 1"));
        }
        if !(0.0..=0.5).contains(&self.calibration_fraction) {
            return Err(ConfigError::new(
                "calibration_fraction",
                format!("must be in [0, 0.5], got {}", self.calibration_fraction),
            ));
        }
        Ok(())
    }
}

/// Builder for [`CausalIot`].
#[derive(Debug, Clone, Default)]
pub struct CausalIotBuilder {
    config: CausalIotConfig,
}

impl CausalIotBuilder {
    /// Fixes τ explicitly.
    pub fn tau(mut self, tau: usize) -> Self {
        self.config.tau = TauChoice::Fixed(tau);
        self
    }

    /// Uses the `τ = d/v` rule with the given bounds.
    pub fn auto_tau(mut self, tau_config: TauConfig) -> Self {
        self.config.tau = TauChoice::Auto(tau_config);
        self
    }

    /// Sets the G² significance threshold α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.miner.alpha = alpha;
        self
    }

    /// Sets the score-threshold percentile `q`.
    pub fn q(mut self, q: f64) -> Self {
        self.config.q = q;
        self
    }

    /// Sets the default `k_max` for spawned monitors.
    pub fn k_max(mut self, k_max: usize) -> Self {
        self.config.k_max = k_max;
        self
    }

    /// Sets the unseen-context scoring policy.
    pub fn unseen(mut self, unseen: UnseenContext) -> Self {
        self.config.unseen = unseen;
        self
    }

    /// Sets the CPT Laplace smoothing (0 = plain MLE).
    pub fn smoothing(mut self, smoothing: f64) -> Self {
        self.config.miner.smoothing = smoothing;
        self
    }

    /// Caps TemporalPC's conditioning-set size.
    pub fn max_cond_size(mut self, size: usize) -> Self {
        self.config.miner.max_cond_size = size;
        self
    }

    /// Enables or disables parallel mining.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.miner.parallel = parallel;
        self
    }

    /// Enables the restart-on-abrupt extension.
    pub fn restart_on_abrupt(mut self, enabled: bool) -> Self {
        self.config.restart_on_abrupt = enabled;
        self
    }

    /// Holds out a tail fraction of the training events for out-of-sample
    /// threshold calibration (`0.0` = the paper's in-sample calibration).
    pub fn calibration_fraction(mut self, fraction: f64) -> Self {
        self.config.calibration_fraction = fraction;
        self
    }

    /// Overrides the whole preprocessing configuration.
    pub fn preprocess(mut self, preprocess: PreprocessConfig) -> Self {
        self.config.preprocess = preprocess;
        self
    }

    /// Finalises the pipeline, validating every parameter range first
    /// (see [`CausalIotConfig::check`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first out-of-range parameter:
    /// `alpha ∉ (0, 1)`, `q ∉ (0, 100]`, `k_max < 1`, a fixed `τ < 1`,
    /// negative smoothing, or `calibration_fraction ∉ [0, 0.5]`.
    pub fn try_build(self) -> Result<CausalIot, ConfigError> {
        self.config.check()?;
        Ok(CausalIot {
            config: self.config,
        })
    }

    /// Finalises the pipeline; the infallible spelling of
    /// [`CausalIotBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`CausalIotBuilder::try_build`] would
    /// reject — out-of-range `alpha`, `q`, `k_max`, fixed `τ`, smoothing,
    /// or `calibration_fraction`.
    pub fn build(self) -> CausalIot {
        match self.try_build() {
            Ok(pipeline) => pipeline,
            Err(e) => panic!("CausalIotBuilder::build: {e}"),
        }
    }
}

/// The unfitted CausalIoT pipeline.
#[derive(Debug, Clone, Default)]
pub struct CausalIot {
    config: CausalIotConfig,
}

impl CausalIot {
    /// Starts a builder with paper-default parameters.
    pub fn builder() -> CausalIotBuilder {
        CausalIotBuilder::default()
    }

    /// Creates a pipeline from an explicit configuration.
    pub fn with_config(config: CausalIotConfig) -> Self {
        CausalIot { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CausalIotConfig {
        &self.config
    }

    /// Fits the full pipeline on a **raw** training log: preprocessing,
    /// τ selection, TemporalPC mining, CPT estimation, and threshold
    /// calculation.
    ///
    /// # Errors
    ///
    /// Returns [`CausalIotError::InvalidConfig`] for out-of-range
    /// parameters and [`CausalIotError::InsufficientTrainingData`] when
    /// fewer preprocessed events remain than τ requires.
    pub fn fit(
        &self,
        registry: &DeviceRegistry,
        log: &EventLog,
    ) -> Result<FittedModel, CausalIotError> {
        self.fit_with_telemetry(registry, log, &TelemetryHandle::from_env())
    }

    /// Like [`CausalIot::fit`] with an explicit [`TelemetryHandle`] instead
    /// of the `CAUSALIOT_TELEMETRY`-derived one. The handle is retained by
    /// the fitted model so spawned monitors report to the same registry;
    /// a disabled handle (the default elsewhere) keeps overhead at one
    /// branch per instrumentation point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CausalIot::fit`].
    pub fn fit_with_telemetry(
        &self,
        registry: &DeviceRegistry,
        log: &EventLog,
        telemetry: &TelemetryHandle,
    ) -> Result<FittedModel, CausalIotError> {
        let pipeline = FitPipeline::new(self.config.clone(), telemetry.clone())?;
        let raw = RawEvents::new(registry, log);
        let preprocessed = pipeline.preprocess(raw)?;
        pipeline.resume_from(preprocessed)
    }

    /// Fits the pipeline on already-binarised events (skips sanitation and
    /// type unification — useful when the caller preprocesses, e.g. the
    /// synthetic evaluation harness).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CausalIot::fit`].
    pub fn fit_binary(
        &self,
        registry: &DeviceRegistry,
        events: &[BinaryEvent],
    ) -> Result<FittedModel, CausalIotError> {
        self.fit_binary_with_telemetry(registry, events, &TelemetryHandle::from_env())
    }

    /// Like [`CausalIot::fit_binary`] with an explicit [`TelemetryHandle`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CausalIot::fit`].
    pub fn fit_binary_with_telemetry(
        &self,
        registry: &DeviceRegistry,
        events: &[BinaryEvent],
        telemetry: &TelemetryHandle,
    ) -> Result<FittedModel, CausalIotError> {
        let pipeline = FitPipeline::new(self.config.clone(), telemetry.clone())?;
        let preprocessed = pipeline.ingest_binary(registry.len(), events.to_vec());
        pipeline.resume_from(preprocessed)
    }
}

/// The immutable fit artefacts, shared by every handle to the model.
#[derive(Debug)]
struct ModelInner {
    dig: Arc<Dig>,
    threshold: f64,
    preprocessor: Option<Arc<FittedPreprocessor>>,
    config: CausalIotConfig,
    final_train_state: SystemState,
    num_devices: usize,
    fit_report: FitReport,
    telemetry: TelemetryHandle,
}

/// A fitted CausalIoT model: the mined DIG, the calibrated threshold, and
/// the preprocessing state needed to consume runtime events.
///
/// The fit artefacts are immutable and `Arc`-backed, so cloning a
/// `FittedModel` is a reference-count bump — share one fitted model across
/// threads and spawn any number of concurrent [`OwnedMonitor`]s from it
/// with `model.clone().into_monitor()`.
#[derive(Debug, Clone)]
pub struct FittedModel {
    inner: Arc<ModelInner>,
}

impl FittedModel {
    /// Assembles a model from its finished fit artefacts — the terminal
    /// step of the stage pipeline, also used by checkpoint restoration.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        dig: Dig,
        threshold: f64,
        preprocessor: Option<FittedPreprocessor>,
        config: CausalIotConfig,
        final_train_state: SystemState,
        num_devices: usize,
        fit_report: FitReport,
        telemetry: TelemetryHandle,
    ) -> Self {
        FittedModel {
            inner: Arc::new(ModelInner {
                dig: Arc::new(dig),
                threshold,
                preprocessor: preprocessor.map(Arc::new),
                config,
                final_train_state,
                num_devices,
                fit_report,
                telemetry,
            }),
        }
    }

    /// Serialises the full model — DIG with exact CPT counts, threshold,
    /// pipeline configuration, fitted preprocessor, and final training
    /// state — to the versioned `causaliot-model v2` checkpoint format.
    ///
    /// The output is plain text, diff-friendly, and byte-stable: saving a
    /// loaded checkpoint reproduces the input byte-for-byte, and a
    /// restored model's monitors emit verdict-for-verdict identical output
    /// (see [`checkpoint`] for the format grammar).
    pub fn save(&self) -> String {
        checkpoint::save_model(self)
    }

    /// CRC32 content hash of this model's serialised checkpoint — the
    /// value the `# crc32` footer of [`FittedModel::save_to_path`]
    /// records (see [`checkpoint::content_hash`]). Because
    /// [`FittedModel::save`] is byte-stable, equal models hash equally
    /// across processes; content-addressed model stores use this as the
    /// blob key.
    pub fn content_hash(&self) -> u32 {
        checkpoint::content_hash(&self.save())
    }

    /// Restores a model persisted by [`FittedModel::save`], using the
    /// `CAUSALIOT_TELEMETRY`-derived telemetry handle (mirroring
    /// [`CausalIot::fit`]).
    ///
    /// Accepts both the full `causaliot-model v2` checkpoint and the
    /// legacy dig-only `causaliot-dig v1` format ([`crate::graph::save_dig`]);
    /// a v1 model restores with paper-default configuration, no
    /// preprocessor, and an all-OFF initial state.
    ///
    /// # Errors
    ///
    /// Returns [`CausalIotError::Model`] for unsupported versions,
    /// malformed lines, or inconsistent indices.
    pub fn load(text: &str) -> Result<FittedModel, CausalIotError> {
        Self::load_with_telemetry(text, &TelemetryHandle::from_env())
    }

    /// Like [`FittedModel::load`] with an explicit [`TelemetryHandle`];
    /// monitors spawned from the restored model report to it.
    ///
    /// Decoded models are shared by content: when `text` is byte-identical
    /// to the text of a model that is still alive and was decoded for the
    /// same sink (any disabled handle, or a clone of the same live one),
    /// this returns a clone of that model's handle, as [`Clone`] would,
    /// instead of a second copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FittedModel::load`].
    pub fn load_with_telemetry(
        text: &str,
        telemetry: &TelemetryHandle,
    ) -> Result<FittedModel, CausalIotError> {
        checkpoint::load_model(text, telemetry)
    }

    /// Writes the checkpoint to `path` **crash-safely**: the document plus
    /// a CRC32 footer goes to a temporary sibling, is fsynced, and is
    /// atomically renamed into place — an interrupted save at any byte
    /// leaves the previous checkpoint intact (see
    /// [`checkpoint::save_model_to_path`]).
    ///
    /// # Errors
    ///
    /// [`CausalIotError::Io`] with the path and OS error attached.
    pub fn save_to_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), CausalIotError> {
        checkpoint::save_model_to_path(self, path.as_ref())
    }

    /// Restores a model from a checkpoint file, verifying its CRC32
    /// footer when present (checkpoints from older builds, without a
    /// footer, still load), using the `CAUSALIOT_TELEMETRY`-derived
    /// telemetry handle.
    ///
    /// # Errors
    ///
    /// [`CausalIotError::Io`] when the file cannot be read,
    /// [`CausalIotError::Truncated`] / [`CausalIotError::Corrupt`] (with
    /// path and byte offset) when its content fails validation — a
    /// corrupt checkpoint fails closed, never a garbage model.
    pub fn load_from_path(
        path: impl AsRef<std::path::Path>,
    ) -> Result<FittedModel, CausalIotError> {
        Self::load_from_path_with_telemetry(path, &TelemetryHandle::from_env())
    }

    /// Like [`FittedModel::load_from_path`] with an explicit
    /// [`TelemetryHandle`]. The file's checks run first; a file that passes
    /// them is decoded, and shared by content, as by
    /// [`FittedModel::load_with_telemetry`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FittedModel::load_from_path`].
    pub fn load_from_path_with_telemetry(
        path: impl AsRef<std::path::Path>,
        telemetry: &TelemetryHandle,
    ) -> Result<FittedModel, CausalIotError> {
        checkpoint::load_model_from_path(path.as_ref(), telemetry)
    }

    /// The mined Device Interaction Graph.
    pub fn dig(&self) -> &Dig {
        &self.inner.dig
    }

    /// The calibrated contextual-anomaly threshold `c`.
    pub fn threshold(&self) -> f64 {
        self.inner.threshold
    }

    /// The τ the model was mined with.
    pub fn tau(&self) -> usize {
        self.inner.dig.tau()
    }

    /// The fitted preprocessor (absent for models fitted on binary
    /// events).
    pub fn preprocessor(&self) -> Option<&FittedPreprocessor> {
        self.inner.preprocessor.as_deref()
    }

    /// The system state at the end of training (monitors resume from it).
    pub fn final_train_state(&self) -> &SystemState {
        &self.inner.final_train_state
    }

    /// The pipeline configuration the model was fitted with.
    pub fn config(&self) -> &CausalIotConfig {
        &self.inner.config
    }

    /// The fit's observability report: preprocessing counts, mining
    /// statistics, stage wall times, and the calibration-score
    /// distribution. Always populated — the stage timings cost a handful
    /// of `Instant` reads even with telemetry disabled.
    pub fn fit_report(&self) -> &FitReport {
        &self.inner.fit_report
    }

    /// The telemetry handle the model was fitted with (disabled unless one
    /// was passed or `CAUSALIOT_TELEMETRY` selected a sink).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.inner.telemetry
    }

    fn detector_config(&self, k_max: usize) -> DetectorConfig {
        DetectorConfig {
            threshold: self.inner.threshold,
            k_max,
            unseen: self.inner.config.unseen,
            restart_on_abrupt: self.inner.config.restart_on_abrupt,
        }
    }

    /// Converts the model handle into an [`OwnedMonitor`] — `Send +
    /// 'static`, resuming from the end-of-training state with the
    /// configured `k_max`.
    ///
    /// `FittedModel` is cheaply cloneable, so spawning one monitor per
    /// thread is `model.clone().into_monitor()`; every monitor shares the
    /// same `Arc`-backed DIG and preprocessor.
    pub fn into_monitor(self) -> OwnedMonitor {
        let k_max = self.inner.config.k_max;
        let initial = self.inner.final_train_state.clone();
        self.into_monitor_with(k_max, initial)
    }

    /// Converts the model handle into an [`OwnedMonitor`] with an explicit
    /// `k_max` and initial state.
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0`.
    pub fn into_monitor_with(self, k_max: usize, initial: SystemState) -> OwnedMonitor {
        let mut detector = KSequenceDetector::new(
            Arc::clone(&self.inner.dig),
            initial,
            self.detector_config(k_max),
        );
        let telemetry = &self.inner.telemetry;
        detector.set_telemetry(telemetry);
        OwnedMonitor {
            detector,
            preprocessor: self.inner.preprocessor.clone(),
            dropped_duplicate: 0,
            dropped_extreme: 0,
            dropped_non_finite: 0,
            drop_duplicate_counter: telemetry.counter("monitor.drop.duplicate"),
            drop_extreme_counter: telemetry.counter("monitor.drop.extreme"),
            drop_non_finite_counter: telemetry.counter("monitor.drop.non_finite"),
        }
    }

    /// Number of devices the model covers.
    pub fn num_devices(&self) -> usize {
        self.inner.num_devices
    }

    /// Whether both handles point at the same model allocation.
    #[cfg(test)]
    pub(crate) fn shares_allocation_with(&self, other: &FittedModel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Builds a [`DriftDetector`](crate::monitor::DriftDetector) against
    /// this model's DIG, calibrated threshold, and percentile `q` — the
    /// baseline a served score stream is compared to.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `config` fails
    /// [`DriftConfig::check`](crate::monitor::DriftConfig::check).
    pub fn drift_detector(
        &self,
        config: crate::monitor::DriftConfig,
    ) -> Result<crate::monitor::DriftDetector, ConfigError> {
        crate::monitor::DriftDetector::new(
            &self.inner.dig,
            self.inner.threshold,
            self.inner.config.q,
            config,
        )
    }
}

/// Why a raw event was dropped instead of scored — by the preprocessing
/// checks of [`OwnedMonitor::observe_with`] on an [`Observation::Raw`] or
/// by the [`crate::ingest`] guard's dead-letter path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The event reported the device's current binary state (a duplicated
    /// state report).
    Duplicate,
    /// The reading fell outside the fitted three-sigma band.
    Extreme,
    /// The numeric reading was NaN or infinite.
    NonFinite,
    /// The timestamp regressed further than the configured `max_skew`
    /// behind the stream's watermark — a clock fault, not mere reordering.
    ClockRegression,
    /// The event arrived after the reorder window's watermark had passed
    /// its timestamp (too late to reinsert in order, but within
    /// `max_skew`).
    LateArrival,
    /// The event names a device the model was not fitted on.
    UnknownDevice,
    /// The device re-reported an identical reading more times in a row
    /// than the configured flood limit allows.
    DuplicateFlood,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::Duplicate => write!(f, "duplicate state report"),
            DropReason::Extreme => write!(f, "extreme reading"),
            DropReason::NonFinite => write!(f, "non-finite reading"),
            DropReason::ClockRegression => write!(f, "timestamp regressed beyond max_skew"),
            DropReason::LateArrival => write!(f, "arrived after the reorder watermark"),
            DropReason::UnknownDevice => write!(f, "unknown device"),
            DropReason::DuplicateFlood => write!(f, "duplicate flood"),
        }
    }
}

impl std::error::Error for DropReason {}

/// One observation for the canonical monitor entry point
/// ([`OwnedMonitor::observe_with`]): either an already-binarised event or
/// a raw platform event still to be sanitised and binarised against the
/// fitted preprocessor.
#[derive(Debug, Clone, Copy)]
pub enum Observation<'a> {
    /// A preprocessed binary event — always scored, never dropped.
    Binary(BinaryEvent),
    /// A raw platform event — runs the preprocessing checks and may be
    /// dropped with a [`DropReason`].
    Raw(&'a DeviceEvent),
}

impl From<BinaryEvent> for Observation<'_> {
    fn from(event: BinaryEvent) -> Self {
        Observation::Binary(event)
    }
}

impl<'a> From<&'a DeviceEvent> for Observation<'a> {
    fn from(event: &'a DeviceEvent) -> Self {
        Observation::Raw(event)
    }
}

/// Ambient context for [`OwnedMonitor::observe_with`] and
/// [`OwnedMonitor::observe_batch_into`]. The default context scores at
/// full confidence; attach a [`StaleSet`] for degraded mode.
/// Non-exhaustive so future context (e.g. per-event deadlines) is not a
/// breaking change — build it with [`ObserveCtx::new`] /
/// [`ObserveCtx::with_stale`].
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ObserveCtx<'a> {
    /// Devices currently flagged stale by the ingestion guard's liveness
    /// clock; when set, verdict confidence is discounted to the live cause
    /// fraction.
    pub stale: Option<&'a StaleSet>,
}

impl<'a> ObserveCtx<'a> {
    /// The plain full-confidence context.
    pub fn new() -> Self {
        Self::default()
    }

    /// A degraded-mode context discounting confidence against `stale`.
    pub fn with_stale(stale: &'a StaleSet) -> Self {
        Self {
            stale: Some(stale),
            ..Self::default()
        }
    }
}

/// A stateful runtime monitor: the paper's Event Monitor (§V-C,
/// Algorithm 2) for one stream.
///
/// `OwnedMonitor` is `Send + 'static`: the DIG and preprocessor are held
/// through `Arc`s shared with its [`FittedModel`], so it can be moved into
/// worker threads, stored in long-lived services, or driven by the
/// `iot-serve` hub. It is created with [`FittedModel::into_monitor`] (the
/// model handle itself is a cheap `Arc` clone).
///
/// Five entry points score events: [`observe_with`](Self::observe_with)
/// (the canonical one), its binary shorthand [`observe`](Self::observe),
/// and the batch paths [`observe_batch_into`](Self::observe_batch_into),
/// [`observe_batch_stats_only`](Self::observe_batch_stats_only) and
/// [`observe_batch_scores_only`](Self::observe_batch_scores_only).
///
/// # Panic safety
///
/// The monitor mutates its phantom-state machine and tracking window
/// *during* [`observe`](OwnedMonitor::observe); if a call unwinds (e.g. a
/// caller-injected fault caught with `std::panic::catch_unwind`), the
/// monitor's internal state is unspecified — structurally sound (no
/// `unsafe` anywhere in this crate, and the shared `Arc`'d model data is
/// immutable, so other monitors on the same model are unaffected) but
/// possibly mid-transition. Do not feed further events to a monitor that
/// has unwound: retire it and spawn a replacement from the (untouched)
/// `FittedModel`, as the `iot-serve` hub's quarantine-and-restore path
/// does.
#[derive(Debug, Clone)]
pub struct OwnedMonitor {
    detector: KSequenceDetector,
    preprocessor: Option<Arc<FittedPreprocessor>>,
    dropped_duplicate: u64,
    dropped_extreme: u64,
    dropped_non_finite: u64,
    drop_duplicate_counter: Counter,
    drop_extreme_counter: Counter,
    drop_non_finite_counter: Counter,
}

impl OwnedMonitor {
    /// The canonical observe entry point: scores one observation — binary
    /// or raw — under the given context. A raw observation is sanitised
    /// (non-finite, three-sigma extreme, and duplicate-state checks
    /// against the fitted statistics) and binarised with the fitted
    /// thresholds first. A context carrying a [`StaleSet`] scores in
    /// **degraded mode**: the verdict's
    /// [`confidence`](Verdict::confidence) is discounted by the fraction
    /// of the device's CPT parents flagged stale (with an empty stale set
    /// the verdict equals the default context's).
    ///
    /// # Errors
    ///
    /// Raw observations can be dropped by preprocessing with a
    /// [`DropReason`] ([`NonFinite`](DropReason::NonFinite),
    /// [`Extreme`](DropReason::Extreme) or
    /// [`Duplicate`](DropReason::Duplicate)); binary observations are
    /// always scored, so for [`Observation::Binary`] the result is always
    /// `Ok`.
    ///
    /// # Panics
    ///
    /// Panics for raw observations if the model was fitted with
    /// [`CausalIot::fit_binary`] (no preprocessor is available).
    pub fn observe_with(
        &mut self,
        input: Observation<'_>,
        ctx: &ObserveCtx<'_>,
    ) -> Result<Verdict, DropReason> {
        let event = match input {
            Observation::Binary(event) => event,
            Observation::Raw(event) => self.binarize(event)?,
        };
        Ok(match ctx.stale {
            Some(stale) => self.detector.observe_degraded(event, stale),
            None => self.detector.observe(event),
        })
    }

    /// Processes one preprocessed binary event: the binary shorthand of
    /// [`observe_with`](Self::observe_with) under the default context,
    /// without its infallible `Result`.
    #[inline]
    pub fn observe(&mut self, event: BinaryEvent) -> Verdict {
        self.detector.observe(event)
    }

    /// Processes a whole batch of preprocessed binary events under `ctx`,
    /// appending one verdict per event to `out` in stream order.
    ///
    /// Verdicts are **bit-identical** to `N` sequential
    /// [`observe_with`](Self::observe_with) calls under the same context;
    /// the batch amortises telemetry flushes (counters and the latency
    /// sample land once per batch). Verdicts are pushed as each event
    /// completes, so on a mid-batch panic `out` holds exactly the verdicts
    /// of the events before the panicking one.
    pub fn observe_batch_into(
        &mut self,
        events: &[BinaryEvent],
        ctx: &ObserveCtx<'_>,
        out: &mut Vec<Verdict>,
    ) {
        self.detector.observe_batch_into(events, ctx.stale, out)
    }

    /// [`observe_batch_into`](Self::observe_batch_into) with verdict
    /// materialisation elided: phantom-state transitions, tracking
    /// dynamics, [`report`](Self::report) counters, and the telemetry
    /// flush stay bit-identical to the sequential path, but no verdict
    /// or alarm payload is built — the zero-allocation hot path for
    /// callers that only consume counters (the serving hub's burst
    /// loop, when no recorder or verdict log is attached). `scored` is
    /// bumped once per completed event, so on a mid-batch panic it
    /// holds the panicking event's exact index.
    pub fn observe_batch_stats_only(&mut self, events: &[BinaryEvent], scored: &mut usize) {
        self.detector.observe_batch_stats_only(events, scored)
    }

    /// [`observe_batch_stats_only`](Self::observe_batch_stats_only)
    /// surfacing each event's anomaly score to `on_score` as it
    /// completes — the hook the drift detector
    /// ([`crate::monitor::DriftDetector`]) rides on the serving hot
    /// path. Side effects stay bit-identical to the stats-only
    /// path; the score is a value that path already computes.
    pub fn observe_batch_scores_only(
        &mut self,
        events: &[BinaryEvent],
        scored: &mut usize,
        on_score: &mut dyn FnMut(BinaryEvent, f64),
    ) {
        self.detector
            .observe_batch_scores_only(events, scored, on_score)
    }

    /// The raw-reading gate in front of the detector: drops non-finite
    /// readings, three-sigma extremes, and readings equal to the device's
    /// current state, counting each drop; binarises the rest.
    fn binarize(&mut self, event: &DeviceEvent) -> Result<BinaryEvent, DropReason> {
        let pp = self
            .preprocessor
            .as_deref()
            .expect("raw observations require a model fitted on raw logs");
        if let StateValue::Numeric(v) = event.value {
            if !v.is_finite() {
                self.dropped_non_finite += 1;
                self.drop_non_finite_counter.inc();
                return Err(DropReason::NonFinite);
            }
        }
        if pp.sanitizer().is_extreme(event) {
            self.dropped_extreme += 1;
            self.drop_extreme_counter.inc();
            return Err(DropReason::Extreme);
        }
        let bin = pp.binarize_event(event);
        if self.detector.current_state().get(bin.device) == bin.value {
            self.dropped_duplicate += 1;
            self.drop_duplicate_counter.inc();
            return Err(DropReason::Duplicate);
        }
        Ok(bin)
    }

    /// The session's observability report: events scored, drops by reason,
    /// alarms by kind, and — when the model carries an enabled telemetry
    /// handle — latency and score distributions.
    pub fn report(&self) -> MonitorReport {
        let stats = self.detector.stats();
        MonitorReport {
            events_observed: stats.events,
            dropped_duplicate: self.dropped_duplicate,
            dropped_extreme: self.dropped_extreme,
            dropped_non_finite: self.dropped_non_finite,
            contextual_alarms: stats.contextual_alarms,
            collective_alarms: stats.collective_alarms,
            max_tracking_len: stats.max_tracking_len,
            observe_latency_us: DistributionSummary::from_histogram(
                &self.detector.latency_snapshot(),
            ),
            scores: DistributionSummary::from_histogram(&self.detector.score_snapshot()),
        }
    }

    /// The monitor's current system state.
    pub fn current_state(&self) -> &SystemState {
        self.detector.current_state()
    }

    /// Number of events currently tracked as a potential collective
    /// anomaly.
    pub fn tracking_len(&self) -> usize {
        self.detector.tracking_len()
    }

    /// Clears in-progress collective tracking, discarding the in-flight
    /// chain *and* its telemetry gauge — after a reset no verdict or
    /// metric can reference pre-reset events.
    pub fn reset_tracking(&mut self) {
        self.detector.reset_tracking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_model::{Attribute, Room, StateValue, Timestamp};

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

    /// Training events: presence toggles at random; the lamp follows each
    /// presence toggle with probability 0.9; an independent door sensor
    /// interleaves noise so the trace is genuinely stochastic.
    fn training_events(reg: &DeviceRegistry, rounds: u64) -> Vec<BinaryEvent> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
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
    fn fit_binary_and_detect_ghost_activation() {
        let reg = registry();
        let events = training_events(&reg, 300);
        let model = CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &events)
            .unwrap();
        // The mined DIG must include PE -> lamp.
        let pe = reg.id_of("PE_room").unwrap();
        let lamp = reg.id_of("S_lamp").unwrap();
        assert!(model.dig().interaction_pairs().contains(&(pe, lamp)));

        let mut monitor = model.clone().into_monitor();
        // Drive the home to a known all-OFF state (normal wind-down),
        // then inject a ghost lamp activation with no presence — it
        // violates the PE -> lamp interaction.
        if monitor.current_state().get(pe) {
            monitor.observe(BinaryEvent::new(Timestamp::from_secs(99_000), pe, false));
        }
        if monitor.current_state().get(lamp) {
            monitor.observe(BinaryEvent::new(Timestamp::from_secs(99_015), lamp, false));
        }
        monitor.reset_tracking();
        let ghost = BinaryEvent::new(Timestamp::from_secs(100_000), lamp, true);
        let verdict = monitor.observe(ghost);
        assert!(
            verdict.exceeds_threshold,
            "ghost activation score {} vs threshold {}",
            verdict.score,
            model.threshold()
        );
        assert_eq!(verdict.alarms.len(), 1);
    }

    #[test]
    fn fit_raw_log_end_to_end() {
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
        let model = CausalIot::builder().tau(2).build().fit(&reg, &log).unwrap();
        assert!(model.preprocessor().is_some());
        let mut monitor = model.into_monitor();
        // Raw duplicate: lamp reports its current state -> dropped.
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
        // Genuine flip passes through.
        let flip = DeviceEvent::new(
            Timestamp::from_secs(50_001),
            lamp,
            StateValue::Binary(!current),
        );
        assert!(monitor.observe_with(Observation::Raw(&flip), &ctx).is_ok());
        // The session report accounts for both.
        let report = monitor.report();
        assert_eq!(report.dropped_duplicate, 1);
        assert_eq!(report.dropped_extreme, 0);
        assert_eq!(report.events_observed, 1);
    }

    #[test]
    fn invalid_configs_rejected_by_try_build() {
        let bad = |builder: CausalIotBuilder, parameter: &'static str| {
            let err = builder.try_build().expect_err(parameter);
            assert_eq!(err.parameter(), parameter, "{err}");
        };
        bad(CausalIot::builder().alpha(2.0), "alpha");
        bad(CausalIot::builder().q(150.0), "q");
        bad(CausalIot::builder().q(0.0), "q");
        bad(CausalIot::builder().k_max(0), "k_max");
        bad(CausalIot::builder().tau(0), "tau");
        bad(CausalIot::builder().smoothing(-1.0), "smoothing");
        bad(
            CausalIot::builder().calibration_fraction(0.7),
            "calibration_fraction",
        );
        assert!(CausalIot::builder().tau(2).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn build_panics_on_invalid_config() {
        let _ = CausalIot::builder().alpha(2.0).build();
    }

    #[test]
    fn invalid_configs_rejected_at_fit_time_too() {
        // `CausalIot::with_config` skips the builder's validation, so `fit`
        // must still reject out-of-range parameters.
        let reg = registry();
        let events = training_events(&reg, 50);
        let fit =
            |config: CausalIotConfig| CausalIot::with_config(config).fit_binary(&reg, &events);
        let mut config = CausalIotConfig::default();
        config.miner.alpha = 2.0;
        assert!(matches!(
            fit(config),
            Err(CausalIotError::InvalidConfig {
                parameter: "alpha",
                ..
            })
        ));
        let config = CausalIotConfig {
            q: 150.0,
            ..CausalIotConfig::default()
        };
        assert!(matches!(
            fit(config),
            Err(CausalIotError::InvalidConfig { parameter: "q", .. })
        ));
        let config = CausalIotConfig {
            k_max: 0,
            ..CausalIotConfig::default()
        };
        assert!(matches!(
            fit(config),
            Err(CausalIotError::InvalidConfig {
                parameter: "k_max",
                ..
            })
        ));
        let config = CausalIotConfig {
            tau: TauChoice::Fixed(0),
            ..CausalIotConfig::default()
        };
        assert!(matches!(
            fit(config),
            Err(CausalIotError::InvalidConfig {
                parameter: "tau",
                ..
            })
        ));
    }

    #[test]
    fn owned_monitor_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<OwnedMonitor>();
        assert_send::<FittedModel>();
    }

    #[test]
    fn owned_monitor_runs_on_another_thread() {
        let reg = registry();
        let events = training_events(&reg, 300);
        let model = CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &events)
            .unwrap();
        let lamp = reg.id_of("S_lamp").unwrap();
        let mut local = model.clone().into_monitor();
        let mut remote = model.clone().into_monitor();
        let ghost = BinaryEvent::new(Timestamp::from_secs(500_000), lamp, true);
        let expected = local.observe(ghost);
        let verdict = std::thread::spawn(move || remote.observe(ghost))
            .join()
            .expect("monitor thread panicked");
        assert_eq!(expected, verdict);
    }

    #[test]
    fn too_little_data_is_reported() {
        let reg = registry();
        let events = training_events(&reg, 2);
        assert!(matches!(
            CausalIot::builder()
                .tau(2)
                .build()
                .fit_binary(&reg, &events),
            Err(CausalIotError::InsufficientTrainingData { .. })
        ));
    }

    #[test]
    fn auto_tau_uses_mean_gap() {
        let reg = registry();
        let pe = reg.id_of("PE_room").unwrap();
        // An exact 30s mean gap -> tau = 60/30 = 2.
        let events: Vec<BinaryEvent> = (0..100u64)
            .map(|i| BinaryEvent::new(Timestamp::from_secs(i * 30), pe, i % 2 == 0))
            .collect();
        let model = CausalIot::builder()
            .build()
            .fit_binary(&reg, &events)
            .unwrap();
        assert_eq!(model.tau(), 2);
    }
}
