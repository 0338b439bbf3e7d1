//! Hub sizing and policy configuration.

use std::path::PathBuf;
use std::time::Duration;

use causaliot_core::{ConfigError, DriftConfig, DriftSeverity, IngestPolicy};

/// What [`crate::Hub::submit`] does when a shard queue is at capacity.
///
/// Backpressure is still explicit — no policy silently drops events — but
/// the *ergonomics* of a full queue are now configurable per hub instead
/// of every caller hand-rolling a retry loop around
/// [`crate::SubmitError::QueueFull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SubmitPolicy {
    /// Return [`crate::SubmitError::QueueFull`] immediately (the original
    /// hub behaviour; the default).
    #[default]
    FailFast,
    /// Wait for queue space up to `deadline`, then return
    /// [`crate::SubmitError::DeadlineExceeded`]. Deadline overruns are
    /// counted in the `hub.deadline_exceeded` telemetry counter.
    Block {
        /// How long one submission may wait for queue space.
        deadline: Duration,
    },
    /// Retry with exponential backoff: sleep `initial_backoff`, double up
    /// to `max_backoff`, give up after `max_retries` retries with
    /// [`crate::SubmitError::QueueFull`]. Every retry is counted in the
    /// `hub.retries` telemetry counter.
    Retry {
        /// Retries after the first attempt (so `max_retries + 1` attempts
        /// total).
        max_retries: u32,
        /// Sleep before the first retry.
        initial_backoff: Duration,
        /// Backoff ceiling for the doubling schedule.
        max_backoff: Duration,
    },
}

/// A bounded exponential-backoff retry schedule, shared by every hub
/// policy that retries failed per-home background work
/// ([`RestorePolicy`] for quarantine restores, [`AdaptationPolicy`] for
/// drift refits): at most `max_attempts` attempts per home, waiting
/// `initial · 2^n` (capped at `max`) before attempt `n + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Attempts allowed per home per session (≥ 1).
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub initial: Duration,
    /// Ceiling for the doubling schedule (must be ≥ `initial`).
    pub max: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 3,
            initial: Duration::from_millis(100),
            max: Duration::from_secs(5),
        }
    }
}

impl BackoffPolicy {
    /// The wait before attempt `attempt + 1` (attempts count from 0):
    /// `initial · 2^attempt`, saturating at [`BackoffPolicy::max`].
    pub fn delay(&self, attempt: u32) -> Duration {
        let doubled = self
            .initial
            .saturating_mul(2u32.saturating_pow(attempt.min(31)));
        doubled.min(self.max)
    }

    /// [`BackoffPolicy::delay`] with deterministic seeded *decorrelated
    /// jitter*: a wait drawn from `[delay(attempt), 3 · delay(attempt)]`
    /// (still capped at [`BackoffPolicy::max`]) by hashing
    /// `(seed, attempt)`, so callers retrying on behalf of many homes
    /// (seed = home id) spread their attempts instead of stampeding in
    /// lockstep, while any given `(seed, attempt)` pair always waits the
    /// same amount — schedules stay reproducible under test.
    ///
    /// Jitter is strictly additive: the jittered wait is never shorter
    /// than the plain [`delay`](BackoffPolicy::delay) schedule, and the
    /// default schedule everywhere remains the unjittered `delay` —
    /// jitter happens only where a caller opts in with this method (the
    /// hub's auto-restore loop does, seeded per home).
    pub fn delay_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.delay(attempt);
        let ceiling = base.saturating_mul(3).min(self.max).max(base);
        let span = ceiling.saturating_sub(base).as_nanos() as u64;
        if span == 0 {
            return base;
        }
        // splitmix64 over (seed, attempt): cheap, deterministic, and
        // well-mixed for consecutive seeds/attempts.
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        base + Duration::from_nanos(x % (span + 1))
    }

    /// Validates the schedule; `max_attempts_field` / `max_field` name
    /// the owning policy's fields in the [`ConfigError`] (e.g.
    /// `"restore_policy.backoff.max_attempts"`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn check_named(
        &self,
        max_attempts_field: &'static str,
        max_field: &'static str,
    ) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::new(
                max_attempts_field,
                "must be at least 1 (omit the policy to disable retries)",
            ));
        }
        if self.max < self.initial {
            return Err(ConfigError::new(
                max_field,
                format!(
                    "must be >= initial ({:?}), got {:?}",
                    self.initial, self.max
                ),
            ));
        }
        Ok(())
    }
}

/// When the hub fsyncs a home's write-ahead log.
///
/// The WAL makes accepted events *durable*: after a crash (including
/// `kill -9`), [`crate::Hub::recover`] replays every event the policy
/// had flushed and resumes with verdicts bit-identical to an
/// uninterrupted run. The policy trades scoring throughput against the
/// size of the at-risk tail — events appended but not yet fsynced can be
/// lost with the page cache if the whole *machine* dies (a killed
/// process alone loses nothing: written bytes survive in kernel memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum DurabilityPolicy {
    /// No WAL, no snapshots — the historical in-memory hub (the
    /// default). Crash recovery is limited to re-registering from model
    /// checkpoints.
    #[default]
    Off,
    /// Group commit: fsync after every `events` appended events or once
    /// `max_delay` has elapsed since the last sync, whichever comes
    /// first. The throughput sweet spot — one fsync amortises a whole
    /// burst.
    Interval {
        /// Events appended between fsyncs (≥ 1).
        events: u64,
        /// Longest an appended event may wait for its fsync.
        max_delay: Duration,
    },
    /// Fsync at every job boundary — every accepted submission is
    /// machine-durable before the next one is scored. The strongest
    /// guarantee and by far the slowest.
    Strict,
}

/// Crash tolerance for a [`crate::Hub`]: a per-home segmented
/// write-ahead log plus periodic live-state snapshots under `dir`.
///
/// With a policy other than [`DurabilityPolicy::Off`] armed, every
/// home's scored events are appended to a CRC-framed WAL segment, its
/// model checkpoint and runtime-state snapshots are persisted in the
/// same per-home directory, and [`crate::Hub::recover`] can rebuild the
/// whole fleet after a crash — snapshot restore plus WAL-tail replay —
/// with bit-identical verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory; each home gets `home-<id>/` under it (created on
    /// registration).
    pub dir: PathBuf,
    /// When appended events are fsynced.
    pub policy: DurabilityPolicy,
    /// Snapshot cadence in events: after at least this many scored
    /// events a home writes a fresh runtime-state snapshot and truncates
    /// its WAL (≥ 1). Snapshots also land on every model swap and at
    /// clean shutdown regardless of cadence.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// A durability config with the given root, group-commit fsync every
    /// 64 events / 5 ms, and a snapshot every 4096 events.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy: DurabilityPolicy::Interval {
                events: 64,
                max_delay: Duration::from_millis(5),
            },
            snapshot_every: 4096,
        }
    }

    /// Whether the config actually arms the WAL (a policy other than
    /// [`DurabilityPolicy::Off`]).
    pub fn is_armed(&self) -> bool {
        self.policy != DurabilityPolicy::Off
    }
}

/// Automatic quarantine recovery: reload a panicked home from its last
/// saved checkpoint.
///
/// When configured, the hub's supervisor watches for quarantined homes
/// and, on the [`BackoffPolicy`] schedule, reloads the
/// `causaliot-model v2` checkpoint at `from_checkpoint` (re-read on
/// every attempt, so an operator can update it in place) and
/// re-registers the home with a fresh monitor at an event boundary — the
/// same machinery as a [`crate::ModelUpdate::Restore`]. At most
/// `backoff.max_attempts` automatic restores are attempted per home per
/// session; a home that keeps panicking past that stays quarantined for
/// manual intervention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestorePolicy {
    /// Path of the checkpoint file ([`causaliot_core::FittedModel::save`]
    /// output) to restore quarantined homes from.
    pub from_checkpoint: PathBuf,
    /// Attempt budget and wait schedule for automatic restores (manual
    /// [`crate::ModelUpdate::Restore`]s are not counted against it).
    pub backoff: BackoffPolicy,
}

/// The online-adaptation loop: arm per-home drift detection on the
/// serving hot path and close the drift → refit → hot-swap cycle in the
/// background.
///
/// When set on [`HubConfig::adaptation`], every registered home gets a
/// [`causaliot_core::DriftDetector`] fed by the scores its monitor
/// already computes, plus a sliding window of its most recent
/// `refit_window` events. A [`causaliot_core::DriftReport`] at or above
/// `min_severity` enqueues an incremental refit
/// ([`causaliot_core::Refit`]) on the hub's background refitter thread
/// (bounded queue, one in-flight refit per home, failures retried on the
/// [`BackoffPolicy`] schedule); a successful refit is hot-swapped in at
/// an event boundary — and, when `store` is set, first committed there
/// as the home's next lineage generation.
///
/// `None` (the default) leaves every path untouched: the hub is
/// bit-identical to one built before adaptation existed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationPolicy {
    /// Drift-detector tuning (window, check cadence, triggers).
    pub drift: DriftConfig,
    /// Minimum report severity that triggers a refit (reports below it
    /// are still counted in `hub.drift.reports` and the
    /// [`crate::HomeReport`]).
    pub min_severity: DriftSeverity,
    /// Sliding refit window per home, in events (≥ 10 — the pipeline's
    /// own minimum training size).
    pub refit_window: usize,
    /// Bounded capacity of the refit work queue; when it is full further
    /// requests are dropped and counted in `hub.drift.dropped` (the next
    /// full drift window re-requests).
    pub queue_capacity: usize,
    /// Attempt budget and wait schedule for failed refits, per home.
    pub backoff: BackoffPolicy,
    /// When set, successful refits are committed to the
    /// [`iot_fleet::ModelStore`] at this root as the home's next lineage
    /// generation before the swap.
    pub store: Option<PathBuf>,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        AdaptationPolicy {
            drift: DriftConfig::default(),
            min_severity: DriftSeverity::Warning,
            refit_window: 2048,
            queue_capacity: 16,
            backoff: BackoffPolicy::default(),
            store: None,
        }
    }
}

/// Sizing and policy knobs for a [`crate::Hub`].
///
/// Build one with [`HubConfig::builder`] for up-front validation, or
/// construct it literally (struct-update syntax over
/// [`HubConfig::default`]) — [`crate::Hub::new`] routes every
/// configuration through the builder's validation, clamping only the two
/// historical sizing fields (`workers`, `queue_capacity`) for backward
/// compatibility.
#[derive(Debug, Clone, PartialEq)]
pub struct HubConfig {
    /// Number of worker threads; homes are sharded across them
    /// round-robin. Clamped to at least 1.
    pub workers: usize,
    /// Bounded per-shard queue capacity, counted in *jobs* (a batch
    /// counts once). Clamped to at least 1. What happens when a shard's
    /// queue is full is governed by [`HubConfig::submit_policy`].
    pub queue_capacity: usize,
    /// Keep every verdict for [`crate::Hub::shutdown`]'s
    /// [`crate::HomeReport`]s. Disable for long-running deployments where
    /// the aggregated [`iot_telemetry::MonitorReport`] suffices.
    pub record_verdicts: bool,
    /// Full-queue behaviour for [`crate::Hub::submit`] /
    /// [`crate::Hub::submit_batch`].
    pub submit_policy: SubmitPolicy,
    /// Automatic quarantine recovery from a checkpoint (`None` = restores
    /// are manual via [`crate::ModelUpdate::Restore`]).
    pub restore_policy: Option<RestorePolicy>,
    /// Per-home ingestion hardening: a [`causaliot_core::IngestGuard`]
    /// runs in front of every home's monitor on the shard, repairing
    /// out-of-order delivery within the policy's reorder window, emitting
    /// dead letters for events it refuses (counted per cause in the
    /// [`crate::HomeReport`] and the `ingest.*` telemetry), and flagging
    /// silent devices so verdicts carry degraded-mode confidence. `None`
    /// (the default) bypasses the guard entirely — the hub behaves
    /// bit-identically to previous releases.
    pub ingest: Option<IngestPolicy>,
    /// Per-home flight recorder capacity: keep the last N scored events
    /// (event, score, verdict) in a fixed ring on the home's shard, so a
    /// quarantine carries the evidence that led up to it
    /// ([`crate::HomeReport::quarantine_flights`]) and a live home can be
    /// inspected via [`crate::Hub::dump_home`]. Memory is bounded at
    /// `N × homes` entries. `None` (the default) records nothing and
    /// leaves the scoring hot path untouched.
    pub flight_recorder: Option<usize>,
    /// The online-adaptation loop: drift detection → background refit →
    /// auto hot-swap (see [`AdaptationPolicy`]). `None` (the default)
    /// disables it with a bit-identical hub.
    pub adaptation: Option<AdaptationPolicy>,
    /// Crash tolerance: per-home write-ahead log + live-state snapshots
    /// (see [`DurabilityConfig`] and [`crate::Hub::recover`]). `None`
    /// (the default) leaves every path untouched — the hub is
    /// bit-identical to a durability-free build.
    pub durability: Option<DurabilityConfig>,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            workers: 4,
            queue_capacity: 1024,
            record_verdicts: true,
            submit_policy: SubmitPolicy::default(),
            restore_policy: None,
            ingest: None,
            flight_recorder: None,
            adaptation: None,
            durability: None,
        }
    }
}

impl HubConfig {
    /// Starts a builder with default sizing.
    pub fn builder() -> HubConfigBuilder {
        HubConfigBuilder::default()
    }

    /// Validates every field range (see
    /// [`HubConfigBuilder::try_build`] for the exact rules).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::new("workers", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be at least 1"));
        }
        match self.submit_policy {
            SubmitPolicy::FailFast => {}
            SubmitPolicy::Block { deadline } => {
                if deadline.is_zero() {
                    return Err(ConfigError::new(
                        "submit_policy.deadline",
                        "block deadline must be non-zero",
                    ));
                }
            }
            SubmitPolicy::Retry {
                max_retries,
                initial_backoff,
                max_backoff,
            } => {
                if max_retries == 0 {
                    return Err(ConfigError::new(
                        "submit_policy.max_retries",
                        "must be at least 1 (use FailFast for zero retries)",
                    ));
                }
                if max_backoff < initial_backoff {
                    return Err(ConfigError::new(
                        "submit_policy.max_backoff",
                        format!(
                            "must be >= initial_backoff ({initial_backoff:?}), got {max_backoff:?}"
                        ),
                    ));
                }
            }
        }
        if let Some(policy) = &self.restore_policy {
            policy.backoff.check_named(
                "restore_policy.backoff.max_attempts",
                "restore_policy.backoff.max",
            )?;
            if policy.from_checkpoint.as_os_str().is_empty() {
                return Err(ConfigError::new(
                    "restore_policy.from_checkpoint",
                    "checkpoint path must not be empty",
                ));
            }
        }
        if let Some(policy) = &self.adaptation {
            policy.drift.check()?;
            policy
                .backoff
                .check_named("adaptation.backoff.max_attempts", "adaptation.backoff.max")?;
            if policy.refit_window < 10 {
                return Err(ConfigError::new(
                    "adaptation.refit_window",
                    "must be at least 10 events (the pipeline's minimum training size)",
                ));
            }
            if policy.queue_capacity == 0 {
                return Err(ConfigError::new(
                    "adaptation.queue_capacity",
                    "must be at least 1",
                ));
            }
            if let Some(store) = &policy.store {
                if store.as_os_str().is_empty() {
                    return Err(ConfigError::new(
                        "adaptation.store",
                        "store root must not be empty (omit the field to skip lineage commits)",
                    ));
                }
            }
        }
        if let Some(policy) = &self.ingest {
            policy.check()?;
        }
        if self.flight_recorder == Some(0) {
            return Err(ConfigError::new(
                "flight_recorder",
                "capacity must be at least 1 (omit the field to disable recording)",
            ));
        }
        if let Some(durability) = &self.durability {
            if durability.dir.as_os_str().is_empty() {
                return Err(ConfigError::new(
                    "durability.dir",
                    "WAL root directory must not be empty",
                ));
            }
            if durability.snapshot_every == 0 {
                return Err(ConfigError::new(
                    "durability.snapshot_every",
                    "must be at least 1 event",
                ));
            }
            if let DurabilityPolicy::Interval { events, .. } = durability.policy {
                if events == 0 {
                    return Err(ConfigError::new(
                        "durability.policy.events",
                        "group-commit interval must be at least 1 event",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`HubConfig`], mirroring
/// [`causaliot_core::CausalIotBuilder`]: `try_build` validates every
/// field before any thread is spawned.
#[derive(Debug, Clone, Default)]
pub struct HubConfigBuilder {
    config: HubConfig,
}

impl HubConfigBuilder {
    /// Sets the number of worker threads (= shards).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the bounded per-shard queue capacity (jobs).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Keeps (or drops) every verdict for the end-of-session reports.
    pub fn record_verdicts(mut self, record: bool) -> Self {
        self.config.record_verdicts = record;
        self
    }

    /// Sets the full-queue submission policy.
    pub fn submit_policy(mut self, policy: SubmitPolicy) -> Self {
        self.config.submit_policy = policy;
        self
    }

    /// Enables automatic quarantine recovery from a checkpoint.
    pub fn restore_policy(mut self, policy: RestorePolicy) -> Self {
        self.config.restore_policy = Some(policy);
        self
    }

    /// Enables per-home ingestion hardening (see [`HubConfig::ingest`]).
    pub fn ingest(mut self, policy: IngestPolicy) -> Self {
        self.config.ingest = Some(policy);
        self
    }

    /// Enables the per-home flight recorder, keeping the last `capacity`
    /// scored events per home (see [`HubConfig::flight_recorder`]).
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.config.flight_recorder = Some(capacity);
        self
    }

    /// Arms the online-adaptation loop (see [`AdaptationPolicy`]).
    pub fn adaptation(mut self, policy: AdaptationPolicy) -> Self {
        self.config.adaptation = Some(policy);
        self
    }

    /// Arms crash tolerance: per-home WAL + snapshots under the config's
    /// root directory (see [`DurabilityConfig`]).
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.config.durability = Some(config);
        self
    }

    /// Finalises the configuration, validating every field:
    ///
    /// * `workers ≥ 1` and `queue_capacity ≥ 1`,
    /// * a [`SubmitPolicy::Block`] deadline is non-zero,
    /// * [`SubmitPolicy::Retry`] has `max_retries ≥ 1` and
    ///   `max_backoff ≥ initial_backoff`,
    /// * a [`RestorePolicy`] has a valid [`BackoffPolicy`]
    ///   (`max_attempts ≥ 1`, `max ≥ initial`) and a non-empty
    ///   checkpoint path,
    /// * an [`AdaptationPolicy`] has a valid
    ///   [`DriftConfig`](causaliot_core::DriftConfig) and
    ///   [`BackoffPolicy`], `refit_window ≥ 10`, `queue_capacity ≥ 1`,
    ///   and a non-empty store root when one is set,
    /// * an [`IngestPolicy`] passes its own
    ///   [`check`](IngestPolicy::check),
    /// * a [`HubConfig::flight_recorder`] capacity is at least 1.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn try_build(self) -> Result<HubConfig, ConfigError> {
        self.config.check()?;
        Ok(self.config)
    }

    /// Finalises the configuration; the infallible spelling of
    /// [`HubConfigBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`HubConfigBuilder::try_build`] would
    /// reject.
    pub fn build(self) -> HubConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("HubConfigBuilder::build: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_defaults_and_policies() {
        let config = HubConfig::builder()
            .workers(2)
            .queue_capacity(64)
            .record_verdicts(false)
            .submit_policy(SubmitPolicy::Retry {
                max_retries: 5,
                initial_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(5),
            })
            .restore_policy(RestorePolicy {
                from_checkpoint: PathBuf::from("home.model"),
                backoff: BackoffPolicy {
                    max_attempts: 3,
                    initial: Duration::from_millis(10),
                    max: Duration::from_millis(100),
                },
            })
            .adaptation(AdaptationPolicy::default())
            .try_build()
            .unwrap();
        assert_eq!(config.workers, 2);
        assert!(config.restore_policy.is_some());
        assert!(config.adaptation.is_some());
    }

    #[test]
    fn backoff_policy_doubles_and_saturates() {
        let backoff = BackoffPolicy {
            max_attempts: 5,
            initial: Duration::from_millis(10),
            max: Duration::from_millis(35),
        };
        assert_eq!(backoff.delay(0), Duration::from_millis(10));
        assert_eq!(backoff.delay(1), Duration::from_millis(20));
        assert_eq!(backoff.delay(2), Duration::from_millis(35));
        assert_eq!(backoff.delay(31), Duration::from_millis(35));
        assert_eq!(backoff.delay(u32::MAX), Duration::from_millis(35));
    }

    #[test]
    fn invalid_fields_are_named() {
        let bad = |builder: HubConfigBuilder, field: &str| {
            let err = builder.try_build().expect_err(field);
            assert_eq!(err.parameter(), field, "{err}");
        };
        bad(HubConfig::builder().workers(0), "workers");
        bad(HubConfig::builder().queue_capacity(0), "queue_capacity");
        bad(
            HubConfig::builder().submit_policy(SubmitPolicy::Block {
                deadline: Duration::ZERO,
            }),
            "submit_policy.deadline",
        );
        bad(
            HubConfig::builder().submit_policy(SubmitPolicy::Retry {
                max_retries: 0,
                initial_backoff: Duration::from_micros(1),
                max_backoff: Duration::from_micros(2),
            }),
            "submit_policy.max_retries",
        );
        bad(
            HubConfig::builder().submit_policy(SubmitPolicy::Retry {
                max_retries: 1,
                initial_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(1),
            }),
            "submit_policy.max_backoff",
        );
        bad(
            HubConfig::builder().restore_policy(RestorePolicy {
                from_checkpoint: PathBuf::from("x.model"),
                backoff: BackoffPolicy {
                    max_attempts: 0,
                    ..BackoffPolicy::default()
                },
            }),
            "restore_policy.backoff.max_attempts",
        );
        bad(
            HubConfig::builder().restore_policy(RestorePolicy {
                from_checkpoint: PathBuf::from("x.model"),
                backoff: BackoffPolicy {
                    initial: Duration::from_millis(2),
                    max: Duration::from_millis(1),
                    ..BackoffPolicy::default()
                },
            }),
            "restore_policy.backoff.max",
        );
        bad(
            HubConfig::builder().restore_policy(RestorePolicy {
                from_checkpoint: PathBuf::new(),
                backoff: BackoffPolicy::default(),
            }),
            "restore_policy.from_checkpoint",
        );
        bad(
            HubConfig::builder().adaptation(AdaptationPolicy {
                refit_window: 5,
                ..AdaptationPolicy::default()
            }),
            "adaptation.refit_window",
        );
        bad(
            HubConfig::builder().adaptation(AdaptationPolicy {
                queue_capacity: 0,
                ..AdaptationPolicy::default()
            }),
            "adaptation.queue_capacity",
        );
        bad(
            HubConfig::builder().adaptation(AdaptationPolicy {
                backoff: BackoffPolicy {
                    max_attempts: 0,
                    ..BackoffPolicy::default()
                },
                ..AdaptationPolicy::default()
            }),
            "adaptation.backoff.max_attempts",
        );
        bad(
            HubConfig::builder().adaptation(AdaptationPolicy {
                drift: DriftConfig {
                    window: 0,
                    ..DriftConfig::default()
                },
                ..AdaptationPolicy::default()
            }),
            "drift.window",
        );
        bad(
            HubConfig::builder().adaptation(AdaptationPolicy {
                store: Some(PathBuf::new()),
                ..AdaptationPolicy::default()
            }),
            "adaptation.store",
        );
        bad(
            HubConfig::builder().ingest(IngestPolicy {
                liveness_timeout: Some(Duration::ZERO),
                ..IngestPolicy::default()
            }),
            "liveness_timeout",
        );
        bad(
            HubConfig::builder().durability(DurabilityConfig::at("")),
            "durability.dir",
        );
        bad(
            HubConfig::builder().durability(DurabilityConfig {
                snapshot_every: 0,
                ..DurabilityConfig::at("/tmp/wal")
            }),
            "durability.snapshot_every",
        );
        bad(
            HubConfig::builder().durability(DurabilityConfig {
                policy: DurabilityPolicy::Interval {
                    events: 0,
                    max_delay: Duration::from_millis(1),
                },
                ..DurabilityConfig::at("/tmp/wal")
            }),
            "durability.policy.events",
        );
    }

    #[test]
    fn durability_defaults_off_and_builder_arms_it() {
        assert_eq!(HubConfig::default().durability, None);
        assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Off);
        let config = HubConfig::builder()
            .durability(DurabilityConfig::at("/tmp/wal"))
            .try_build()
            .unwrap();
        let durability = config.durability.unwrap();
        assert!(durability.is_armed());
        assert!(!DurabilityConfig {
            policy: DurabilityPolicy::Off,
            ..DurabilityConfig::at("/tmp/wal")
        }
        .is_armed());
    }

    #[test]
    fn jittered_delay_is_deterministic_and_only_extends() {
        let backoff = BackoffPolicy {
            max_attempts: 5,
            initial: Duration::from_millis(10),
            max: Duration::from_secs(1),
        };
        for attempt in 0..5 {
            for seed in 0..20u64 {
                let jittered = backoff.delay_jittered(attempt, seed);
                let base = backoff.delay(attempt);
                assert!(jittered >= base, "jitter must never shorten the wait");
                assert!(jittered <= (base * 3).min(backoff.max));
                // Deterministic: same (seed, attempt) → same wait.
                assert_eq!(jittered, backoff.delay_jittered(attempt, seed));
            }
        }
        // Decorrelated: different homes land on different waits.
        let spread: std::collections::BTreeSet<Duration> = (0..20u64)
            .map(|seed| backoff.delay_jittered(1, seed))
            .collect();
        assert!(spread.len() > 10, "seeds should spread, got {spread:?}");
        // Saturated schedule (delay == max): no room, no jitter.
        assert_eq!(backoff.delay_jittered(31, 7), backoff.max);
    }

    #[test]
    fn flight_recorder_defaults_off_and_rejects_zero() {
        assert_eq!(HubConfig::default().flight_recorder, None);
        let config = HubConfig::builder().flight_recorder(64).build();
        assert_eq!(config.flight_recorder, Some(64));
        let err = HubConfig::builder()
            .flight_recorder(0)
            .try_build()
            .expect_err("zero capacity");
        assert_eq!(err.parameter(), "flight_recorder", "{err}");
    }

    #[test]
    fn ingest_policy_is_accepted_and_defaults_off() {
        assert_eq!(HubConfig::default().ingest, None);
        let config = HubConfig::builder()
            .ingest(IngestPolicy::default())
            .try_build()
            .unwrap();
        assert_eq!(config.ingest, Some(IngestPolicy::default()));
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn build_panics_on_invalid_config() {
        let _ = HubConfig::builder().workers(0).build();
    }
}
