//! The one-line import for CausalIoT applications.
//!
//! ```
//! use causaliot::prelude::*;
//! ```
//!
//! Pulls in the types virtually every program needs: the fit facade
//! ([`CausalIot`] → [`FittedModel`]), the monitor, its input and its
//! output ([`OwnedMonitor`], [`Observation`], [`ObserveCtx`],
//! [`Verdict`]), the ingestion guard ([`IngestPolicy`],
//! [`GuardedMonitor`], [`DeadLetterCounts`], …), the
//! data model ([`DeviceRegistry`], [`BinaryEvent`], [`Timestamp`], …),
//! the serving hub ([`Hub`], [`HubConfig`], [`HomeId`],
//! [`SubmitPolicy`], …), the model lifecycle ([`ModelUpdate`],
//! [`UpdateReason`], [`AdaptationPolicy`], [`DriftReport`], [`Refit`],
//! …), live introspection ([`HubStats`],
//! [`FlightRecording`], [`MetricsServer`]), fleet fitting
//! ([`ModelStore`], [`ModelHash`], [`FitJob`], [`SweepConfig`], …),
//! telemetry ([`TelemetryHandle`], [`MonitorReport`]), and the unified
//! [`Error`]. Anything rarer stays behind its module path
//! ([`crate::graph`], [`crate::miner`], [`crate::serve`],
//! [`crate::fleet`], …).

pub use crate::error::Error;
pub use causaliot_core::{
    CausalIot, CausalIotBuilder, CausalIotConfig, CausalIotError, ConfigError, DeadLetter,
    DeadLetterCounts, DriftConfig, DriftDetector, DriftReport, DriftSeverity, DriftSignal,
    DropReason, FittedModel, GuardedMonitor, IngestGuard, IngestPolicy, Observation, ObserveCtx,
    OwnedMonitor, Refit, StaleSet, TauChoice, Verdict,
};
pub use iot_fleet::{FitJob, FleetError, ModelHash, ModelStore, SweepConfig, SweepReport};
pub use iot_model::{
    Attribute, BinaryEvent, DeviceEvent, DeviceId, DeviceRegistry, Room, Timestamp,
};
pub use iot_serve::{
    AdaptationPolicy, BackoffPolicy, BatchOutcome, FaultHook, FlightEntry, FlightRecording, HomeId,
    HomeReport, HomeStats, Hub, HubConfig, HubConfigBuilder, HubStats, LatencyStats, ModelUpdate,
    QuarantinedError, RestorePolicy, ShardStats, SubmitError, SubmitPolicy, UpdateError,
    UpdateOutcome, UpdateReason,
};
pub use iot_telemetry::{MetricsServer, MonitorReport, TelemetryHandle};
