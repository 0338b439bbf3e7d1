//! # CausalIoT — anomaly detection via device interaction graphs
//!
//! A from-scratch reproduction of *"IoT Anomaly Detection Via Device
//! Interaction Graph"* (DSN 2023). Smart-home devices extensively interact —
//! through user activities, shared physical channels, and trigger-action
//! automation rules — and those interactions govern legitimate device state
//! transitions. This crate:
//!
//! 1. **Preprocesses** raw device events ([`preprocess`]): duplicate
//!    suppression, three-sigma extreme filtering, type unification to binary
//!    states, and graph-snapshot generation (Section V-A of the paper).
//! 2. **Mines** the Device Interaction Graph ([`miner`], [`graph`]): the
//!    TemporalPC causal-discovery algorithm identifies each device's causes
//!    among time-lagged device states using G² conditional-independence
//!    tests, then estimates a conditional probability table per device
//!    (Section V-B).
//! 3. **Monitors** runtime events ([`monitor`]): a phantom state machine
//!    tracks the latest graph snapshot, anomaly scores are
//!    `1 − P(state | causes)` (Eq. 1), and the k-sequence detection
//!    procedure reports *contextual anomalies* (events violating interaction
//!    executions) and tracks *collective anomalies* (event chains riding
//!    maliciously triggered interactions) (Sections IV and V-C).
//!
//! The [`pipeline`] module ties the three together behind a builder facade.
//!
//! # Quickstart
//!
//! ```
//! use causaliot_core::pipeline::CausalIot;
//! use iot_model::{Attribute, BinaryEvent, DeviceRegistry, Room, Timestamp};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! # fn main() -> Result<(), causaliot_core::CausalIotError> {
//! let mut reg = DeviceRegistry::new();
//! let motion = reg.add("PE_kitchen", Attribute::PresenceSensor, Room::new("kitchen"))?;
//! let lamp = reg.add("S_kitchen", Attribute::Switch, Room::new("kitchen"))?;
//!
//! // Train on a log where the lamp closely follows (random) motion.
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut events = Vec::new();
//! for i in 0..400u64 {
//!     let t = i * 40;
//!     let on = rng.gen_bool(0.5);
//!     events.push(BinaryEvent::new(Timestamp::from_secs(t), motion, on));
//!     if rng.gen_bool(0.9) {
//!         events.push(BinaryEvent::new(Timestamp::from_secs(t + 10), lamp, on));
//!     }
//! }
//!
//! let model = CausalIot::builder().tau(2).build().fit_binary(&reg, &events)?;
//! let mut monitor = model.into_monitor();
//!
//! // A lamp activation with no preceding motion violates the interaction.
//! monitor.observe(BinaryEvent::new(Timestamp::from_secs(99_000), motion, false));
//! let ghost = BinaryEvent::new(Timestamp::from_secs(99_040), lamp, true);
//! let verdict = monitor.observe(ghost);
//! assert!(verdict.score > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod graph;
pub mod ingest;
pub mod miner;
pub mod monitor;
pub mod persist;
pub mod pipeline;
pub mod preprocess;
pub mod snapshot;

pub use error::{CausalIotError, ConfigError};
pub use ingest::{
    DeadLetter, DeadLetterCounts, GuardedMonitor, IngestEvent, IngestGuard, IngestPolicy,
    IngestStep, StaleSet,
};
pub use monitor::{
    Alarm, AlarmKind, AnomalousEvent, DriftConfig, DriftDetector, DriftReport, DriftSeverity,
    DriftSignal, Verdict,
};
pub use pipeline::{
    CalibratedModel, CausalIot, CausalIotBuilder, CausalIotConfig, DropReason, FitPipeline,
    FitStage, FittedModel, MinedGraph, Observation, ObserveCtx, OwnedMonitor, Preprocessed,
    RawEvents, Refit, Snapshotted, TauChoice,
};
