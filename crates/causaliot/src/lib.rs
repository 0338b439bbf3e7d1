//! # CausalIoT — anomaly detection via device interaction graphs
//!
//! The public facade for the whole stack: one crate, one [`Error`], one
//! [`prelude`]. A from-scratch reproduction of *"IoT Anomaly Detection
//! Via Device Interaction Graph"* (DSN 2023), grown into a serving
//! system:
//!
//! * **Fit** ([`CausalIot`], from `causaliot-core`) — preprocess a raw
//!   event log, mine the Device Interaction Graph with TemporalPC, and
//!   calibrate an anomaly threshold into a [`FittedModel`].
//! * **Monitor** ([`OwnedMonitor`], from [`FittedModel::into_monitor`]) —
//!   score runtime events (`1 − P(state | causes)`) with k-sequence
//!   contextual/collective anomaly detection.
//! * **Serve** ([`serve`], re-exporting `iot-serve`) — a sharded,
//!   supervised, fault-tolerant hub running one monitor per smart home
//!   with panic isolation, quarantine + checkpoint restore, and
//!   configurable backpressure.
//! * **Fit at fleet scale** ([`fleet`], re-exporting `iot-fleet`) — a
//!   content-addressed, crash-safe model store with per-home lineage,
//!   and a process-sharded sweep orchestrator; the hub consumes stores
//!   wholesale via `Hub::bulk_load` / `ModelUpdate::BulkSwap`.
//! * **Observe** ([`telemetry`], re-exporting `iot-telemetry`) —
//!   zero-dependency counters, gauges, histograms, and fit/monitor
//!   reports.
//!
//! The paper-facing layers keep their module paths from the core crate
//! ([`graph`], [`miner`], [`monitor`], [`pipeline`], [`preprocess`],
//! [`snapshot`]).
//!
//! # Quickstart
//!
//! ```
//! use causaliot::prelude::*;
//!
//! # fn main() -> Result<(), Error> {
//! let mut reg = DeviceRegistry::new();
//! let motion = reg.add("PE_room", Attribute::PresenceSensor, Room::new("room"))?;
//! let lamp = reg.add("S_lamp", Attribute::Switch, Room::new("room"))?;
//! let mut events = Vec::new();
//! for i in 0..200u64 {
//!     let on = i % 2 == 0;
//!     events.push(BinaryEvent::new(Timestamp::from_secs(i * 60), motion, on));
//!     events.push(BinaryEvent::new(Timestamp::from_secs(i * 60 + 15), lamp, on));
//! }
//! let model = CausalIot::builder().tau(2).build().fit_binary(&reg, &events)?;
//!
//! // Serve two homes off the same fitted model, fault-tolerantly.
//! let mut hub = Hub::new(HubConfig::builder().workers(2).try_build()?);
//! let home_a = hub.register("home-a", &model);
//! let home_b = hub.register("home-b", &model);
//! hub.submit(home_a, BinaryEvent::new(Timestamp::from_secs(100_000), lamp, true))?;
//! hub.submit(home_b, BinaryEvent::new(Timestamp::from_secs(100_000), motion, true))?;
//! let reports = hub.shutdown();
//! assert_eq!(reports.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod prelude;

pub use causaliot_core::*;
pub use error::Error;

/// Fleet serving: the sharded, supervised, fault-tolerant hub
/// (re-export of the `iot-serve` crate).
pub mod serve {
    pub use iot_serve::*;
}

/// Fleet fitting: the content-addressed model store and the
/// process-sharded sweep orchestrator (re-export of the `iot-fleet`
/// crate).
pub mod fleet {
    pub use iot_fleet::*;
}

/// Zero-dependency telemetry: metrics registry, sinks, and structured
/// fit/monitor reports (re-export of the `iot-telemetry` crate).
pub mod telemetry {
    pub use iot_telemetry::*;
}
