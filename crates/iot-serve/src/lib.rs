//! # iot-serve — a concurrent, fault-tolerant multi-home serving hub
//!
//! The core crate detects anomalies for *one* home at a time; this crate
//! serves *fleets* of homes concurrently and keeps serving them when
//! things break. A [`Hub`] registers N homes — each a cheap
//! [`causaliot_core::FittedModel`] handle plus a per-home
//! [`causaliot_core::OwnedMonitor`] — and shards them across a
//! supervised pool of worker threads connected by bounded MPSC queues
//! (`std` only, matching the workspace's zero-dependency stance).
//!
//! Guarantees and semantics:
//!
//! * **Per-home ordering** — every home lives on exactly one shard, and a
//!   shard's queue is FIFO, so a home's events are scored in submission
//!   order. Verdict sequences are bit-identical to driving a sequential
//!   [`causaliot_core::OwnedMonitor`] per home (enforced by integration
//!   test).
//! * **Panic isolation & quarantine** — a panic unwinding out of one
//!   home's monitor is caught at the worker (`catch_unwind`); the home is
//!   quarantined (payload captured, further submissions rejected with
//!   [`SubmitError::Quarantined`], already-queued events dropped — a
//!   monitor's state is logically unspecified after an unwind) while
//!   every sibling home continues with bit-identical verdicts. Recovery
//!   is a [`ModelUpdate::Restore`] or an automatic [`RestorePolicy`]
//!   reloading a
//!   checkpoint, both landing at an event boundary.
//! * **Shard supervision** — a supervisor thread detects dead worker
//!   threads and respawns them onto the same queue and homes; the shard
//!   resumes with nothing dropped or reordered, counted in
//!   `hub.shard.<i>.restarts`.
//! * **Explicit backpressure, configurable ergonomics** — no policy
//!   silently drops events. The per-hub [`SubmitPolicy`] decides what a
//!   full shard queue means: fail-fast [`SubmitError::QueueFull`] (the
//!   default), block with a deadline, or retry with exponential backoff.
//! * **Drain and shutdown** — [`Hub::drain`] is a barrier that waits for
//!   every queued job to be scored; [`Hub::shutdown`] drains, joins the
//!   supervisor and workers, and returns one [`HomeReport`] per home
//!   (its [`iot_telemetry::MonitorReport`] plus verdicts, panics,
//!   restores, and quarantine state).
//! * **Zero-downtime hot-swap** — [`Hub::apply`] with a
//!   [`ModelUpdate::Swap`] queues a monitor replacement on the home's own
//!   shard, so it lands at an event boundary: in-flight events drain
//!   under the old model, later events are judged by the new one, and
//!   nothing is dropped or reordered. The retired monitor's session
//!   report survives in [`HomeReport::retired`]. Every way a serving
//!   model changes — swap, restore, bulk swap, drift refit, rollback —
//!   funnels through the unified [`Hub::apply`] / [`ModelUpdate`]
//!   lifecycle API.
//! * **Online adaptation** — with an [`AdaptationPolicy`] armed, shard
//!   workers run a per-home drift detector on the scores they already
//!   compute; a triggered [`causaliot_core::DriftReport`] hands the
//!   home's sliding event window to a background refitter, which
//!   re-estimates the model incrementally ([`causaliot_core::Refit`])
//!   and hot-swaps it in at an event boundary, stamped
//!   [`UpdateReason::DriftRefit`]. Without a policy the hub is
//!   bit-identical to a non-adaptive one.
//! * **Crash tolerance** — with a [`DurabilityConfig`] armed, every home
//!   appends its scored events to a CRC-framed per-home write-ahead log
//!   and periodically snapshots its full runtime state with the same
//!   atomic write discipline as checkpoints. After a hard crash
//!   (`kill -9` included), [`Hub::recover`] rebuilds the fleet from disk
//!   — snapshot first, WAL tail replayed on top — and resumes with
//!   verdicts bit-identical to an uninterrupted run. Recovery is
//!   fail-closed: corruption stops it with [`RecoveryError::Corrupt`]
//!   naming the file and offset; only a torn final record (a crash
//!   mid-append) is tolerated and counted. The fsync cadence — and so
//!   the tail at risk on power loss — is the [`DurabilityPolicy`];
//!   [`Hub::shutdown_within`] bounds shutdown time for supervised
//!   restarts.
//! * **Telemetry** — wired into the `iot-telemetry` registry: per-shard
//!   queue-depth gauges (`hub.shard.<i>.queue_depth`), per-shard event /
//!   swap / restart counters (`hub.shard.<i>.events`, `.swaps`,
//!   `.restarts`), hub-wide counters (`hub.events`, `hub.submitted`,
//!   `hub.swaps`, `hub.quarantines`, `hub.restores`,
//!   `hub.quarantine_dropped`, `hub.retries`, `hub.deadline_exceeded`),
//!   and an end-to-end submit-to-verdict latency histogram
//!   (`hub.e2e_latency_us`).
//! * **Live introspection** — [`Hub::stats`] samples a running hub
//!   without blocking it ([`HubStats`]: queue depths, per-home counters,
//!   latency quantiles); [`Hub::serve_metrics`] exposes the telemetry
//!   registry over HTTP in Prometheus text format; and an optional
//!   per-home flight recorder ([`HubConfig::flight_recorder`]) keeps the
//!   last N scored events so a quarantine carries its evidence
//!   ([`HomeReport::quarantine_flights`], [`Hub::dump_home`]).
//!
//! ```
//! use causaliot_core::CausalIot;
//! use iot_model::{BinaryEvent, DeviceId, DeviceRegistry, Attribute, Room, Timestamp};
//! use iot_serve::{Hub, HubConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
//! let mut hub = Hub::new(HubConfig::builder().workers(2).try_build()?);
//! let home_a = hub.register("home-a", &model);
//! let home_b = hub.register("home-b", &model);
//! hub.submit(home_a, BinaryEvent::new(Timestamp::from_secs(100_000), lamp, true))?;
//! hub.submit(home_b, BinaryEvent::new(Timestamp::from_secs(100_000), motion, true))?;
//! let reports = hub.shutdown();
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].monitor.events_observed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod durable;
mod error;
pub mod fault;
mod hub;
mod refit;
mod stats;
mod supervisor;
mod update;
mod util;
pub mod wal;

pub use config::{
    AdaptationPolicy, BackoffPolicy, DurabilityConfig, DurabilityPolicy, HubConfig,
    HubConfigBuilder, RestorePolicy, SubmitPolicy,
};
pub use durable::{HomeRecovery, RecoveryReport};
pub use error::{QuarantinedError, RecoveryError, ShutdownTimeout, SubmitError};
pub use fault::FaultHook;
pub use hub::{BatchOutcome, HomeId, HomeReport, Hub, SUBMIT_CHUNK};
pub use iot_telemetry::MetricsServer;
pub use stats::{FlightEntry, FlightRecording, HomeStats, HubStats, LatencyStats, ShardStats};
pub use update::{ModelUpdate, UpdateError, UpdateOutcome, UpdateReason};
