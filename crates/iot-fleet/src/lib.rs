//! Fleet-scale fitting for CausalIoT.
//!
//! The serving layer (`iot-serve`) answers "is this event anomalous?"
//! for homes whose models already exist. This crate answers "how do ten
//! thousand models come to exist, and where do they live?":
//!
//! * [`ModelStore`] — a content-addressed, crash-safe repository of
//!   fitted models built on the v2 checkpoint format. Blobs are named by
//!   the CRC32 content hash the checkpoint's `# crc32` footer records,
//!   written with the same temp-file → fsync → atomic-rename discipline
//!   as checkpoints, and verified on every [`ModelStore::get`]. A
//!   per-home lineage log maps `home → [generation → hash]`;
//!   [`ModelStore::gc`] sweeps unreferenced blobs and
//!   [`ModelStore::fsck`] walks the whole store through the checkpoint
//!   loaders.
//! * [`run_sweep`] — a process-sharded sweep orchestrator: the parent
//!   re-execs the hosting binary with [`CHILD_FLAG`] to shard fit jobs
//!   across `k` child OS processes over a newline-delimited
//!   stdin/stdout protocol, with per-child retry and dead-job
//!   quarantine mirroring the serving layer's `RestorePolicy`. Child
//!   crashes cannot corrupt or diverge the store: puts are idempotent
//!   and lineage commits happen in the parent.
//!
//! The serving hub consumes stores wholesale via `Hub::bulk_load` and
//! `ModelUpdate::BulkSwap` (in `iot-serve`), upgrading a live fleet
//! without dropping or reordering an event.
//!
//! **Naming**: `ModelStore` stores *fitted models*;
//! [`iot_model::DeviceRegistry`] catalogues the *devices* of one home.
//! See the README's terminology note.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod orchestrator;
mod store;

pub use error::FleetError;
pub use orchestrator::{
    child_store_root, run_child, run_sweep, DeadJob, FitJob, SweepConfig, SweepReport, CHILD_FLAG,
};
pub use store::{FsckReport, GcReport, Generation, ModelHash, ModelStore};
