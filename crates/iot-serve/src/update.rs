//! The unified model-lifecycle API: one [`crate::Hub::apply`] entry
//! point for every way a serving model can change.
//!
//! [`ModelUpdate`] is the typed request — swap, restore, bulk swap,
//! drift refit — and [`UpdateReason`] records *why* a home's monitor was
//! replaced: in the `hub.updates.<reason>` counters, in the per-home
//! flight recorder at the swap boundary, and in
//! [`crate::HomeReport::updates`] at shutdown.

use std::fmt;

use causaliot_core::FittedModel;
use iot_fleet::{FleetError, Generation, ModelStore};

use crate::error::SubmitError;
use crate::hub::HomeId;

/// Why a home's monitor was replaced.
///
/// Every model update that lands on a shard is stamped with a reason,
/// visible in three places: the `hub.updates.<reason>` telemetry
/// counters, the per-home flight recorder (the swap-boundary entry's
/// [`crate::FlightEntry::update`]), and the end-of-session
/// [`crate::HomeReport::updates`] log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum UpdateReason {
    /// A plain operator rollout ([`ModelUpdate::Swap`]).
    Rollout,
    /// A manual recovery ([`ModelUpdate::Restore`]).
    Restore,
    /// The supervisor's automatic [`crate::RestorePolicy`] recovery from
    /// a checkpoint.
    AutoRestore,
    /// A fleet-wide store-head rollout ([`ModelUpdate::BulkSwap`]).
    BulkSwap,
    /// The adaptation loop's background refit after drift detection
    /// ([`crate::AdaptationPolicy`]), or a manual
    /// [`ModelUpdate::DriftRefit`].
    DriftRefit,
    /// A reversion to the previous lineage generation
    /// ([`crate::Hub::rollback`]).
    Rollback,
}

impl UpdateReason {
    /// The reason's telemetry suffix: the update counter is
    /// `hub.updates.<as_str()>`.
    pub fn as_str(&self) -> &'static str {
        match self {
            UpdateReason::Rollout => "rollout",
            UpdateReason::Restore => "restore",
            UpdateReason::AutoRestore => "auto_restore",
            UpdateReason::BulkSwap => "bulk_swap",
            UpdateReason::DriftRefit => "drift_refit",
            UpdateReason::Rollback => "rollback",
        }
    }

    /// Whether this reason clears a quarantine *as a restore* (counted in
    /// [`crate::HomeReport::restores`] rather than swaps).
    pub(crate) fn is_restore(&self) -> bool {
        matches!(self, UpdateReason::Restore | UpdateReason::AutoRestore)
    }
}

impl fmt::Display for UpdateReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed model-lifecycle request for [`crate::Hub::apply`].
///
/// All variants share the hub's event-boundary swap machinery: each
/// affected home's replacement monitor rides its own shard queue, so
/// events submitted before the update are judged by the old model, events
/// after by the new one, and nothing is dropped or reordered.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum ModelUpdate<'a> {
    /// Replace `home`'s monitor with one spawned from `model` — a
    /// zero-downtime rollout of a refit (or checkpointed) model, recorded
    /// as [`UpdateReason::Rollout`].
    ///
    /// The swap takes effect at an event boundary: every event submitted
    /// *before* [`crate::Hub::apply`] is still judged by the old monitor
    /// (the in-flight queue drains under the old model), every event
    /// submitted *after* it returns by the new one, and no event is
    /// dropped or reordered. The new monitor resumes from the new model's
    /// end-of-training state, exactly as [`crate::Hub::register`] does.
    /// The retired monitor's session report is kept in
    /// [`crate::HomeReport::retired`]; the swap increments the
    /// `hub.swaps` and per-shard `hub.shard.<i>.swaps` counters.
    ///
    /// Swapping a *quarantined* home is allowed and clears the quarantine
    /// — the poisoned monitor is replaced wholesale — but is not counted
    /// as a restore; use [`ModelUpdate::Restore`] when recovery is the
    /// intent.
    Swap {
        /// The home to update.
        home: HomeId,
        /// The replacement model.
        model: &'a FittedModel,
    },
    /// Restore a (typically quarantined) home with a fresh monitor from
    /// `model`, clearing its quarantine at an event boundary, recorded as
    /// [`UpdateReason::Restore`].
    ///
    /// Same queue semantics as [`ModelUpdate::Swap`]; the difference is
    /// accounting: a restore increments the home's
    /// [`crate::HomeReport::restores`] and the `hub.restores` counter
    /// instead of the swap counters. Restoring a healthy home is
    /// permitted (the monitor is simply replaced). For hands-off
    /// recovery, configure a [`crate::RestorePolicy`] and the hub's
    /// supervisor does this automatically from a checkpoint file.
    Restore {
        /// The home to restore.
        home: HomeId,
        /// The replacement model.
        model: &'a FittedModel,
    },
    /// Upgrade every listed home to its current lineage head in `store`
    /// without dropping or reordering an event, recorded as
    /// [`UpdateReason::BulkSwap`] per home. Homes are matched to store
    /// lineages by their registered name.
    ///
    /// The rollout is staged: every home's head is resolved, its blob
    /// loaded and CRC-verified, and its replacement monitor built
    /// *before* the first swap is enqueued — a half-corrupt store cannot
    /// leave the fleet half-upgraded. The staged swaps are then released
    /// in per-shard batches through the same event-boundary machinery as
    /// [`ModelUpdate::Swap`]. The outcome is
    /// [`UpdateOutcome::BulkSwapped`]; the rollout increments
    /// `hub.bulk_swaps` once, `hub.swaps` per home, and refreshes each
    /// `hub.home.<name>.generation` gauge. If the workers are gone
    /// ([`FleetError::Shutdown`]) the rollout may be partial — the hub
    /// is shutting down anyway.
    BulkSwap {
        /// The model store holding each home's lineage.
        store: &'a ModelStore,
        /// The homes to upgrade.
        homes: &'a [HomeId],
    },
    /// Install a drift-refit model for `home`, recorded as
    /// [`UpdateReason::DriftRefit`] — the entry point the background
    /// refitter uses, also available to operators driving refits by hand.
    DriftRefit {
        /// The home the refit belongs to.
        home: HomeId,
        /// The refitted model.
        model: &'a FittedModel,
    },
}

/// What [`crate::Hub::apply`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdateOutcome {
    /// A single-home update was enqueued on the home's shard.
    Applied,
    /// A bulk swap was released; `(id, generation)` per home swapped, in
    /// registration order.
    BulkSwapped(Vec<(HomeId, Generation)>),
}

/// Why [`crate::Hub::apply`] failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UpdateError {
    /// A single-home update failed at the submission layer.
    Submit(SubmitError),
    /// A bulk swap failed at the fleet/store layer.
    Fleet(FleetError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Submit(e) => write!(f, "model update rejected: {e}"),
            UpdateError::Fleet(e) => write!(f, "bulk model update failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Submit(e) => Some(e),
            UpdateError::Fleet(e) => Some(e),
        }
    }
}

impl From<SubmitError> for UpdateError {
    fn from(e: SubmitError) -> Self {
        UpdateError::Submit(e)
    }
}

impl From<FleetError> for UpdateError {
    fn from(e: FleetError) -> Self {
        UpdateError::Fleet(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_render_as_counter_suffixes() {
        for (reason, s) in [
            (UpdateReason::Rollout, "rollout"),
            (UpdateReason::Restore, "restore"),
            (UpdateReason::AutoRestore, "auto_restore"),
            (UpdateReason::BulkSwap, "bulk_swap"),
            (UpdateReason::DriftRefit, "drift_refit"),
            (UpdateReason::Rollback, "rollback"),
        ] {
            assert_eq!(reason.as_str(), s);
            assert_eq!(reason.to_string(), s);
        }
    }

    #[test]
    fn only_restore_reasons_count_as_restores() {
        assert!(UpdateReason::Restore.is_restore());
        assert!(UpdateReason::AutoRestore.is_restore());
        assert!(!UpdateReason::Rollout.is_restore());
        assert!(!UpdateReason::BulkSwap.is_restore());
        assert!(!UpdateReason::DriftRefit.is_restore());
        assert!(!UpdateReason::Rollback.is_restore());
    }
}
