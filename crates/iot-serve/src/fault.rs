//! Panic isolation and quarantine state.
//!
//! A panic unwinding out of a home's monitor is caught at the worker
//! (`catch_unwind`), the payload is captured, and the home is
//! **quarantined**: its poisoned monitor takes no further events (a
//! monitor's internal state is memory-safe but logically unspecified
//! after an unwind, so it must be discarded, never resumed), submissions
//! for the home are rejected with [`crate::SubmitError::Quarantined`],
//! and every sibling home on the shard continues untouched. A quarantined
//! home re-enters service through a [`crate::ModelUpdate::Restore`] or
//! the hub's automatic [`crate::RestorePolicy`], which install a fresh
//! monitor at an event boundary.
//!
//! This module also defines [`FaultHook`], the chaos-engineering seam the
//! `testbed` crate implements to inject panics and worker deaths on a
//! schedule (see `tests/hub_faults.rs`).

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hub::HomeId;
use crate::util::lock;

/// A fault-injection seam for chaos testing the hub.
///
/// Both methods are called on the *worker* threads. The default
/// implementations are no-ops, so a hook only overrides the failure modes
/// it wants to exercise. Production hubs run without a hook
/// ([`crate::Hub::new`] / [`crate::Hub::with_telemetry`]); a hook is
/// attached with [`crate::Hub::with_fault_hook`].
pub trait FaultHook: Send + Sync {
    /// Called immediately before `home`'s monitor scores its `seq`-th
    /// event (0-based, counted per home across batches). A panic unwinding
    /// out of this call is indistinguishable from a panic inside the
    /// monitor itself: it is caught, the home is quarantined, and its
    /// siblings continue.
    fn before_observe(&self, home: HomeId, seq: u64) {
        let _ = (home, seq);
    }

    /// Called at each burst boundary on `shard` (no job in flight) with
    /// the cumulative number of jobs the shard has processed across all
    /// worker incarnations. Returning `true` kills the worker thread; the hub's
    /// supervisor detects the death and respawns the worker, which resumes
    /// the shard's queue with nothing dropped or reordered.
    fn kill_worker(&self, shard: usize, jobs_done: u64) -> bool {
        let _ = (shard, jobs_done);
        false
    }

    /// Called on the *refitter* thread immediately before a drift-refit
    /// pipeline runs for `home` (see [`crate::AdaptationPolicy`]). A
    /// panic unwinding out of this call is caught exactly like a panic
    /// inside the fit itself: the attempt is counted as a failure
    /// (`hub.refit_failures`) and the hub keeps serving the home's
    /// current model untouched.
    fn before_refit(&self, home: HomeId) {
        let _ = home;
    }
}

/// Renders a caught panic payload as a message string.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared per-home health record.
///
/// The worker owning the home's monitor writes it (panic → quarantine,
/// restore → clear); the hub's submit path reads the quarantine gate, and
/// the supervisor reads it to drive the auto-restore policy.
#[derive(Debug, Default)]
pub(crate) struct HomeHealth {
    quarantined: AtomicBool,
    restores: AtomicU64,
    panics: Mutex<Vec<String>>,
}

impl HomeHealth {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether the home is currently refusing events.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Records a captured panic payload and closes the admission gate.
    pub(crate) fn record_panic(&self, message: String) {
        lock(&self.panics).push(message);
        self.quarantined.store(true, Ordering::Release);
    }

    /// Re-opens the admission gate and counts the restore.
    pub(crate) fn note_restore(&self) {
        self.restores.fetch_add(1, Ordering::AcqRel);
        self.quarantined.store(false, Ordering::Release);
    }

    /// Re-opens the admission gate without counting a restore (a plain
    /// model swap that happened to replace a poisoned monitor).
    pub(crate) fn clear_quarantine(&self) {
        self.quarantined.store(false, Ordering::Release);
    }

    /// Restores performed for this home so far.
    pub(crate) fn restores(&self) -> u64 {
        self.restores.load(Ordering::Acquire)
    }

    /// Every captured panic payload, oldest first.
    pub(crate) fn panics(&self) -> Vec<String> {
        lock(&self.panics).clone()
    }

    /// The most recent captured panic payload, if any.
    pub(crate) fn last_panic(&self) -> Option<String> {
        lock(&self.panics).last().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_lifecycle() {
        let health = HomeHealth::new();
        assert!(!health.is_quarantined());
        health.record_panic("first".into());
        assert!(health.is_quarantined());
        assert_eq!(health.last_panic().as_deref(), Some("first"));
        health.note_restore();
        assert!(!health.is_quarantined());
        assert_eq!(health.restores(), 1);
        health.record_panic("second".into());
        assert_eq!(
            health.panics(),
            vec!["first".to_string(), "second".to_string()]
        );
    }

    #[test]
    fn panic_payloads_render() {
        let b: Box<dyn Any + Send> = Box::new("str payload");
        assert_eq!(panic_message(b.as_ref()), "str payload");
        let b: Box<dyn Any + Send> = Box::new(String::from("string payload"));
        assert_eq!(panic_message(b.as_ref()), "string payload");
        let b: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(b.as_ref()), "non-string panic payload");
    }
}
