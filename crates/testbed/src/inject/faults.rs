//! Serving-layer fault injection: the chaos-testing counterpart of the
//! anomaly injectors.
//!
//! [`FaultSchedule`] implements [`iot_serve::FaultHook`], turning the
//! hub's fault seam into a deterministic schedule: *panic when home H
//! scores its Nth event* and *kill shard S's worker once it has processed
//! J jobs*. Every scheduled fault fires exactly once, so a chaos test can
//! assert precise outcomes (sibling verdicts bit-identical to a no-fault
//! run, quarantine → restore round-trips, zero events dropped across
//! worker deaths).

use std::sync::atomic::{AtomicBool, Ordering};

use iot_serve::{FaultHook, HomeId};

/// Panic-payload prefix of every monitor panic injected by a
/// [`FaultSchedule`], so tests can silence exactly the expected panics in
/// a custom panic hook and let real ones through.
pub const INJECTED_PANIC: &str = "testbed: injected monitor panic";

#[derive(Debug)]
struct ScheduledPanic {
    home: usize,
    seq: u64,
    fired: AtomicBool,
}

#[derive(Debug)]
struct ScheduledKill {
    shard: usize,
    after_jobs: u64,
    fired: AtomicBool,
}

/// A deterministic fault schedule for [`iot_serve::Hub::with_fault_hook`].
///
/// Build with the chained `panic_at` / `kill_at` methods, wrap in an
/// `Arc`, and hand it to the hub. Faults fire at most once each.
///
/// ```
/// use std::sync::Arc;
/// use testbed::inject::FaultSchedule;
///
/// let schedule = Arc::new(FaultSchedule::new().panic_at(0, 10).kill_at(1, 25));
/// assert_eq!(schedule.panics_fired(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FaultSchedule {
    panics: Vec<ScheduledPanic>,
    kills: Vec<ScheduledKill>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics inside home `home`'s monitor (by registration index) right
    /// before it scores its `seq`-th event (0-based, counted per home).
    pub fn panic_at(mut self, home: usize, seq: u64) -> Self {
        self.panics.push(ScheduledPanic {
            home,
            seq,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Kills shard `shard`'s worker thread at the first burst boundary
    /// (the hub's kill check) where it has processed at least
    /// `after_jobs` jobs (cumulative across worker incarnations).
    pub fn kill_at(mut self, shard: usize, after_jobs: u64) -> Self {
        self.kills.push(ScheduledKill {
            shard,
            after_jobs,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// How many scheduled monitor panics have fired so far.
    pub fn panics_fired(&self) -> usize {
        self.panics
            .iter()
            .filter(|p| p.fired.load(Ordering::Acquire))
            .count()
    }

    /// How many scheduled worker kills have fired so far.
    pub fn kills_fired(&self) -> usize {
        self.kills
            .iter()
            .filter(|k| k.fired.load(Ordering::Acquire))
            .count()
    }
}

impl FaultHook for FaultSchedule {
    fn before_observe(&self, home: HomeId, seq: u64) {
        for fault in &self.panics {
            if fault.home == home.index()
                && fault.seq == seq
                && !fault.fired.swap(true, Ordering::AcqRel)
            {
                panic!("{INJECTED_PANIC} (home {home}, seq {seq})");
            }
        }
    }

    fn kill_worker(&self, shard: usize, jobs_done: u64) -> bool {
        for fault in &self.kills {
            if fault.shard == shard
                && jobs_done >= fault.after_jobs
                && !fault.fired.swap(true, Ordering::AcqRel)
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn scheduled_panic_fires_exactly_once() {
        let schedule = FaultSchedule::new().panic_at(2, 5);
        schedule.before_observe(HomeId::from_index(2), 4);
        schedule.before_observe(HomeId::from_index(1), 5);
        assert_eq!(schedule.panics_fired(), 0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            schedule.before_observe(HomeId::from_index(2), 5);
        }));
        assert!(result.is_err());
        assert_eq!(schedule.panics_fired(), 1);
        // Same (home, seq) again: already fired, no panic.
        schedule.before_observe(HomeId::from_index(2), 5);
    }

    #[test]
    fn scheduled_kill_fires_at_or_after_threshold_once() {
        let schedule = FaultSchedule::new().kill_at(0, 10);
        assert!(!schedule.kill_worker(0, 9));
        assert!(!schedule.kill_worker(1, 50));
        assert!(schedule.kill_worker(0, 12));
        assert!(!schedule.kill_worker(0, 13));
        assert_eq!(schedule.kills_fired(), 1);
    }
}
