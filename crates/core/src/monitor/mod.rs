//! The Event Monitor (Section V-C).
//!
//! Validates runtime device events against the mined DIG:
//!
//! * [`PhantomStateMachine`] — tracks the latest graph snapshot by sliding
//!   a window of the most recent `τ + 1` system states,
//! * [`compute_threshold`] — the score-threshold calculator: the q-th
//!   percentile of the training events' anomaly scores,
//! * [`KSequenceDetector`] — Algorithm 2: contextual-anomaly detection and
//!   collective-anomaly tracking up to length `k_max`.
//!
//! The anomaly score of an event `e^t : {S_i^t = s}` is Eq. 1:
//! `f = 1 − P(S_i^t = s | Ca(S_i^t) = ca)`.

mod detector;
mod drift;
mod phantom;
mod threshold;

pub use detector::{
    Alarm, AlarmKind, AnomalousEvent, DetectorConfig, DetectorStats, KSequenceDetector, Verdict,
};
pub use drift::{DriftConfig, DriftDetector, DriftReport, DriftSeverity, DriftSignal};
pub use phantom::PhantomStateMachine;
pub use threshold::{compute_threshold, training_scores};

use iot_model::BinaryEvent;

use crate::graph::{Dig, UnseenContext};

/// Computes the Eq. 1 anomaly score of `event` against the snapshot
/// currently tracked by `pm` (i.e. *before* the event is applied).
pub fn score_event(
    dig: &Dig,
    pm: &PhantomStateMachine,
    event: &BinaryEvent,
    unseen: UnseenContext,
) -> f64 {
    let cpt = dig.cpt(event.device);
    let code = cpt.context_code(|cause| pm.cause_value_for_next(cause));
    1.0 - cpt.prob(code, event.value, unseen)
}
