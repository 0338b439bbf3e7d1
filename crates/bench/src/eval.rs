//! Evaluation helpers: alarm-position collection, chain matching, and the
//! CausalIoT point-detector adapter used for the Figure 5 comparison.

use std::collections::HashSet;

use baselines::Detector;
use causaliot::pipeline::FittedModel;
use iot_model::{BinaryEvent, SystemState};
use iot_stats::metrics::{ChainOutcome, ConfusionMatrix};
use testbed::inject::InjectedChain;

/// Runs contextual detection (`k_max = 1`) over a stream and returns the
/// stream positions of alarmed events.
pub fn contextual_alarm_positions(
    model: &FittedModel,
    initial: &SystemState,
    events: &[BinaryEvent],
) -> HashSet<usize> {
    let mut monitor = model.clone().into_monitor_with(1, initial.clone());
    let mut alarms = HashSet::new();
    for event in events {
        let verdict = monitor.observe(*event);
        for alarm in &verdict.alarms {
            for anomalous in &alarm.events {
                alarms.insert(anomalous.ordinal as usize);
            }
        }
    }
    alarms
}

/// Builds the Table IV confusion matrix from injected and alarmed
/// positions.
pub fn contextual_confusion(
    injected: &HashSet<usize>,
    alarms: &HashSet<usize>,
    total: usize,
) -> ConfusionMatrix {
    ConfusionMatrix::from_positions(injected, alarms, total)
}

/// Runs collective detection and scores each injected chain (Table V):
/// a chain is *detected* when any reported alarm overlaps it, *tracked*
/// when one alarm covers it entirely, and its detection length is the
/// largest single-alarm overlap.
pub fn evaluate_chains(
    model: &FittedModel,
    initial: &SystemState,
    events: &[BinaryEvent],
    chains: &[InjectedChain],
    k_max: usize,
) -> Vec<ChainOutcome> {
    let mut monitor = model.clone().into_monitor_with(k_max, initial.clone());
    let mut alarm_sets: Vec<HashSet<usize>> = Vec::new();
    for event in events {
        let verdict = monitor.observe(*event);
        for alarm in &verdict.alarms {
            alarm_sets.push(alarm.events.iter().map(|a| a.ordinal as usize).collect());
        }
    }
    chains
        .iter()
        .map(|chain| {
            let positions: HashSet<usize> = chain.positions.iter().copied().collect();
            let best_overlap = alarm_sets
                .iter()
                .map(|alarm| alarm.intersection(&positions).count())
                .max()
                .unwrap_or(0);
            ChainOutcome {
                true_len: chain.len(),
                detected: best_overlap > 0,
                tracked: best_overlap == chain.len(),
                detected_len: best_overlap,
            }
        })
        .collect()
}

/// CausalIoT wrapped as a per-event point detector (`k_max = 1`) for the
/// Figure 5 baseline comparison.
pub struct CausalIotPoint<'a> {
    model: &'a FittedModel,
}

impl<'a> CausalIotPoint<'a> {
    /// Wraps a fitted model.
    pub fn new(model: &'a FittedModel) -> Self {
        CausalIotPoint { model }
    }
}

impl Detector for CausalIotPoint<'_> {
    fn name(&self) -> &str {
        "CausalIoT"
    }

    fn detect(&self, initial: &SystemState, events: &[BinaryEvent]) -> Vec<bool> {
        let mut monitor = self.model.clone().into_monitor_with(1, initial.clone());
        events
            .iter()
            .map(|e| monitor.observe(*e).exceeds_threshold)
            .collect()
    }
}

/// Scores any point detector's flags against injected positions.
pub fn flags_to_confusion(flags: &[bool], injected: &HashSet<usize>) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for (i, &flag) in flags.iter().enumerate() {
        m.record(injected.contains(&i), flag);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::dataset::Dataset;
    use testbed::inject::{inject_contextual, ContextualCase};

    #[test]
    fn contextual_positions_line_up_with_flags() {
        let ds = Dataset::contextact(&ExperimentConfig {
            days: 3.0,
            ..ExperimentConfig::default()
        });
        let inj = inject_contextual(
            &ds.profile,
            &ds.test_events,
            &ds.test_initial,
            ContextualCase::RemoteControl,
            30,
            7,
        );
        let alarms = contextual_alarm_positions(&ds.model, &ds.test_initial, &inj.events);
        let point = CausalIotPoint::new(&ds.model);
        let flags = point.detect(&ds.test_initial, &inj.events);
        let from_flags: std::collections::HashSet<usize> = flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(alarms, from_flags);
    }
}
