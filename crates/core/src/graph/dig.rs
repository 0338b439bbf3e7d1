//! The Device Interaction Graph structure.

use std::collections::BTreeSet;

use iot_model::DeviceId;
use serde::{Deserialize, Serialize};

use super::{Cpt, LaggedVar};

/// One mined interaction: a directed edge from a time-lagged cause to a
/// present-time outcome device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interaction {
    /// The cause (parent device at some lag `1..=τ`).
    pub cause: LaggedVar,
    /// The outcome (child device at the present timestamp).
    pub outcome: DeviceId,
}

impl Interaction {
    /// Whether this is an autocorrelation edge (device causing itself).
    pub fn is_autocorrelation(&self) -> bool {
        self.cause.device == self.outcome
    }
}

/// A fitted Device Interaction Graph.
///
/// Thanks to the stationarity assumption, the graph is fully described by
/// each device's cause set and CPT; repeated (dashed) edges at earlier
/// timestamps are implied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dig {
    tau: usize,
    /// Per outcome device: its ordered cause set (matches the CPT's bit
    /// order).
    causes: Vec<Vec<LaggedVar>>,
    /// Per outcome device: its conditional probability table.
    cpts: Vec<Cpt>,
}

impl Dig {
    /// Assembles a DIG from per-device cause sets and CPTs.
    ///
    /// # Panics
    ///
    /// Panics if `causes` and `cpts` disagree in length or ordering, if a
    /// cause's lag is outside `1..=tau`, or if a cause references an
    /// out-of-range device.
    pub fn new(tau: usize, causes: Vec<Vec<LaggedVar>>, cpts: Vec<Cpt>) -> Self {
        assert_eq!(causes.len(), cpts.len(), "one CPT per device required");
        let n = causes.len();
        for (device, (ca, cpt)) in causes.iter().zip(&cpts).enumerate() {
            assert_eq!(
                ca.as_slice(),
                cpt.causes(),
                "CPT cause order must match the cause set for device {device}"
            );
            for cause in ca {
                assert!(
                    (1..=tau).contains(&cause.lag),
                    "cause lag {} outside 1..={tau}",
                    cause.lag
                );
                assert!(
                    cause.device.index() < n,
                    "cause device {} out of range",
                    cause.device
                );
            }
        }
        Dig { tau, causes, cpts }
    }

    /// The maximum time lag τ the graph was mined with.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Number of devices `n`.
    pub fn num_devices(&self) -> usize {
        self.causes.len()
    }

    /// The cause set `Ca(S_i^t)` of a device.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn causes_of(&self, device: DeviceId) -> &[LaggedVar] {
        &self.causes[device.index()]
    }

    /// The CPT of a device.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn cpt(&self, device: DeviceId) -> &Cpt {
        &self.cpts[device.index()]
    }

    /// Iterates over every mined interaction (edge), in deterministic
    /// order.
    pub fn interactions(&self) -> impl Iterator<Item = Interaction> + '_ {
        self.causes
            .iter()
            .enumerate()
            .flat_map(|(outcome, causes)| {
                causes.iter().map(move |&cause| Interaction {
                    cause,
                    outcome: DeviceId::from_index(outcome),
                })
            })
    }

    /// Total number of edges in the graph.
    pub fn num_interactions(&self) -> usize {
        self.causes.iter().map(Vec::len).sum()
    }

    /// The set of `(cause device, outcome device)` pairs, collapsing lags —
    /// the granularity at which the paper matches mined interactions
    /// against ground truth (Section VI-B).
    pub fn interaction_pairs(&self) -> BTreeSet<(DeviceId, DeviceId)> {
        self.interactions()
            .map(|e| (e.cause.device, e.outcome))
            .collect()
    }

    /// The *children* of a device: outcomes that list any lag of `device`
    /// among their causes. Useful for tracking anomaly propagation.
    pub fn children_of(&self, device: DeviceId) -> Vec<DeviceId> {
        self.causes
            .iter()
            .enumerate()
            .filter(|(_, causes)| causes.iter().any(|c| c.device == device))
            .map(|(i, _)| DeviceId::from_index(i))
            .collect()
    }

    /// The maximum in-degree over all devices (`k` in the complexity
    /// analysis of Section V-D).
    pub fn max_in_degree(&self) -> usize {
        self.causes.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UnseenContext;

    fn lv(d: usize, lag: usize) -> LaggedVar {
        LaggedVar::new(DeviceId::from_index(d), lag)
    }

    /// Builds the didactic 3-device DIG of the paper's Figure 2:
    /// S1 -> S2 (lag 1), S2 -> S3 (lag 2), S3 -> S3 (lag 1), S3 -> S4 is
    /// out of scope here (only 3 devices).
    fn figure2_like() -> Dig {
        let causes = vec![
            vec![],                   // device 0: no causes
            vec![lv(0, 1)],           // device 1 <- device 0 lag 1
            vec![lv(1, 2), lv(2, 1)], // device 2 <- device 1 lag 2, self lag 1
        ];
        let cpts = causes.iter().map(|ca| Cpt::new(ca.clone(), 0.0)).collect();
        Dig::new(2, causes, cpts)
    }

    #[test]
    fn edge_enumeration() {
        let dig = figure2_like();
        assert_eq!(dig.num_interactions(), 3);
        let pairs = dig.interaction_pairs();
        assert!(pairs.contains(&(DeviceId::from_index(0), DeviceId::from_index(1))));
        assert!(pairs.contains(&(DeviceId::from_index(2), DeviceId::from_index(2))));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn autocorrelation_detection() {
        let dig = figure2_like();
        let auto: Vec<Interaction> = dig
            .interactions()
            .filter(Interaction::is_autocorrelation)
            .collect();
        assert_eq!(auto.len(), 1);
        assert_eq!(auto[0].outcome.index(), 2);
    }

    #[test]
    fn children_lookup() {
        let dig = figure2_like();
        assert_eq!(
            dig.children_of(DeviceId::from_index(1)),
            vec![DeviceId::from_index(2)]
        );
        assert_eq!(
            dig.children_of(DeviceId::from_index(0)),
            vec![DeviceId::from_index(1)]
        );
        assert!(dig
            .children_of(DeviceId::from_index(2))
            .contains(&DeviceId::from_index(2)));
    }

    #[test]
    fn degree_and_accessors() {
        let dig = figure2_like();
        assert_eq!(dig.max_in_degree(), 2);
        assert_eq!(dig.tau(), 2);
        assert_eq!(dig.num_devices(), 3);
        assert_eq!(dig.causes_of(DeviceId::from_index(2)).len(), 2);
        assert_eq!(
            dig.cpt(DeviceId::from_index(2))
                .prob(0, true, UnseenContext::Uniform),
            0.5
        );
    }

    #[test]
    #[should_panic(expected = "lag")]
    fn rejects_lag_beyond_tau() {
        let causes = vec![vec![lv(0, 3)]];
        let cpts = vec![Cpt::new(vec![lv(0, 3)], 0.0)];
        Dig::new(2, causes, cpts);
    }

    #[test]
    #[should_panic(expected = "cause order")]
    fn rejects_mismatched_cpt() {
        let causes = vec![vec![lv(0, 1)]];
        let cpts = vec![Cpt::new(vec![], 0.0)];
        Dig::new(2, causes, cpts);
    }
}
