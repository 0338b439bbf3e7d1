//! Incremental refit: online adaptation, stage 2.
//!
//! [`Refit`] is a [`FitStage`] plan that re-enters the staged pipeline
//! with a *sliding window* of recent runtime events instead of a full
//! training log. In the common case — behavioural drift without
//! structural change — it keeps the mined skeleton (the expensive
//! TemporalPC search) and only re-estimates every device's CPT and
//! recalibrates the threshold on the window, which is orders of
//! magnitude cheaper than a full fit. When the window shows *structural*
//! drift — events for devices the model was never fitted on, or skeleton
//! cause devices that have gone completely silent — it falls back to a
//! full re-mine at the model's τ.
//!
//! The skeleton-preserving path is a **fixed point**: refitting an
//! undrifted model on the very window it was fitted from reproduces the
//! same CPT counts and threshold, hence a verdict-identical model (the
//! `refit_on_training_window_is_fixed_point` property test pins this).

use std::time::Instant;

use iot_model::{BinaryEvent, DeviceId, StateSeries, SystemState};
use iot_telemetry::{MiningStats, PreprocessStats};

use crate::graph::{Dig, LaggedVar};
use crate::miner::{estimate_cpt, mine_dig_instrumented};
use crate::pipeline::stages::{FitPipeline, FitStage, MinedGraph};
use crate::pipeline::FittedModel;
use crate::snapshot::SnapshotData;
use crate::CausalIotError;

/// Why a [`Refit`] must fall back to a full re-mine instead of keeping
/// the current skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructuralDrift {
    /// The window contains events for a device index the model was not
    /// fitted on.
    UnseenDevice(DeviceId),
    /// A device serving as a cause in the mined skeleton produced no
    /// events in the window — its edges are dead and the skeleton can no
    /// longer be trusted.
    DeadEdge(DeviceId),
}

impl std::fmt::Display for StructuralDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralDrift::UnseenDevice(d) => {
                write!(f, "unseen device index {}", d.index())
            }
            StructuralDrift::DeadEdge(d) => {
                write!(
                    f,
                    "cause device {} silent in window (dead edges)",
                    d.index()
                )
            }
        }
    }
}

/// An incremental-refit plan: re-estimate a fitted model on a sliding
/// window of recent events, starting from the system state the window
/// was observed from.
///
/// Resume it like any other pipeline artefact:
///
/// ```ignore
/// let pipeline = FitPipeline::new(model.config().clone(), telemetry)?;
/// let refit = Refit::new(&model, pre_window_state, window_events);
/// let next_generation = pipeline.resume_from(refit)?;
/// ```
///
/// The produced [`FittedModel`] carries the same configuration (and
/// preprocessor) as the source model and is a drop-in replacement for
/// it — the serving hub's swap machinery files it as the home's next
/// lineage generation.
#[derive(Debug, Clone)]
pub struct Refit {
    model: FittedModel,
    initial: SystemState,
    events: Vec<BinaryEvent>,
}

impl Refit {
    /// Plans a refit of `model` on `events`, where `initial` is the
    /// system state immediately before the first window event (the
    /// serving layer tracks it alongside the window).
    pub fn new(model: &FittedModel, initial: SystemState, events: Vec<BinaryEvent>) -> Self {
        Refit {
            model: model.clone(),
            initial,
            events,
        }
    }

    /// The window length in events.
    pub fn window_len(&self) -> usize {
        self.events.len()
    }

    /// Checks the window for structural drift: `Some` when the refit
    /// will fall back to a full re-mine, `None` when the mined skeleton
    /// can be kept and only CPTs/threshold are re-estimated.
    pub fn structural_drift(&self) -> Option<StructuralDrift> {
        let num_devices = self.model.num_devices();
        let mut seen = vec![false; num_devices];
        for event in &self.events {
            match seen.get_mut(event.device.index()) {
                Some(flag) => *flag = true,
                None => return Some(StructuralDrift::UnseenDevice(event.device)),
            }
        }
        // A device that appears as a cause in the skeleton but never
        // fires in the window: its lagged value is frozen at whatever
        // `initial` says, so every context code degenerates and the
        // re-estimated CPTs would silently encode a dead edge.
        let dig = self.model.dig();
        for d in 0..num_devices {
            for cause in dig.causes_of(DeviceId::from_index(d)) {
                let c = cause.device.index();
                if !seen[c] {
                    return Some(StructuralDrift::DeadEdge(DeviceId::from_index(c)));
                }
            }
        }
        None
    }

    /// The shared tail of both refit paths: split the calibration share
    /// exactly like [`FitPipeline::snapshot`] does, so a refit over the
    /// original training window reproduces the original split.
    fn calib_cut(pipeline: &FitPipeline, num_events: usize, tau: usize) -> usize {
        let fraction = pipeline.config().calibration_fraction;
        if fraction > 0.0 {
            ((num_events as f64 * (1.0 - fraction)) as usize).max(tau + 1)
        } else {
            num_events
        }
    }
}

impl FitStage for Refit {
    fn resume(self, pipeline: &FitPipeline) -> Result<FittedModel, CausalIotError> {
        let tau = self.model.tau();
        let required = (tau + 1).max(10);
        if self.events.len() < required {
            return Err(CausalIotError::InsufficientTrainingData {
                events: self.events.len(),
                required,
            });
        }
        let structural = self.structural_drift();
        let span = pipeline.telemetry().span(if structural.is_some() {
            "refit.remine"
        } else {
            "refit.skeleton"
        });
        let started = Instant::now();
        let Refit {
            model,
            initial,
            events,
        } = self;
        let stats = PreprocessStats {
            events_in: events.len() as u64,
            events_out: events.len() as u64,
            ..PreprocessStats::default()
        };
        // Unseen devices widen the home: the refit covers the larger
        // index space so the new model can score them.
        let num_devices = events
            .iter()
            .map(|e| e.device.index() + 1)
            .max()
            .unwrap_or(0)
            .max(model.num_devices())
            .max(initial.len());
        let wide_initial = if initial.len() < num_devices {
            let mut values = initial.values().to_vec();
            values.resize(num_devices, false);
            SystemState::from_values(values)
        } else {
            initial
        };
        let series = StateSeries::derive(wide_initial.clone(), events);
        let calib_cut = Self::calib_cut(pipeline, series.num_events(), tau);
        let data = if calib_cut < series.num_events() {
            let mine_series =
                StateSeries::derive(wide_initial, series.events()[..calib_cut].to_vec());
            SnapshotData::from_series(&mine_series, tau)
        } else {
            SnapshotData::from_series(&series, tau)
        };

        let (dig, mining, skeleton_ms, cpt_ms) = match structural {
            // Structural drift: the skeleton is stale — run the full
            // TemporalPC search at the model's τ.
            Some(_) => {
                let outcome =
                    mine_dig_instrumented(&data, &pipeline.config().miner, pipeline.telemetry());
                (
                    outcome.dig,
                    outcome.stats,
                    outcome.skeleton_ms,
                    outcome.cpt_ms,
                )
            }
            // Behavioural drift only: keep the skeleton, re-estimate
            // every CPT on the window — the miner's own estimation path
            // (`estimate_cpt`), so an undrifted window is a fixed point.
            None => {
                let cpt_start = Instant::now();
                let old_dig = model.dig();
                let smoothing = pipeline.config().miner.smoothing;
                let causes: Vec<Vec<LaggedVar>> = (0..num_devices)
                    .map(|d| old_dig.causes_of(DeviceId::from_index(d)).to_vec())
                    .collect();
                let cpts = causes
                    .iter()
                    .enumerate()
                    .map(|(d, c)| estimate_cpt(&data, DeviceId::from_index(d), c, smoothing))
                    .collect();
                let dig = Dig::new(tau, causes, cpts);
                (
                    dig,
                    MiningStats::default(),
                    0.0,
                    cpt_start.elapsed().as_secs_f64() * 1e3,
                )
            }
        };
        let mined = MinedGraph::from_refit(
            num_devices,
            model.preprocessor().cloned(),
            stats,
            started,
            tau,
            series,
            calib_cut,
            dig,
            mining,
            skeleton_ms,
            cpt_ms,
        );
        let fitted = pipeline.calibrate(mined).into_model();
        span.finish();
        Ok(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CausalIot;
    use iot_model::{Attribute, DeviceRegistry, Room, Timestamp};
    use iot_telemetry::TelemetryHandle;

    fn training_events(
        pe: DeviceId,
        lamp: DeviceId,
        rounds: u64,
        follow: bool,
    ) -> Vec<BinaryEvent> {
        let mut events = Vec::new();
        for i in 0..rounds {
            let on = (i / 2).is_multiple_of(2);
            events.push(BinaryEvent::new(Timestamp::from_secs(i * 60), pe, on));
            events.push(BinaryEvent::new(
                Timestamp::from_secs(i * 60 + 15),
                lamp,
                if follow { on } else { !on },
            ));
        }
        events
    }

    fn fit() -> (FittedModel, DeviceId, DeviceId) {
        let mut reg = DeviceRegistry::new();
        let pe = reg
            .add("PE_room", Attribute::PresenceSensor, Room::new("room"))
            .unwrap();
        let lamp = reg
            .add("S_lamp", Attribute::Switch, Room::new("room"))
            .unwrap();
        let model = CausalIot::builder()
            .tau(2)
            .build()
            .fit_binary(&reg, &training_events(pe, lamp, 200, true))
            .unwrap();
        (model, pe, lamp)
    }

    #[test]
    fn refit_on_training_window_reproduces_the_model() {
        let (model, pe, lamp) = fit();
        let pipeline =
            FitPipeline::new(model.config().clone(), TelemetryHandle::with_noop_sink()).unwrap();
        let window = training_events(pe, lamp, 200, true);
        let refit = Refit::new(&model, SystemState::all_off(2), window);
        assert_eq!(refit.structural_drift(), None);
        let refitted = pipeline.resume_from(refit).unwrap();
        assert_eq!(refitted.save(), model.save(), "refit must be a fixed point");
    }

    #[test]
    fn refit_on_drifted_window_learns_the_new_regime() {
        let (model, pe, lamp) = fit();
        let pipeline =
            FitPipeline::new(model.config().clone(), TelemetryHandle::with_noop_sink()).unwrap();
        // The home's routine inverted: the lamp now anti-follows motion.
        let window = training_events(pe, lamp, 200, false);
        let refit = Refit::new(&model, SystemState::all_off(2), window);
        assert_eq!(refit.structural_drift(), None);
        let refitted = pipeline.resume_from(refit).unwrap();
        assert_eq!(refitted.num_devices(), model.num_devices());
        // Under the refitted model an anti-following lamp event scores
        // low; under the stale model it scores high.
        let probe = [
            BinaryEvent::new(Timestamp::from_secs(1_000_000), pe, true),
            BinaryEvent::new(Timestamp::from_secs(1_000_015), lamp, false),
        ];
        let stale = model.clone().into_monitor().observe(probe[0]).score;
        let mut old_mon = model.into_monitor();
        let mut new_mon = refitted.into_monitor();
        let _ = (old_mon.observe(probe[0]), new_mon.observe(probe[0]), stale);
        let old_score = old_mon.observe(probe[1]).score;
        let new_score = new_mon.observe(probe[1]).score;
        assert!(
            new_score < old_score,
            "refitted model must score the new regime lower ({new_score} vs {old_score})"
        );
    }

    #[test]
    fn unseen_device_forces_a_remine() {
        let (model, pe, lamp) = fit();
        let mut window = training_events(pe, lamp, 100, true);
        let ghost = DeviceId::from_index(2);
        window.push(BinaryEvent::new(
            Timestamp::from_secs(9_999_999),
            ghost,
            true,
        ));
        let refit = Refit::new(&model, SystemState::all_off(2), window);
        assert_eq!(
            refit.structural_drift(),
            Some(StructuralDrift::UnseenDevice(ghost))
        );
        let pipeline =
            FitPipeline::new(model.config().clone(), TelemetryHandle::with_noop_sink()).unwrap();
        let refitted = pipeline.resume_from(refit).unwrap();
        assert_eq!(refitted.num_devices(), 3, "the home widened");
        assert_eq!(refitted.tau(), model.tau(), "τ is pinned across refits");
    }

    #[test]
    fn dead_cause_device_forces_a_remine() {
        let (model, pe, lamp) = fit();
        // Only lamp events in the window: if the skeleton has pe as a
        // cause of lamp, that edge is dead.
        let window: Vec<BinaryEvent> = (0..40u64)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i * 60),
                    lamp,
                    (i / 2).is_multiple_of(2),
                )
            })
            .collect();
        let refit = Refit::new(&model, SystemState::all_off(2), window);
        let uses_pe_as_cause = (0..2).any(|d| {
            model
                .dig()
                .causes_of(DeviceId::from_index(d))
                .iter()
                .any(|c| c.device == pe)
        });
        if uses_pe_as_cause {
            assert_eq!(
                refit.structural_drift(),
                Some(StructuralDrift::DeadEdge(pe))
            );
        }
    }

    #[test]
    fn short_window_is_rejected() {
        let (model, pe, _) = fit();
        let window = vec![BinaryEvent::new(Timestamp::from_secs(0), pe, true)];
        let pipeline =
            FitPipeline::new(model.config().clone(), TelemetryHandle::with_noop_sink()).unwrap();
        let err = pipeline
            .resume_from(Refit::new(&model, SystemState::all_off(2), window))
            .unwrap_err();
        assert!(matches!(
            err,
            CausalIotError::InsufficientTrainingData { .. }
        ));
    }
}
