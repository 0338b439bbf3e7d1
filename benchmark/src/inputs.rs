//! Seeded inputs shared by the workloads: 21-day ContextAct traces,
//! models fitted through the staged pipeline, and per-home replays of
//! held-out data rotated to a per-home phase.

use std::sync::Arc;

use causaliot_core::preprocess::FittedPreprocessor;
use causaliot_core::{CausalIotConfig, FitPipeline, FittedModel, RawEvents};
use iot_model::{BinaryEvent, DeviceEvent, DeviceRegistry, EventLog, Timestamp};
use iot_telemetry::TelemetryHandle;
use testbed::{contextact_profile, simulate, HomeProfile, SimConfig};

use crate::trace::Tracer;

/// Days of simulated activity per trace.
pub const TRACE_DAYS: f64 = 21.0;
/// Share of a trace a serving model is fitted on; the rest is replayed.
pub const TRAIN_FRACTION: f64 = 0.8;

/// SplitMix64: derives independent, reproducible seeds from the workload
/// seed, so every input follows from `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED69);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed streams, one per kind of derived input.
pub mod stream {
    pub const MODEL_TRACE: u64 = 1;
    pub const HOME_PHASE: u64 = 2;
    pub const FLEET_TRACE: u64 = 3;
}

pub struct Testbed {
    profile: HomeProfile,
}

impl Testbed {
    pub fn new() -> Self {
        Testbed {
            profile: contextact_profile(),
        }
    }

    pub fn registry(&self) -> &DeviceRegistry {
        self.profile.registry()
    }

    pub fn trace(&self, seed: u64) -> EventLog {
        simulate(
            &self.profile,
            &SimConfig {
                days: TRACE_DAYS,
                seed,
                ..SimConfig::default()
            },
        )
        .log
    }
}

pub fn pipeline() -> FitPipeline {
    FitPipeline::new(CausalIotConfig::default(), TelemetryHandle::disabled())
        .expect("the default fit configuration is valid")
}

/// What one fit produced besides the model.
pub struct Fit {
    pub model: FittedModel,
    pub ci_tests: u64,
}

/// Fits `log` through the four pipeline stages, each under its own span.
pub fn fit(pipe: &FitPipeline, registry: &DeviceRegistry, log: &EventLog, tr: &mut Tracer) -> Fit {
    let pre = tr.span("fit.preprocess", |_| {
        pipe.preprocess(RawEvents::new(registry, log))
            .expect("a 21-day trace is enough training data")
    });
    let snap = tr.span("fit.snapshot", |_| {
        pipe.snapshot(pre)
            .expect("a 21-day trace is enough training data")
    });
    let mined = tr.span("fit.mine", |_| pipe.mine(snap));
    let ci_tests = mined.mining_stats().ci_tests_total;
    let model = tr.span("fit.calibrate", |_| pipe.calibrate(mined).into_model());
    Fit { model, ci_tests }
}

/// A serving model with the raw data it was fitted on and held out from.
pub struct ServingModel {
    pub model: FittedModel,
    pub train: EventLog,
    pub held_out: Arc<[DeviceEvent]>,
    pub ci_tests: u64,
}

/// `count` serving models, each fitted on the first 80% of its own
/// 21-day trace.
pub fn serving_models(
    testbed: &Testbed,
    seed: u64,
    count: u64,
    tr: &mut Tracer,
) -> Vec<ServingModel> {
    let pipe = pipeline();
    (0..count)
        .map(|i| {
            tr.set_group(i);
            let log = testbed.trace(derive_seed(seed, stream::MODEL_TRACE, i));
            let (train, held_out) = log.split_at_fraction(TRAIN_FRACTION);
            let fit = tr.span("fit", |tr| fit(&pipe, testbed.registry(), &train, tr));
            ServingModel {
                model: fit.model,
                train,
                held_out: held_out.into_events().into(),
                ci_tests: fit.ci_tests,
            }
        })
        .collect()
}

/// An endless per-home replay of a held-out log: starts at `phase`,
/// wraps around, and shifts every lap forward in time so the home's
/// stream stays time-ordered. Times are rebased so the stream starts at
/// `start`.
#[derive(Clone)]
pub struct HomeStream {
    events: Arc<[DeviceEvent]>,
    phase: usize,
    lap_ms: u64,
    base_ms: u64,
    start_ms: u64,
    next: u64,
}

impl HomeStream {
    pub fn new(events: Arc<[DeviceEvent]>, phase: usize, start: Timestamp) -> Self {
        assert!(!events.is_empty(), "a replayed log needs events");
        let first = events[0].time.as_millis();
        let last = events[events.len() - 1].time.as_millis();
        let phase = phase % events.len();
        let base_ms = events[phase].time.as_millis();
        HomeStream {
            events,
            phase,
            // One second between the end of a lap and the next one.
            lap_ms: last - first + 1000,
            base_ms,
            start_ms: start.as_millis(),
            next: 0,
        }
    }

    /// The `i`-th event of the stream.
    pub fn at(&self, i: u64) -> DeviceEvent {
        let len = self.events.len() as u64;
        let pos = self.phase as u64 + i;
        let mut event = self.events[(pos % len) as usize];
        let t = event.time.as_millis() + (pos / len) * self.lap_ms;
        event.time = Timestamp::from_millis(t - self.base_ms + self.start_ms);
        event
    }

    /// Events handed out so far.
    pub fn offered(&self) -> u64 {
        self.next
    }
}

impl Iterator for HomeStream {
    type Item = DeviceEvent;

    fn next(&mut self) -> Option<DeviceEvent> {
        let event = self.at(self.next);
        self.next += 1;
        Some(event)
    }
}

/// The per-event raw → binary step a gateway runs before submitting:
/// drop three-sigma extremes, binarise with the model's fitted
/// thresholds, and drop readings equal to the home's current state.
pub struct Gateway {
    preprocessor: FittedPreprocessor,
    state: Vec<bool>,
}

impl Gateway {
    pub fn new(model: &FittedModel) -> Self {
        Gateway {
            preprocessor: model
                .preprocessor()
                .expect("models fitted on raw logs carry their preprocessor")
                .clone(),
            state: model.final_train_state().values().to_vec(),
        }
    }

    #[inline]
    pub fn offer(&mut self, event: &DeviceEvent) -> Option<BinaryEvent> {
        if self.preprocessor.sanitizer().is_extreme(event) {
            return None;
        }
        let binary = self.preprocessor.binarize_event(event);
        let slot = &mut self.state[binary.device.index()];
        if *slot == binary.value {
            return None;
        }
        *slot = binary.value;
        Some(binary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_model::{DeviceId, StateValue};

    fn log(times: &[u64]) -> Arc<[DeviceEvent]> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                DeviceEvent::new(
                    Timestamp::from_millis(t),
                    DeviceId::from_index(i % 2),
                    StateValue::Binary(i % 3 == 0),
                )
            })
            .collect()
    }

    #[test]
    fn home_stream_rotates_and_stays_time_ordered() {
        let log = log(&[100, 200, 400, 700]);
        let stream = HomeStream::new(log.clone(), 2, Timestamp::from_millis(5_000));
        let times: Vec<u64> = stream.take(7).map(|e| e.time.as_millis()).collect();
        // Lap = 700 - 100 + 1000 = 1600 ms; starts at the third event.
        assert_eq!(times, vec![5000, 5300, 6300, 6400, 6600, 6900, 7900]);
        let devices: Vec<usize> = HomeStream::new(log, 2, Timestamp::from_millis(0))
            .take(3)
            .map(|e| e.device.index())
            .collect();
        assert_eq!(devices, vec![0, 1, 0]);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        let a = derive_seed(7, stream::MODEL_TRACE, 0);
        assert_eq!(a, derive_seed(7, stream::MODEL_TRACE, 0));
        assert_ne!(a, derive_seed(7, stream::MODEL_TRACE, 1));
        assert_ne!(a, derive_seed(7, stream::HOME_PHASE, 0));
        assert_ne!(a, derive_seed(8, stream::MODEL_TRACE, 0));
    }
}
