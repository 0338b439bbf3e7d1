//! Randomised property tests on the core data structures and invariants.
//!
//! These were originally written against `proptest`; the offline build
//! environment cannot fetch it, so each property now drives itself with a
//! seeded [`StdRng`] over a few hundred generated cases. Shrinking is
//! lost, but every failure message carries the case index and the
//! generating seed, which is enough to reproduce deterministically.

use causaliot::graph::{Cpt, LaggedVar, UnseenContext};
use causaliot::monitor::PhantomStateMachine;
use causaliot::snapshot::SnapshotData;
use iot_model::{BinaryEvent, DeviceId, EventLog, StateSeries, SystemState, Timestamp};
use iot_stats::chi2::{chi2_cdf, chi2_sf};
use iot_stats::gsquare::{g_square_test, Observation};
use iot_stats::jenks::jenks_breaks;
use iot_stats::percentile::percentile;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_events(rng: &mut StdRng, devices: usize, max_len: usize) -> Vec<BinaryEvent> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|i| {
            BinaryEvent::new(
                Timestamp::from_secs(i as u64),
                DeviceId::from_index(rng.gen_range(0..devices)),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

/// A state series always has m+1 states, and state j differs from state
/// j-1 at most in the reporting device.
#[test]
fn state_series_single_device_transitions() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..200 {
        let events = random_events(&mut rng, 6, 200);
        let series = StateSeries::derive(SystemState::all_off(6), events.clone());
        assert_eq!(series.num_events(), events.len(), "case {case}");
        for j in 1..=series.num_events() {
            let prev = series.state(j - 1);
            let cur = series.state(j);
            let changed: Vec<usize> = (0..6)
                .filter(|&d| prev.get(DeviceId::from_index(d)) != cur.get(DeviceId::from_index(d)))
                .collect();
            assert!(changed.len() <= 1, "case {case}: {changed:?}");
            if let Some(&d) = changed.first() {
                assert_eq!(d, events[j - 1].device.index(), "case {case}");
            }
        }
    }
}

/// The phantom state machine tracks exactly the same states as the
/// derived series, for any event stream and any tau.
#[test]
fn phantom_machine_agrees_with_series() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..100 {
        let events = random_events(&mut rng, 5, 120);
        let tau = rng.gen_range(1usize..4);
        let series = StateSeries::derive(SystemState::all_off(5), events.clone());
        let mut pm = PhantomStateMachine::new(SystemState::all_off(5), tau);
        for (j, event) in events.iter().enumerate() {
            pm.apply(event);
            assert_eq!(pm.current(), series.state(j + 1), "case {case} event {j}");
            for lag in 0..=tau.min(j + 1) {
                for d in 0..5 {
                    let id = DeviceId::from_index(d);
                    assert_eq!(
                        pm.lagged(id, lag),
                        series.lagged(j + 1, id, lag),
                        "case {case} event {j} device {d} lag {lag}"
                    );
                }
            }
        }
    }
}

/// Bit-parallel contingency counting sums to the snapshot count for any
/// variables and conditioning sets.
#[test]
fn stratified_counts_total_is_snapshot_count() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..200 {
        let events = random_events(&mut rng, 4, 150);
        if events.len() < 3 {
            continue;
        }
        let series = StateSeries::derive(SystemState::all_off(4), events);
        let data = SnapshotData::from_series(&series, 2);
        let x = LaggedVar::new(
            DeviceId::from_index(rng.gen_range(0..4)),
            rng.gen_range(1usize..3),
        );
        let y = LaggedVar::new(DeviceId::from_index(rng.gen_range(0..4)), 0);
        let z = LaggedVar::new(
            DeviceId::from_index(rng.gen_range(0..4)),
            rng.gen_range(1usize..3),
        );
        let z_set = if z == x { vec![] } else { vec![z] };
        let table = data.stratified_counts(x, y, &z_set);
        assert_eq!(
            table.total(),
            data.num_snapshots() as u64,
            "case {case}: x={x:?} y={y:?} z={z_set:?}"
        );
    }
}

/// CPT probabilities are valid distributions under every policy.
#[test]
fn cpt_probabilities_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..200 {
        let causes = vec![
            LaggedVar::new(DeviceId::from_index(0), 1),
            LaggedVar::new(DeviceId::from_index(1), 2),
        ];
        let mut cpt = Cpt::new(causes, 0.0);
        for _ in 0..rng.gen_range(0..100) {
            cpt.record(rng.gen_range(0usize..4), rng.gen_bool(0.5));
        }
        for policy in [
            UnseenContext::Marginal,
            UnseenContext::Uniform,
            UnseenContext::MaxAnomaly,
        ] {
            for code in 0..cpt.num_contexts() {
                let p_on = cpt.prob(code, true, policy);
                let p_off = cpt.prob(code, false, policy);
                assert!((0.0..=1.0).contains(&p_on), "case {case} {policy:?}");
                assert!((0.0..=1.0).contains(&p_off), "case {case} {policy:?}");
                if cpt.context_count(code) > 0 {
                    assert!(
                        (p_on + p_off - 1.0).abs() < 1e-9,
                        "case {case} {policy:?} code {code}: {p_on} + {p_off}"
                    );
                }
            }
        }
    }
}

/// The chi-square CDF and survival function are complementary and
/// monotone.
#[test]
fn chi2_cdf_properties() {
    let mut rng = StdRng::seed_from_u64(0xE4A);
    for case in 0..500 {
        let x = rng.gen_range(0.0f64..200.0);
        let dof = rng.gen_range(1u64..30);
        let cdf = chi2_cdf(x, dof);
        let sf = chi2_sf(x, dof);
        assert!((cdf + sf - 1.0).abs() < 1e-9, "case {case} x={x} dof={dof}");
        assert!((0.0..=1.0).contains(&cdf), "case {case} x={x} dof={dof}");
        let cdf2 = chi2_cdf(x + 1.0, dof);
        assert!(cdf2 >= cdf - 1e-12, "case {case} x={x} dof={dof}");
    }
}

/// G² p-values live in [0, 1] for arbitrary binary data.
#[test]
fn g_square_p_value_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for case in 0..200 {
        let n = rng.gen_range(0..300);
        let observations: Vec<Observation> = (0..n)
            .map(|_| Observation {
                x: rng.gen_bool(0.5),
                y: rng.gen_bool(0.5),
                z_code: rng.gen_range(0usize..4),
            })
            .collect();
        let r = g_square_test(observations, 2);
        assert!((0.0..=1.0).contains(&r.p_value), "case {case}");
        assert!(r.statistic >= -1e-9, "case {case}");
    }
}

/// Jenks breaks are sorted and lie within the data range.
#[test]
fn jenks_breaks_are_ordered_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xBEAD);
    for case in 0..200 {
        let classes = rng.gen_range(2usize..4);
        let len = rng.gen_range(4usize..60).max(classes);
        let mut values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e5f64..1e5)).collect();
        let breaks = jenks_breaks(&values, classes);
        assert_eq!(breaks.len(), classes - 1, "case {case}");
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in breaks.windows(2) {
            assert!(pair[0] <= pair[1], "case {case}: {breaks:?}");
        }
        for b in &breaks {
            assert!(
                *b >= values[0] && *b <= *values.last().unwrap(),
                "case {case}: {b} outside [{}, {}]",
                values[0],
                values.last().unwrap()
            );
        }
    }
}

/// Percentiles are monotone in q and bounded by the extremes.
#[test]
fn percentile_monotone() {
    let mut rng = StdRng::seed_from_u64(0xACE);
    for case in 0..300 {
        let len = rng.gen_range(1usize..80);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6f64..1e6)).collect();
        let q1 = rng.gen_range(0.0f64..100.0);
        let q2 = rng.gen_range(0.0f64..100.0);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&values, lo);
        let p_hi = percentile(&values, hi);
        assert!(p_lo <= p_hi + 1e-9, "case {case}: {p_lo} > {p_hi}");
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            p_lo >= min - 1e-9 && p_hi <= max + 1e-9,
            "case {case}: [{p_lo}, {p_hi}] outside [{min}, {max}]"
        );
    }
}

/// EventLog::push keeps the log sorted for arbitrary insertion orders.
#[test]
fn event_log_always_sorted() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for _ in 0..100 {
        let mut log = EventLog::new();
        for i in 0..rng.gen_range(0usize..120) {
            log.push(iot_model::DeviceEvent::new(
                Timestamp::from_secs(rng.gen_range(0u64..10_000)),
                DeviceId::from_index(i % 3),
                iot_model::StateValue::Binary(i % 2 == 0),
            ));
        }
        for pair in log.events().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }
}

fn binary_registry(devices: usize) -> iot_model::DeviceRegistry {
    let mut reg = iot_model::DeviceRegistry::new();
    for d in 0..devices {
        reg.add(
            format!("S_dev{d}"),
            iot_model::Attribute::Switch,
            iot_model::Room::new("room"),
        )
        .unwrap();
    }
    reg
}

fn random_config(rng: &mut StdRng) -> causaliot::CausalIotConfig {
    let tau = if rng.gen_bool(0.7) {
        causaliot::TauChoice::Fixed(rng.gen_range(1usize..=3))
    } else {
        causaliot::TauChoice::default()
    };
    let q = [90.0, 95.0, 99.0][rng.gen_range(0..3)];
    let calibration_fraction = if rng.gen_bool(0.5) { 0.25 } else { 0.0 };
    let smoothing = if rng.gen_bool(0.3) { 1.0 } else { 0.0 };
    let unseen = match rng.gen_range(0..3) {
        0 => UnseenContext::Marginal,
        1 => UnseenContext::Uniform,
        _ => UnseenContext::MaxAnomaly,
    };
    causaliot::CausalIotConfig {
        tau,
        q,
        calibration_fraction,
        unseen,
        miner: causaliot::miner::MinerConfig {
            smoothing,
            ..causaliot::miner::MinerConfig::default()
        },
        ..causaliot::CausalIotConfig::default()
    }
}

/// A from-first-principles reimplementation of the pre-refactor
/// monolithic fit (binary-events path): τ selection, state-series
/// derivation, calibration split, mining, and percentile thresholding,
/// each driven through the public building-block APIs.
fn monolithic_reference(
    num_devices: usize,
    events: &[BinaryEvent],
    config: &causaliot::CausalIotConfig,
) -> (
    causaliot::graph::Dig,
    f64,
    iot_telemetry::MiningStats,
    Vec<f64>,
    usize,
) {
    let tau = match config.tau {
        causaliot::TauChoice::Fixed(tau) => tau,
        causaliot::TauChoice::Auto(cfg) => causaliot::preprocess::choose_tau(events, &cfg),
    };
    let initial = SystemState::all_off(num_devices);
    let series = StateSeries::derive(initial.clone(), events.to_vec());
    let calib_cut = if config.calibration_fraction > 0.0 {
        let keep = 1.0 - config.calibration_fraction;
        ((series.num_events() as f64 * keep) as usize).max(tau + 1)
    } else {
        series.num_events()
    };
    let data = if calib_cut < series.num_events() {
        let mine_series =
            StateSeries::derive(initial.clone(), series.events()[..calib_cut].to_vec());
        SnapshotData::from_series(&mine_series, tau)
    } else {
        SnapshotData::from_series(&series, tau)
    };
    let outcome = causaliot::miner::mine_dig_instrumented(
        &data,
        &config.miner,
        &iot_telemetry::TelemetryHandle::disabled(),
    );
    let scores = if calib_cut < series.num_events() {
        causaliot::monitor::training_scores(
            &outcome.dig,
            &series.events()[calib_cut..],
            series.state(calib_cut),
            config.unseen,
        )
    } else {
        causaliot::monitor::training_scores(&outcome.dig, series.events(), &initial, config.unseen)
    };
    let threshold = percentile(&scores, config.q);
    (outcome.dig, threshold, outcome.stats, scores, tau)
}

/// The staged fit pipeline behind `CausalIot::fit_binary` produces
/// bit-identical models to a from-scratch monolithic reference fit, for
/// arbitrary simulated homes and configurations: same DIG (edges and CPT
/// counts), same threshold bits, and a `FitReport` agreeing on every
/// non-timing field.
#[test]
fn staged_fit_matches_monolithic_reference() {
    let mut rng = StdRng::seed_from_u64(0x57A6ED);
    let mut fitted = 0;
    for case in 0..40 {
        let devices = rng.gen_range(3usize..=5);
        let len = rng.gen_range(40usize..160);
        let events: Vec<BinaryEvent> = (0..len)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i as u64 * rng.gen_range(10..90)),
                    DeviceId::from_index(rng.gen_range(0..devices)),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let config = random_config(&mut rng);
        let reg = binary_registry(devices);
        let model = causaliot::CausalIot::with_config(config.clone())
            .fit_binary(&reg, &events)
            .unwrap_or_else(|e| panic!("case {case}: fit failed: {e}"));
        fitted += 1;
        let (dig, threshold, mining, scores, tau) = monolithic_reference(devices, &events, &config);
        assert_eq!(model.dig(), &dig, "case {case}: DIG diverged");
        assert_eq!(
            model.threshold().to_bits(),
            threshold.to_bits(),
            "case {case}: threshold diverged"
        );
        let report = model.fit_report();
        assert_eq!(report.num_devices, devices, "case {case}");
        assert_eq!(report.tau, tau, "case {case}");
        assert_eq!(
            report.threshold.to_bits(),
            threshold.to_bits(),
            "case {case}"
        );
        assert_eq!(
            report.num_interactions,
            dig.interaction_pairs().len(),
            "case {case}"
        );
        let expected_preprocess = iot_telemetry::PreprocessStats {
            events_in: len as u64,
            events_out: len as u64,
            ..iot_telemetry::PreprocessStats::default()
        };
        assert_eq!(report.preprocess, expected_preprocess, "case {case}");
        assert_eq!(
            report.mining.ci_tests_total, mining.ci_tests_total,
            "case {case}"
        );
        assert_eq!(
            report.mining.ci_tests_per_level, mining.ci_tests_per_level,
            "case {case}"
        );
        assert_eq!(
            report.mining.edges_considered, mining.edges_considered,
            "case {case}"
        );
        assert_eq!(
            report.mining.edges_pruned, mining.edges_pruned,
            "case {case}"
        );
        assert_eq!(
            report.calibration_scores,
            iot_telemetry::DistributionSummary::from_samples(&scores),
            "case {case}"
        );
    }
    assert_eq!(fitted, 40, "all generated cases must fit");
}

/// Any permutation of a clean stream whose displacements stay inside the
/// guard's reorder window is repaired exactly: the released stream is the
/// clean stream, and monitor verdicts are bit-identical to an unguarded
/// sequential run.
#[test]
fn ingest_guard_repairs_any_in_window_permutation() {
    use causaliot::{IngestGuard, IngestPolicy};
    use std::time::Duration;

    let devices = 4;
    let reg = binary_registry(devices);
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let training: Vec<BinaryEvent> = (0..300)
        .map(|i| {
            BinaryEvent::new(
                Timestamp::from_secs(i * 45),
                DeviceId::from_index((i % devices as u64) as usize),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    let model = causaliot::CausalIot::builder()
        .tau(2)
        .build()
        .fit_binary(&reg, &training)
        .unwrap();
    let window = Duration::from_secs(60);
    let policy = IngestPolicy {
        reorder_window: window,
        ..IngestPolicy::default()
    };
    for case in 0..60 {
        // Strictly increasing clean timestamps, then a bounded shuffle:
        // sort by `t + jitter` with jitter < window/2, so no inversion
        // ever exceeds the reorder window.
        let len = rng.gen_range(20usize..120);
        let mut t = 1_000_000u64;
        let clean: Vec<BinaryEvent> = (0..len)
            .map(|i| {
                t += rng.gen_range(1..=30) * 1000;
                BinaryEvent::new(
                    Timestamp::from_millis(t),
                    DeviceId::from_index(i % devices),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut keyed: Vec<(u64, BinaryEvent)> = clean
            .iter()
            .map(|e| {
                (
                    e.time.as_millis() + rng.gen_range(0..window.as_millis() as u64 / 2),
                    *e,
                )
            })
            .collect();
        keyed.sort_by_key(|(key, _)| *key);

        let mut guard = IngestGuard::new(policy, devices);
        let mut monitor = model.clone().into_monitor();
        let mut verdicts = Vec::new();
        let mut released = Vec::new();
        for (_, event) in keyed {
            let step = guard.offer(event);
            assert!(step.dead.is_none(), "case {case}: spurious dead letter");
            for ready in step.ready {
                released.push(ready);
                verdicts.push(monitor.observe(ready));
            }
        }
        for ready in guard.flush() {
            released.push(ready);
            verdicts.push(monitor.observe(ready));
        }
        assert_eq!(released, clean, "case {case}: repair is not exact");
        let mut reference = model.clone().into_monitor();
        let expected: Vec<causaliot::Verdict> =
            clean.iter().map(|e| reference.observe(*e)).collect();
        assert_eq!(verdicts, expected, "case {case}: verdicts diverged");
        assert_eq!(guard.counts().total(), 0, "case {case}");
    }
}

/// Arbitrary hostile streams — random timestamp jumps in both directions,
/// out-of-model device ids, NaN/infinite readings — never panic the
/// guard, and every offered event is conserved: released, still buffered,
/// or dead-lettered with a refusal cause.
#[test]
fn ingest_guard_conserves_events_and_never_panics() {
    use causaliot::{IngestGuard, IngestPolicy};
    use iot_model::{DeviceEvent, StateValue};
    use std::time::Duration;

    let mut rng = StdRng::seed_from_u64(0xD15C0);
    for case in 0..200 {
        let devices = rng.gen_range(1usize..6);
        let policy = IngestPolicy {
            reorder_window: Duration::from_secs(rng.gen_range(0..120)),
            max_skew: Duration::from_secs(rng.gen_range(0..600)),
            liveness_timeout: rng
                .gen_bool(0.5)
                .then(|| Duration::from_secs(rng.gen_range(1..900))),
            duplicate_flood_limit: rng.gen_range(0..4),
        };
        let mut guard: IngestGuard<DeviceEvent> = IngestGuard::new(policy, devices);
        let len = rng.gen_range(0usize..200);
        let mut released = 0usize;
        for _ in 0..len {
            let value = match rng.gen_range(0..4) {
                0 => StateValue::Binary(rng.gen_bool(0.5)),
                1 => StateValue::Numeric(rng.gen_range(-50.0..50.0)),
                2 => StateValue::Numeric(f64::NAN),
                _ => StateValue::Numeric(f64::INFINITY),
            };
            let event = DeviceEvent::new(
                Timestamp::from_secs(rng.gen_range(0u64..5_000)),
                DeviceId::from_index(rng.gen_range(0..devices + 2)),
                value,
            );
            let step = guard.offer(event);
            released += step.ready.len();
            let _ = guard.stale_set();
        }
        released += guard.flush().len();
        assert_eq!(
            released as u64 + guard.counts().total(),
            len as u64,
            "case {case}: events not conserved ({:?})",
            guard.counts()
        );
    }
}

/// Resuming the stage pipeline from any intermediate artifact yields the
/// same model as the one-shot composition.
#[test]
fn resume_from_any_stage_matches_full_fit() {
    let mut rng = StdRng::seed_from_u64(0x2E5);
    for case in 0..15 {
        let devices = rng.gen_range(3usize..=4);
        let len = rng.gen_range(40usize..120);
        let events: Vec<BinaryEvent> = (0..len)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i as u64 * 60),
                    DeviceId::from_index(rng.gen_range(0..devices)),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let config = random_config(&mut rng);
        let reg = binary_registry(devices);
        let reference = causaliot::CausalIot::with_config(config.clone())
            .fit_binary(&reg, &events)
            .unwrap();
        let telemetry = iot_telemetry::TelemetryHandle::disabled();
        let pipeline = causaliot::FitPipeline::new(config, telemetry).unwrap();
        // Resume after each stage in turn.
        let preprocessed = pipeline.ingest_binary(devices, events.clone());
        let from_preprocessed = pipeline.resume_from(preprocessed.clone()).unwrap();
        let snapshotted = pipeline.snapshot(preprocessed).unwrap();
        let from_snapshotted = pipeline.resume_from(snapshotted.clone()).unwrap();
        let mined = pipeline.mine(snapshotted);
        let from_mined = pipeline.resume_from(mined.clone()).unwrap();
        let calibrated = pipeline.calibrate(mined);
        let from_calibrated = pipeline.resume_from(calibrated).unwrap();
        for (label, model) in [
            ("preprocessed", &from_preprocessed),
            ("snapshotted", &from_snapshotted),
            ("mined", &from_mined),
            ("calibrated", &from_calibrated),
        ] {
            assert_eq!(model.dig(), reference.dig(), "case {case} from {label}");
            assert_eq!(
                model.threshold().to_bits(),
                reference.threshold().to_bits(),
                "case {case} from {label}"
            );
        }
    }
}

/// A live stream mixing faithful automation traffic with ghost flips,
/// over the same devices the model was fitted on.
fn live_stream(rng: &mut StdRng, devices: usize, len: usize) -> Vec<BinaryEvent> {
    (0..len as u64)
        .map(|i| {
            BinaryEvent::new(
                Timestamp::from_secs(1_000_000 + i * 30),
                DeviceId::from_index(rng.gen_range(0..devices)),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

/// `observe_batch_into` is bit-identical to N sequential `observe_with`
/// calls for ANY split of the stream into batches (sizes 1..=64),
/// including degraded segments scored against a random
/// [`causaliot::StaleSet`]; the verdict-free paths keep the same counters,
/// and the scores-only path surfaces the same scores. This is the
/// contract the hub's burst fast path rests on.
#[test]
fn observe_batch_matches_sequential_for_any_split() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..30 {
        let devices = rng.gen_range(3usize..6);
        let reg = binary_registry(devices);
        let train = random_events(&mut rng, devices, 600);
        let model = causaliot::CausalIot::with_config(random_config(&mut rng))
            .fit_binary(&reg, &train)
            .unwrap();
        let stream_len = rng.gen_range(64..400);
        let stream = live_stream(&mut rng, devices, stream_len);

        let mut sequential = model.clone().into_monitor();
        let mut batched = model.clone().into_monitor();
        // The verdict-free path must keep the same session counters as
        // the verdict-producing ones over the same splits.
        let mut stats_only = model.clone().into_monitor();
        let mut stats_scored = 0usize;
        // The scores-only path (the one drift rides) must surface the
        // sequential scores, bit for bit, and keep the same counters.
        let mut scores_only = model.clone().into_monitor();
        let mut scores_scored = 0usize;
        let mut scores: Vec<f64> = Vec::with_capacity(stream.len());
        let mut expected: Vec<causaliot::Verdict> = Vec::with_capacity(stream.len());
        let mut got: Vec<causaliot::Verdict> = Vec::with_capacity(stream.len());
        let mut offset = 0usize;
        while offset < stream.len() {
            let size = rng.gen_range(1usize..=64).min(stream.len() - offset);
            let segment = &stream[offset..offset + size];
            stats_only.observe_batch_stats_only(segment, &mut stats_scored);
            scores_only.observe_batch_scores_only(segment, &mut scores_scored, &mut |_, score| {
                scores.push(score)
            });
            if rng.gen_bool(0.35) {
                // Degraded segment: some devices are stale, confidence
                // discounts must match event for event.
                let mut stale = causaliot::StaleSet::all_live(devices);
                for d in 0..devices {
                    if rng.gen_bool(0.4) {
                        stale.mark(DeviceId::from_index(d));
                    }
                }
                let ctx = causaliot::ObserveCtx::with_stale(&stale);
                for event in segment {
                    expected.push(sequential.observe_with((*event).into(), &ctx).unwrap());
                }
                batched.observe_batch_into(segment, &ctx, &mut got);
            } else {
                for event in segment {
                    expected.push(sequential.observe(*event));
                }
                batched.observe_batch_into(segment, &causaliot::ObserveCtx::new(), &mut got);
            }
            offset += size;
        }
        assert_eq!(got.len(), expected.len(), "case {case}");
        for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g.score.to_bits(),
                e.score.to_bits(),
                "case {case} event {i}: scores diverged"
            );
            assert_eq!(g, e, "case {case} event {i}");
        }
        // The two monitors must also agree on their final session state.
        assert_eq!(
            sequential.report().events_observed,
            batched.report().events_observed,
            "case {case}"
        );
        // The stats-only monitor saw every event and ends with the exact
        // counters of the sequential session: same event count, same
        // alarm tallies by kind, same longest tracked chain — even though
        // it never materialised a single verdict.
        assert_eq!(stats_scored, stream.len(), "case {case}");
        let expected_report = sequential.report();
        let stats_report = stats_only.report();
        assert_eq!(
            stats_report.events_observed, expected_report.events_observed,
            "case {case}: stats-only event count diverged"
        );
        assert_eq!(
            stats_report.contextual_alarms, expected_report.contextual_alarms,
            "case {case}: stats-only contextual alarms diverged"
        );
        assert_eq!(
            stats_report.collective_alarms, expected_report.collective_alarms,
            "case {case}: stats-only collective alarms diverged"
        );
        assert_eq!(
            stats_report.max_tracking_len, expected_report.max_tracking_len,
            "case {case}: stats-only max tracking length diverged"
        );
        assert_eq!(
            stats_only.tracking_len(),
            sequential.tracking_len(),
            "case {case}: stats-only tracking window length diverged"
        );
        assert_eq!(scores_scored, stream.len(), "case {case}");
        assert_eq!(scores.len(), expected.len(), "case {case}");
        for (i, (s, e)) in scores.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                s.to_bits(),
                e.score.to_bits(),
                "case {case} event {i}: scores-only score diverged"
            );
        }
        let scores_report = scores_only.report();
        assert_eq!(
            scores_report.events_observed, expected_report.events_observed,
            "case {case}: scores-only event count diverged"
        );
        assert_eq!(
            scores_report.contextual_alarms, expected_report.contextual_alarms,
            "case {case}: scores-only contextual alarms diverged"
        );
        assert_eq!(
            scores_report.collective_alarms, expected_report.collective_alarms,
            "case {case}: scores-only collective alarms diverged"
        );
        assert_eq!(
            scores_report.max_tracking_len, expected_report.max_tracking_len,
            "case {case}: scores-only max tracking length diverged"
        );
        assert_eq!(
            scores_only.tracking_len(),
            sequential.tracking_len(),
            "case {case}: scores-only tracking window length diverged"
        );
    }
}

/// Refitting an undrifted model on the very window it was fitted from is
/// a *fixed point*: the refitted model is byte-identical (same CPT
/// counts, same threshold bits), hence verdict-identical on any probe
/// stream — for arbitrary homes and configurations.
#[test]
fn refit_on_training_window_is_fixed_point() {
    use causaliot::{FitPipeline, Refit};

    let mut rng = StdRng::seed_from_u64(0x5EF17);
    for case in 0..30 {
        let devices = rng.gen_range(3usize..=5);
        let len = rng.gen_range(40usize..160);
        let events: Vec<BinaryEvent> = (0..len)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(i as u64 * rng.gen_range(10..90)),
                    DeviceId::from_index(rng.gen_range(0..devices)),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let config = random_config(&mut rng);
        let reg = binary_registry(devices);
        let model = causaliot::CausalIot::with_config(config.clone())
            .fit_binary(&reg, &events)
            .unwrap_or_else(|e| panic!("case {case}: fit failed: {e}"));

        let pipeline = FitPipeline::new(
            model.config().clone(),
            iot_telemetry::TelemetryHandle::disabled(),
        )
        .unwrap_or_else(|e| panic!("case {case}: pipeline: {e}"));
        let refit = Refit::new(&model, SystemState::all_off(devices), events.clone());
        let refitted = pipeline
            .resume_from(refit)
            .unwrap_or_else(|e| panic!("case {case}: refit failed: {e}"));

        assert_eq!(
            refitted.save(),
            model.save(),
            "case {case}: refit on the training window must be a fixed point"
        );
        // And therefore verdict-identical on a fresh probe stream.
        let probe: Vec<BinaryEvent> = (0..32)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_secs(1_000_000 + i * 30),
                    DeviceId::from_index(rng.gen_range(0..devices)),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut old_mon = model.clone().into_monitor();
        let mut new_mon = refitted.into_monitor();
        for (i, event) in probe.iter().enumerate() {
            assert_eq!(
                old_mon.observe(*event),
                new_mon.observe(*event),
                "case {case}: verdict {i} diverged"
            );
        }
    }
}
