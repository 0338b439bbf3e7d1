//! `fleet_fit`: refits a fleet of 16 homes in passes. Each raw 21-day
//! trace goes through the four `FitPipeline` stages, the checkpoint
//! codec (`save` → `load`) and the model store (`put` + `commit`, then
//! `get`) — the layers the serving workloads never touch.

use std::collections::BTreeMap;
use std::time::Instant;

use causaliot_core::pipeline::checkpoint;
use causaliot_core::{FitPipeline, FittedModel};
use iot_fleet::{ModelHash, ModelStore};
use iot_model::EventLog;
use iot_serve::Hub;
use iot_telemetry::TelemetryHandle;

use crate::batched::{self, Lap};
use crate::harness::{self, cpu_of, glue_ns, Ledger, Metrics, Snap, StateDir};
use crate::inputs::{self, derive_seed, stream, Testbed};
use crate::layers::{self, HomeInput, Scoring};
use crate::trace::{totals, Tracer};
use crate::{procfs, Args, Outcome};

const TRACES: u64 = 16;
/// Store reloads timed for `recover_s`.
const RELOADS: usize = 100;
/// Length of the serving replay that prices the hub layers on the
/// fleet's freshly fitted models.
const SERVING_REPLAY: std::time::Duration = std::time::Duration::from_millis(1500);

struct Setup {
    traces: Vec<EventLog>,
    store: ModelStore,
    pipe: FitPipeline,
}

fn setup(testbed: &Testbed, seed: u64, state: &StateDir) -> Setup {
    let traces = (0..TRACES)
        .map(|i| testbed.trace(derive_seed(seed, stream::FLEET_TRACE, i)))
        .collect();
    let store = ModelStore::open_with_telemetry(state.fresh("store"), &TelemetryHandle::disabled())
        .expect("model store opens");
    Setup {
        traces,
        store,
        pipe: inputs::pipeline(),
    }
}

/// One fit's outputs, checked after the timed phase.
struct Fitted {
    trace: usize,
    saved_hash: u32,
    put_hash: ModelHash,
    loaded: FittedModel,
    got: FittedModel,
    ci_tests: u64,
}

struct Run {
    setup_cpu_s: Vec<f64>,
    clocks: harness::Span,
    rates: harness::RateWindows,
    ticks_us: Vec<f64>,
    raw_events: u64,
    fits: Vec<Fitted>,
    traces: Vec<EventLog>,
    recover_s: f64,
}

fn run(
    args: &Args,
    testbed: &Testbed,
    setups: usize,
    tr: &mut Tracer,
    state: &StateDir,
    ledger: &mut Ledger,
) -> Run {
    let (s, setup_cpu_s) = harness::repeated_setup(setups, |_| setup(testbed, args.seed, state));
    let disabled = TelemetryHandle::disabled();
    let producer = procfs::current_tid();
    let mut fits = Vec::new();
    let mut ticks_us = Vec::new();
    let mut raw_events = 0u64;
    let start = Snap::take(producer, None);
    let mut rates = harness::RateWindows::start();
    let deadline = Instant::now() + args.budget();
    'passes: loop {
        for (i, trace) in s.traces.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'passes;
            }
            tr.set_group(fits.len() as u64);
            let began = Instant::now();
            let fitted = tr.span("fit", |tr| {
                let fit = inputs::fit(&s.pipe, testbed.registry(), trace, tr);
                let text = tr.span("checkpoint.save", |_| fit.model.save());
                let loaded = tr.span("checkpoint.load", |_| {
                    FittedModel::load_with_telemetry(&text, &disabled).expect("saved model loads")
                });
                let home = format!("home-{i}");
                let put_hash = tr.span("store.put", |_| {
                    let hash = s.store.put(&loaded).expect("store put");
                    s.store.commit(&home, hash).expect("store commit");
                    hash
                });
                let got = tr.span("store.get", |_| s.store.get(put_hash).expect("store get"));
                Fitted {
                    trace: i,
                    saved_hash: checkpoint::content_hash(&text),
                    put_hash,
                    loaded,
                    got,
                    ci_tests: fit.ci_tests,
                }
            });
            ticks_us.push(began.elapsed().as_secs_f64() * 1e6);
            raw_events += trace.len() as u64;
            rates.mark(raw_events);
            fits.push(fitted);
        }
    }
    let clocks = start.until(&Snap::take(producer, None));
    ledger.attempted += fits.len() as u64;

    // Correctness: every pass fits each trace to the same model, and the
    // checkpoint codec and the store both keep its hash.
    let mut first: BTreeMap<usize, u32> = BTreeMap::new();
    for f in &fits {
        let expect = *first.entry(f.trace).or_insert(f.saved_hash);
        ledger.check(
            f.saved_hash == expect
                && f.put_hash.value() == expect
                && f.loaded.content_hash() == expect
                && f.got.content_hash() == expect,
            || format!("fleet_fit: trace {} did not keep its content hash", f.trace),
        );
    }

    let recover_s = reloads(&s.store, ledger);
    Run {
        setup_cpu_s,
        clocks,
        rates,
        ticks_us,
        raw_events,
        fits,
        traces: s.traces,
        recover_s,
    }
}

/// `recover_s` for the fitting service: after a restart the fleet is
/// reloaded from the store (open, resolve every home's head, load its
/// blob). Returns the median process CPU seconds of a reload.
fn reloads(store: &ModelStore, ledger: &mut Ledger) -> f64 {
    let mut cpu = Vec::with_capacity(RELOADS);
    for _ in 0..RELOADS {
        let (loaded, s) = cpu_of(|| {
            let store = ModelStore::open_with_telemetry(store.root(), &TelemetryHandle::disabled())
                .expect("model store reopens");
            store
                .homes()
                .expect("store lists its homes")
                .iter()
                .map(|home| {
                    let (_, hash) = store
                        .resolve(home)
                        .expect("lineage readable")
                        .expect("every fitted home has a head");
                    store.get(hash).expect("head blob loads")
                })
                .count()
        });
        cpu.push(s);
        ledger.attempted += 1;
        ledger.check(loaded as u64 == TRACES, || {
            format!("fleet_fit: store reload found {loaded} of {TRACES} homes")
        });
    }
    crate::stats::median(&cpu)
}

pub fn main(args: &Args, state: &StateDir) -> Outcome {
    let testbed = Testbed::new();
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    if !args.trace {
        let mut tr = Tracer::new(false);
        let r = run(args, &testbed, 3, &mut tr, state, &mut ledger);
        let c = r.clocks;
        crate::put_end_to_end(
            &mut metrics,
            &r.rates,
            r.raw_events as f64 / c.cpu_s,
            r.recover_s,
            &r.setup_cpu_s,
        );
        return Outcome::new(ledger, metrics, c, r.raw_events);
    }
    let mut off = Tracer::new(false);
    let base = run(args, &testbed, 1, &mut off, state, &mut ledger);
    let untraced = base.raw_events as f64 / base.clocks.cpu_s;
    drop(base);
    let mut tr = Tracer::new(true);
    let r = run(args, &testbed, 1, &mut tr, state, &mut ledger);
    let c = r.clocks;
    let raw = r.raw_events as f64;
    crate::put_context(&mut metrics, &c, raw, &r.ticks_us);
    metrics.put(
        "tracing.overhead_frac",
        (raw / c.cpu_s) / untraced - 1.0,
        "frac",
    );
    // The benchmark thread runs every stage but mining's worker threads,
    // which are the rest of the process.
    metrics.put(
        "producer.cpu_ns_per_event",
        c.producer_cpu_s * 1e9 / raw,
        "ns",
    );
    metrics.put(
        "worker.cpu_ns_per_event",
        (c.cpu_s - c.producer_cpu_s) * 1e9 / raw,
        "ns",
    );
    let t = totals(tr.spans());
    crate::put_fit_spans(&mut metrics, &t, r.fits.iter().map(|f| f.ci_tests));
    let per_fit_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6 / s.count.max(1) as f64)
    };
    let first_models: Vec<&FittedModel> = (0..r.traces.len())
        .filter_map(|i| r.fits.iter().find(|f| f.trace == i).map(|f| &f.got))
        .collect();
    let fit_inputs: Vec<_> = first_models.iter().copied().zip(&r.traces).collect();
    layers::fit_side(
        &fit_inputs,
        testbed.registry(),
        &state.fresh("iso-store"),
        &mut metrics,
    );
    // The timed path's own codec and store figures stand over the
    // isolated ones.
    metrics.put("checkpoint.save_ms", per_fit_ms("checkpoint.save"), "ms");
    metrics.put("checkpoint.load_ms", per_fit_ms("checkpoint.load"), "ms");
    metrics.put("store.put_ms", per_fit_ms("store.put"), "ms");
    metrics.put("store.get_ms", per_fit_ms("store.get"), "ms");

    // Serving-side layers, priced on the fleet's models replaying their
    // own binarised training traces.
    let laps: Vec<Lap> = first_models
        .iter()
        .enumerate()
        .map(|(i, m)| Lap::new(i, m, &r.traces[i]))
        .collect();
    let homes: Vec<HomeInput> = laps
        .iter()
        .map(|lap| HomeInput {
            model: first_models[lap.model],
            raw: r.traces[lap.model].events().to_vec(),
            scored: lap.lap().to_vec(),
        })
        .collect();
    let l = layers::serving(
        &homes,
        Scoring::Batched(batched::BATCH),
        &[],
        &state.fresh("isolated"),
        &mut metrics,
    );
    // Hub layers: a short batched serving replay of the same laps, whose
    // per-home counters must equal a direct monitor replay.
    let mut hub = Hub::with_telemetry(batched::hub_config(), &TelemetryHandle::disabled());
    let ids: Vec<_> = laps
        .iter()
        .enumerate()
        .map(|(i, lap)| hub.register(&format!("home-{i}"), first_models[lap.model]))
        .collect();
    hub.drain();
    let lap_refs: Vec<&Lap> = laps.iter().collect();
    let mut hub_tr = Tracer::new(true);
    let served = batched::serve(&hub, &ids, &lap_refs, SERVING_REPLAY, &mut hub_tr);
    let reports = hub.shutdown();
    harness::wait_for_hub_threads_to_exit();
    ledger.attempted += served.events;
    ledger.failed += served.submit_errors;
    let ticks = served.ticks_us.len() as u64;
    for (h, lap) in laps.iter().enumerate() {
        let expect = batched::replay(first_models[lap.model], lap, ticks).report();
        let got = &reports[h].monitor;
        ledger.check(
            got.events_observed == expect.events_observed
                && got.contextual_alarms == expect.contextual_alarms
                && got.collective_alarms == expect.collective_alarms
                && got.max_tracking_len == expect.max_tracking_len,
            || format!("fleet_fit home {h}: batched hub report diverges from a direct replay"),
        );
    }
    let events = served.events as f64;
    crate::put_hub_spans(
        &mut metrics,
        &totals(hub_tr.spans()),
        events,
        served.queue_full,
    );
    let worker_ns = served.clocks.worker_cpu_s * 1e9 / events;
    metrics.put(
        "glue.ns_per_event",
        glue_ns(worker_ns, &[l.monitor_ns]),
        "ns",
    );
    Outcome::new(ledger, metrics, c, r.raw_events).with_spans(tr)
}
