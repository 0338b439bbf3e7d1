//! `realtime`: 256 homes' raw readings merged in timestamp order, each
//! preprocessed by the producer and submitted as its own job, with the
//! ingest guard, flight recorder, WAL + snapshots and a quiet drift
//! detector armed. After the last tick the hub is dropped without a
//! shutdown (a crash) and `Hub::recover` rebuilds it from disk.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use causaliot_core::IngestPolicy;
use iot_model::{BinaryEvent, Timestamp};
use iot_serve::{DurabilityConfig, DurabilityPolicy, HomeId, Hub, HubConfig, SubmitError};
use iot_telemetry::TelemetryHandle;

use crate::harness::{self, glue_ns, hub_worker, Ledger, Metrics, Snap, StateDir};
use crate::inputs::{self, derive_seed, stream, Gateway, HomeStream, ServingModel, Testbed};
use crate::layers::{self, HomeInput, Scoring};
use crate::trace::{totals, Tracer};
use crate::{procfs, Args, Outcome};

const MODELS: u64 = 4;
const HOMES: usize = 256;
/// Raw readings per tick. A tick preprocesses all of them, submits the
/// survivors one job each, then drains the hub.
const TICK_RAW: usize = 16384;
/// Length of the precomputed timestamp-merged arrival order; longer runs
/// repeat it while every home's own stream keeps advancing in time.
const ORDER_LEN: usize = 1 << 20;
/// Copies of the crashed state recovered, for a steady CPU figure.
const RECOVERIES: usize = 7;
/// Snapshot (and fsync) cadence per home, in events.
const SNAPSHOT_EVERY: u64 = 4096;
/// Scored events per home replayed in the isolated layer prices.
const ISOLATED_PER_HOME: usize = 2048;

/// The hub's durability: the default snapshot cadence, with the WAL
/// fsynced at that same cadence rather than every 64 events / 5 ms. The
/// state directory sits inside the benchmark's checkout, which may be on
/// a real disk, and real-disk fsync latency is outside this benchmark.
fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Interval {
            events: SNAPSHOT_EVERY,
            max_delay: Duration::from_secs(3600),
        },
        snapshot_every: SNAPSHOT_EVERY,
        ..DurabilityConfig::at(dir)
    }
}

fn hub_config(dir: &Path) -> HubConfig {
    HubConfig::builder()
        .workers(1)
        .record_verdicts(false)
        .ingest(IngestPolicy::default())
        .flight_recorder(layers::FLIGHT_CAPACITY)
        .durability(durability(dir))
        .adaptation(layers::quiet_adaptation())
        .try_build()
        .expect("the realtime hub config is valid")
}

/// Per-home arrival streams and the merged order they arrive in.
struct Arrivals {
    streams: Vec<HomeStream>,
    model_of: Vec<usize>,
    order: Vec<u16>,
}

fn arrivals(models: &[ServingModel], seed: u64) -> Arrivals {
    let model_of: Vec<usize> = (0..HOMES).map(|h| h % models.len()).collect();
    let streams: Vec<HomeStream> = (0..HOMES)
        .map(|h| {
            let held_out = &models[model_of[h]].held_out;
            let phase = derive_seed(seed, stream::HOME_PHASE, h as u64) as usize % held_out.len();
            HomeStream::new(held_out.clone(), phase, Timestamp::from_secs(0))
        })
        .collect();
    let mut cursors = streams.clone();
    let mut heap: BinaryHeap<Reverse<(u64, u16)>> = cursors
        .iter()
        .enumerate()
        .map(|(h, s)| Reverse((s.at(0).time.as_millis(), h as u16)))
        .collect();
    let mut order = Vec::with_capacity(ORDER_LEN);
    while order.len() < ORDER_LEN {
        let Reverse((_, h)) = heap.pop().expect("every home stream is endless");
        order.push(h);
        let s = &mut cursors[h as usize];
        s.next();
        heap.push(Reverse((s.at(s.offered()).time.as_millis(), h)));
    }
    Arrivals {
        streams,
        model_of,
        order,
    }
}

struct Setup {
    models: Vec<ServingModel>,
    arrivals: Arrivals,
    gateways: Vec<Gateway>,
    hub: Hub,
    homes: Vec<HomeId>,
}

/// Everything before the first timed call: traces, model fits, the
/// arrival order, hub start and the registration of every home, whose
/// durable state (checkpoint, WAL segment) is written here.
fn setup(testbed: &Testbed, seed: u64, dir: &Path, tr: &mut Tracer) -> Setup {
    let models = inputs::serving_models(testbed, seed, MODELS, tr);
    let arrivals = arrivals(&models, seed);
    let gateways = arrivals
        .model_of
        .iter()
        .map(|&m| Gateway::new(&models[m].model))
        .collect();
    let mut hub = Hub::with_telemetry(hub_config(dir), &TelemetryHandle::disabled());
    let homes = arrivals
        .model_of
        .iter()
        .enumerate()
        .map(|(h, &m)| hub.register(&format!("home-{h}"), &models[m].model))
        .collect();
    hub.drain();
    Setup {
        models,
        arrivals,
        gateways,
        hub,
        homes,
    }
}

struct Served {
    clocks: harness::Span,
    rates: harness::RateWindows,
    ticks_us: Vec<f64>,
    raw: u64,
    submitted: u64,
    queue_full: u64,
    submit_errors: u64,
    offered: Vec<u64>,
}

fn serve(s: &mut Setup, budget: Duration, tr: &mut Tracer) -> Served {
    let producer = procfs::current_tid();
    let worker = hub_worker();
    let mut pending: Vec<(u16, BinaryEvent)> = Vec::with_capacity(TICK_RAW);
    let mut pos = 0usize;
    let order = &s.arrivals.order;
    let start = Snap::take(producer, Some(worker));
    let mut served = Served {
        clocks: harness::Span::default(),
        rates: harness::RateWindows::start(),
        ticks_us: Vec::new(),
        raw: 0,
        submitted: 0,
        queue_full: 0,
        submit_errors: 0,
        offered: Vec::new(),
    };
    let deadline = Instant::now() + budget;
    let mut tick = 0u64;
    while Instant::now() < deadline {
        tr.set_group(tick);
        let began = Instant::now();
        let tick_span = tr.begin("tick");
        let pre = tr.begin("preprocess");
        for _ in 0..TICK_RAW {
            let h = order[pos];
            pos = if pos + 1 == order.len() { 0 } else { pos + 1 };
            let event = s.arrivals.streams[h as usize]
                .next()
                .expect("home streams are endless");
            if let Some(binary) = s.gateways[h as usize].offer(&event) {
                pending.push((h, binary));
            }
        }
        tr.end(pre);
        let submit = tr.begin("submit");
        for &(h, binary) in &pending {
            loop {
                match s.hub.submit(s.homes[h as usize], binary) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull { .. }) => {
                        served.queue_full += 1;
                        tr.span("drain", |_| s.hub.drain());
                    }
                    Err(_) => {
                        served.submit_errors += 1;
                        break;
                    }
                }
            }
        }
        served.submitted += pending.len() as u64;
        pending.clear();
        tr.end(submit);
        tr.span("drain", |_| s.hub.drain());
        tr.end(tick_span);
        served.ticks_us.push(began.elapsed().as_secs_f64() * 1e6);
        tick += 1;
        served.rates.mark(tick * TICK_RAW as u64);
    }
    served.clocks = start.until(&Snap::take(producer, Some(worker)));
    served.raw = tick * TICK_RAW as u64;
    served.offered = s.arrivals.streams.iter().map(|st| st.offered()).collect();
    served
}

/// Segment files of a durability directory, for the isolated replay.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for home in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(home.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = file.path();
            let name = file.file_name();
            if iot_serve::wal::parse_segment_epoch(&name.to_string_lossy()).is_some() {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

struct Run {
    setup_cpu_s: Vec<f64>,
    served: Served,
    recover_s: f64,
    models: Vec<ServingModel>,
}

fn run(
    args: &Args,
    testbed: &Testbed,
    setups: usize,
    tr: &mut Tracer,
    state: &StateDir,
    ledger: &mut Ledger,
    keep_segments: Option<&Path>,
) -> Run {
    let wal_of = |i: usize| state.root().join(format!("wal-{i}"));
    // A traced invocation runs twice: start from empty directories.
    for i in 0..setups {
        let _ = std::fs::remove_dir_all(wal_of(i));
    }
    let (mut s, setup_cpu_s) =
        harness::repeated_setup(setups, |i| setup(testbed, args.seed, &wal_of(i), tr));
    for i in 0..setups - 1 {
        let _ = std::fs::remove_dir_all(wal_of(i));
    }
    let wal = wal_of(setups - 1);
    let served = serve(&mut s, args.budget(), tr);
    let stats = s.hub.stats();
    // The crash: no shutdown, so no final snapshots, and events the
    // ingest guard still holds for reordering are lost unscored.
    let Setup { models, hub, .. } = s;
    drop(hub);
    harness::wait_for_hub_threads_to_exit();

    ledger.attempted += served.raw;
    ledger.failed += served.submit_errors;
    let scored: Vec<u64> = stats.homes.iter().map(|h| h.events_scored).collect();
    ledger.check(stats.dead_letters() == 0, || {
        format!(
            "realtime: {} dead letters on a clean stream",
            stats.dead_letters()
        )
    });
    let quarantined = stats.homes.iter().filter(|h| h.quarantined).count();
    ledger.check(quarantined == 0, || {
        format!("realtime: {quarantined} homes quarantined")
    });

    // Recovery is timed on state at rest: the WAL tail the serving phase
    // left in the page cache, and the copies below, are on disk first.
    harness::sync_tree(&wal).expect("crashed state syncs");
    let copies: Vec<PathBuf> = (0..RECOVERIES)
        .map(|k| {
            let dir = state.root().join(format!("wal-copy-{k}"));
            let _ = std::fs::remove_dir_all(&dir);
            harness::copy_tree(&wal, &dir).expect("crashed state copies");
            dir
        })
        .collect();
    if let Some(keep) = keep_segments {
        harness::copy_tree(&wal, keep).expect("crashed state copies");
    }
    let disabled = TelemetryHandle::disabled();
    let mut cpu = Vec::with_capacity(RECOVERIES);
    for (k, dir) in copies.iter().enumerate() {
        let (recovered, s) = harness::cpu_of(|| {
            let out = tr.span("recover", |_| {
                Hub::recover_with_telemetry(hub_config(dir), &disabled)
            });
            if let Ok((hub, _)) = &out {
                hub.drain();
            }
            out
        });
        cpu.push(s);
        ledger.attempted += HOMES as u64;
        let (hub, report) = match recovered {
            Ok(ok) => ok,
            Err(e) => {
                ledger.check(false, || format!("realtime: recovery {k} failed: {e}"));
                continue;
            }
        };
        for (h, home) in report.homes.iter().enumerate() {
            ledger.check(home.durable_events == scored[h], || {
                format!(
                    "realtime: home {h} recovered {} durable events, {} were scored",
                    home.durable_events, scored[h]
                )
            });
        }
        if k == 0 {
            let reports = hub.shutdown();
            for (h, r) in reports.iter().enumerate() {
                ledger.check(r.monitor.events_observed == scored[h], || {
                    format!(
                        "realtime: home {h}'s recovered monitor observed {} events, {} were scored",
                        r.monitor.events_observed, scored[h]
                    )
                });
            }
        } else {
            drop(hub);
        }
        harness::wait_for_hub_threads_to_exit();
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&wal);
    Run {
        setup_cpu_s,
        served,
        recover_s: crate::stats::median(&cpu),
        models,
    }
}

/// The events each home offered and had scored, regenerated from its
/// stream (capped), for the isolated replays.
fn isolated_inputs<'a>(
    models: &'a [ServingModel],
    seed: u64,
    offered: &[u64],
) -> Vec<HomeInput<'a>> {
    let a = arrivals(models, seed);
    a.streams
        .into_iter()
        .zip(&a.model_of)
        .zip(offered)
        .map(|((stream, &m), &offered)| {
            let model = &models[m].model;
            let mut gateway = Gateway::new(model);
            let mut raw = Vec::new();
            let mut scored = Vec::new();
            for event in stream.take(offered as usize) {
                raw.push(event);
                if let Some(b) = gateway.offer(&event) {
                    scored.push(b);
                    if scored.len() == ISOLATED_PER_HOME {
                        break;
                    }
                }
            }
            HomeInput { model, raw, scored }
        })
        .collect()
}

pub fn main(args: &Args, state: &StateDir) -> Outcome {
    let testbed = Testbed::new();
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    if !args.trace {
        let mut tr = Tracer::new(false);
        let r = run(args, &testbed, 3, &mut tr, state, &mut ledger, None);
        let c = r.served.clocks;
        crate::put_end_to_end(
            &mut metrics,
            &r.served.rates,
            r.served.raw as f64 / c.cpu_s,
            r.recover_s,
            &r.setup_cpu_s,
        );
        return Outcome::new(ledger, metrics, c, r.served.raw);
    }
    let mut off = Tracer::new(false);
    let base = run(args, &testbed, 1, &mut off, state, &mut ledger, None);
    drop(base.models);
    let mut tr = Tracer::new(true);
    let crashed = state.root().join("crashed");
    let r = run(
        args,
        &testbed,
        1,
        &mut tr,
        state,
        &mut ledger,
        Some(&crashed),
    );
    let c = r.served.clocks;
    let raw = r.served.raw as f64;
    let submitted = r.served.submitted as f64;
    crate::put_context(&mut metrics, &c, raw, &r.served.ticks_us);
    let untraced = base.served.raw as f64 / base.served.clocks.cpu_s;
    metrics.put(
        "tracing.overhead_frac",
        (raw / c.cpu_s) / untraced - 1.0,
        "frac",
    );
    metrics.put(
        "producer.cpu_ns_per_event",
        c.producer_cpu_s * 1e9 / raw,
        "ns",
    );
    // The worker only sees the events that survive preprocessing.
    let worker_ns = c.worker_cpu_s * 1e9 / submitted;
    metrics.put("worker.cpu_ns_per_event", worker_ns, "ns");
    let t = totals(tr.spans());
    crate::put_hub_spans(&mut metrics, &t, submitted, r.served.queue_full);

    let homes = isolated_inputs(&r.models, args.seed, &r.served.offered);
    let iso = state.fresh("isolated");
    let l = layers::serving(
        &homes,
        Scoring::PerEvent,
        &segments(&crashed),
        &iso,
        &mut metrics,
    );
    // The timed path's own preprocessing figures replace the isolated
    // replay's, which exist for the workloads that do not preprocess.
    if let Some(pre) = t.get("preprocess") {
        metrics.put("preprocess.ns_per_raw", pre.total_ns as f64 / raw, "ns");
    }
    metrics.put("preprocess.kept_frac", submitted / raw, "frac");
    metrics.put(
        "glue.ns_per_event",
        glue_ns(
            worker_ns,
            &[
                l.ingest_ns,
                l.monitor_ns,
                l.drift_ns,
                l.flight_ns,
                l.wal_append_ns,
            ],
        ),
        "ns",
    );
    crate::put_fit_spans(&mut metrics, &t, r.models.iter().map(|m| m.ci_tests));
    let fit_inputs: Vec<_> = r.models.iter().map(|m| (&m.model, &m.train)).collect();
    layers::fit_side(
        &fit_inputs,
        testbed.registry(),
        &state.fresh("store"),
        &mut metrics,
    );
    Outcome::new(ledger, metrics, c, r.served.raw).with_spans(tr)
}
