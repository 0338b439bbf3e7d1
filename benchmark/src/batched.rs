//! The hub's batched serving path: closed-loop ticks that send every
//! home's next batch as one `Hub::submit_batch` job and end in
//! `Hub::drain`, with no optional hub subsystem armed. `fleet_fit`'s
//! traced run drives it over the freshly fitted fleet to price the
//! batched monitor path and the amortised handoff.

use std::time::{Duration, Instant};

use causaliot_core::FittedModel;
use iot_model::{BinaryEvent, EventLog};
use iot_serve::{HomeId, Hub, HubConfig};

use crate::harness::{self, hub_worker, Snap};
use crate::procfs;
use crate::trace::Tracer;

/// Events per home per tick.
pub const BATCH: usize = 512;

/// One home's replay: its raw log binarised by the model's own
/// preprocessor, extended by one batch so every batch is a contiguous
/// slice.
pub struct Lap {
    pub model: usize,
    events: Vec<BinaryEvent>,
    len: usize,
}

impl Lap {
    pub fn new(model_index: usize, model: &FittedModel, log: &EventLog) -> Lap {
        let mut events = model
            .preprocessor()
            .expect("models fitted on raw logs carry their preprocessor")
            .transform(log);
        let len = events.len();
        assert!(len >= BATCH, "a lap must hold at least one batch");
        events.extend_from_within(..BATCH);
        Lap {
            model: model_index,
            events,
            len,
        }
    }

    /// The batch starting at `cursor`.
    pub fn batch(&self, cursor: usize) -> &[BinaryEvent] {
        &self.events[cursor..cursor + BATCH]
    }

    pub fn advance(&self, cursor: usize) -> usize {
        (cursor + BATCH) % self.len
    }

    pub fn lap(&self) -> &[BinaryEvent] {
        &self.events[..self.len]
    }
}

pub fn hub_config() -> HubConfig {
    HubConfig::builder()
        .workers(1)
        .record_verdicts(false)
        .try_build()
        .expect("the batched hub config is valid")
}

/// What a closed-loop batched serving phase did.
pub struct Served {
    pub clocks: harness::Span,
    pub ticks_us: Vec<f64>,
    pub events: u64,
    pub queue_full: u64,
    pub submit_errors: u64,
    pub rates: harness::RateWindows,
}

/// Drives `hub` in closed-loop ticks until `budget` has elapsed: every
/// home's next batch via `submit_batch`, then `drain`. A partially
/// accepted batch waits for the hub to drain and resubmits the rest.
pub fn serve(
    hub: &Hub,
    homes: &[HomeId],
    laps: &[&Lap],
    budget: Duration,
    tr: &mut Tracer,
) -> Served {
    let producer = procfs::current_tid();
    let worker = hub_worker();
    let mut cursors = vec![0usize; laps.len()];
    let per_tick = (laps.len() * BATCH) as u64;
    let start = Snap::take(producer, Some(worker));
    let mut served = Served {
        clocks: harness::Span::default(),
        ticks_us: Vec::new(),
        events: 0,
        queue_full: 0,
        submit_errors: 0,
        rates: harness::RateWindows::start(),
    };
    let deadline = Instant::now() + budget;
    let mut tick = 0u64;
    while Instant::now() < deadline {
        tr.set_group(tick);
        let began = Instant::now();
        let tick_span = tr.begin("tick");
        let submit = tr.begin("submit");
        for (h, lap) in laps.iter().enumerate() {
            let mut batch = lap.batch(cursors[h]);
            while !batch.is_empty() {
                match hub.submit_batch(homes[h], batch) {
                    Ok(outcome) => {
                        batch = &batch[outcome.accepted..];
                        if !outcome.is_complete() {
                            served.queue_full += 1;
                            tr.span("drain", |_| hub.drain());
                        }
                    }
                    Err(_) => {
                        served.submit_errors += 1;
                        break;
                    }
                }
            }
            cursors[h] = lap.advance(cursors[h]);
        }
        tr.end(submit);
        tr.span("drain", |_| hub.drain());
        tr.end(tick_span);
        served.ticks_us.push(began.elapsed().as_secs_f64() * 1e6);
        tick += 1;
        served.rates.mark(tick * per_tick);
    }
    served.clocks = start.until(&Snap::take(producer, Some(worker)));
    served.events = tick * per_tick;
    served
}

/// Replays the batches `ticks` ticks of [`serve`] sent to one home
/// through a fresh monitor, returning it.
pub fn replay(model: &FittedModel, lap: &Lap, ticks: u64) -> causaliot_core::OwnedMonitor {
    let mut monitor = model.clone().into_monitor();
    let mut cursor = 0usize;
    let mut count = 0usize;
    for _ in 0..ticks {
        monitor.observe_batch_stats_only(lap.batch(cursor), &mut count);
        cursor = lap.advance(cursor);
    }
    monitor
}
