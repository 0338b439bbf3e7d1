//! Criterion benches for the Event Monitor: per-event validation cost
//! (expected O(1), Section V-D) and end-to-end stream throughput.

use std::sync::Arc;

use causaliot::miner::{mine_dig, MinerConfig};
use causaliot::monitor::{DetectorConfig, KSequenceDetector};
use causaliot::snapshot::SnapshotData;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iot_model::{BinaryEvent, DeviceId, StateSeries, SystemState, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_dig(n: usize) -> (Arc<causaliot::graph::Dig>, Vec<BinaryEvent>) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut events = Vec::new();
    let mut prev = false;
    let mut t = 0u64;
    for _ in 0..300 {
        for d in 0..n {
            let value = if d == 0 {
                rng.gen_bool(0.5)
            } else if rng.gen_bool(0.9) {
                prev
            } else {
                !prev
            };
            prev = value;
            events.push(BinaryEvent::new(
                Timestamp::from_secs(t),
                DeviceId::from_index(d),
                value,
            ));
            t += 1;
        }
    }
    let series = StateSeries::derive(SystemState::all_off(n), events.clone());
    let data = SnapshotData::from_series(&series, 2);
    (Arc::new(mine_dig(&data, &MinerConfig::default())), events)
}

fn bench_observe_by_devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/observe");
    for &n in &[8usize, 16, 32] {
        let (dig, events) = make_dig(n);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut detector = KSequenceDetector::new(
                    Arc::clone(&dig),
                    SystemState::all_off(n),
                    DetectorConfig::new(0.99, 1),
                );
                for &event in &events {
                    std::hint::black_box(detector.observe(event));
                }
            })
        });
    }
    group.finish();
}

fn bench_collective_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/k_max");
    let (dig, events) = make_dig(16);
    for &k_max in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k_max), &k_max, |b, &k_max| {
            b.iter(|| {
                let mut detector = KSequenceDetector::new(
                    Arc::clone(&dig),
                    SystemState::all_off(16),
                    DetectorConfig::new(0.9, k_max),
                );
                for &event in &events {
                    std::hint::black_box(detector.observe(event));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_observe_by_devices, bench_collective_tracking);
criterion_main!(benches);
