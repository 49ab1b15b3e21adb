//! Criterion micro-benchmarks for the event-driven transport subsystem:
//! raw scheduler throughput, message codec round-trips, full evented rounds
//! against the legacy synchronous loop, and the sharded coordinator at
//! fleet scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fednum_core::encoding::FixedPointCodec;
use fednum_core::protocol::basic::BasicConfig;
use fednum_core::sampling::BitSampling;
use fednum_core::wire::ReportMessage;
use fednum_fedsim::round::{FederatedMeanConfig, FederatedOutcome};
use fednum_fedsim::FedError;
use fednum_transport::message::Report;
use fednum_transport::{EventQueue, InMemoryTransport, Message, RoundBuilder, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Builder-backed stand-ins for the removed free functions; the bench
// bodies below keep their original call shapes.
fn run_federated_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_federated_mean_transport(
    values: &[f64],
    config: &FederatedMeanConfig,
    transport: &mut dyn Transport,
    rng: &mut dyn Rng,
) -> Result<FederatedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .via(transport)
        .rng(rng)
        .run(values)
        .map(|out| out.flat().unwrap().clone())
}

fn run_sharded_mean(
    values: &[f64],
    config: &FederatedMeanConfig,
    shards: usize,
    seed: u64,
) -> Result<fednum_transport::ShardedOutcome, FedError> {
    RoundBuilder::new(config.clone())
        .sharded(shards, seed)
        .run(values)
        .map(|out| out.sharded().unwrap().clone())
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 2500) as f64).collect()
}

fn config(bits: u32) -> FederatedMeanConfig {
    FederatedMeanConfig::new(BasicConfig::new(
        FixedPointCodec::integer(bits),
        BitSampling::geometric(bits, 1.0),
    ))
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler_push_pop_100k_events", |b| {
        b.iter(|| {
            let mut q = EventQueue::new(7);
            for i in 0..100_000u64 {
                q.push((i % 977) as f64, i % 64, i);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.item);
            }
            black_box(acc)
        });
    });
}

fn bench_codec(c: &mut Criterion) {
    let frame = Message::Report(Report {
        nonce: 123_456,
        body: ReportMessage {
            task_id: 0xDEAD_BEEF,
            reports: vec![(7, true)],
        },
    });
    let encoded = frame.encode();
    c.bench_function("message_report_encode_decode", |b| {
        b.iter(|| {
            let bytes = black_box(&frame).encode();
            black_box(Message::decode(&bytes).unwrap())
        });
    });
    c.bench_function("message_report_decode_only", |b| {
        b.iter(|| black_box(Message::decode(black_box(&encoded)).unwrap()));
    });
}

fn bench_rounds(c: &mut Criterion) {
    let vs = values(10_000);
    let cfg = config(10);
    c.bench_function("legacy_round_10k_b10", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            black_box(
                run_federated_mean(&vs, &cfg, &mut rng)
                    .unwrap()
                    .outcome
                    .estimate,
            )
        });
    });
    c.bench_function("transport_round_10k_b10", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut t = InMemoryTransport::new(1);
            black_box(
                run_federated_mean_transport(&vs, &cfg, &mut t, &mut rng)
                    .unwrap()
                    .outcome
                    .estimate,
            )
        });
    });
}

fn bench_sharded(c: &mut Criterion) {
    let vs = values(100_000);
    let cfg = config(10);
    c.bench_function("sharded_round_100k_b10_8shards", |b| {
        b.iter(|| black_box(run_sharded_mean(&vs, &cfg, 8, 3).unwrap().outcome.estimate));
    });
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_codec,
    bench_rounds,
    bench_sharded
);
criterion_main!(benches);
