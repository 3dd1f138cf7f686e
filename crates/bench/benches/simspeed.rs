//! `sim_events_per_sec`: host-speed benches of the simulator fast path.
//!
//! These wrap the measurement loops in [`bench::simspeed`] — the same
//! ones the `simspeed` binary uses to write `BENCH_simspeed.json` — so
//! criterion's statistics and the pinned artifact always describe the
//! same workloads: timing-wheel callout churn at a 100k-pending
//! population, event-queue churn, and an end-to-end cold-cache `scp`
//! over the RAM-disk machine.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::simspeed;

const PENDING: usize = 100_000;

fn bench_callout_churn(c: &mut Criterion) {
    c.bench_function("sim_events_per_sec/callout_churn_100k_wheel", |b| {
        b.iter(|| black_box(simspeed::callout_churn_wheel(PENDING, 10_000).ops))
    });
}

fn bench_event_churn(c: &mut Criterion) {
    c.bench_function("sim_events_per_sec/event_queue_churn_100k", |b| {
        b.iter(|| black_box(simspeed::event_churn(PENDING, 10_000).ops))
    });
}

fn bench_scp_ram_e2e(c: &mut Criterion) {
    c.bench_function("sim_events_per_sec/scp_ram_8mb_blocks", |b| {
        b.iter(|| black_box(simspeed::scp_ram_run(8 << 20)))
    });
}

criterion_group!(
    benches,
    bench_callout_churn,
    bench_event_churn,
    bench_scp_ram_e2e
);
criterion_main!(benches);
