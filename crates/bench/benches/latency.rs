//! Benchmarks for the Figure 10/12 latency machinery: the analytic model
//! and the validating queueing simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use harvest_service::{LatencyModel, SearchServer};
use harvest_sim::obs::Recorder;
use std::hint::black_box;

fn bench_latency(c: &mut Criterion) {
    let model = LatencyModel::paper_calibrated();

    c.bench_function("fig10_p99_single_server", |b| {
        b.iter(|| black_box(model.p99_ms(black_box(0.4), black_box(3))))
    });

    // A 102-server fleet sample, as one minute of Figure 10 computes.
    let loads: Vec<(f64, u32)> = (0..102)
        .map(|i| (0.2 + (i % 7) as f64 * 0.08, (i % 5) as u32))
        .collect();
    c.bench_function("fig10_fleet_p99_102_servers", |b| {
        b.iter(|| black_box(model.fleet_p99_ms(black_box(&loads), 42, 7)))
    });

    // The discrete-event validation path.
    let server = SearchServer::lucene_like();
    let mut group = c.benchmark_group("fig10_queueing_sim_10k_requests");
    group.sample_size(10);
    group.bench_function("rho_0.5", |b| {
        b.iter(|| black_box(server.run(0.5, 10_000, 1, &mut Recorder::off())))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_latency
}
criterion_main!(benches);
