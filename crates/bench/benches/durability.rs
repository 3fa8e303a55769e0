//! Benchmark for the Figure 15 durability simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use harvest_cluster::Datacenter;
use harvest_dfs::durability::{simulate_durability, DurabilityConfig};
use harvest_dfs::placement::PlacementPolicy;
use harvest_sim::obs::Recorder;
use harvest_trace::datacenter::DatacenterProfile;
use std::hint::black_box;

fn bench_durability(c: &mut Criterion) {
    let dc = Datacenter::generate(&DatacenterProfile::dc(3).scaled(0.02), 42);
    let mut group = c.benchmark_group("fig15_durability_6_months");
    group.sample_size(10);
    for policy in [PlacementPolicy::Stock, PlacementPolicy::History] {
        group.bench_function(policy.label(), |b| {
            b.iter(|| {
                let mut cfg = DurabilityConfig::paper(policy, 3, 7);
                cfg.months = 6;
                black_box(simulate_durability(
                    black_box(&dc),
                    &cfg,
                    &mut Recorder::off(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_durability
}
criterion_main!(benches);
