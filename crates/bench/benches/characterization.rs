//! Benchmarks for the §3 characterization pipeline (Figures 1–6): trace
//! generation, FFT classification, K-Means, and reimage analysis.

use criterion::{criterion_group, criterion_main, Criterion};
use harvest_signal::classify::{classify, ClassifierConfig};
use harvest_signal::features::{normalize_features, TraceFeatures};
use harvest_signal::fft::fft_real_padded;
use harvest_signal::kmeans::kmeans;
use harvest_signal::spectrum::{
    periodicity_strength, power_spectrum_truncated_into, SpectrumScratch,
};
use harvest_sim::rng::{indexed_rng, stream_rng};
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::reimage::{group_changes, TenantReimageModel};
use harvest_trace::SAMPLES_PER_MONTH;
use std::hint::black_box;

fn month_trace() -> Vec<f64> {
    let profile = DatacenterProfile::dc(9);
    let tenants = profile.sample_tenants(42);
    let mut rng = stream_rng(42, "bench-trace");
    tenants[0]
        .util
        .generate(&mut rng, SAMPLES_PER_MONTH)
        .values()
        .to_vec()
}

fn bench_characterization(c: &mut Criterion) {
    // Trace generation: a month of samples for each of unscaled DC-9's
    // 520 tenants, each seeded as `Datacenter::from_specs` seeds it.
    let dc9 = DatacenterProfile::dc(9).sample_tenants(42);
    c.bench_function("trace_generate_dc9", |b| {
        b.iter(|| {
            for (i, tenant) in dc9.iter().enumerate() {
                let mut rng = indexed_rng(42, "tenant-trace", i as u64);
                black_box(tenant.util.generate(&mut rng, SAMPLES_PER_MONTH));
            }
        })
    });

    let trace = month_trace();

    // Figure 1: the FFT over a month of two-minute samples.
    c.bench_function("fig1_fft_month_trace", |b| {
        b.iter(|| black_box(fft_real_padded(black_box(&trace))))
    });
    c.bench_function("fig1_periodicity_strength", |b| {
        b.iter(|| black_box(periodicity_strength(black_box(&trace), 720.0)))
    });
    // The clustering service's per-tenant path: a 16384-point spectrum
    // through a scratch already planned for that length.
    let mut scratch = SpectrumScratch::new();
    power_spectrum_truncated_into(&trace, &mut scratch);
    c.bench_function("fig1_power_spectrum_warm_scratch", |b| {
        b.iter(|| {
            black_box(power_spectrum_truncated_into(
                black_box(&trace),
                &mut scratch,
            ))
        })
    });

    // Figures 2-3: the three-way classifier.
    let config = ClassifierConfig::default();
    c.bench_function("fig2_classify_tenant", |b| {
        b.iter(|| black_box(classify(black_box(&trace), &config)))
    });

    // The K-Means half of the clustering service.
    let features: Vec<Vec<f64>> = (0..120)
        .map(|i| {
            let shifted: Vec<f64> = trace.iter().map(|v| (v + i as f64 * 0.002) % 1.0).collect();
            TraceFeatures::extract(&shifted, 720.0).to_vec()
        })
        .collect();
    let normalized = normalize_features(&features);
    c.bench_function("fig2_kmeans_120_tenants_k13", |b| {
        b.iter(|| {
            let mut rng = stream_rng(1, "bench-kmeans");
            black_box(kmeans(&mut rng, black_box(&normalized), 13, 50))
        })
    });

    // Figures 4-6: a year of reimages for a 100-server tenant.
    let model = TenantReimageModel {
        base_rate: 0.3,
        redeploys_per_month: 0.2,
        redeploy_fraction: (0.3, 0.9),
        rate_drift_sigma: 0.15,
    };
    c.bench_function("fig4_reimage_year_100_servers", |b| {
        b.iter(|| {
            let mut rng = stream_rng(2, "bench-reimage");
            black_box(model.generate(&mut rng, 100, 12))
        })
    });

    // Figure 6: group-change analysis over 36 months x 200 tenants.
    let monthly: Vec<Vec<f64>> = (0..36)
        .map(|m| {
            (0..200)
                .map(|t| ((t * 7 + m) % 100) as f64 / 100.0)
                .collect()
        })
        .collect();
    c.bench_function("fig6_group_changes_36_months", |b| {
        b.iter(|| black_box(group_changes(black_box(&monthly))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_characterization
}
criterion_main!(benches);
