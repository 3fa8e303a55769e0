//! Figures 1–6: the behaviour-pattern characterization of §3.
//!
//! The paper characterizes ten production datacenters from AutoPilot
//! telemetry. Here the synthetic datacenter profiles are characterized
//! with the same pipeline the real system would use: generate each
//! tenant's month of utilization, classify it with the FFT classifier
//! (not the generator's label), and replay three years of reimages.

use harvest_signal::classify::{classify_with, ClassifierConfig, UtilizationPattern};
use harvest_signal::spectrum::{dominant_period_samples, periodicity_strength, SpectrumScratch};
use harvest_sim::metrics::fraction_at_or_below;
use harvest_sim::rng::{indexed_rng, stream_rng};
use harvest_trace::datacenter::DatacenterProfile;
use harvest_trace::gen::UtilGen;
use harvest_trace::reimage::{group_changes, per_server_monthly_rates};
use harvest_trace::{SAMPLES_PER_DAY, SAMPLES_PER_MONTH};

use crate::checkpoint::{sweep_plain, sweep_plain_with};
use crate::report::{num, pct, Table};
use crate::scale::Scale;

/// The five datacenters the paper's Figures 4–6 plot.
const REIMAGE_DCS: [usize; 5] = [0, 7, 9, 3, 1];

/// Figure 1: sample periodic and unpredictable traces in the time and
/// frequency domains.
pub(crate) fn fig1(scale: &Scale) -> String {
    let profile = DatacenterProfile::dc(9);
    let tenants = profile.sample_tenants(scale.seed);
    let periodic = tenants
        .iter()
        .find(|t| matches!(t.util, UtilGen::Periodic(_)))
        .expect("DC-9 has periodic tenants");
    let unpredictable = tenants
        .iter()
        .find(|t| matches!(t.util, UtilGen::Unpredictable(_)))
        .expect("DC-9 has unpredictable tenants");

    let mut table = Table::new(
        "Figure 1: sample traces, time and frequency domains",
        &[
            "tenant",
            "mean",
            "peak",
            "cv",
            "dominant period (days)",
            "diurnal strength",
        ],
    );
    for (label, spec) in [("periodic", periodic), ("unpredictable", unpredictable)] {
        let mut rng = stream_rng(scale.seed, label);
        let trace = spec.util.generate(&mut rng, SAMPLES_PER_MONTH);
        let period = dominant_period_samples(trace.values())
            .map(|p| p / SAMPLES_PER_DAY as f64)
            .unwrap_or(f64::NAN);
        let strength = periodicity_strength(trace.values(), SAMPLES_PER_DAY as f64);
        table.row(&[
            label.to_string(),
            num(trace.mean(), 3),
            num(trace.peak(), 3),
            num(trace.cv(), 3),
            num(period, 2),
            num(strength, 3),
        ]);
    }
    table.note("paper: the periodic trace shows a strong spike at the one-day frequency (31 peaks in a 31-day month); the unpredictable trace's spectrum decays with frequency");
    table.note("shape check: dominant period ~1 day and high strength for periodic; no diurnal concentration for unpredictable");
    table.render()
}

/// Runs the FFT classifier over every tenant of every datacenter.
///
/// The thousands of (generate trace, FFT, classify) units are
/// independent — each derives its RNG from its tenant index — so they
/// fan out over `scale.jobs` workers, and each worker reuses one
/// [`SpectrumScratch`] across every trace it classifies instead of
/// allocating a fresh spectrum per tenant.
/// Returns each DC's per-tenant classifications plus any harness notes
/// (quarantined tenants are skipped from the aggregates and named in
/// the note).
type DcClassifications = Vec<(String, Vec<(UtilizationPattern, usize)>)>;

fn classify_all(scale: &Scale) -> (DcClassifications, Vec<String>) {
    let classifier = ClassifierConfig::default();
    let mut notes = Vec::new();
    let per_dc = DatacenterProfile::all()
        .into_iter()
        .map(|profile| {
            let profile = profile.scaled(scale.dc_scale.max(0.05));
            let tenants = profile.sample_tenants(scale.seed);
            let indices: Vec<usize> = (0..tenants.len()).collect();
            let name = profile.name();
            let swept = sweep_plain_with(
                scale,
                "char-trace",
                &indices,
                |&i| format!("{name}/t{i}"),
                SpectrumScratch::new,
                |scratch, &i, _cancel| {
                    let t = &tenants[i];
                    let mut rng = indexed_rng(scale.seed, "char-trace", i as u64);
                    let trace = t.util.generate(&mut rng, SAMPLES_PER_MONTH);
                    (
                        classify_with(trace.values(), &classifier, scratch),
                        t.n_servers,
                    )
                },
            );
            if let Some(note) = swept.note {
                notes.push(note);
            }
            let per_tenant: Vec<(UtilizationPattern, usize)> =
                swept.results.into_iter().flatten().collect();
            (name, per_tenant)
        })
        .collect();
    (per_dc, notes)
}

/// Figure 2: percentage of primary tenants per class.
pub(crate) fn fig2(scale: &Scale) -> String {
    let mut table = Table::new(
        "Figure 2: percentage of primary tenants per class",
        &["datacenter", "periodic", "constant", "unpredictable"],
    );
    let (per_dc, notes) = classify_all(scale);
    for (name, tenants) in per_dc {
        let n = tenants.len() as f64;
        let count = |p: UtilizationPattern| {
            tenants.iter().filter(|(c, _)| *c == p).count() as f64 / n * 100.0
        };
        table.row(&[
            name,
            pct(count(UtilizationPattern::Periodic)),
            pct(count(UtilizationPattern::Constant)),
            pct(count(UtilizationPattern::Unpredictable)),
        ]);
    }
    for note in notes {
        table.note(note);
    }
    table.note("paper: periodic (user-facing) tenants are a small minority; the vast majority of tenants exhibit roughly constant utilization");
    table.render()
}

/// Figure 3: percentage of servers per class.
pub(crate) fn fig3(scale: &Scale) -> String {
    let mut table = Table::new(
        "Figure 3: percentage of servers per class",
        &["datacenter", "periodic", "constant", "unpredictable"],
    );
    let mut periodic_sum = 0.0;
    let mut rows = 0usize;
    let (per_dc, notes) = classify_all(scale);
    for (name, tenants) in per_dc {
        let total: usize = tenants.iter().map(|(_, s)| s).sum();
        let count = |p: UtilizationPattern| {
            tenants
                .iter()
                .filter(|(c, _)| *c == p)
                .map(|(_, s)| *s)
                .sum::<usize>() as f64
                / total as f64
                * 100.0
        };
        let per = count(UtilizationPattern::Periodic);
        periodic_sum += per;
        rows += 1;
        table.row(&[
            name,
            pct(per),
            pct(count(UtilizationPattern::Constant)),
            pct(count(UtilizationPattern::Unpredictable)),
        ]);
    }
    for note in notes {
        table.note(note);
    }
    table.note(format!(
        "paper: periodic tenants hold ~40% of servers on average; measured average {}",
        pct(periodic_sum / rows as f64)
    ));
    table.note("paper: ~75% of servers run periodic or constant tenants, whose history predicts the future");
    table.render()
}

/// Per-DC reimage data over three years (36 months).
struct ReimageData {
    per_server_rates: Vec<f64>,
    per_tenant_rates: Vec<f64>,
    /// `monthly_rates[month][tenant]`.
    monthly_rates: Vec<Vec<f64>>,
}

fn reimage_data(dc_id: usize, scale: &Scale) -> (ReimageData, Option<String>) {
    let months = 36;
    let profile = DatacenterProfile::dc(dc_id).scaled(scale.dc_scale.max(0.05));
    let tenants = profile.sample_tenants(scale.seed);
    // Three years of reimages per tenant, fanned out over the sweep
    // workers (the RNG stream is already indexed per tenant), then
    // folded back in tenant order so the aggregates are unchanged. A
    // quarantined tenant is skipped from the aggregates and named in
    // the returned harness note.
    let indices: Vec<usize> = (0..tenants.len()).collect();
    let swept = sweep_plain(
        scale,
        "char-reimage",
        &indices,
        |&i| format!("dc{dc_id}/t{i}"),
        |&i, _cancel| {
            let t = &tenants[i];
            let mut rng = indexed_rng(scale.seed, "char-reimage", (dc_id * 10_000 + i) as u64);
            let (events, rates) = t.reimage.generate(&mut rng, t.n_servers, months);
            let server_rates = per_server_monthly_rates(&events, t.n_servers, months);
            let tenant_rate =
                harvest_trace::reimage::tenant_monthly_rate(&events, t.n_servers, months);
            (server_rates, tenant_rate, rates)
        },
    );

    let mut per_server_rates = Vec::new();
    let mut per_tenant_rates = Vec::new();
    let mut monthly: Vec<Vec<f64>> = vec![Vec::new(); months];
    for (server_rates, tenant_rate, rates) in swept.results.into_iter().flatten() {
        per_server_rates.extend(server_rates);
        per_tenant_rates.push(tenant_rate);
        // Group tenants by their per-month reimage *frequency* (the
        // drifted model rate). Raw monthly counts would add Poisson
        // sampling noise that scales inversely with tenant size; on
        // scaled-down datacenters that noise would swamp the rank
        // consistency the paper measures on full-size tenants.
        for (m, rate) in rates.into_iter().enumerate() {
            monthly[m].push(rate);
        }
    }
    (
        ReimageData {
            per_server_rates,
            per_tenant_rates,
            monthly_rates: monthly,
        },
        swept.note,
    )
}

fn cdf_row(name: String, samples: &[f64], thresholds: &[f64]) -> Vec<String> {
    let mut row = vec![name];
    for &t in thresholds {
        row.push(pct(fraction_at_or_below(samples, t) * 100.0));
    }
    row
}

/// Figure 4: CDF of per-server reimages/month over three years.
pub(crate) fn fig4(scale: &Scale) -> String {
    let thresholds = [0.25, 0.5, 1.0, 1.5, 2.0];
    let mut table = Table::new(
        "Figure 4: CDF of per-server reimages per month (3 years)",
        &["datacenter", "<=0.25", "<=0.5", "<=1.0", "<=1.5", "<=2.0"],
    );
    for dc in REIMAGE_DCS {
        let (data, note) = reimage_data(dc, scale);
        table.row(&cdf_row(
            format!("DC-{dc}"),
            &data.per_server_rates,
            &thresholds,
        ));
        if let Some(note) = note {
            table.note(note);
        }
    }
    table.note("paper: at least 90% of servers are reimaged once or fewer times per month; a ~10% tail is reimaged frequently; DC-0 and DC-7 show substantially lower rates");
    table.render()
}

/// Figure 5: CDF of per-tenant reimages/server/month over three years.
pub(crate) fn fig5(scale: &Scale) -> String {
    let thresholds = [0.25, 0.5, 1.0, 1.5, 2.0];
    let mut table = Table::new(
        "Figure 5: CDF of per-tenant reimages per server per month (3 years)",
        &["datacenter", "<=0.25", "<=0.5", "<=1.0", "<=1.5", "<=2.0"],
    );
    for dc in REIMAGE_DCS {
        let (data, note) = reimage_data(dc, scale);
        table.row(&cdf_row(
            format!("DC-{dc}"),
            &data.per_tenant_rates,
            &thresholds,
        ));
        if let Some(note) = note {
            table.note(note);
        }
    }
    table.note("paper: at least 80% of tenants are reimaged once or fewer times per server per month, with good diversity across tenants (no near-vertical CDFs)");
    table.render()
}

/// Figure 6: CDF of tenant frequency-group changes month-over-month.
pub(crate) fn fig6(scale: &Scale) -> String {
    let thresholds = [2.0, 4.0, 8.0, 12.0, 20.0];
    let mut table = Table::new(
        "Figure 6: CDF of reimage frequency-group changes in 3 years (35 transitions)",
        &["datacenter", "<=2", "<=4", "<=8", "<=12", "<=20"],
    );
    let mut at8 = Vec::new();
    for dc in REIMAGE_DCS {
        let (data, note) = reimage_data(dc, scale);
        let changes: Vec<f64> = group_changes(&data.monthly_rates)
            .into_iter()
            .map(|c| c as f64)
            .collect();
        at8.push(fraction_at_or_below(&changes, 8.0));
        table.row(&cdf_row(format!("DC-{dc}"), &changes, &thresholds));
        if let Some(note) = note {
            table.note(note);
        }
    }
    let min_at8 = at8.iter().cloned().fold(f64::MAX, f64::min);
    table.note(format!(
        "paper: at least 80% of tenants changed groups 8 or fewer times out of 35; measured minimum across DCs: {}",
        pct(min_at8 * 100.0)
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::quick();
        s.dc_scale = 0.02;
        s
    }

    #[test]
    fn fig1_reports_both_patterns() {
        let out = fig1(&tiny());
        assert!(out.contains("periodic"));
        assert!(out.contains("unpredictable"));
    }

    #[test]
    fn fig2_constant_majority() {
        let out = fig2(&tiny());
        assert_eq!(out.matches("DC-").count(), 10);
    }

    #[test]
    fn fig6_rank_consistency_holds() {
        let scale = tiny();
        for dc in REIMAGE_DCS {
            let (data, _) = reimage_data(dc, &scale);
            let changes: Vec<f64> = group_changes(&data.monthly_rates)
                .into_iter()
                .map(|c| c as f64)
                .collect();
            let frac = fraction_at_or_below(&changes, 8.0);
            assert!(
                frac >= 0.7,
                "DC-{dc}: only {frac:.2} of tenants change groups <=8 times"
            );
        }
    }

    #[test]
    fn fig4_majority_below_one_reimage() {
        let scale = tiny();
        for dc in REIMAGE_DCS {
            let (data, _) = reimage_data(dc, &scale);
            let frac = fraction_at_or_below(&data.per_server_rates, 1.0);
            assert!(frac >= 0.75, "DC-{dc}: {frac:.2} of servers <=1/month");
        }
    }
}
