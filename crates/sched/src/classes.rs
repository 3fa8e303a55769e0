//! The clustering service (§4.1, §5.3).
//!
//! "The clustering algorithm periodically (e.g., once per day) takes the
//! most recent time series of CPU utilizations from the average server of
//! each primary tenant, runs the FFT algorithm on the series, groups the
//! tenants into the three patterns … and then uses the K-Means algorithm
//! to cluster the profiles in each pattern into classes. Clustering tags
//! each class with the utilization pattern, its average utilization, and
//! its peak utilization."
//!
//! For DC-9 the paper's clustering produces 23 classes (13 periodic, 5
//! constant, 5 unpredictable) — the default `k` per pattern here.
//!
//! Each tenant's trace is read once: one pass through
//! [`classify_with_features`] computes its mean, peak, standard
//! deviation and one spectrum (through one [`SpectrumScratch`] reused
//! across tenants), and the pattern, the K-Means features and the
//! class's utilization tags all come from those values. A scaled view
//! writes each tenant's scaled samples into one buffer reused across
//! tenants (an unscaled one lends its shared samples). The FFT
//! dominates the build; a second spectrum per tenant would double it.

use harvest_cluster::{Datacenter, ServerId, TenantId, UtilizationView};
use harvest_signal::classify::{classify_with_features, ClassifierConfig, UtilizationPattern};
use harvest_signal::features::{normalize_features, TraceFeatures};
use harvest_signal::kmeans::kmeans;
use harvest_signal::SpectrumScratch;
use harvest_sim::rng::stream_rng;

/// Default K-Means `k` for [periodic, constant, unpredictable] (the class
/// counts the paper reports for DC-9).
pub(crate) const DEFAULT_K: [usize; 3] = [13, 5, 5];

/// A pattern's index in [`UtilizationPattern::ALL`], the order classes
/// are clustered and numbered in (and the order of `k_per_pattern`).
fn pattern_slot(pattern: UtilizationPattern) -> usize {
    match pattern {
        UtilizationPattern::Periodic => 0,
        UtilizationPattern::Constant => 1,
        UtilizationPattern::Unpredictable => 2,
    }
}

/// One utilization class: a group of tenants with similar patterns.
#[derive(Debug, Clone)]
pub struct TenantClass {
    /// Class index within the service.
    pub id: usize,
    /// The shared utilization pattern.
    pub pattern: UtilizationPattern,
    /// Average utilization across member tenants (server-weighted).
    pub avg_util: f64,
    /// Peak utilization across member tenants (server-weighted mean of
    /// tenant peaks).
    pub peak_util: f64,
    /// Member tenants.
    pub tenants: Vec<TenantId>,
    /// All servers owned by member tenants.
    pub servers: Vec<ServerId>,
}

impl TenantClass {
    /// Number of servers in the class.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }
}

/// The clustering service: tenant → class mapping plus class metadata.
#[derive(Debug, Clone)]
pub struct ClusteringService {
    classes: Vec<TenantClass>,
}

impl ClusteringService {
    /// Clusters the datacenter's tenants from their unscaled traces with
    /// the default per-pattern `k`.
    pub fn build(dc: &Datacenter, seed: u64) -> Self {
        let view = UtilizationView::unscaled(dc);
        Self::build_from_view(dc, &view, seed, DEFAULT_K)
    }

    /// Clusters with `k` scaled to the tenant population: roughly one
    /// class per four tenants of a pattern, capped at the paper's DC-9
    /// class counts. Scheduling against scaled-down datacenters needs
    /// this — with the full 23 classes over a few dozen tenants every
    /// class is a single tenant, and class-restricted placement
    /// serializes jobs instead of protecting them.
    pub(crate) fn build_adaptive(dc: &Datacenter, view: &UtilizationView, seed: u64) -> Self {
        let n = dc.n_tenants();
        let k = |cap: usize| (n / 12).clamp(1, cap);
        Self::build_from_view(
            dc,
            view,
            seed,
            [k(DEFAULT_K[0]), k(DEFAULT_K[1]), k(DEFAULT_K[2])],
        )
    }

    /// Clusters from a (possibly scaled) utilization view.
    ///
    /// `k_per_pattern` bounds the number of K-Means classes for
    /// [periodic, constant, unpredictable]; patterns with fewer tenants
    /// than `k` get one class per tenant.
    pub(crate) fn build_from_view(
        dc: &Datacenter,
        view: &UtilizationView,
        seed: u64,
        k_per_pattern: [usize; 3],
    ) -> Self {
        // One pass per tenant: moments and one spectrum give both the
        // pattern and the K-Means features.
        let classifier = ClassifierConfig::default();
        let mut scratch = SpectrumScratch::new();
        let mut samples = Vec::new();
        let mut by_pattern: [Vec<TenantId>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let features: Vec<TraceFeatures> = dc
            .tenants
            .iter()
            .map(|t| {
                let trace = view.tenant_samples(t.id, &mut samples);
                let (pattern, features) = classify_with_features(trace, &classifier, &mut scratch);
                by_pattern[pattern_slot(pattern)].push(t.id);
                features
            })
            .collect();
        let features_of = |tid: TenantId| features[tid.0 as usize];

        let mut rng = stream_rng(seed, "clustering-service");
        let mut classes = Vec::new();

        for (slot, pattern) in UtilizationPattern::ALL.into_iter().enumerate() {
            let members = &by_pattern[slot];
            if members.is_empty() {
                continue;
            }
            let k = k_per_pattern[slot].max(1);
            let member_features: Vec<Vec<f64>> = members
                .iter()
                .map(|&tid| features_of(tid).to_vec())
                .collect();
            let normalized = normalize_features(&member_features);
            let result = kmeans(&mut rng, &normalized, k.min(members.len()), 50);

            for cluster in 0..result.k() {
                let tenant_ids: Vec<TenantId> = members
                    .iter()
                    .zip(&result.assignments)
                    .filter(|(_, &a)| a == cluster)
                    .map(|(&tid, _)| tid)
                    .collect();
                if tenant_ids.is_empty() {
                    continue;
                }
                let class_id = classes.len();
                let mut servers = Vec::new();
                let mut weighted_avg = 0.0;
                let mut weighted_peak = 0.0;
                let mut total_servers = 0usize;
                for &tid in &tenant_ids {
                    let tenant = dc.tenant(tid);
                    let f = features_of(tid);
                    let n = tenant.n_servers();
                    weighted_avg += f.mean * n as f64;
                    weighted_peak += f.peak * n as f64;
                    total_servers += n;
                    servers.extend(tenant.server_ids());
                }
                classes.push(TenantClass {
                    id: class_id,
                    pattern,
                    avg_util: weighted_avg / total_servers.max(1) as f64,
                    peak_util: weighted_peak / total_servers.max(1) as f64,
                    tenants: tenant_ids,
                    servers,
                });
            }
        }

        ClusteringService { classes }
    }

    /// All classes.
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes with the given pattern.
    pub fn count_by_pattern(&self, pattern: UtilizationPattern) -> usize {
        self.classes.iter().filter(|c| c.pattern == pattern).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;
    use harvest_trace::scaling::ScalingKind;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.1), 42)
    }

    #[test]
    fn every_tenant_gets_a_class() {
        let dc = dc();
        let svc = ClusteringService::build(&dc, 42);
        assert!(svc.class_count() > 0);
        for t in &dc.tenants {
            let homes = svc.classes().iter().filter(|c| c.tenants.contains(&t.id));
            assert_eq!(
                homes.count(),
                1,
                "tenant {} not in exactly one class",
                t.id.0
            );
        }
    }

    #[test]
    fn classes_partition_servers() {
        let dc = dc();
        let svc = ClusteringService::build(&dc, 42);
        let total: usize = svc.classes().iter().map(|c| c.n_servers()).sum();
        assert_eq!(total, dc.n_servers());
        let mut seen = std::collections::HashSet::new();
        for c in svc.classes() {
            for s in &c.servers {
                assert!(seen.insert(*s), "server {s} in two classes");
            }
        }
    }

    #[test]
    fn class_stats_are_utilizations() {
        let dc = dc();
        let svc = ClusteringService::build(&dc, 42);
        for c in svc.classes() {
            assert!((0.0..=1.0).contains(&c.avg_util), "avg {}", c.avg_util);
            assert!((0.0..=1.0).contains(&c.peak_util), "peak {}", c.peak_util);
            assert!(c.peak_util >= c.avg_util - 1e-9);
        }
    }

    #[test]
    fn respects_k_bounds() {
        let dc = dc();
        let svc =
            ClusteringService::build_from_view(&dc, &UtilizationView::unscaled(&dc), 42, [2, 2, 2]);
        for pattern in UtilizationPattern::ALL {
            assert!(svc.count_by_pattern(pattern) <= 2);
        }
    }

    #[test]
    fn all_three_patterns_present_in_dc9() {
        let dc = dc();
        let svc = ClusteringService::build(&dc, 42);
        for pattern in UtilizationPattern::ALL {
            assert!(
                svc.count_by_pattern(pattern) > 0,
                "no {pattern} classes found"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dc = dc();
        let a = ClusteringService::build(&dc, 9);
        let b = ClusteringService::build(&dc, 9);
        assert_eq!(a.class_count(), b.class_count());
        for (ca, cb) in a.classes().iter().zip(b.classes()) {
            assert_eq!(ca.tenants, cb.tenants);
        }
    }

    /// FNV-1a over every class's pattern, members, servers and the
    /// bits of its utilization tags.
    fn service_fingerprint(svc: &ClusteringService) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in svc.classes() {
            eat(c.id as u64);
            eat(c.pattern as u64);
            eat(c.avg_util.to_bits());
            eat(c.peak_util.to_bits());
            eat(c.tenants.len() as u64);
            for t in &c.tenants {
                eat(t.0 as u64);
            }
            eat(c.servers.len() as u64);
            for s in &c.servers {
                eat(s.0 as u64);
            }
        }
        h
    }

    /// The service's output on DC-9 ×0.1 — unscaled with the paper's
    /// `k`, and linearly scaled with the adaptive `k` YARN-H uses —
    /// pinned to the values recorded when classification and feature
    /// extraction still took separate spectra per tenant.
    #[test]
    fn clustering_output_is_pinned() {
        let dc = dc();
        let view = UtilizationView::scaled(&dc, ScalingKind::Linear, 1.6);
        let got = [
            service_fingerprint(&ClusteringService::build(&dc, 42)),
            service_fingerprint(&ClusteringService::build_adaptive(&dc, &view, 42)),
        ];
        assert_eq!(got, [0x058c_9ba6_9019_b6f2, 0x846f_321f_37e2_def8]);
    }
}
