//! Disk-reimage history generation and analysis.
//!
//! §3.3: reimages come from (1) developers/operators re-deploying their
//! environments, (2) AutoPilot resilience testing, and (3) disk
//! maintenance. They are "often correlated, i.e. many servers might be
//! reimaged at the same time (e.g., when servers are repurposed from one
//! primary tenant to another)" — the property that threatens co-located
//! replicas. Per-tenant monthly rates vary month to month but tenants
//! "tend to rank consistently in the same part of the spectrum"
//! (Figure 6).

use harvest_sim::dist;
use harvest_sim::time::{SimDuration, SimTime};
use rand::Rng;

/// Why a disk was reimaged (§3.3's three types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReimageKind {
    /// Manual re-deployment or restart-from-scratch of an environment.
    Redeploy,
    /// AutoPilot resilience testing of production services.
    Resilience,
    /// Disk maintenance (e.g., tested for failure).
    Maintenance,
}

/// One reimage of one server's disk. Reimaging destroys every block
/// replica stored on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReimageEvent {
    /// Index of the server *within its tenant*.
    pub server: usize,
    /// When the reimage happened.
    pub time: SimTime,
    /// Why it happened.
    pub kind: ReimageKind,
}

/// Duration of one month on the simulation clock (30 days).
pub const MONTH: SimDuration = SimDuration::from_days(30);

/// Per-tenant reimage behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReimageModel {
    /// Expected *independent* reimages per server per month (resilience
    /// testing + maintenance).
    pub base_rate: f64,
    /// Expected tenant-wide redeployment events per month. Each reimages
    /// a large fraction of the tenant's servers in a short window.
    pub redeploys_per_month: f64,
    /// Range of the fraction of servers a redeploy reimages.
    pub redeploy_fraction: (f64, f64),
    /// Sigma of the month-over-month log-normal drift applied to
    /// `base_rate` (0 = perfectly stable rates).
    pub rate_drift_sigma: f64,
}

impl TenantReimageModel {
    /// A model with no reimages at all (useful in scheduling-only tests).
    pub fn quiescent() -> Self {
        TenantReimageModel {
            base_rate: 0.0,
            redeploys_per_month: 0.0,
            redeploy_fraction: (0.0, 0.0),
            rate_drift_sigma: 0.0,
        }
    }

    /// The expected total reimages per server per month, counting both
    /// independent reimages and redeployment sweeps.
    pub fn expected_monthly_rate(&self) -> f64 {
        let (flo, fhi) = self.redeploy_fraction;
        self.base_rate + self.redeploys_per_month * 0.5 * (flo + fhi)
    }

    /// Generates `months` months of reimage events for a tenant with
    /// `n_servers` servers.
    ///
    /// Returns the events sorted by time, plus the realized per-month base
    /// rates (after drift), which the Figure 6 group-change analysis uses.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_servers: usize,
        months: usize,
    ) -> (Vec<ReimageEvent>, Vec<f64>) {
        let mut events = Vec::new();
        let mut monthly_rates = Vec::with_capacity(months);
        let mut rate = self.base_rate;
        for m in 0..months {
            let month_start = SimTime::ZERO + MONTH.mul_f64(m as f64);
            monthly_rates.push(rate);

            // Independent per-server reimages.
            for server in 0..n_servers {
                let n = dist::poisson(rng, rate);
                for _ in 0..n {
                    let offset = MONTH.mul_f64(dist::uniform(rng, 0.0, 1.0));
                    let kind = if dist::bernoulli(rng, 0.5) {
                        ReimageKind::Resilience
                    } else {
                        ReimageKind::Maintenance
                    };
                    events.push(ReimageEvent {
                        server,
                        time: month_start + offset,
                        kind,
                    });
                }
            }

            // Correlated redeployment sweeps.
            let sweeps = dist::poisson(rng, self.redeploys_per_month);
            for _ in 0..sweeps {
                let f = dist::uniform(rng, self.redeploy_fraction.0, self.redeploy_fraction.1);
                let count = ((n_servers as f64 * f).round() as usize).min(n_servers);
                if count == 0 {
                    continue;
                }
                let start = month_start + MONTH.mul_f64(dist::uniform(rng, 0.0, 1.0));
                let mut order: Vec<usize> = (0..n_servers).collect();
                dist::shuffle(rng, &mut order);
                for &server in order.iter().take(count) {
                    // The sweep rolls through the tenant within an hour.
                    let jitter = SimDuration::from_secs_f64(dist::uniform(rng, 0.0, 3600.0));
                    events.push(ReimageEvent {
                        server,
                        time: start + jitter,
                        kind: ReimageKind::Redeploy,
                    });
                }
            }

            // Drift the base rate for next month: a mean-reverting walk in
            // log space, anchored at the tenant's long-run rate. This is
            // what Figure 6 shows — rates "sometimes change substantially"
            // month to month, yet tenants "tend to rank consistently in
            // the same part of the spectrum".
            if self.rate_drift_sigma > 0.0 && self.base_rate > 0.0 {
                let log_dev = (rate / self.base_rate).ln();
                let next_dev = 0.7 * log_dev + dist::normal(rng, 0.0, self.rate_drift_sigma);
                rate = self.base_rate * next_dev.clamp(-2.3, 2.3).exp();
            }
        }
        events.sort_by_key(|e| e.time);
        (events, monthly_rates)
    }
}

/// Average reimages per month for each server of a tenant.
pub fn per_server_monthly_rates(
    events: &[ReimageEvent],
    n_servers: usize,
    months: usize,
) -> Vec<f64> {
    let mut counts = vec![0u64; n_servers];
    for e in events {
        if e.server < n_servers {
            counts[e.server] += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / months.max(1) as f64)
        .collect()
}

/// Average reimages per server per month for the whole tenant.
pub fn tenant_monthly_rate(events: &[ReimageEvent], n_servers: usize, months: usize) -> f64 {
    if n_servers == 0 || months == 0 {
        return 0.0;
    }
    events.len() as f64 / (n_servers as f64 * months as f64)
}

/// Reimage frequency groups (Figure 6 / Algorithm 2's durability axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum FrequencyGroup {
    /// Bottom third of tenants by reimage rate.
    Infrequent,
    /// Middle third.
    Intermediate,
    /// Top third.
    Frequent,
}

/// Splits tenants into three equal-count frequency groups by rate.
///
/// Returns one group per input tenant, preserving order. Ties broken by
/// index so the split is deterministic and the groups have sizes as equal
/// as possible (paper: "three frequency groups, each with the same number
/// of tenants").
pub(crate) fn frequency_groups(rates: &[f64]) -> Vec<FrequencyGroup> {
    let n = rates.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        rates[a]
            .partial_cmp(&rates[b])
            .expect("NaN rate")
            .then(a.cmp(&b))
    });
    let mut groups = vec![FrequencyGroup::Infrequent; n];
    for (rank, &idx) in order.iter().enumerate() {
        groups[idx] = if rank * 3 < n {
            FrequencyGroup::Infrequent
        } else if rank * 3 < 2 * n {
            FrequencyGroup::Intermediate
        } else {
            FrequencyGroup::Frequent
        };
    }
    groups
}

/// Counts month-to-month group changes for each tenant.
///
/// `monthly_tenant_rates[m][t]` is tenant `t`'s reimage rate in month `m`.
/// Returns, per tenant, how many of the `months - 1` transitions changed
/// its frequency group (Figure 6's x-axis).
pub fn group_changes(monthly_tenant_rates: &[Vec<f64>]) -> Vec<u32> {
    if monthly_tenant_rates.is_empty() {
        return Vec::new();
    }
    let n_tenants = monthly_tenant_rates[0].len();
    let mut changes = vec![0u32; n_tenants];
    let mut prev = frequency_groups(&monthly_tenant_rates[0]);
    for month in &monthly_tenant_rates[1..] {
        assert_eq!(month.len(), n_tenants, "ragged monthly rate matrix");
        let cur = frequency_groups(month);
        for t in 0..n_tenants {
            if cur[t] != prev[t] {
                changes[t] += 1;
            }
        }
        prev = cur;
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::rng::stream_rng;

    /// Per-month reimage counts for a tenant (for the Figure 6 analysis).
    fn monthly_counts(events: &[ReimageEvent], months: usize) -> Vec<u64> {
        let mut counts = vec![0u64; months];
        for e in events {
            let m = (e.time.as_millis() / MONTH.as_millis()) as usize;
            if m < months {
                counts[m] += 1;
            }
        }
        counts
    }

    fn model() -> TenantReimageModel {
        TenantReimageModel {
            base_rate: 0.3,
            redeploys_per_month: 0.2,
            redeploy_fraction: (0.4, 0.9),
            rate_drift_sigma: 0.3,
        }
    }

    #[test]
    fn events_are_sorted_and_in_range() {
        let mut rng = stream_rng(11, "reimage");
        let (events, rates) = model().generate(&mut rng, 50, 12);
        assert_eq!(rates.len(), 12);
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let end = SimTime::ZERO + MONTH.mul_f64(12.0) + SimDuration::from_hours(1);
        assert!(events.iter().all(|e| e.server < 50 && e.time < end));
    }

    #[test]
    fn rate_matches_expectation() {
        let mut rng = stream_rng(13, "rate");
        let m = TenantReimageModel {
            base_rate: 0.5,
            redeploys_per_month: 0.0,
            redeploy_fraction: (0.0, 0.0),
            rate_drift_sigma: 0.0,
        };
        let (events, _) = m.generate(&mut rng, 200, 36);
        let rate = tenant_monthly_rate(&events, 200, 36);
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn redeploys_create_correlated_bursts() {
        let mut rng = stream_rng(17, "burst");
        let m = TenantReimageModel {
            base_rate: 0.0,
            redeploys_per_month: 1.0,
            redeploy_fraction: (0.8, 1.0),
            rate_drift_sigma: 0.0,
        };
        let (events, _) = m.generate(&mut rng, 100, 6);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.kind == ReimageKind::Redeploy));
        // At least one window of one hour should contain >= 50 reimages
        // (a sweep touches >= 80 of 100 servers within an hour).
        let has_burst = events.iter().enumerate().any(|(i, e)| {
            let window_end = e.time + SimDuration::from_hours(1);
            events[i..]
                .iter()
                .take_while(|x| x.time <= window_end)
                .count()
                >= 50
        });
        assert!(has_burst, "no correlated burst found");
    }

    #[test]
    fn quiescent_model_is_silent() {
        let mut rng = stream_rng(19, "quiet");
        let (events, _) = TenantReimageModel::quiescent().generate(&mut rng, 100, 12);
        assert!(events.is_empty());
    }

    #[test]
    fn per_server_rates_sum_to_total() {
        let mut rng = stream_rng(23, "sum");
        let (events, _) = model().generate(&mut rng, 40, 10);
        let per_server = per_server_monthly_rates(&events, 40, 10);
        let total: f64 = per_server.iter().sum::<f64>() * 10.0;
        assert!((total - events.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn monthly_counts_partition_events() {
        let mut rng = stream_rng(29, "months");
        let (events, _) = model().generate(&mut rng, 40, 10);
        let counts = monthly_counts(&events, 10);
        assert_eq!(counts.iter().sum::<u64>() as usize, events.len());
    }

    #[test]
    fn frequency_groups_are_balanced() {
        let rates: Vec<f64> = (0..99).map(|i| i as f64 / 100.0).collect();
        let groups = frequency_groups(&rates);
        let count = |g: FrequencyGroup| groups.iter().filter(|&&x| x == g).count();
        assert_eq!(count(FrequencyGroup::Infrequent), 33);
        assert_eq!(count(FrequencyGroup::Intermediate), 33);
        assert_eq!(count(FrequencyGroup::Frequent), 33);
        // Groups respect rate ordering.
        assert_eq!(groups[0], FrequencyGroup::Infrequent);
        assert_eq!(groups[98], FrequencyGroup::Frequent);
    }

    #[test]
    fn group_changes_zero_for_stable_rates() {
        let month: Vec<f64> = vec![0.1, 0.5, 0.9];
        let matrix = vec![month.clone(); 36];
        assert_eq!(group_changes(&matrix), vec![0, 0, 0]);
    }

    #[test]
    fn group_changes_detected_when_ranks_flip() {
        let m1 = vec![0.1, 0.5, 0.9];
        let m2 = vec![0.9, 0.5, 0.1];
        let changes = group_changes(&[m1, m2]);
        assert_eq!(changes, vec![1, 0, 1]);
    }

    #[test]
    fn expected_rate_accounts_for_sweeps() {
        let m = model();
        let expect = 0.3 + 0.2 * 0.65;
        assert!((m.expected_monthly_rate() - expect).abs() < 1e-12);
    }
}
