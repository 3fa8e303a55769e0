//! Analytic tail-latency model for a co-located search server.
//!
//! A server has 12 cores; the primary's offered load needs
//! `util × 12` of them, and harvested containers hold `secondary`
//! cores. When the primary can no longer spread over all cores, queueing
//! delay grows with the effective utilization `ρ = demand / available`
//! in the M/M/c spirit: `p99 ≈ base × (1 + κ · ρ / (1 - ρ))`, saturating
//! at a timeout cap as `ρ → 1`.
//!
//! Calibration targets the paper's Figure 10: the no-harvesting testbed
//! at ~33% average CPU shows p99 between 369 and 406 ms; YARN-Stock
//! (oblivious, up to 12 harvested cores) blows past 1 s; YARN-PT stays
//! close to baseline; YARN-H nearly matches it (max 44 ms apart).

use harvest_cluster::reserve::SERVER_CAPACITY;
use harvest_sim::rng::splitmix64;

/// The analytic p99 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Service-time floor in ms (an uncongested query).
    pub base_ms: f64,
    /// Congestion gain: how fast p99 grows with ρ/(1-ρ).
    pub kappa: f64,
    /// Timeout cap in ms (saturated server).
    pub cap_ms: f64,
    /// Amplitude of per-sample noise in ms (measurement jitter).
    pub noise_ms: f64,
}

impl LatencyModel {
    /// Calibration reproducing Figure 10's bands: at 33% utilization and
    /// no harvesting, p99 ≈ 370–405 ms.
    pub fn paper_calibrated() -> Self {
        LatencyModel {
            base_ms: 300.0,
            kappa: 0.60,
            cap_ms: 3_000.0,
            noise_ms: 12.0,
        }
    }

    /// Deterministic p99 (no noise) for a primary at `util` with
    /// `secondary_cores` harvested away.
    pub fn p99_ms(&self, util: f64, secondary_cores: u32) -> f64 {
        let total = SERVER_CAPACITY.cores as f64;
        let available = (total - secondary_cores as f64).max(0.0);
        let demand = util.clamp(0.0, 1.0) * total;
        if available <= demand || available == 0.0 {
            return self.cap_ms;
        }
        let rho = demand / available;
        let p99 = self.base_ms * (1.0 + self.kappa * rho / (1.0 - rho));
        p99.min(self.cap_ms)
    }

    /// p99 with deterministic pseudo-noise derived from `(seed, server,
    /// minute)` — reproducible "measurement jitter" for the figures.
    pub(crate) fn p99_noisy_ms(&self, util: f64, secondary_cores: u32, seed: u64, tag: u64) -> f64 {
        let p = self.p99_ms(util, secondary_cores);
        if p >= self.cap_ms {
            return p;
        }
        let h = splitmix64(seed ^ splitmix64(tag));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        (p + (unit * 2.0 - 1.0) * self.noise_ms).max(self.base_ms * 0.5)
    }

    /// Fleet statistic for Figures 10/12: the average over servers of
    /// per-server p99 at one minute. `loads` gives each server's
    /// `(primary_util, secondary_cores)`.
    pub fn fleet_p99_ms(&self, loads: &[(f64, u32)], seed: u64, minute: u64) -> f64 {
        if loads.is_empty() {
            return 0.0;
        }
        let sum: f64 = loads
            .iter()
            .enumerate()
            .map(|(s, &(util, cores))| {
                self.p99_noisy_ms(util, cores, seed, minute << 20 | s as u64)
            })
            .sum();
        sum / loads.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_figure_10_band() {
        let m = LatencyModel::paper_calibrated();
        // No harvesting, 33% utilization: 369-406 ms in the paper.
        let p = m.p99_ms(0.33, 0);
        assert!((360.0..=410.0).contains(&p), "p99 {p} outside band");
    }

    #[test]
    fn harvesting_all_cores_saturates() {
        let m = LatencyModel::paper_calibrated();
        assert_eq!(m.p99_ms(0.33, 12), m.cap_ms);
        // Stock-like harvesting (10 cores at 33% primary) is painful.
        assert!(m.p99_ms(0.33, 10) > 1_000.0);
    }

    #[test]
    fn reserve_respecting_harvest_is_benign() {
        let m = LatencyModel::paper_calibrated();
        let baseline = m.p99_ms(0.33, 0);
        // With the 4-core reserve intact (primary 4 cores + secondary 8
        // leaves exactly demand available) latency grows but far less
        // than saturation; at lower secondary usage it's nearly flat.
        let with_reserve = m.p99_ms(0.33, 4);
        assert!(with_reserve - baseline < 120.0);
        assert!(with_reserve >= baseline);
    }

    #[test]
    fn monotone_in_both_inputs() {
        let m = LatencyModel::paper_calibrated();
        let mut last = 0.0;
        for u in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
            let p = m.p99_ms(u, 0);
            assert!(p >= last, "not monotone in util");
            last = p;
        }
        let mut last = 0.0;
        for c in 0..=12u32 {
            let p = m.p99_ms(0.4, c);
            assert!(p >= last, "not monotone in secondary cores");
            last = p;
        }
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let m = LatencyModel::paper_calibrated();
        let clean = m.p99_ms(0.3, 2);
        let a = m.p99_noisy_ms(0.3, 2, 42, 7);
        let b = m.p99_noisy_ms(0.3, 2, 42, 7);
        assert_eq!(a, b);
        assert!((a - clean).abs() <= m.noise_ms + 1e-12);
    }

    #[test]
    fn fleet_average_between_extremes() {
        let m = LatencyModel::paper_calibrated();
        let loads = [(0.2, 0u32), (0.6, 0u32)];
        let fleet = m.fleet_p99_ms(&loads, 1, 0);
        let lo = m.p99_ms(0.2, 0) - m.noise_ms;
        let hi = m.p99_ms(0.6, 0) + m.noise_ms;
        assert!(fleet > lo && fleet < hi);
        assert_eq!(m.fleet_p99_ms(&[], 1, 0), 0.0);
    }

    #[test]
    fn imbalance_raises_fleet_p99() {
        // Convexity: the same total harvested cores hurt more when
        // concentrated — the mechanism behind YARN-H's balanced placement
        // improving tail latency.
        let m = LatencyModel::paper_calibrated();
        let balanced = [(0.5, 3u32), (0.5, 3u32)];
        let skewed = [(0.5, 6u32), (0.5, 0u32)];
        assert!(m.fleet_p99_ms(&skewed, 0, 0) > m.fleet_p99_ms(&balanced, 0, 0));
    }
}
