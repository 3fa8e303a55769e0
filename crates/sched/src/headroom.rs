//! Headroom computation and class-ranking weights (§4.1).
//!
//! "The headroom depends on the job type. For a short job, we define it
//! as 1 minus the current average CPU utilization of the servers in the
//! class. For a medium job, we use 1 minus Max(average CPU utilization,
//! current CPU utilization). For a long job, we use 1 minus Max(peak CPU
//! utilization, current CPU utilization)."
//!
//! Ranking: "For a long job, we give priority to constant classes first,
//! then periodic classes, and finally unpredictable classes. … for a
//! short job, we rank the classes unpredictable first, then periodic, and
//! finally constant. For a medium job, the ranking is periodic first,
//! then constant, and finally unpredictable."

use harvest_cluster::reserve::{RESERVE, SERVER_CAPACITY};
use harvest_jobs::length::JobLength;
use harvest_signal::classify::UtilizationPattern;

use crate::classes::TenantClass;

/// Ranking weights `W[job-type][pattern]`: higher weight = higher rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingWeights {
    weights: [[f64; 3]; 3],
}

impl Default for RankingWeights {
    fn default() -> Self {
        RankingWeights::paper()
    }
}

impl RankingWeights {
    /// The paper's rankings encoded as 3 > 2 > 1 weights.
    pub fn paper() -> Self {
        // Index order: [short, medium, long] × [periodic, constant, unpredictable].
        RankingWeights {
            weights: [
                [2.0, 1.0, 3.0], // short: unpredictable > periodic > constant
                [3.0, 2.0, 1.0], // medium: periodic > constant > unpredictable
                [2.0, 3.0, 1.0], // long: constant > periodic > unpredictable
            ],
        }
    }

    /// The weight for a (job length, pattern) pair.
    pub(crate) fn weight(&self, length: JobLength, pattern: UtilizationPattern) -> f64 {
        let row = match length {
            JobLength::Short => 0,
            JobLength::Medium => 1,
            JobLength::Long => 2,
        };
        let col = match pattern {
            UtilizationPattern::Periodic => 0,
            UtilizationPattern::Constant => 1,
            UtilizationPattern::Unpredictable => 2,
        };
        self.weights[row][col]
    }
}

/// The utilization fraction a class is expected to keep free for the
/// duration of a job of the given length, per the paper's three formulas.
///
/// `current_util` is the class's current average CPU utilization.
pub(crate) fn headroom_fraction(length: JobLength, class: &TenantClass, current_util: f64) -> f64 {
    let used = match length {
        JobLength::Short => current_util,
        JobLength::Medium => class.avg_util.max(current_util),
        JobLength::Long => class.peak_util.max(current_util),
    };
    (1.0 - used).clamp(0.0, 1.0)
}

/// Converts a headroom fraction into a number of single-core containers
/// the class can host: per server, the headroom cores minus the burst
/// reserve, summed across the class's servers.
pub(crate) fn headroom_containers(headroom_frac: f64, n_servers: usize) -> u64 {
    let per_server =
        (headroom_frac * SERVER_CAPACITY.cores as f64).floor() as i64 - RESERVE.cores as i64;
    per_server.max(0) as u64 * n_servers as u64
}

/// Headroom of a class for a job length, in containers.
pub(crate) fn class_headroom(length: JobLength, class: &TenantClass, current_util: f64) -> u64 {
    headroom_containers(
        headroom_fraction(length, class, current_util),
        class.n_servers(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_cluster::{ServerId, TenantId};

    fn class(avg: f64, peak: f64, servers: usize) -> TenantClass {
        TenantClass {
            id: 0,
            pattern: UtilizationPattern::Constant,
            avg_util: avg,
            peak_util: peak,
            tenants: vec![TenantId(0)],
            servers: (0..servers as u32).map(ServerId).collect(),
        }
    }

    #[test]
    fn paper_rankings_are_ordered() {
        let w = RankingWeights::paper();
        use JobLength::*;
        use UtilizationPattern::*;
        // Long: constant > periodic > unpredictable.
        assert!(w.weight(Long, Constant) > w.weight(Long, Periodic));
        assert!(w.weight(Long, Periodic) > w.weight(Long, Unpredictable));
        // Short: unpredictable > periodic > constant.
        assert!(w.weight(Short, Unpredictable) > w.weight(Short, Periodic));
        assert!(w.weight(Short, Periodic) > w.weight(Short, Constant));
        // Medium: periodic > constant > unpredictable.
        assert!(w.weight(Medium, Periodic) > w.weight(Medium, Constant));
        assert!(w.weight(Medium, Constant) > w.weight(Medium, Unpredictable));
    }

    #[test]
    fn headroom_uses_the_right_statistic() {
        let c = class(0.3, 0.7, 10);
        // Short: only current matters.
        assert!((headroom_fraction(JobLength::Short, &c, 0.2) - 0.8).abs() < 1e-12);
        // Medium: max(avg, current).
        assert!((headroom_fraction(JobLength::Medium, &c, 0.2) - 0.7).abs() < 1e-12);
        assert!((headroom_fraction(JobLength::Medium, &c, 0.5) - 0.5).abs() < 1e-12);
        // Long: max(peak, current).
        assert!((headroom_fraction(JobLength::Long, &c, 0.2) - 0.3).abs() < 1e-12);
        assert!((headroom_fraction(JobLength::Long, &c, 0.9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn container_conversion_subtracts_reserve() {
        // 50% headroom = 6 cores; minus the 4-core reserve = 2 per server.
        assert_eq!(headroom_containers(0.5, 10), 20);
        // Full headroom: 12 - 4 = 8 per server.
        assert_eq!(headroom_containers(1.0, 10), 80);
        // Headroom below the reserve yields nothing.
        assert_eq!(headroom_containers(0.3, 10), 0);
        assert_eq!(headroom_containers(0.0, 10), 0);
    }

    #[test]
    fn class_headroom_combines_both() {
        let c = class(0.5, 0.5, 4);
        // Long job, current 0.5: headroom 0.5 → 2 containers/server × 4.
        assert_eq!(class_headroom(JobLength::Long, &c, 0.5), 8);
    }
}
