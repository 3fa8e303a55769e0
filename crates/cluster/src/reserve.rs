//! Server capacity and the primary-tenant resource reserve.
//!
//! §6.1: "our testbed is a 102-server setup, where each server has 12
//! cores and 32GB of memory. We reserve 4 cores (33%) and 10GB (31%) of
//! memory for primary tenants to burst into." The primary's measured
//! usage is rounded *up* to whole cores/MBs (§5.3), and harvested
//! containers are killed whenever free resources dip below the reserve.
//!
//! For storage, a server is "busy" — denying harvested data accesses —
//! once primary CPU exceeds `1 - reserve = 2/3` (§6.4: "accesses cannot
//! proceed if CPU utilization is higher than 66%").

use crate::resources::Resources;

/// Per-server hardware capacity (12 cores, 32 GB).
pub const SERVER_CAPACITY: Resources = Resources {
    cores: 12,
    memory_mb: 32_768,
};

/// The reserve kept free for primary bursts (4 cores, 10 GB).
pub const RESERVE: Resources = Resources {
    cores: 4,
    memory_mb: 10_240,
};

/// CPU utilization above which a server denies harvested storage accesses.
pub(crate) const BUSY_CPU_THRESHOLD: f64 =
    1.0 - RESERVE.cores as f64 / SERVER_CAPACITY.cores as f64;

/// Rounds a primary tenant's CPU utilization up to whole cores (§5.3:
/// "round them up to the next integer number of cores").
pub(crate) fn primary_cores(cpu_util: f64) -> u32 {
    let cores = (cpu_util.clamp(0.0, 1.0) * SERVER_CAPACITY.cores as f64).ceil() as u32;
    cores.min(SERVER_CAPACITY.cores)
}

/// The primary tenant's rounded-up resource usage at a given CPU
/// utilization.
///
/// Memory is modelled as tracking CPU (the paper's evaluation focuses on
/// CPU; this keeps the memory dimension consistent without a second
/// trace).
pub(crate) fn primary_usage(cpu_util: f64) -> Resources {
    let frac = cpu_util.clamp(0.0, 1.0);
    Resources {
        cores: primary_cores(frac),
        memory_mb: ((frac * SERVER_CAPACITY.memory_mb as f64).ceil() as u32)
            .min(SERVER_CAPACITY.memory_mb),
    }
}

/// Resources a server may hand to secondary tenants at the given primary
/// CPU utilization: capacity minus the reserve minus the primary's
/// rounded-up usage.
pub fn secondary_capacity(cpu_util: f64) -> Resources {
    SERVER_CAPACITY
        .saturating_sub(RESERVE)
        .saturating_sub(primary_usage(cpu_util))
}

/// Whether a server must deny harvested storage accesses at the given
/// primary CPU utilization.
pub fn is_busy(cpu_util: f64) -> bool {
    cpu_util > BUSY_CPU_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_matches_paper_percentages() {
        // 4/12 = 33% of cores, 10/32 = 31% of memory.
        assert!((RESERVE.cores as f64 / SERVER_CAPACITY.cores as f64 - 0.333).abs() < 0.01);
        assert!(
            (RESERVE.memory_mb as f64 / SERVER_CAPACITY.memory_mb as f64 - 0.3125).abs() < 0.01
        );
    }

    #[test]
    fn primary_cores_round_up() {
        assert_eq!(primary_cores(0.0), 0);
        assert_eq!(primary_cores(0.01), 1);
        assert_eq!(primary_cores(1.0 / 12.0), 1);
        assert_eq!(primary_cores(1.01 / 12.0), 2);
        assert_eq!(primary_cores(1.0), 12);
        assert_eq!(primary_cores(5.0), 12); // clamped
    }

    #[test]
    fn secondary_capacity_shrinks_with_primary_load() {
        let idle = secondary_capacity(0.0);
        assert_eq!(idle.cores, 8);
        let half = secondary_capacity(0.5);
        assert_eq!(half.cores, 2);
        let busy = secondary_capacity(0.9);
        assert_eq!(busy.cores, 0);
    }

    #[test]
    fn busy_threshold_is_two_thirds() {
        assert!((BUSY_CPU_THRESHOLD - 2.0 / 3.0).abs() < 1e-12);
        assert!(!is_busy(0.66));
        assert!(is_busy(0.67));
    }

    #[test]
    fn memory_tracks_cpu() {
        let u = primary_usage(0.5);
        assert_eq!(u.memory_mb, 16_384);
        assert_eq!(primary_usage(0.0), Resources::ZERO);
    }
}
