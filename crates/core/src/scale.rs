//! Experiment scale presets.
//!
//! The paper's simulations cover whole datacenters (thousands of servers)
//! for a month to a year; its testbed runs five hours. Those sizes are
//! reproducible here, but a laptop-friendly scale keeps every experiment
//! runnable in minutes. Shapes (who wins, by what factor) are stable
//! across scales because block density, reserve fractions, and tenant
//! mixes are scale-invariant.

use harvest_cluster::Datacenter;
use harvest_disk::DiskConfig;
use harvest_net::NetworkConfig;
use harvest_sim::fault::{FaultPlan, FaultProfile};
use harvest_sim::SimDuration;

/// Scale parameters shared by the experiments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Fraction of each datacenter profile to instantiate.
    pub dc_scale: f64,
    /// Network fabric the experiments run over: `None` keeps the seed
    /// model's free, instantaneous data movement; `Some` makes repair,
    /// remote reads, and shuffles pay for bandwidth (`repro --net`).
    pub network: Option<NetworkConfig>,
    /// Shared-disk model the experiments run over: `None` keeps disks
    /// free and instant; `Some` makes repairs, reads, and shuffle
    /// spills pay for platter bandwidth against the primary tenants'
    /// modeled I/O (`repro --disk`, composes with `--net`).
    pub disk: Option<DiskConfig>,
    /// Runs per data point (the paper uses five).
    pub runs: usize,
    /// Simulated hours for the scheduling sweeps.
    pub sched_hours: u64,
    /// Simulated months for the durability experiment (paper: 12).
    pub durability_months: usize,
    /// Simulated days for the availability experiment (paper: 30).
    pub availability_days: u64,
    /// Utilization sweep points for Figures 13/14/16.
    pub utilizations: Vec<f64>,
    /// Worker threads for the sweep matrices (`repro --jobs N`).
    /// Defaults to every available core; `1` runs every task on one
    /// worker in input order, the sequential reference. Reports are
    /// byte-identical at any value — the experiments fan out over the
    /// supervised worker loop ([`harvest_sim::supervise`]), whose
    /// order-preserving writes make thread count unobservable.
    pub jobs: usize,
    /// Fault profile to arm (`repro --faults PROFILE`): experiments
    /// that take a [`FaultPlan`] draw one per run via
    /// `Scale::fault_plan`. `None` hands them [`FaultPlan::none`],
    /// which keeps every report byte-identical to a build without the
    /// fault machinery.
    pub faults: Option<FaultProfile>,
    /// Resilience context for the sweeps (`repro --checkpoint` /
    /// `--resume` / `--task-deadline`): an open checkpoint journal,
    /// an optional per-task deadline, and shared outcome counters.
    /// The default is inert — no journal, automatic flag-only
    /// deadlines — and changes no output.
    pub harness: crate::checkpoint::Harness,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Minutes-scale preset (default for `repro`): one run per point,
    /// small clusters, short horizons.
    pub fn quick() -> Self {
        Scale {
            dc_scale: 0.03,
            network: None,
            disk: None,
            runs: 1,
            sched_hours: 8,
            durability_months: 6,
            availability_days: 5,
            utilizations: vec![0.30, 0.45, 0.60],
            jobs: harvest_sim::par::default_jobs(),
            faults: None,
            harness: crate::checkpoint::Harness::default(),
            seed: 42,
        }
    }

    /// Fuller preset (`repro --full`): the paper's five runs per data
    /// point, bigger clusters, longer horizons. The sweep matrix fans
    /// out over every available core by default (`--jobs N` to pin);
    /// sequential (`--jobs 1`) it is several hours of single-core time,
    /// so let the parallel harness pay for the fifth run.
    pub fn full() -> Self {
        Scale {
            dc_scale: 0.06,
            network: None,
            disk: None,
            runs: 5,
            sched_hours: 12,
            durability_months: 12,
            availability_days: 15,
            utilizations: vec![0.25, 0.35, 0.45, 0.55, 0.65],
            jobs: harvest_sim::par::default_jobs(),
            faults: None,
            harness: crate::checkpoint::Harness::default(),
            seed: 42,
        }
    }

    /// The seed for run `r` of an experiment.
    pub(crate) fn run_seed(&self, experiment: &str, r: usize) -> u64 {
        harvest_sim::rng::derive_seed_indexed(self.seed, experiment, r as u64)
    }

    /// The fault plan one run should inject into `dc` over `horizon`:
    /// the armed profile's draw (deterministic in `(profile, seed,
    /// shape, horizon)`), or [`FaultPlan::none`] when no profile is
    /// armed.
    pub(crate) fn fault_plan(&self, dc: &Datacenter, seed: u64, horizon: SimDuration) -> FaultPlan {
        match self.faults {
            None => FaultPlan::none(),
            Some(profile) => profile.plan(seed, dc.cluster_shape(), horizon),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.dc_scale < f.dc_scale);
        assert!(q.runs < f.runs);
        assert!(q.utilizations.len() < f.utilizations.len());
    }

    #[test]
    fn run_seeds_differ() {
        let s = Scale::quick();
        assert_ne!(s.run_seed("fig13", 0), s.run_seed("fig13", 1));
        assert_ne!(s.run_seed("fig13", 0), s.run_seed("fig15", 0));
    }

    #[test]
    fn fault_plan_follows_the_armed_profile() {
        let mut s = Scale::quick();
        let horizon = SimDuration::from_days(30);
        let specs = harvest_trace::datacenter::DatacenterProfile::testbed_dc9(7);
        let dc = Datacenter::from_specs("testbed".into(), &specs, 7);
        assert!(s.fault_plan(&dc, 7, horizon).is_none());
        s.faults = Some(FaultProfile::RackLoss);
        let plan = s.fault_plan(&dc, 7, horizon);
        assert!(!plan.is_none());
        // Deterministic: the same scale draws the same plan.
        assert_eq!(plan, s.fault_plan(&dc, 7, horizon));
    }
}
