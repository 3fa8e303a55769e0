//! Scheduling-simulation outputs.

use harvest_disk::DiskStats;
use harvest_net::FabricStats;
use harvest_sim::metrics::StreamingStats;
use harvest_sim::{SimDuration, SimTime};

/// The outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job (query) name.
    pub name: String,
    /// Index of the query in the workload suite.
    pub query: usize,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time (`None` if the simulation ended first).
    pub finished: Option<SimTime>,
    /// Submission-to-completion time.
    pub execution_time: Option<SimDuration>,
    /// Tasks of this job killed for primary bursts.
    pub kills: u64,
}

/// One per-server load sample (for the testbed latency experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Sample time.
    pub time: SimTime,
    /// Primary CPU utilization at the sample.
    pub primary_util: f64,
    /// Cores allocated to secondary containers at the sample.
    pub secondary_cores: u32,
}

/// Aggregate results of one scheduling simulation.
///
/// `PartialEq` compares everything, floats by value, so determinism
/// tests can assert two runs are indistinguishable, stats included.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// Total task kills.
    pub total_kills: u64,
    /// Total tasks started (including re-runs of killed tasks).
    pub tasks_started: u64,
    /// Fleet-average *total* (primary + secondary) CPU utilization over
    /// the run (the "33% → 54%" number of §6.3).
    pub avg_total_utilization: f64,
    /// Fleet-average primary-only CPU utilization over the run.
    pub avg_primary_utilization: f64,
    /// Per-server load samples (only when recording was enabled).
    pub server_load: Vec<Vec<LoadSample>>,
    /// Task kills attributed to each server.
    pub kills_per_server: Vec<u64>,
    /// Final fabric counters (re-shares, stale events dropped, peak
    /// queue length) when shuffles travelled a network model.
    pub fabric: Option<FabricStats>,
    /// Final disk-pool counters when shuffles paid for disk I/O.
    pub disks: Option<DiskStats>,
    /// Containers killed by injected faults (crashes and rack power
    /// loss) — disjoint from `total_kills`, which stays reserve-only.
    pub fault_kills: u64,
    /// Fault-interrupted stages re-dispatched after a backoff delay.
    pub fault_retries: u64,
    /// Jobs given up on after a stage exhausted its fault retry budget.
    pub jobs_abandoned: u64,
}

impl SimStats {
    /// Mean execution time over completed jobs, in seconds.
    pub fn mean_execution_secs(&self) -> f64 {
        let mut stats = StreamingStats::new();
        for j in &self.jobs {
            if let Some(d) = j.execution_time {
                stats.push(d.as_secs_f64());
            }
        }
        stats.mean()
    }

    /// Number of jobs that completed.
    pub fn completed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.finished.is_some()).count()
    }

    /// Fraction of submitted jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            return 1.0;
        }
        self.completed_jobs() as f64 / self.jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ignores_unfinished() {
        let stats = SimStats {
            jobs: vec![
                JobResult {
                    name: "a".into(),
                    query: 0,
                    submitted: SimTime::ZERO,
                    finished: Some(SimTime::from_secs(100)),
                    execution_time: Some(SimDuration::from_secs(100)),
                    kills: 0,
                },
                JobResult {
                    name: "b".into(),
                    query: 1,
                    submitted: SimTime::ZERO,
                    finished: None,
                    execution_time: None,
                    kills: 2,
                },
            ],
            total_kills: 2,
            tasks_started: 10,
            avg_total_utilization: 0.5,
            avg_primary_utilization: 0.3,
            server_load: Vec::new(),
            kills_per_server: Vec::new(),
            fabric: None,
            disks: None,
            fault_kills: 0,
            fault_retries: 0,
            jobs_abandoned: 0,
        };
        assert_eq!(stats.mean_execution_secs(), 100.0);
        assert_eq!(stats.completed_jobs(), 1);
        assert_eq!(stats.completion_rate(), 0.5);
    }
}
