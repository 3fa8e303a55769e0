//! Inter-stage shuffle volumes.
//!
//! A Hive-style DAG moves data between stages: every task of an upstream
//! stage partitions its output across the downstream stage's tasks, and
//! the whole volume crosses the network before the downstream stage can
//! make progress. The seed model treated that movement as free; with the
//! `harvest-net` fabric it becomes flows that contend with repair
//! traffic and each other.
//!
//! The volume model is deliberately simple and deterministic: each
//! upstream task contributes [`DEFAULT_BYTES_PER_TASK`] of intermediate
//! output to every dependent edge (Hive map outputs of the paper's era
//! were tens of MB per task). Scale it per experiment through
//! [`stage_shuffle_bytes`]'s `bytes_per_task` parameter.

use crate::dag::{DagJob, StageId};

/// Intermediate bytes one upstream task ships to a dependent stage
/// (32 MB — a typical compressed map-output partition set).
pub const DEFAULT_BYTES_PER_TASK: u64 = 32 * 1024 * 1024;

/// Bytes that must cross the network before `stage` can start: the sum
/// over its dependencies of upstream tasks × `bytes_per_task`. Root
/// stages read their input from the distributed store, not a shuffle,
/// and cost zero here.
pub fn stage_shuffle_bytes(job: &DagJob, stage: StageId, bytes_per_task: u64) -> u64 {
    job.stages[stage.0]
        .deps
        .iter()
        .map(|d| job.stages[d.0].tasks as u64 * bytes_per_task)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::stage;

    /// Total shuffle bytes a job moves across all its edges.
    fn job_shuffle_bytes(job: &DagJob, bytes_per_task: u64) -> u64 {
        (0..job.n_stages())
            .map(|s| stage_shuffle_bytes(job, StageId(s), bytes_per_task))
            .sum()
    }

    fn diamond() -> DagJob {
        DagJob::new(
            "diamond",
            vec![
                stage("m1", 10, 30, vec![]),
                stage("m2", 20, 30, vec![]),
                stage("r1", 5, 60, vec![0, 1]),
                stage("r2", 1, 10, vec![2]),
            ],
        )
    }

    #[test]
    fn roots_shuffle_nothing() {
        let j = diamond();
        assert_eq!(stage_shuffle_bytes(&j, StageId(0), 1), 0);
        assert_eq!(stage_shuffle_bytes(&j, StageId(1), 1), 0);
    }

    #[test]
    fn volumes_follow_upstream_task_counts() {
        let j = diamond();
        assert_eq!(stage_shuffle_bytes(&j, StageId(2), 100), 3_000);
        assert_eq!(stage_shuffle_bytes(&j, StageId(3), 100), 500);
        assert_eq!(job_shuffle_bytes(&j, 100), 3_500);
    }

    #[test]
    fn q19_shuffles_dominated_by_the_fact_scan() {
        let j = crate::tpcds::query_19();
        // Reducer 3 consumes Mapper 2's 469 tasks.
        let r3 = stage_shuffle_bytes(&j, StageId(6), DEFAULT_BYTES_PER_TASK);
        assert_eq!(r3, 469 * DEFAULT_BYTES_PER_TASK);
        let total = job_shuffle_bytes(&j, DEFAULT_BYTES_PER_TASK);
        assert!(r3 * 2 > total, "fact-scan edge should dominate");
    }
}
