//! Per-job execution tracking — the Application Master's bookkeeping.
//!
//! §5.1: "The AM decides which tasks it should execute in each container.
//! The AM also tracks the tasks' execution, sequencing them appropriately,
//! and re-starting any killed tasks." [`JobExecution`] is that state
//! machine: it knows which stages are ready (all dependencies complete),
//! hands out tasks, and returns killed tasks to the pending pool.
//!
//! # Cost model
//!
//! The scheduler asks every runnable job for its ready-task count on
//! every scheduling pass — millions of times per datacenter-scale run,
//! nearly always to hear "none". The count is therefore kept as a field
//! and answered in O(1): starting a task takes one away, a kill gives
//! one back (a running task's stage is always ready), and only a task
//! that completes its stage — the one event that can make other stages
//! ready — rescans the DAG. Whole-job completion is a count of finished
//! stages. Debug builds check the cached count against the full scan on
//! every read.

use harvest_sim::{SimDuration, SimTime};

use crate::dag::{DagJob, StageId};

/// Execution state of one submitted job.
#[derive(Debug, Clone)]
pub struct JobExecution {
    job: DagJob,
    pending: Vec<u32>,
    running: Vec<u32>,
    done: Vec<u32>,
    /// Σ pending tasks over ready stages (what [`Self::ready_task_count`]
    /// returns), maintained incrementally.
    ready: u32,
    /// Stages whose every task has finished.
    stages_done: usize,
    submitted: SimTime,
    finished: Option<SimTime>,
    kills: u64,
}

impl JobExecution {
    /// Starts tracking a job submitted at `submitted`.
    pub fn new(job: DagJob, submitted: SimTime) -> Self {
        let pending: Vec<u32> = job.stages.iter().map(|s| s.tasks).collect();
        let n = job.stages.len();
        let mut exec = JobExecution {
            job,
            pending,
            running: vec![0; n],
            done: vec![0; n],
            ready: 0,
            stages_done: 0,
            submitted,
            finished: None,
            kills: 0,
        };
        exec.ready = exec.scan_ready_count();
        exec
    }

    /// The job being executed.
    pub fn job(&self) -> &DagJob {
        &self.job
    }

    /// When the job was submitted.
    pub fn submitted(&self) -> SimTime {
        self.submitted
    }

    /// Submission-to-completion time, if finished.
    pub fn execution_time(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.since(self.submitted))
    }

    /// Total task kills suffered so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Whether every task of every stage has completed.
    pub fn is_complete(&self) -> bool {
        self.finished.is_some()
    }

    /// Whether a stage's dependencies have all fully completed.
    pub(crate) fn stage_ready(&self, stage: StageId) -> bool {
        self.job.stages[stage.0]
            .deps
            .iter()
            .all(|d| self.done[d.0] == self.job.stages[d.0].tasks)
    }

    /// The first stage at index `from` or later that is ready and still
    /// has unstarted tasks. Walking `next_ready_stage(0)`,
    /// `next_ready_stage(s + 1)`, … visits every such stage in DAG
    /// order without collecting them.
    pub fn next_ready_stage(&self, from: usize) -> Option<StageId> {
        (from..self.job.stages.len())
            .map(StageId)
            .find(|&s| self.pending[s.0] > 0 && self.stage_ready(s))
    }

    /// Total tasks that could start right now. O(1): the count is
    /// maintained by every state change (see the module docs).
    pub fn ready_task_count(&self) -> u32 {
        debug_assert_eq!(
            self.ready,
            self.scan_ready_count(),
            "cached ready-task count of {} diverged from the scan",
            self.job.name
        );
        self.ready
    }

    /// The ready-task count recomputed from the DAG: pending tasks
    /// summed over every stage whose dependencies are complete.
    fn scan_ready_count(&self) -> u32 {
        (0..self.job.stages.len())
            .map(StageId)
            .filter(|&s| self.stage_ready(s))
            .map(|s| self.pending[s.0])
            .sum()
    }

    /// Tasks of `stage` not yet started.
    pub fn pending_tasks(&self, stage: StageId) -> u32 {
        self.pending[stage.0]
    }

    /// Tasks of `stage` currently running.
    pub fn running_tasks(&self, stage: StageId) -> u32 {
        self.running[stage.0]
    }

    /// Marks one pending task of `stage` as running.
    ///
    /// # Panics
    ///
    /// Panics if the stage is not ready or has no pending tasks.
    pub fn start_task(&mut self, stage: StageId) {
        assert!(self.stage_ready(stage), "stage {} not ready", stage.0);
        assert!(
            self.pending[stage.0] > 0,
            "stage {} has no pending tasks",
            stage.0
        );
        self.pending[stage.0] -= 1;
        self.running[stage.0] += 1;
        self.ready -= 1;
    }

    /// The per-task duration of `stage`.
    pub fn task_duration(&self, stage: StageId) -> SimDuration {
        self.job.stages[stage.0].task_duration
    }

    /// Marks one running task of `stage` as finished at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the stage has no running tasks.
    pub fn finish_task(&mut self, stage: StageId, now: SimTime) {
        assert!(
            self.running[stage.0] > 0,
            "stage {} has no running tasks",
            stage.0
        );
        self.running[stage.0] -= 1;
        self.done[stage.0] += 1;
        if self.done[stage.0] == self.job.stages[stage.0].tasks {
            // Only a completed stage can make dependents ready.
            self.stages_done += 1;
            self.ready = self.scan_ready_count();
            if self.stages_done == self.job.stages.len() {
                self.finished = Some(now);
            }
        }
    }

    /// Returns a killed running task of `stage` to the pending pool
    /// (killed tasks re-run from scratch).
    ///
    /// # Panics
    ///
    /// Panics if the stage has no running tasks.
    pub fn kill_task(&mut self, stage: StageId) {
        assert!(
            self.running[stage.0] > 0,
            "stage {} has no running tasks",
            stage.0
        );
        self.running[stage.0] -= 1;
        self.pending[stage.0] += 1;
        // The task ran, so its stage was (and stays) ready.
        self.ready += 1;
        self.kills += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::stage;

    impl JobExecution {
        /// Takes one ready task (from the earliest ready stage) and marks it
        /// running. Returns the stage it came from, or `None` if nothing is
        /// ready.
        fn start_next_task(&mut self) -> Option<StageId> {
            let stage = self.next_ready_stage(0)?;
            self.start_task(stage);
            Some(stage)
        }
    }

    fn job() -> DagJob {
        DagJob::new(
            "j",
            vec![stage("m", 2, 10, vec![]), stage("r", 1, 20, vec![0])],
        )
    }

    #[test]
    fn executes_in_dependency_order() {
        let mut e = JobExecution::new(job(), SimTime::ZERO);
        assert_eq!(e.next_ready_stage(0), Some(StageId(0)));
        assert_eq!(e.next_ready_stage(1), None);
        assert_eq!(e.ready_task_count(), 2);
        // Reducer blocked until both mappers finish.
        e.start_task(StageId(0));
        e.start_task(StageId(0));
        assert_eq!(e.ready_task_count(), 0);
        e.finish_task(StageId(0), SimTime::from_secs(10));
        assert!(!e.stage_ready(StageId(1)));
        e.finish_task(StageId(0), SimTime::from_secs(10));
        assert!(e.stage_ready(StageId(1)));
        assert_eq!(e.next_ready_stage(0), Some(StageId(1)));
        assert_eq!(e.ready_task_count(), 1);
        e.start_task(StageId(1));
        assert!(!e.is_complete());
        e.finish_task(StageId(1), SimTime::from_secs(30));
        assert!(e.is_complete());
        assert_eq!(e.execution_time(), Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn kills_requeue_tasks() {
        let mut e = JobExecution::new(job(), SimTime::ZERO);
        e.start_task(StageId(0));
        assert_eq!(e.pending_tasks(StageId(0)), 1);
        assert_eq!(e.ready_task_count(), 1);
        e.kill_task(StageId(0));
        assert_eq!(e.pending_tasks(StageId(0)), 2);
        assert_eq!(e.ready_task_count(), 2);
        assert_eq!(e.running_tasks(StageId(0)), 0);
        assert_eq!(e.kills(), 1);
        // The killed task can start again.
        e.start_task(StageId(0));
    }

    #[test]
    fn start_next_takes_earliest_ready() {
        let two_roots = DagJob::new(
            "j2",
            vec![stage("a", 1, 5, vec![]), stage("b", 1, 5, vec![])],
        );
        let mut e = JobExecution::new(two_roots, SimTime::ZERO);
        assert_eq!(e.next_ready_stage(0), Some(StageId(0)));
        assert_eq!(e.next_ready_stage(1), Some(StageId(1)));
        assert_eq!(e.next_ready_stage(2), None);
        assert_eq!(e.start_next_task(), Some(StageId(0)));
        assert_eq!(e.start_next_task(), Some(StageId(1)));
        assert_eq!(e.start_next_task(), None);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn starting_blocked_stage_panics() {
        let mut e = JobExecution::new(job(), SimTime::ZERO);
        e.start_task(StageId(1));
    }

    #[test]
    #[should_panic(expected = "no running tasks")]
    fn finishing_idle_stage_panics() {
        let mut e = JobExecution::new(job(), SimTime::ZERO);
        e.finish_task(StageId(0), SimTime::ZERO);
    }

    #[test]
    fn task_duration_lookup() {
        let e = JobExecution::new(job(), SimTime::ZERO);
        assert_eq!(e.task_duration(StageId(1)), SimDuration::from_secs(20));
    }
}
