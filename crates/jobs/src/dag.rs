//! Job DAGs: stages of parallel tasks connected by dependencies.

use harvest_sim::SimDuration;

/// Index of a stage within its job's DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub usize);

/// One vertex of a job DAG: a set of identical parallel tasks (e.g.
/// "Mapper 2" with 469 tasks in Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Display name ("Mapper 2", "Reducer 5").
    pub name: String,
    /// Number of parallel tasks in the stage.
    pub tasks: u32,
    /// Duration of each task.
    pub task_duration: SimDuration,
    /// Stages that must fully complete before this one can start.
    pub deps: Vec<StageId>,
}

/// A batch job: a named DAG of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct DagJob {
    /// Job name (used as the key for job-length history).
    pub name: String,
    /// The stages, in an order consistent with dependencies (deps always
    /// point to lower indices — enforced by [`DagJob::new`]).
    pub stages: Vec<Stage>,
}

impl DagJob {
    /// Creates a job, validating the DAG.
    ///
    /// # Panics
    ///
    /// Panics if the job has no stages, a stage has no tasks, or a
    /// dependency points at itself or a later stage (which guarantees
    /// acyclicity and gives a built-in topological order).
    pub fn new(name: impl Into<String>, stages: Vec<Stage>) -> Self {
        let name = name.into();
        assert!(!stages.is_empty(), "job {name} has no stages");
        for (i, s) in stages.iter().enumerate() {
            assert!(s.tasks > 0, "stage {} of {name} has zero tasks", s.name);
            assert!(
                s.task_duration > SimDuration::ZERO,
                "stage {} of {name} has zero duration",
                s.name
            );
            for d in &s.deps {
                assert!(
                    d.0 < i,
                    "stage {} of {name} depends on stage {} (must be earlier)",
                    s.name,
                    d.0
                );
            }
        }
        DagJob { name, stages }
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total compute demand: Σ tasks × duration.
    pub fn total_work(&self) -> SimDuration {
        let ms: u64 = self
            .stages
            .iter()
            .map(|s| s.tasks as u64 * s.task_duration.as_millis())
            .sum();
        SimDuration::from_millis(ms)
    }

    /// The critical-path duration: the longest dependency chain, where a
    /// stage contributes one task duration (its tasks run in parallel).
    ///
    /// This is the job's minimum possible execution time given unlimited
    /// containers.
    pub fn critical_path(&self) -> SimDuration {
        let mut finish = vec![0u64; self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            let dep_finish = s.deps.iter().map(|d| finish[d.0]).max().unwrap_or(0);
            finish[i] = dep_finish + s.task_duration.as_millis();
        }
        SimDuration::from_millis(finish.into_iter().max().unwrap_or(0))
    }

    /// The depth (BFS level) of every stage: roots are level 0, and each
    /// stage sits one past its deepest dependency.
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            level[i] = s.deps.iter().map(|d| level[d.0] + 1).max().unwrap_or(0);
        }
        level
    }
}

/// Convenience constructor for a stage.
pub fn stage(name: impl Into<String>, tasks: u32, task_secs: u64, deps: Vec<usize>) -> Stage {
    Stage {
        name: name.into(),
        tasks,
        task_duration: SimDuration::from_secs(task_secs),
        deps: deps.into_iter().map(StageId).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DagJob {
        /// Total number of tasks across all stages.
        pub(crate) fn total_tasks(&self) -> u64 {
            self.stages.iter().map(|s| s.tasks as u64).sum()
        }

        /// Stages with no dependencies.
        fn roots(&self) -> Vec<StageId> {
            self.stages
                .iter()
                .enumerate()
                .filter(|(_, s)| s.deps.is_empty())
                .map(|(i, _)| StageId(i))
                .collect()
        }
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
    fn totals() {
        let j = diamond();
        assert_eq!(j.n_stages(), 4);
        assert_eq!(j.total_tasks(), 36);
        let work = 10 * 30 + 20 * 30 + 5 * 60 + 10;
        assert_eq!(j.total_work().as_secs(), work);
    }

    #[test]
    fn critical_path_longest_chain() {
        let j = diamond();
        // m (30) -> r1 (60) -> r2 (10) = 100s.
        assert_eq!(j.critical_path().as_secs(), 100);
    }

    #[test]
    fn roots_and_levels() {
        let j = diamond();
        assert_eq!(j.roots(), vec![StageId(0), StageId(1)]);
        assert_eq!(j.levels(), vec![0, 0, 1, 2]);
    }

    #[test]
    fn single_stage_job() {
        let j = DagJob::new("one", vec![stage("m", 3, 5, vec![])]);
        assert_eq!(j.critical_path().as_secs(), 5);
        assert_eq!(j.levels(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "has no stages")]
    fn empty_job_panics() {
        DagJob::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "zero tasks")]
    fn zero_tasks_panics() {
        DagJob::new("bad", vec![stage("m", 0, 5, vec![])]);
    }

    #[test]
    #[should_panic(expected = "must be earlier")]
    fn forward_dep_panics() {
        DagJob::new(
            "bad",
            vec![stage("a", 1, 5, vec![1]), stage("b", 1, 5, vec![])],
        );
    }

    #[test]
    #[should_panic(expected = "must be earlier")]
    fn self_dep_panics() {
        DagJob::new("bad", vec![stage("a", 1, 5, vec![0])]);
    }
}
