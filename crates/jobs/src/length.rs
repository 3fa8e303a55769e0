//! Job-length typing from the previous run (Algorithm 1, line 3).
//!
//! "We categorize a job as short, medium, or long by comparing the
//! duration of its last execution to two pre-defined thresholds. … We
//! assume that a job that has not executed before is a medium job. After
//! a possible error in this first guess, we find that a job consistently
//! falls into the same type." The testbed thresholds are 173 s and 433 s
//! (§6.1).

use std::collections::HashMap;

use harvest_sim::SimDuration;

/// A job's rough length type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobLength {
    /// Last run shorter than the short threshold. Short jobs only need
    /// resources *now*, so current utilization is all that matters.
    Short,
    /// Between the thresholds (also the default for first-time jobs).
    Medium,
    /// Last run longer than the long threshold. Long jobs need headroom
    /// that persists, so peak history matters.
    Long,
}

impl JobLength {
    /// A short lowercase label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            JobLength::Short => "short",
            JobLength::Medium => "medium",
            JobLength::Long => "long",
        }
    }
}

impl std::fmt::Display for JobLength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The two duration thresholds separating short/medium/long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthThresholds {
    /// Jobs with last run `< short_max` are short.
    pub short_max: SimDuration,
    /// Jobs with last run `> long_min` are long.
    pub long_min: SimDuration,
}

impl LengthThresholds {
    /// The paper's testbed thresholds: 173 s and 433 s (§6.1).
    pub fn paper_testbed() -> Self {
        LengthThresholds {
            short_max: SimDuration::from_secs(173),
            long_min: SimDuration::from_secs(433),
        }
    }

    /// Classifies a last-run duration.
    pub fn classify(&self, last_run: SimDuration) -> JobLength {
        if last_run < self.short_max {
            JobLength::Short
        } else if last_run > self.long_min {
            JobLength::Long
        } else {
            JobLength::Medium
        }
    }

    /// Derives thresholds from a historical distribution of job durations
    /// so each type holds roughly a third of the jobs (the paper sets
    /// thresholds "based on the historical distribution of job lengths
    /// and the current computational capacity of each preferred tenant
    /// class").
    pub fn from_history(mut durations: Vec<SimDuration>) -> Self {
        assert!(!durations.is_empty(), "need at least one duration");
        durations.sort_unstable();
        let n = durations.len();
        LengthThresholds {
            short_max: durations[n / 3],
            long_min: durations[(2 * n) / 3],
        }
    }
}

/// Remembers each job's last execution time and types jobs from it.
#[derive(Debug, Clone, Default)]
pub struct JobHistory {
    last_run: HashMap<String, SimDuration>,
}

impl JobHistory {
    /// An empty history (every job will type as medium).
    pub fn new() -> Self {
        JobHistory::default()
    }

    /// The length type of `job` under `thresholds`: from its last run if
    /// known, otherwise [`JobLength::Medium`].
    pub fn job_length(&self, job: &str, thresholds: &LengthThresholds) -> JobLength {
        match self.last_run.get(job) {
            Some(&d) => thresholds.classify(d),
            None => JobLength::Medium,
        }
    }

    /// Records a completed execution of `job`.
    pub fn record(&mut self, job: &str, duration: SimDuration) {
        self.last_run.insert(job.to_string(), duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl JobHistory {
        /// Number of jobs with recorded history.
        fn len(&self) -> usize {
            self.last_run.len()
        }

        /// The recorded last run of `job`, if any.
        fn last_run(&self, job: &str) -> Option<SimDuration> {
            self.last_run.get(job).copied()
        }
    }

    impl JobLength {
        /// All lengths in ascending order.
        const ALL: [JobLength; 3] = [JobLength::Short, JobLength::Medium, JobLength::Long];
    }

    #[test]
    fn paper_thresholds_classify() {
        let t = LengthThresholds::paper_testbed();
        assert_eq!(t.classify(SimDuration::from_secs(100)), JobLength::Short);
        assert_eq!(t.classify(SimDuration::from_secs(172)), JobLength::Short);
        assert_eq!(t.classify(SimDuration::from_secs(173)), JobLength::Medium);
        assert_eq!(t.classify(SimDuration::from_secs(433)), JobLength::Medium);
        assert_eq!(t.classify(SimDuration::from_secs(434)), JobLength::Long);
    }

    #[test]
    fn unknown_jobs_default_to_medium() {
        let h = JobHistory::new();
        let t = LengthThresholds::paper_testbed();
        assert_eq!(h.job_length("q1", &t), JobLength::Medium);
    }

    #[test]
    fn history_updates_typing() {
        let mut h = JobHistory::new();
        let t = LengthThresholds::paper_testbed();
        h.record("q1", SimDuration::from_secs(60));
        assert_eq!(h.job_length("q1", &t), JobLength::Short);
        h.record("q1", SimDuration::from_secs(600));
        assert_eq!(h.job_length("q1", &t), JobLength::Long);
        assert_eq!(h.last_run("q1"), Some(SimDuration::from_secs(600)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn thresholds_from_history_split_in_thirds() {
        let durations: Vec<SimDuration> =
            (1..=99).map(|i| SimDuration::from_secs(i * 10)).collect();
        let t = LengthThresholds::from_history(durations.clone());
        let mut counts = [0usize; 3];
        for d in durations {
            match t.classify(d) {
                JobLength::Short => counts[0] += 1,
                JobLength::Medium => counts[1] += 1,
                JobLength::Long => counts[2] += 1,
            }
        }
        for c in counts {
            assert!((30..=36).contains(&c), "counts {counts:?} unbalanced");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(JobLength::Short.to_string(), "short");
        assert_eq!(JobLength::ALL.len(), 3);
    }
}
