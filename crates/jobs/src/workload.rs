//! Job arrival processes.
//!
//! §6.1: "We assume Poisson inter-arrival times (mean 300 seconds) for
//! the queries."

use harvest_sim::{dist, SimDuration, SimTime};
use rand::{Rng, RngExt};

use crate::dag::DagJob;

/// One job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// When the job is submitted.
    pub time: SimTime,
    /// Index into the workload's query suite.
    pub query: usize,
}

/// Generates a Poisson arrival stream over `horizon`, choosing queries
/// uniformly at random from a suite of `n_queries`.
///
/// # Panics
///
/// Panics if `n_queries` is zero or `mean_gap` is zero.
pub(crate) fn poisson_arrivals<R: Rng + ?Sized>(
    rng: &mut R,
    n_queries: usize,
    mean_gap: SimDuration,
    horizon: SimDuration,
) -> Vec<JobArrival> {
    assert!(n_queries > 0, "need at least one query");
    assert!(mean_gap > SimDuration::ZERO, "mean gap must be positive");
    let rate = 1.0 / mean_gap.as_secs_f64();
    let mut arrivals = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let gap = SimDuration::from_secs_f64(dist::exponential(rng, rate));
        t += gap;
        if t.since(SimTime::ZERO) >= horizon {
            break;
        }
        arrivals.push(JobArrival {
            time: t,
            query: rng.random_range(0..n_queries),
        });
    }
    arrivals
}

/// A workload: a query suite plus its arrival stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The query DAGs.
    pub queries: Vec<DagJob>,
    /// Submissions, sorted by time.
    pub arrivals: Vec<JobArrival>,
}

impl Workload {
    /// Builds a workload over `horizon` with Poisson arrivals of mean
    /// `mean_gap` drawn from `queries`.
    pub fn poisson<R: Rng + ?Sized>(
        rng: &mut R,
        queries: Vec<DagJob>,
        mean_gap: SimDuration,
        horizon: SimDuration,
    ) -> Self {
        let arrivals = poisson_arrivals(rng, queries.len(), mean_gap, horizon);
        Workload { queries, arrivals }
    }

    /// Number of submissions.
    pub fn n_jobs(&self) -> usize {
        self.arrivals.len()
    }

    /// The job DAG for an arrival.
    pub fn job_of(&self, arrival: &JobArrival) -> &DagJob {
        &self.queries[arrival.query]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcds::tpcds_suite;
    use harvest_sim::rng::stream_rng;

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let mut rng = stream_rng(3, "wl");
        let horizon = SimDuration::from_hours(5);
        let arrivals = poisson_arrivals(&mut rng, 52, SimDuration::from_secs(300), horizon);
        assert!(arrivals.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(arrivals
            .iter()
            .all(|a| a.time.since(SimTime::ZERO) < horizon));
        assert!(arrivals.iter().all(|a| a.query < 52));
    }

    #[test]
    fn mean_gap_is_respected() {
        let mut rng = stream_rng(5, "gap");
        let horizon = SimDuration::from_days(30);
        let arrivals = poisson_arrivals(&mut rng, 10, SimDuration::from_secs(300), horizon);
        // Expect ~8640 arrivals over 30 days at one per 300 s.
        let expected = horizon.as_secs_f64() / 300.0;
        let n = arrivals.len() as f64;
        assert!(
            (n - expected).abs() / expected < 0.05,
            "{n} arrivals vs expected {expected}"
        );
    }

    #[test]
    fn workload_lookup() {
        let mut rng = stream_rng(7, "wl2");
        let wl = Workload::poisson(
            &mut rng,
            tpcds_suite(),
            SimDuration::from_secs(300),
            SimDuration::from_hours(5),
        );
        assert!(wl.n_jobs() > 30, "5h at 300s gaps should yield ~60 jobs");
        for a in &wl.arrivals {
            let job = wl.job_of(a);
            assert!(!job.stages.is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let horizon = SimDuration::from_hours(2);
        let a = poisson_arrivals(
            &mut stream_rng(9, "det"),
            5,
            SimDuration::from_secs(100),
            horizon,
        );
        let b = poisson_arrivals(
            &mut stream_rng(9, "det"),
            5,
            SimDuration::from_secs(100),
            horizon,
        );
        assert_eq!(a, b);
    }
}
