//! A TPC-DS-like workload: 52 Hive-style query DAGs (§6.1).
//!
//! "For the batch workloads, we run 52 different Hive queries (which
//! translate into DAGs of relational processing tasks) from the TPC-DS
//! benchmark." The real Hive plans are not redistributable, so 51 of the
//! queries are synthesized with Hive-like shapes (map fan-in, reducer
//! chains with shrinking widths, small broadcast-join mappers feeding
//! later stages). Query 19 is reconstructed exactly from Figure 7: eleven
//! vertices whose per-level concurrencies are 8, 469, 113, 126, 138, 6, 1
//! — so the breadth-first estimate is 469 concurrent containers.

use harvest_sim::rng::indexed_rng;
use harvest_sim::{dist, SimDuration};
use rand::RngExt;

use crate::dag::{stage, DagJob, Stage, StageId};

/// Number of queries in the suite.
pub(crate) const SUITE_SIZE: usize = 52;

/// The full 52-query suite, deterministically generated. `suite()[18]` is
/// query 19 (Figure 7).
pub fn tpcds_suite() -> Vec<DagJob> {
    (1..=SUITE_SIZE).map(query).collect()
}

/// TPC-DS-like query `n` (1-based).
///
/// # Panics
///
/// Panics if `n` is 0 or greater than [`SUITE_SIZE`].
pub(crate) fn query(n: usize) -> DagJob {
    assert!(
        (1..=SUITE_SIZE).contains(&n),
        "query number must be 1..={SUITE_SIZE}, got {n}"
    );
    if n == 19 {
        return query_19();
    }
    synth_query(n)
}

/// TPC-DS query 19 exactly as in Figure 7.
///
/// The DAG's BFS levels hold 8, 469, 113, 126, 138, 6, and 1 concurrent
/// tasks; [`crate::estimate::max_concurrent_tasks`] returns 469.
pub fn query_19() -> DagJob {
    DagJob::new(
        "q19",
        vec![
            // Level 0: small dimension-table mappers (8 concurrent tasks).
            stage("Mapper 1", 1, 45, vec![]),
            stage("Mapper 8", 1, 45, vec![]),
            stage("Mapper 9", 3, 40, vec![]),
            stage("Mapper 10", 2, 40, vec![]),
            stage("Mapper 11", 1, 40, vec![]),
            // Level 1: the fact-table scan, broadcast-joined against the
            // dimension mappers.
            stage("Mapper 2", 469, 60, vec![0, 1]),
            // Levels 2-6: the reducer chain, each joining one more small
            // mapper output.
            stage("Reducer 3", 113, 50, vec![5]),
            stage("Reducer 4", 126, 45, vec![6, 2]),
            stage("Reducer 5", 138, 45, vec![7, 3]),
            stage("Reducer 6", 6, 35, vec![8, 4]),
            stage("Reducer 7", 1, 30, vec![9]),
        ],
    )
}

/// Synthesizes a Hive-like DAG for query `n`, deterministic in `n`.
///
/// Queries cycle through three size classes so the suite's duration
/// distribution spans the short/medium/long thresholds: roughly a third
/// of queries have critical paths under 173 s, a third between the
/// thresholds, and a third over 433 s.
fn synth_query(n: usize) -> DagJob {
    let mut rng = indexed_rng(0x7DC5, "tpcds", n as u64);
    // Reducer-chain depth determines the critical path; durations below
    // put each class on its side of the 173 s / 433 s thresholds. Widths
    // follow the paper's capacity-matching: the aggregate demand of each
    // job type should roughly match the capacity of its preferred tenant
    // class (§4.1), so long jobs are deep but narrow (constant tenants
    // are few), medium jobs widest (periodic tenants hold the most
    // servers), and short jobs modest (unpredictable tenants are small).
    let (depth, task_secs_lo, task_secs_hi, width_lo, width_hi) = match n % 3 {
        0 => (1usize, 40u64, 70u64, 15u32, 70u32), // short: ~2 levels, 80-140 s
        1 => (3, 60, 95, 60, 240),                 // medium: ~4 levels, 240-380 s
        _ => (6, 70, 110, 15, 60),                 // long: ~7 levels, 490-770 s
    };

    let mut stages: Vec<Stage> = Vec::new();

    // Root fact-table mapper: the wide scan.
    let fact_tasks = rng.random_range(width_lo..=width_hi);
    stages.push(stage(
        "Mapper 1",
        fact_tasks,
        rng.random_range(task_secs_lo..=task_secs_hi),
        vec![],
    ));

    // 0-3 small dimension-table mappers, available for later joins.
    let n_dims = rng.random_range(0..=3usize);
    let mut dim_ids: Vec<usize> = Vec::new();
    for d in 0..n_dims {
        dim_ids.push(stages.len());
        stages.push(stage(
            format!("Mapper {}", d + 2),
            rng.random_range(1..=8),
            rng.random_range(20..=45),
            vec![],
        ));
    }

    // The reducer chain: width shrinks level by level; some levels join
    // one of the dimension mappers.
    let mut prev = 0usize; // index of the stage the next reducer consumes
    let mut width = fact_tasks;
    for r in 0..depth {
        width = ((width as f64 * dist::uniform(&mut rng, 0.25, 0.6)).round() as u32).max(1);
        if r == depth - 1 {
            width = 1; // final aggregation
        }
        let mut deps = vec![prev];
        if let Some(pos) = dim_ids.pop() {
            deps.push(pos);
        }
        prev = stages.len();
        stages.push(Stage {
            name: format!("Reducer {}", r + 1),
            tasks: width,
            task_duration: SimDuration::from_secs(rng.random_range(task_secs_lo..=task_secs_hi)),
            deps: deps.into_iter().map(StageId).collect(),
        });
    }

    DagJob::new(format!("q{n:02}"), stages)
}

/// Multiplies a job's task durations and task counts (§6.1: the simulator
/// "multiplies their lengths and container usage by a scaling factor to
/// generate enough load for our large datacenters").
pub fn scale_job(job: &DagJob, duration_factor: f64, width_factor: f64) -> DagJob {
    assert!(duration_factor > 0.0 && width_factor > 0.0);
    let stages = job
        .stages
        .iter()
        .map(|s| Stage {
            name: s.name.clone(),
            tasks: ((s.tasks as f64 * width_factor).round() as u32).max(1),
            task_duration: s.task_duration.mul_f64(duration_factor),
            deps: s.deps.clone(),
        })
        .collect();
    DagJob::new(job.name.clone(), stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::max_concurrent_tasks;
    use crate::length::LengthThresholds;

    #[test]
    fn suite_has_52_queries() {
        let suite = tpcds_suite();
        assert_eq!(suite.len(), SUITE_SIZE);
        for (i, q) in suite.iter().enumerate() {
            assert_eq!(q, &query(i + 1), "query {} not deterministic", i + 1);
        }
    }

    #[test]
    fn query_19_matches_figure_7() {
        let q = query_19();
        assert_eq!(q.n_stages(), 11);
        assert_eq!(max_concurrent_tasks(&q), 469);
        // Per-level concurrencies from the figure: 8, 469, 113, 126, 138, 6, 1.
        let levels = q.levels();
        let max_level = *levels.iter().max().unwrap();
        let mut sums = vec![0u32; max_level + 1];
        for (i, s) in q.stages.iter().enumerate() {
            sums[levels[i]] += s.tasks;
        }
        assert_eq!(sums, vec![8, 469, 113, 126, 138, 6, 1]);
    }

    #[test]
    fn suite_index_18_is_q19() {
        assert_eq!(tpcds_suite()[18], query_19());
    }

    #[test]
    fn durations_span_all_three_length_classes() {
        let t = LengthThresholds::paper_testbed();
        let mut counts = [0usize; 3];
        for q in tpcds_suite() {
            match t.classify(q.critical_path()) {
                crate::length::JobLength::Short => counts[0] += 1,
                crate::length::JobLength::Medium => counts[1] += 1,
                crate::length::JobLength::Long => counts[2] += 1,
            }
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c >= 10, "class {i} underrepresented: {counts:?}");
        }
    }

    #[test]
    fn all_queries_are_valid_dags() {
        for q in tpcds_suite() {
            // DagJob::new already validates; exercise derived quantities.
            assert!(q.total_tasks() >= 2);
            assert!(q.critical_path() > SimDuration::ZERO);
            assert!(max_concurrent_tasks(&q) >= 1);
            // Every query ends in a single-task aggregation.
            assert_eq!(q.stages.last().unwrap().tasks, 1);
        }
    }

    #[test]
    fn scale_job_multiplies_width_and_length() {
        let q = query_19();
        let scaled = scale_job(&q, 2.0, 0.5);
        assert_eq!(
            scaled.critical_path().as_millis(),
            q.critical_path().as_millis() * 2
        );
        let orig_m2 = &q.stages[5];
        let new_m2 = &scaled.stages[5];
        assert_eq!(new_m2.tasks, orig_m2.tasks.div_ceil(2));
        // Tiny stages never drop to zero tasks.
        assert!(scaled.stages.iter().all(|s| s.tasks >= 1));
    }

    #[test]
    #[should_panic(expected = "query number")]
    fn query_zero_panics() {
        query(0);
    }
}
