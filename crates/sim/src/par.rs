//! Deterministic order-preserving parallel map.
//!
//! The experiment harness is an embarrassingly-parallel matrix: every
//! `(sweep point × run)` is an independent simulation whose inputs are a
//! task descriptor plus shared read-only state (a [`crate::rng`] seed
//! stream per task keeps the random streams decorrelated no matter which
//! worker executes it). [`par_map`] fans such a list out for trusted
//! set-up work (building datacenters, utilization views) on the one
//! worker loop in [`crate::supervise`]: `std::thread::scope` workers pull
//! indices from one atomic cursor (work stealing without queues) and each
//! result lands in its input slot.
//!
//! # Determinism contract
//!
//! `par_map(jobs, tasks, f)` returns *the same bytes* as
//! `tasks.iter().map(f)` for any `jobs`, provided `f` is a pure function
//! of its task (and of shared *immutable* state). Thread count and
//! scheduling only decide *who* computes a slot, never *what* goes in it
//! or where: results are placed by input index, and every aggregation a
//! caller performs over the returned `Vec` happens on the calling thread
//! in input order, so even float reduction order is unchanged. That is
//! why determinism is free — there is no reduction tree whose shape
//! depends on `jobs`. `jobs == 1` is not a thread-free path: it runs the
//! same loop on one spawned worker, so `repro --jobs 1` is the sequential
//! reference by task order, and the contract is unchanged.
//!
//! # Cost model
//!
//! * Task granularity: one claim is one `fetch_add` (~nanoseconds) plus
//!   the supervision bookkeeping of [`crate::supervise`] (a
//!   `catch_unwind` frame and two uncontended mutex stores), so tasks of
//!   ≥ tens of microseconds amortize it fully. The harness's tasks are
//!   whole simulations (milliseconds to minutes); per-tenant
//!   classification tasks (~100 µs) still amortize it ~10³×.
//! * Imbalance: the atomic cursor is claim-by-one, so a convoy of cheap
//!   tasks behind one expensive task costs at most
//!   `max(task) + total/jobs` wall clock — no static partitioning
//!   cliffs. Put the expensive axis (runs, tenants) in the task list
//!   rather than inside one task when possible.

use crate::supervise::{par_map_supervised, RetryBudget, SuperviseConfig};

/// The default worker count for parallel sweeps: every core the OS
/// grants us, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `tasks` on up to `jobs` worker threads, returning the
/// results in input order — byte-identical to the sequential map for
/// any `jobs` (see the module docs for the contract).
///
/// Fail-fast: there are no retries, and a panicking task panics the
/// caller — naming the worker, the task and the payload — once the
/// other workers have drained.
pub fn par_map<T, R, F>(jobs: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cfg = SuperviseConfig {
        retry: RetryBudget {
            max_retries: 0,
            ..RetryBudget::default()
        },
        ..SuperviseConfig::default()
    };
    let sup = par_map_supervised(jobs, tasks, &cfg, |_, t, _| f(t));
    if let Some(q) = sup.quarantined.first() {
        let owner = sup
            .profiles
            .iter()
            .find(|p| p.tasks.iter().any(|t| t.task == q.task));
        let w = owner.expect("every claimed task is profiled").worker;
        panic!(
            "par_map worker {w} panicked on task {}: {}",
            q.task, q.payload
        );
    }
    sup.results
        .into_iter()
        .map(|r| r.expect("an uncancelled task that did not panic fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::{panic_message, par_map_supervised_with};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u64> = par_map(8, &[], |x: &u64| x + 1);
        assert!(none.is_empty());
        assert_eq!(par_map(8, &[41u64], |x| x + 1), vec![42]);
    }

    #[test]
    fn order_preserved_under_contention_with_unbalanced_costs() {
        // 64 tasks with deliberately unbalanced costs (task i spins
        // proportionally to a sawtooth of i, so early tasks are the
        // expensive ones and late claimers finish first) on more
        // workers than cores — maximum claim contention. The output
        // must still be exactly the input order.
        let tasks: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = tasks.iter().map(|&i| i * i + 1).collect();
        for jobs in [2, 3, 7, 16] {
            let got = par_map(jobs, &tasks, |&i| {
                let spin = (64 - i % 64) * 500;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k ^ i);
                }
                std::hint::black_box(acc);
                i * i + 1
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn matches_sequential_reference_bytewise() {
        // Float results: parallel must reproduce the sequential bits.
        let tasks: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e9).sqrt();
        let seq: Vec<f64> = tasks.iter().map(f).collect();
        for jobs in [1, 5] {
            let par = par_map(jobs, &tasks, f);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..100).collect();
        let out = par_map(4, &tasks, |&i| {
            HITS.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(HITS.load(Ordering::Relaxed), 100);
        assert_eq!(out, tasks);
    }

    #[test]
    fn per_worker_scratch_is_reused_not_shared() {
        // Each worker's scratch counts the tasks it claimed; the counts
        // must sum to the task count (every init is a fresh scratch).
        let tasks: Vec<usize> = (0..64).collect();
        let sup = par_map_supervised_with(
            4,
            &tasks,
            &SuperviseConfig::default(),
            || 0usize,
            |i| i.to_string(),
            |_, _| {},
            |claimed, _, &i, _| {
                *claimed += 1;
                (i, *claimed)
            },
        );
        let out: Vec<(usize, usize)> = sup.results.into_iter().map(Option::unwrap).collect();
        // Input order preserved on the task ids.
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), tasks);
        // Scratch is per worker, not per task: with 64 tasks over at
        // most 4 workers, pigeonhole forces some worker's scratch to
        // count at least 16 claims — an init-per-task regression would
        // leave every count at 1.
        let max_claims = out.iter().map(|&(_, c)| c).max().unwrap();
        assert!(max_claims >= 16, "max scratch count {max_claims} < 16");
        assert!(out.iter().all(|&(_, c)| (1..=64).contains(&c)));
        // Not shared: each worker's final count is the number of tasks
        // its profile says it claimed.
        for p in &sup.profiles {
            if let Some(last) = p.tasks.last() {
                assert_eq!(out[last.task].1, p.tasks.len(), "worker {}", p.worker);
            }
        }
    }

    #[test]
    fn worker_panic_names_worker_and_task() {
        let tasks: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(2, &tasks, |&i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = panic_message(&*payload);
        assert!(msg.contains("par_map worker"), "message: {msg}");
        assert!(msg.contains("on task 3"), "message: {msg}");
        assert!(msg.contains("boom"), "message: {msg}");
    }

    #[test]
    fn profiled_worker_panic_names_worker_and_task() {
        // A quarantined task is still timed, by the worker that ran it.
        let tasks: Vec<u64> = (0..8).collect();
        let cfg = SuperviseConfig {
            retry: RetryBudget {
                max_retries: 0,
                ..RetryBudget::default()
            },
            ..SuperviseConfig::default()
        };
        let sup = par_map_supervised(2, &tasks, &cfg, |_, &i, _| {
            if i == 5 {
                panic!("boom-profiled");
            }
            i
        });
        assert_eq!(sup.quarantined.len(), 1);
        assert_eq!(sup.quarantined[0].task, 5);
        assert!(sup.quarantined[0].payload.contains("boom-profiled"));
        let owners: Vec<usize> = sup
            .profiles
            .iter()
            .filter(|p| p.tasks.iter().any(|t| t.task == 5))
            .map(|p| p.worker)
            .collect();
        assert_eq!(owners.len(), 1, "task 5 timed by workers {owners:?}");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn profiled_matches_unprofiled_results() {
        let tasks: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e9).sqrt();
        let plain = par_map(5, &tasks, f);
        let sup = par_map_supervised(5, &tasks, &SuperviseConfig::default(), |_, x, _| f(x));
        for (a, b) in plain.iter().zip(&sup.results) {
            assert_eq!(a.to_bits(), b.unwrap().to_bits());
        }
        assert_eq!(sup.profiles.len(), 5);
        // Every task timed exactly once, across all workers.
        let mut seen: Vec<usize> = sup
            .profiles
            .iter()
            .flat_map(|p| p.tasks.iter().map(|t| t.task))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..tasks.len()).collect::<Vec<_>>());
        for p in &sup.profiles {
            for t in &p.tasks {
                assert!(t.end_us >= t.start_us);
            }
            let busy_us: u64 = p.tasks.iter().map(|t| t.end_us - t.start_us).sum();
            assert!(busy_us <= p.tasks.last().map_or(0, |t| t.end_us));
        }
    }
}
