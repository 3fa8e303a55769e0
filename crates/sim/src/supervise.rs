//! The harness's one worker loop: a supervised, deterministic,
//! order-preserving parallel map with panic isolation, bounded retries,
//! straggler detection, and per-worker profiling.
//!
//! Every fan-out in the workspace runs on [`par_map_supervised_with`]:
//! the sweeps through `core::checkpoint`, the one-task calls of the
//! end-to-end benchmark through [`par_map_supervised`], and trusted
//! set-up fan-outs through [`crate::par::par_map`], a fail-fast adapter
//! with an empty retry budget. Long sweeps (hours of simulation across
//! thousands of tasks) need the contract that one bad task must not
//! cost the other 9 999:
//!
//! * **Panic isolation.** Every task runs under
//!   `std::panic::catch_unwind`. A panic consumes one attempt from a
//!   bounded [`RetryBudget`] (delays use the same stateless splitmix
//!   jitter shape as [`crate::fault::BackoffConfig`], so retry timing
//!   never perturbs any RNG stream); when the budget is exhausted the
//!   task is *quarantined* — its slot in the result vector stays `None`
//!   and a structured [`TaskFailure`] (task index, stable key, panic
//!   payload) is surfaced instead of a process abort. Every other slot
//!   is bitwise identical to a clean run, because results are placed by
//!   input index.
//! * **Deadlines and stragglers.** A watchdog thread polls per-attempt
//!   wall time against a deadline — fixed via
//!   [`SuperviseConfig::deadline`], or derived as a multiple of the
//!   running median task time once enough samples exist. Overdue tasks
//!   are flagged as [`Straggler`]s, at most once per task however often
//!   it is retried; when [`SuperviseConfig::cancel_overdue`] is set they
//!   are also cancelled cooperatively through the [`CancelToken`]
//!   handed to each task (engines check it at tick granularity). A task
//!   keeps one token across its retries, so a *cancelled* task stays
//!   cancelled and its result is discarded (slot `None`): a partial,
//!   timing-dependent result can never leak into deterministic output.
//!   A merely *flagged* straggler keeps its result.
//! * **Profiling.** Each worker times every task it claims, from the
//!   start of the first attempt to the end of the last, quarantined and
//!   cancelled tasks included, and returns the timings as a
//!   [`WorkerProfile`] for [`crate::obs::Recorder::record_worker_profiles`].
//!
//! # Determinism contract
//!
//! With no panics, no cancellations, and any deadline outcome that only
//! *flags*, the results are bitwise identical to `tasks.iter().map(f)`
//! at any `jobs`: worker count and scheduling decide only *who*
//! computes a slot, never what goes in it or where. Wall-clock artifacts
//! (retry delays, straggler timings, profiles) never enter the result
//! vector.
//!
//! # Cost model
//!
//! Per task: one `fetch_add` claim, one `catch_unwind` frame (~no cost
//! on the non-panic path), a few `Instant::now()` reads, and two
//! uncontended mutex stores to publish and retire the in-flight slot.
//! The watchdog is one thread that wakes every 10 ms to check deadlines
//! (it reads `jobs` mutexes per poll) and at once when the last worker
//! is joined, so a call returns as soon as its last task does. Results
//! are buffered per worker as `(index, R)` pairs and merged after the
//! join, so `R` should be a summary, not a trace. For the harness's
//! tasks (milliseconds to minutes each) all of this is noise — the
//! suite bench gates the sweeps against a recorded baseline.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::rng::splitmix64;

/// Cooperative cancellation handle handed to every supervised task.
///
/// Tasks (and the engines they run) may poll [`CancelToken::is_cancelled`]
/// at convenient granularity (a simulation tick, an event batch) and
/// return early. Cancellation is advisory: a task that never polls
/// simply runs to completion and has its result discarded.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub(crate) fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A task that exhausted its retry budget: quarantined, slot left `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Input index of the task.
    pub task: usize,
    /// The caller-stable key naming the task's seed stream (what a
    /// checkpoint journal would index it by).
    pub key: String,
    /// Attempts consumed, including the first (so `max_retries + 1`
    /// when the budget ran dry).
    pub attempts: u32,
    /// The panic payload, downcast to a string when possible.
    pub payload: String,
}

/// A task the watchdog saw exceed its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// Input index of the task.
    pub task: usize,
    /// Wall time observed when flagged, in milliseconds.
    pub elapsed_ms: u64,
    /// The deadline it exceeded, in milliseconds.
    pub deadline_ms: u64,
    /// Whether the task was cooperatively cancelled (result discarded)
    /// rather than merely flagged.
    pub cancelled: bool,
}

/// Wall-clock timing of one claimed task, as offsets from the
/// supervised call's entry: from the start of its first attempt to the
/// end of its last (retry delays included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    /// Input index of the task.
    pub task: usize,
    /// Start offset in microseconds.
    pub start_us: u64,
    /// End offset in microseconds.
    pub end_us: u64,
}

/// Everything one worker did during a supervised call: which tasks it
/// claimed and when. Gaps between consecutive spans are idle time
/// (waiting on the claim cursor or starved of work).
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    /// Worker index in `0..jobs`.
    pub worker: usize,
    /// Claimed tasks in claim order.
    pub tasks: Vec<TaskTiming>,
}

/// Bounded retry budget for panicking tasks.
///
/// Delays reuse the stateless jittered-exponential shape of
/// [`crate::fault::BackoffConfig::delay`] — a splitmix64 hash of
/// `(seed, task, attempt)`, no RNG stream consumed — scaled to wall
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Retries after the first attempt (0 = quarantine on first panic).
    pub max_retries: u32,
    /// Base delay before the first retry, in wall milliseconds.
    pub base_ms: u64,
    /// Ceiling on the exponential delay, in wall milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_retries: 2,
            base_ms: 25,
            cap_ms: 250,
        }
    }
}

impl RetryBudget {
    /// The wall-clock delay before retry number `attempt` (1-based) of
    /// `task`. Deterministic in `(seed, task, attempt)`.
    pub(crate) fn delay_ms(&self, seed: u64, task: u64, attempt: u32) -> u64 {
        let shift = (attempt.saturating_sub(1)).min(20);
        let raw = self.base_ms.saturating_mul(1u64 << shift);
        let capped = raw.min(self.cap_ms).max(1);
        let h = splitmix64(seed ^ splitmix64(task) ^ ((attempt as u64) << 40));
        capped + h % (capped / 2 + 1)
    }
}

/// Knobs for one supervised map.
#[derive(Debug, Clone, Default)]
pub struct SuperviseConfig {
    /// Retry budget for panicking tasks.
    pub retry: RetryBudget,
    /// Fixed per-task deadline. `None` derives one automatically: once
    /// at least `AUTO_MIN_SAMPLES` tasks have completed, a task is a
    /// straggler past `median × AUTO_MULTIPLE` (floored at
    /// `AUTO_FLOOR_MS`).
    pub deadline: Option<Duration>,
    /// Cancel overdue tasks through their [`CancelToken`] (discarding
    /// their result) instead of only flagging them. Flag-only is the
    /// default because it cannot change any output.
    pub cancel_overdue: bool,
    /// Seed for retry-delay jitter (wall-clock only, never results).
    pub seed: u64,
}

/// Completed samples required before the automatic deadline arms.
pub(crate) const AUTO_MIN_SAMPLES: usize = 5;
/// Automatic deadline as a multiple of the running median task time.
pub(crate) const AUTO_MULTIPLE: f64 = 8.0;
/// Floor for the automatic deadline, in milliseconds.
pub(crate) const AUTO_FLOOR_MS: u64 = 1000;

/// How often the watchdog checks in-flight tasks against the deadline.
const POLL: Duration = Duration::from_millis(10);

/// The outcome of a supervised map.
#[derive(Debug)]
pub struct Supervised<R> {
    /// One slot per input task, in input order. `None` exactly for
    /// quarantined or cancelled tasks.
    pub results: Vec<Option<R>>,
    /// Tasks that exhausted their retry budget, sorted by task index.
    pub quarantined: Vec<TaskFailure>,
    /// Tasks that exceeded the deadline, sorted by task index.
    pub stragglers: Vec<Straggler>,
    /// Total retry attempts consumed across all tasks.
    pub retries: u64,
    /// One profile per worker, in worker order: every claimed task is
    /// timed exactly once. Wall time, so it varies run to run even
    /// though `results` never does.
    pub profiles: Vec<WorkerProfile>,
    /// When the call started: the origin of every [`TaskTiming`]
    /// offset in `profiles`.
    pub epoch: Instant,
}

/// Renders a caught panic payload as a string.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What one worker is currently executing, published for the watchdog.
/// The token and the flag live as long as the task, across retries.
struct InFlight {
    task: usize,
    started: Instant,
    token: CancelToken,
    flagged: bool,
}

/// Locks supervision state. Caller code (tasks, `key_of`, `on_result`)
/// runs outside every lock, so a caller panic can never poison one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("supervision state is never locked across a panic")
}

/// The supervised map with per-worker scratch plus per-result and key
/// hooks — the one worker loop behind every fan-out:
///
/// * `init` runs once on each worker, and the resulting scratch is
///   threaded through every task that worker claims (buffer reuse
///   without sharing anything mutable across threads). The scratch must
///   not carry information between tasks that changes results, or the
///   determinism contract breaks.
/// * `key_of(i)` names task `i`'s stable seed stream — it labels
///   [`TaskFailure`]s and lets a checkpointing caller journal by key.
/// * `on_result(i, &r)` fires on the worker thread as soon as task `i`
///   completes un-cancelled (before the join), so a caller can stream
///   results to a journal; it must not mutate anything a task reads.
///
/// Up to `jobs` workers are spawned (never more than there are tasks,
/// and at least one), plus the watchdog; the caller's thread only
/// waits.
#[allow(clippy::too_many_arguments)]
pub fn par_map_supervised_with<T, R, S, I, F, K, C>(
    jobs: usize,
    tasks: &[T],
    cfg: &SuperviseConfig,
    init: I,
    key_of: K,
    on_result: C,
    f: F,
) -> Supervised<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T, &CancelToken) -> R + Sync,
    K: Fn(usize) -> String + Sync,
    C: Fn(usize, &R) + Sync,
{
    let jobs = jobs.max(1).min(tasks.len().max(1));
    let epoch = Instant::now();
    let micros = || epoch.elapsed().as_micros() as u64;

    let cursor = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    let inflight: Vec<Mutex<Option<InFlight>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let durations_ms: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let quarantined: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());
    let stragglers: Mutex<Vec<Straggler>> = Mutex::new(Vec::new());
    // Set once every worker is joined; the condvar wakes the watchdog.
    let done = Mutex::new(false);
    let wake = Condvar::new();

    let joined: Vec<(Vec<(usize, R)>, WorkerProfile)> = std::thread::scope(|scope| {
        let (cursor, retries, inflight) = (&cursor, &retries, &inflight);
        let (durations_ms, quarantined, stragglers) = (&durations_ms, &quarantined, &stragglers);
        let (done, wake) = (&done, &wake);
        let (init, f, key_of, on_result) = (&init, &f, &key_of, &on_result);
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                scope.spawn(move || {
                    let slot = &inflight[w];
                    let mut scratch = init();
                    let mut claimed: Vec<(usize, R)> = Vec::new();
                    let mut profile = WorkerProfile {
                        worker: w,
                        tasks: Vec::new(),
                    };
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        let start_us = micros();
                        let token = CancelToken::new();
                        let mut fl = InFlight {
                            task: i,
                            started: Instant::now(),
                            token: token.clone(),
                            flagged: false,
                        };
                        let mut attempt: u32 = 1;
                        let result = loop {
                            *lock(slot) = Some(fl);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i, task, &token)));
                            fl = lock(slot).take().expect("only its worker retires a slot");
                            match outcome {
                                Ok(r) => {
                                    lock(durations_ms)
                                        .push(fl.started.elapsed().as_millis() as u64);
                                    // Discard a cancelled task's result:
                                    // it is timing-dependent.
                                    break (!token.is_cancelled()).then_some(r);
                                }
                                Err(_) if attempt <= cfg.retry.max_retries => {
                                    retries.fetch_add(1, Ordering::Relaxed);
                                    let delay = cfg.retry.delay_ms(cfg.seed, i as u64, attempt);
                                    std::thread::sleep(Duration::from_millis(delay));
                                    attempt += 1;
                                    fl.started = Instant::now();
                                }
                                Err(payload) => {
                                    // Built before locking: `key_of` is
                                    // caller code.
                                    let failure = TaskFailure {
                                        task: i,
                                        key: key_of(i),
                                        attempts: attempt,
                                        payload: panic_message(&*payload),
                                    };
                                    lock(quarantined).push(failure);
                                    break None;
                                }
                            }
                        };
                        if let Some(r) = result {
                            on_result(i, &r);
                            claimed.push((i, r));
                        }
                        profile.tasks.push(TaskTiming {
                            task: i,
                            start_us,
                            end_us: micros(),
                        });
                    }
                    (claimed, profile)
                })
            })
            .collect();

        // The watchdog: check in-flight tasks against the deadline every
        // poll until the caller, having joined every worker, wakes it.
        let watchdog = scope.spawn(move || {
            let mut finished = lock(done);
            loop {
                finished = wake
                    .wait_timeout_while(finished, POLL, |finished| !*finished)
                    .expect("supervision state is never locked across a panic")
                    .0;
                if *finished {
                    break;
                }
                let deadline_ms = match cfg.deadline {
                    Some(d) => d.as_millis() as u64,
                    None => {
                        let mut samples = lock(durations_ms).clone();
                        if samples.len() < AUTO_MIN_SAMPLES {
                            continue;
                        }
                        samples.sort_unstable();
                        let median = samples[samples.len() / 2];
                        ((median as f64 * AUTO_MULTIPLE) as u64).max(AUTO_FLOOR_MS)
                    }
                };
                for slot in inflight.iter() {
                    if let Some(fl) = lock(slot).as_mut() {
                        let elapsed_ms = fl.started.elapsed().as_millis() as u64;
                        if !fl.flagged && elapsed_ms > deadline_ms {
                            fl.flagged = true;
                            if cfg.cancel_overdue {
                                fl.token.cancel();
                            }
                            lock(stragglers).push(Straggler {
                                task: fl.task,
                                elapsed_ms,
                                deadline_ms,
                                cancelled: cfg.cancel_overdue,
                            });
                        }
                    }
                }
            }
        });

        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        *lock(done) = true;
        wake.notify_one();
        if let Err(p) = watchdog.join() {
            panic!("supervision watchdog panicked: {}", panic_message(&*p));
        }
        joined
            .into_iter()
            .enumerate()
            .map(|(w, j)| {
                j.unwrap_or_else(|p| {
                    panic!(
                        "supervised worker {w} panicked outside a task: {}",
                        panic_message(&*p)
                    )
                })
            })
            .collect()
    });

    let mut results: Vec<Option<R>> = Vec::with_capacity(tasks.len());
    results.resize_with(tasks.len(), || None);
    let mut profiles = Vec::with_capacity(jobs);
    for (claimed, profile) in joined {
        for (i, r) in claimed {
            debug_assert!(results[i].is_none(), "slot {i} claimed twice");
            results[i] = Some(r);
        }
        profiles.push(profile);
    }
    let mut quarantined = quarantined.into_inner().expect("workers are joined");
    quarantined.sort_by_key(|q| q.task);
    let mut stragglers = stragglers.into_inner().expect("the watchdog is joined");
    stragglers.sort_by_key(|s| s.task);
    Supervised {
        results,
        quarantined,
        stragglers,
        retries: retries.into_inner(),
        profiles,
        epoch,
    }
}

/// Supervised map without scratch or hooks: panic isolation, retries,
/// the watchdog, and profiling over a plain task closure. Task keys
/// default to the decimal index.
pub fn par_map_supervised<T, R, F>(
    jobs: usize,
    tasks: &[T],
    cfg: &SuperviseConfig,
    f: F,
) -> Supervised<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &CancelToken) -> R + Sync,
{
    par_map_supervised_with(
        jobs,
        tasks,
        cfg,
        || (),
        |i| i.to_string(),
        |_, _| {},
        |(), i, t, token| f(i, t, token),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::par_map;
    use std::collections::HashMap;

    fn quick_retry() -> SuperviseConfig {
        SuperviseConfig {
            retry: RetryBudget {
                max_retries: 1,
                base_ms: 1,
                cap_ms: 2,
            },
            ..SuperviseConfig::default()
        }
    }

    #[test]
    fn clean_run_matches_par_map_bitwise() {
        let tasks: Vec<f64> = (0..97).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e9).sqrt();
        let plain = par_map(4, &tasks, f);
        for jobs in [1, 4] {
            let sup = par_map_supervised(jobs, &tasks, &SuperviseConfig::default(), |_, x, _| f(x));
            assert!(sup.quarantined.is_empty());
            assert_eq!(sup.retries, 0);
            let got: Vec<f64> = sup.results.into_iter().map(|r| r.unwrap()).collect();
            for (a, b) in plain.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn panicking_task_is_quarantined_others_identical() {
        let tasks: Vec<u64> = (0..40).collect();
        let clean = par_map(3, &tasks, |&i| i * i + 1);
        let sup = par_map_supervised(3, &tasks, &quick_retry(), |_, &i, _| {
            if i == 17 {
                panic!("task 17 forced panic");
            }
            i * i + 1
        });
        assert_eq!(sup.quarantined.len(), 1);
        let q = &sup.quarantined[0];
        assert_eq!(q.task, 17);
        assert_eq!(q.key, "17");
        assert_eq!(q.attempts, 2); // first try + one retry
        assert!(q.payload.contains("forced panic"));
        assert_eq!(sup.retries, 1);
        for (i, slot) in sup.results.iter().enumerate() {
            if i == 17 {
                assert!(slot.is_none());
            } else {
                assert_eq!(slot, &Some(clean[i]));
            }
        }
    }

    #[test]
    fn panic_once_then_succeed_consumes_one_retry() {
        let attempts: Mutex<HashMap<usize, u32>> = Mutex::new(HashMap::new());
        let tasks: Vec<u64> = (0..16).collect();
        let sup = par_map_supervised(4, &tasks, &quick_retry(), |i, &t, _| {
            let n = {
                let mut map = attempts.lock().unwrap();
                let e = map.entry(i).or_insert(0);
                *e += 1;
                *e
            };
            if t == 5 && n == 1 {
                panic!("flaky once");
            }
            t + 100
        });
        assert!(sup.quarantined.is_empty());
        assert_eq!(sup.retries, 1);
        for (i, slot) in sup.results.iter().enumerate() {
            assert_eq!(slot, &Some(i as u64 + 100));
        }
    }

    #[test]
    fn fixed_deadline_flags_straggler_but_keeps_result() {
        let cfg = SuperviseConfig {
            deadline: Some(Duration::from_millis(10)),
            ..SuperviseConfig::default()
        };
        let tasks = [0u64, 1];
        let sup = par_map_supervised(2, &tasks, &cfg, |_, &t, _| {
            if t == 1 {
                std::thread::sleep(Duration::from_millis(200));
            }
            t * 7
        });
        assert!(sup.quarantined.is_empty());
        assert_eq!(sup.results, vec![Some(0), Some(7)]);
        assert_eq!(sup.stragglers.len(), 1);
        let s = &sup.stragglers[0];
        assert_eq!(s.task, 1);
        assert!(!s.cancelled);
        assert!(s.elapsed_ms >= s.deadline_ms);
    }

    #[test]
    fn retried_straggler_is_reported_once() {
        // Overdue on both attempts: the first panics, the retry
        // succeeds. One task, so one straggler entry, not one per
        // attempt.
        let cfg = SuperviseConfig {
            deadline: Some(Duration::from_millis(20)),
            ..quick_retry()
        };
        let attempts = AtomicUsize::new(0);
        let sup = par_map_supervised(1, &[0u64], &cfg, |_, &t, _| {
            std::thread::sleep(Duration::from_millis(100));
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first attempt fails");
            }
            t + 7
        });
        assert_eq!(sup.results, vec![Some(7)]);
        assert_eq!(sup.retries, 1);
        assert_eq!(sup.stragglers.len(), 1, "{:?}", sup.stragglers);
        assert_eq!(sup.stragglers[0].task, 0);
        assert!(!sup.stragglers[0].cancelled);
    }

    #[test]
    fn cancel_overdue_discards_the_result() {
        let cfg = SuperviseConfig {
            deadline: Some(Duration::from_millis(10)),
            cancel_overdue: true,
            ..SuperviseConfig::default()
        };
        let tasks = [0u64, 1];
        let sup = par_map_supervised(2, &tasks, &cfg, |_, &t, token| {
            if t == 1 {
                // Cooperative loop: poll the token like an engine tick.
                let start = Instant::now();
                while !token.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            t * 7
        });
        assert_eq!(sup.results[0], Some(0));
        assert_eq!(sup.results[1], None, "cancelled result must be discarded");
        assert_eq!(sup.stragglers.len(), 1);
        assert!(sup.stragglers[0].cancelled);
    }

    #[test]
    fn retry_delay_matches_backoff_shape() {
        let b = RetryBudget {
            max_retries: 3,
            base_ms: 8,
            cap_ms: 64,
        };
        for attempt in 1..=6 {
            let d = b.delay_ms(42, 7, attempt);
            let shift = (attempt - 1).min(20);
            let capped = (8u64 << shift).clamp(1, 64);
            assert!(
                d >= capped && d <= capped + capped / 2,
                "attempt {attempt}: {d}"
            );
            // Stateless: same inputs, same delay.
            assert_eq!(d, b.delay_ms(42, 7, attempt));
        }
        assert_ne!(b.delay_ms(42, 7, 1), b.delay_ms(43, 7, 1));
    }

    #[test]
    fn keys_and_on_result_hooks_fire() {
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let tasks: Vec<u64> = (0..8).collect();
        let sup = par_map_supervised_with(
            2,
            &tasks,
            &SuperviseConfig::default(),
            || (),
            |i| format!("k{i}"),
            |i, r: &u64| seen.lock().unwrap().push((i, *r)),
            |(), _, &t, _| t + 1,
        );
        assert!(sup.quarantined.is_empty());
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..8u64).map(|i| (i as usize, i + 1)).collect::<Vec<_>>()
        );
    }
}
