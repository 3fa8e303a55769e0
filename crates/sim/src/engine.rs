//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue keyed on [`SimTime`] with FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were pushed. This makes every simulation in the workspace replay
//! bit-identically for a fixed seed, which the paper's "five runs per
//! point" methodology depends on.
//!
//! Events can be cancelled: [`EventQueue::push_keyed`] returns an
//! [`EventKey`] that [`EventQueue::cancel`] later revokes. Cancellation
//! is lazy — the heap entry becomes a tombstone — but the queue keeps
//! two invariants that make tombstones invisible to callers: the heap
//! top is always a live event (tombstones are purged off the top after
//! every `cancel` and `pop`, so [`EventQueue::peek_time`] is exact), and
//! the heap is compacted whenever tombstones outnumber live events.
//! This is what lets re-predicting simulators (the `harvest-net` fabric,
//! the `harvest-disk` pool) revoke superseded completion events instead
//! of accumulating O(re-shares × population) stale entries.
//!
//! Live events are tracked by sequence number in a hash set under the
//! fixed multiplicative [`crate::idmap::IdHasher`], not SipHash: every
//! push, cancel and pop probes it, and a sequence number needs no
//! protection against adversarial keys. Nothing iterates the set, so
//! its order never shows. The heap, its tombstones and the compaction
//! rule are what [`EventQueue::len`] and [`EventQueue::n_stale`]
//! report, and callers print both (peak event heap, superseded-event
//! counts), so they are part of the queue's observable behaviour:
//! `tests/properties.rs` pins every counter, after every operation,
//! against a reference copy of the queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::idmap::IdBuildHasher;
use crate::time::SimTime;

/// A handle to a pushed event, for [`EventQueue::cancel`]. Keys are
/// unique over the queue's lifetime (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

/// Compaction threshold: rebuild the heap once it holds more than this
/// many tombstones *and* tombstones outnumber live events.
const COMPACT_MIN_TOMBSTONES: usize = 64;

/// A scheduled event: the payload `E` plus its firing time and a sequence
/// number used for FIFO tie-breaking.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use harvest_sim::engine::EventQueue;
/// use harvest_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Sequence numbers of heap entries that have not been cancelled.
    /// `heap.len() - live.len()` is the current tombstone count.
    live: HashSet<u64, IdBuildHasher>,
    next_seq: u64,
    now: SimTime,
    /// Cancels of keys that had already fired or been cancelled —
    /// no-ops, but counted so fault-driven mass cancellation (which
    /// often double-cancels through independent abort paths) stays
    /// observable.
    dead_cancels: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: HashSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
            dead_cancels: 0,
        }
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            live: HashSet::with_capacity_and_hasher(cap, IdBuildHasher::default()),
            next_seq: 0,
            now: SimTime::ZERO,
            dead_cancels: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event fires "now" (the clock never runs
    /// backwards).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(time, event);
    }

    /// Schedules `event` to fire at `time` and returns a key that
    /// [`EventQueue::cancel`] can later revoke. Same past-scheduling
    /// rules as [`EventQueue::push`].
    pub fn push_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time} < {now}",
            now = self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Scheduled { time, seq, event });
        EventKey(seq)
    }

    /// Revokes a pending event so it never pops. Returns `true` if the
    /// event was still pending; `false` if it already fired (or was
    /// already cancelled), in which case nothing changes.
    ///
    /// Cancellation is O(1) amortized: the heap entry becomes a
    /// tombstone, tombstones are swept off the heap top eagerly, and the
    /// whole heap is compacted once tombstones outnumber live events.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.live.remove(&key.0) {
            self.dead_cancels += 1;
            return false;
        }
        self.purge_top();
        let tombstones = self.heap.len() - self.live.len();
        if tombstones > COMPACT_MIN_TOMBSTONES && tombstones > self.live.len() {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|s| self.live.contains(&s.seq));
            self.heap = BinaryHeap::from(entries);
        }
        true
    }

    /// Drops cancelled entries from the top of the heap, restoring the
    /// invariant that `heap.peek()` is a live event (or the heap is
    /// empty). Called after every `cancel` and `pop`.
    fn purge_top(&mut self) {
        while let Some(s) = self.heap.peek() {
            if self.live.contains(&s.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Pops the earliest live event, advancing the clock to its firing
    /// time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.live.remove(&s.seq);
        self.purge_top();
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Returns the firing time of the next live event without popping
    /// it (cancelled events are never visible here).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// The current simulated time (the firing time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of heap entries, counting not-yet-collected tombstones —
    /// the physical queue size (the metric callers track as
    /// `peak_queue_len`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of pending (live, uncancelled) events.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Number of cancelled entries still occupying the heap.
    pub fn n_stale(&self) -> usize {
        self.heap.len() - self.live.len()
    }

    /// Number of [`EventQueue::cancel`] calls that found nothing to
    /// cancel (the key had already fired or already been cancelled).
    pub fn n_dead_cancels(&self) -> u64 {
        self.dead_cancels
    }

    /// Whether no events are pending. (The heap holds a tombstone only
    /// below a live event, so an empty heap means no live events too.)
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), 3);
        q.push(SimTime::from_secs(10), 1);
        q.push(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(1), ());
        let (t1, _) = q.pop().unwrap();
        assert_eq!(q.now(), t1);
        let (t2, _) = q.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(q.now(), t2);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        let (t, _) = q.pop().unwrap();
        // Schedule relative to current time, as simulation handlers do.
        q.push(t + SimDuration::from_secs(5), "b");
        q.push(t + SimDuration::from_secs(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancelled_events_never_pop() {
        let mut q = EventQueue::new();
        let _a = q.push_keyed(SimTime::from_secs(1), "a");
        let b = q.push_keyed(SimTime::from_secs(2), "b");
        let _c = q.push_keyed(SimTime::from_secs(3), "c");
        assert!(q.cancel(b));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn cancelling_the_top_keeps_peek_exact() {
        let mut q = EventQueue::new();
        let a = q.push_keyed(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert!(q.cancel(a));
        // The tombstone was purged off the top: peek sees the live event.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.n_stale(), 0);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.push_keyed(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "cancelling a fired event must return false");
        assert!(!q.cancel(a), "double cancel must stay false");
        assert!(q.is_empty());
    }

    #[test]
    fn dead_cancels_are_counted() {
        let mut q = EventQueue::new();
        let a = q.push_keyed(SimTime::from_secs(1), "a");
        let b = q.push_keyed(SimTime::from_secs(2), "b");
        assert_eq!(q.n_dead_cancels(), 0);
        // Cancel-after-fire counts.
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a));
        assert_eq!(q.n_dead_cancels(), 1);
        // A live cancel does not count...
        assert!(q.cancel(b));
        assert_eq!(q.n_dead_cancels(), 1);
        // ...but double-cancelling the same key does.
        assert!(!q.cancel(b));
        assert!(!q.cancel(b));
        assert_eq!(q.n_dead_cancels(), 3);
        // Dead cancels never resurrect or drop anything.
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_everything_empties_the_heap() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..10)
            .map(|i| q.push_keyed(SimTime::from_secs(i), i))
            .collect();
        for k in keys {
            assert!(q.cancel(k));
        }
        assert!(q.is_empty());
        assert_eq!(q.live_len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        // One long-lived event pins the heap bottom; churn many
        // cancellations under it (cancelled entries are never the top,
        // so only compaction can collect them).
        q.push(SimTime::from_secs(1), u64::MAX);
        let mut cancelled = 0usize;
        for i in 0..10_000u64 {
            let k = q.push_keyed(SimTime::from_secs(1_000 + i), i);
            assert!(q.cancel(k));
            cancelled += 1;
            assert!(
                q.n_stale() <= COMPACT_MIN_TOMBSTONES + 1,
                "tombstones {} after {cancelled} cancels",
                q.n_stale()
            );
        }
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancellation_preserves_fifo_of_survivors() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..50u64 {
            keys.push(q.push_keyed(SimTime::from_secs(7), i));
        }
        for (i, k) in keys.iter().enumerate() {
            if i % 3 != 1 {
                q.cancel(*k);
            }
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expect: Vec<u64> = (0..50).filter(|i| i % 3 == 1).collect();
        assert_eq!(popped, expect);
    }
}
