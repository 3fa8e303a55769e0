//! Analytic max-min fair sharing for a single saturated resource.
//!
//! Progressive filling (the general max-min algorithm, `net::fabric`'s
//! multi-bottleneck fallback) recomputes every flow's rate whenever any
//! flow starts or finishes, which costs O(component) per event and
//! turns a fleet-wide reimage storm — every flow in one connected
//! component — quadratic. But when a component is *single-bottleneck*
//! (all flows cross one common saturated link), max-min fair sharing
//! degenerates to an equal split of that link, and the whole trajectory
//! can be tracked analytically in O(log n) per event. This module
//! implements that engine; `net::fabric` routes provably
//! single-bottleneck components through it and `disk::pool` (whose
//! channels are single-bottleneck by construction) serves every
//! occupied channel with it.
//!
//! # The virtual fair-work clock
//!
//! [`FairShare`] maintains `v`, the cumulative *work per flow* the
//! resource has delivered since the group was created: while `n` flows
//! share capacity `c`, every flow progresses at rate `c / n`, so `v`
//! advances by `(c / n) · dt` across any interval without membership
//! or capacity changes. A flow entering with `r` bytes remaining is
//! assigned the constant key `v_entry + r`; it completes exactly when
//! the clock reaches its key. Keys never change after entry, so the
//! next completion is always the minimum key — a binary heap gives
//! O(log n) insert/extract, and each start/finish event only advances
//! the clock, touches the heap, and recomputes `rate = c / n`.
//!
//! # Exactness and tolerance
//!
//! The per-flow rate is computed as `capacity / n as f64` — the very
//! same floating-point operation progressive filling performs on its
//! first (and, for a single-bottleneck component, only) iteration, so
//! rates agree **bitwise** with a filling reference. Completion times
//! re-associate the arithmetic: a reference that advances each flow
//! folds `(r − a) − b − …` across re-shares while the clock computes
//! `r − (a + b + …)`, so the two schedules can differ by a few ulps
//! (≈1e-16 relative). Simulated time is integer milliseconds and
//! `SimDuration::from_secs_f64` rounds to the nearest millisecond, so
//! the drift virtually never moves a completion across a millisecond
//! boundary. The oracle tests (the dev-only `harvest-oracle` crate)
//! pin rates bitwise and completion schedules exactly.
//!
//! Ties (equal keys) complete in ascending flow id. Completions that
//! land on the same millisecond may therefore pop in a different order
//! than in a reference that breaks ties another way, so schedules are
//! compared sorted by (time, id).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::idmap::IdMap;
use crate::time::SimTime;

/// A member's heap entry: (key bits, id). Keys are non-negative finite
/// `f64`, for which IEEE-754 bit patterns order identically to the
/// values — so a plain `u64` tuple gives numeric order with ascending
/// id as the tie-break, no `PartialOrd` wrapper needed.
type HeapEntry = Reverse<(u64, u64)>;

/// Analytic fair-share engine for one saturated resource.
///
/// All time-dependent operations take the current simulation time and
/// advance the virtual clock first, so callers never pre-advance.
/// Stale heap entries (from removed members) are discarded lazily on
/// [`FairShare::peek`]/[`FairShare::pop`]; each entry is popped at
/// most once, keeping every operation amortized O(log n).
#[derive(Clone, Debug)]
pub struct FairShare {
    capacity: f64,
    /// Current per-flow rate: `capacity / members.len()`, `0.0` when
    /// empty or capacity is zero.
    rate: f64,
    /// Virtual fair-work clock: work delivered per flow since `new`.
    v: f64,
    /// Simulation time at which `v` was last brought current.
    last: SimTime,
    /// id → completion key (`v` at entry + remaining work at entry).
    /// Nothing walks it in table order: [`FairShare::members`] sorts.
    members: IdMap<f64>,
    heap: BinaryHeap<HeapEntry>,
}

impl FairShare {
    /// Creates an empty engine over a resource of `capacity`
    /// work-units per second, with the clock anchored at `now`.
    pub fn new(capacity: f64, now: SimTime) -> FairShare {
        FairShare {
            capacity,
            rate: 0.0,
            v: 0.0,
            last: now,
            members: IdMap::default(),
            heap: BinaryHeap::new(),
        }
    }

    /// Puts an empty engine back into exactly the state
    /// [`FairShare::new`]`(capacity, now)` builds — clock at zero and
    /// anchored at `now`, no rate, no heap entries — keeping its table
    /// and heap allocations. Everything it computes afterwards is bitwise what a
    /// fresh engine would, so a resource that drains and refills can
    /// keep one engine for its whole life.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a flow is still enrolled.
    pub fn reset(&mut self, capacity: f64, now: SimTime) {
        debug_assert!(self.members.is_empty(), "reset with flows enrolled");
        self.capacity = capacity;
        self.rate = 0.0;
        self.v = 0.0;
        self.last = now;
        self.members.clear();
        self.heap.clear();
    }

    /// Number of member flows.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// True when no flows are enrolled.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The current per-flow rate (work-units per second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Advances the virtual clock to `now`. Idempotent; a no-op when
    /// time has not moved or no flow is enrolled.
    pub fn advance(&mut self, now: SimTime) {
        if now > self.last {
            if self.rate > 0.0 {
                self.v += self.rate * now.since(self.last).as_secs_f64();
            }
            self.last = now;
        }
    }

    fn recompute_rate(&mut self) {
        self.rate = if self.members.is_empty() || self.capacity <= 0.0 {
            0.0
        } else {
            // The same f64 division progressive filling performs when
            // it splits an untouched link among its flows — bitwise
            // agreement with the reference hinges on this expression.
            self.capacity / self.members.len() as f64
        };
    }

    /// Enrolls flow `id` with `remaining` work-units left. The flow
    /// must not already be a member.
    pub fn insert(&mut self, now: SimTime, id: u64, remaining: f64) {
        self.advance(now);
        let key = self.v + remaining.max(0.0);
        let prev = self.members.insert(id, key);
        debug_assert!(prev.is_none(), "flow {id} enrolled twice");
        self.heap.push(Reverse((key.to_bits(), id)));
        self.recompute_rate();
    }

    /// Removes flow `id`, returning its remaining work (exact under
    /// the engine's own accounting, clamped at zero). Returns `None`
    /// if the flow is not a member.
    pub fn remove(&mut self, now: SimTime, id: u64) -> Option<f64> {
        self.advance(now);
        let key = self.members.remove(&id)?;
        self.recompute_rate();
        Some((key - self.v).max(0.0))
    }

    /// Changes the resource capacity (uplink degrade, throttle
    /// transition). The clock is advanced first so work already
    /// delivered is settled at the old rate.
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        self.advance(now);
        self.capacity = capacity;
        self.recompute_rate();
    }

    /// The next completion: `(id, seconds from "now")`, where "now" is
    /// the last time the clock was advanced. Returns `None` when empty
    /// or when the rate is zero (parked resource).
    pub fn peek(&mut self, now: SimTime) -> Option<(u64, f64)> {
        self.advance(now);
        if self.rate <= 0.0 {
            return None;
        }
        while let Some(&Reverse((key_bits, id))) = self.heap.peek() {
            match self.members.get(&id) {
                Some(key) if key.to_bits() == key_bits => {
                    let eta = (f64::from_bits(key_bits) - self.v).max(0.0) / self.rate;
                    return Some((id, eta));
                }
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Pops the next completion, removing the flow. Must agree with
    /// the last [`FairShare::peek`].
    pub fn pop(&mut self, now: SimTime) -> Option<u64> {
        let (id, _) = self.peek(now)?;
        self.heap.pop();
        self.members.remove(&id);
        self.recompute_rate();
        Some(id)
    }

    /// All members in ascending id order as `(id, remaining)`, for
    /// migrating state back to progressive filling exactly. Allocates
    /// the list; the per-event operations above never walk members.
    pub fn members(&self) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = self
            .members
            .iter()
            .map(|(&id, &key)| (id, (key - self.v).max(0.0)))
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    impl FairShare {
        /// Remaining work of flow `id` under the clock's current position.
        fn remaining_of(&self, id: u64) -> Option<f64> {
            self.members.get(&id).map(|key| (key - self.v).max(0.0))
        }

        /// The resource capacity.
        fn capacity(&self) -> f64 {
            self.capacity
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn rate_is_the_reference_division_bitwise() {
        let mut fs = FairShare::new(6.25e9, t(0));
        for id in 0..7u64 {
            fs.insert(t(0), id, 1e8);
            let n = fs.n();
            assert_eq!(fs.rate().to_bits(), (6.25e9 / n as f64).to_bits());
        }
    }

    #[test]
    fn two_equal_flows_complete_together_in_id_order() {
        let mut fs = FairShare::new(10.0, t(0));
        fs.insert(t(0), 7, 20.0);
        fs.insert(t(0), 3, 20.0);
        // Two flows, rate 5 each: both keys are 20, ties pop ascending.
        let (id, eta) = fs.peek(t(0)).unwrap();
        assert_eq!((id, eta), (3, 4.0));
        assert_eq!(fs.pop(t(4_000)), Some(3));
        // Lone survivor now runs at full capacity; its key was fixed at
        // entry so it also completes at t=4s (clock hit 20 for both).
        let (id, eta) = fs.peek(t(4_000)).unwrap();
        assert_eq!(id, 7);
        assert_eq!(eta, 0.0);
    }

    #[test]
    fn late_joiner_shares_from_entry_onward() {
        let mut fs = FairShare::new(10.0, t(0));
        fs.insert(t(0), 1, 10.0);
        // At t=0.5s flow 1 has delivered 5 units; flow 2 joins with 5.
        fs.insert(t(500), 2, 5.0);
        assert_eq!(fs.remaining_of(1), Some(5.0));
        assert_eq!(fs.remaining_of(2), Some(5.0));
        // Both now at rate 5: both finish 1s later, flow 1 first (tie,
        // lower id).
        let (id, eta) = fs.peek(t(500)).unwrap();
        assert_eq!((id, eta), (1, 1.0));
        assert_eq!(fs.pop(t(1_500)), Some(1));
        assert_eq!(fs.pop(t(1_500)), Some(2));
        assert!(fs.is_empty());
        assert_eq!(fs.rate(), 0.0);
    }

    #[test]
    fn remove_returns_exact_remaining_and_respeeds_survivors() {
        let mut fs = FairShare::new(8.0, t(0));
        fs.insert(t(0), 1, 16.0);
        fs.insert(t(0), 2, 16.0);
        // 1 second at rate 4: both have 12 left.
        assert_eq!(fs.remove(t(1_000), 1), Some(12.0));
        assert_eq!(fs.rate(), 8.0);
        // Survivor finishes its 12 units at full rate: 1.5s more.
        let (id, eta) = fs.peek(t(1_000)).unwrap();
        assert_eq!((id, eta), (2, 1.5));
        assert_eq!(fs.remove(t(1_000), 9), None);
    }

    #[test]
    fn capacity_change_settles_work_at_the_old_rate() {
        let mut fs = FairShare::new(10.0, t(0));
        fs.insert(t(0), 1, 10.0);
        fs.set_capacity(t(500), 2.0);
        // 5 delivered in the first half-second, 5 left at rate 2.
        assert_eq!(fs.remaining_of(1), Some(5.0));
        let (_, eta) = fs.peek(t(500)).unwrap();
        assert_eq!(eta, 2.5);
        // Zero capacity parks the engine: no completion to predict.
        fs.set_capacity(t(600), 0.0);
        assert_eq!(fs.peek(t(700)), None);
        assert_eq!(fs.remaining_of(1), Some(4.8));
        fs.set_capacity(t(1_000), 4.8);
        let (id, eta) = fs.peek(t(1_000)).unwrap();
        assert_eq!((id, eta), (1, 1.0));
    }

    #[test]
    fn members_iterate_ascending_with_live_remaining() {
        let mut fs = FairShare::new(6.0, t(0));
        fs.insert(t(0), 5, 9.0);
        fs.insert(t(0), 2, 3.0);
        fs.insert(t(0), 8, 6.0);
        // 1 second at rate 2 each.
        fs.advance(t(1_000));
        let snap = fs.members();
        assert_eq!(snap, vec![(2, 1.0), (5, 7.0), (8, 4.0)]);
    }

    #[test]
    fn reset_engine_matches_a_fresh_one_bitwise() {
        // Drive an engine through a busy occupancy period that leaves
        // stale heap entries and a non-zero clock, drain it, reset it,
        // then replay one script on it and on a fresh engine.
        let mut reused = FairShare::new(7.0, t(0));
        for id in 0..5u64 {
            reused.insert(t(id * 10), id, 3.0 + id as f64);
        }
        reused.remove(t(60), 3);
        reused.set_capacity(t(70), 2.5);
        while reused.pop(t(100_000)).is_some() {}
        assert!(reused.is_empty());

        reused.reset(9.0, t(200_000));
        let mut fresh = FairShare::new(9.0, t(200_000));
        let script = |fs: &mut FairShare| {
            let mut out = Vec::new();
            fs.insert(t(200_000), 11, 1.0 / 3.0);
            fs.insert(t(200_123), 2, 5.5);
            fs.insert(t(200_123), 40, 0.125);
            out.push(fs.remaining_of(11).map(f64::to_bits));
            let mut now = t(200_400);
            fs.set_capacity(now, 4.0);
            while let Some((id, eta)) = fs.peek(now) {
                out.push(Some(id));
                out.push(Some(eta.to_bits()));
                out.push(Some(fs.rate().to_bits()));
                now += SimDuration::from_secs_f64(eta);
                fs.pop(now);
            }
            out
        };
        assert_eq!(script(&mut reused), script(&mut fresh));
        assert_eq!(reused.rate().to_bits(), fresh.rate().to_bits());
        assert_eq!(reused.capacity().to_bits(), fresh.capacity().to_bits());
    }

    #[test]
    fn stale_heap_entries_are_skipped() {
        let mut fs = FairShare::new(4.0, t(0));
        fs.insert(t(0), 1, 4.0);
        fs.insert(t(0), 2, 8.0);
        fs.remove(t(0), 1);
        let (id, _) = fs.peek(t(0)).unwrap();
        assert_eq!(id, 2);
        // Re-enroll id 1 with a different key: old entry must not win.
        fs.insert(t(0), 1, 100.0);
        let (id, _) = fs.peek(t(0)).unwrap();
        assert_eq!(id, 2);
    }
}
