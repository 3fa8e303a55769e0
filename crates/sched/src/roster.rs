//! Constant-time bookkeeping for the simulator's hot mutations.
//!
//! Two small indices back the scheduling simulator's per-event work:
//!
//! * [`ContainerRoster`] — which containers live on which server, in
//!   placement (oldest → youngest) order, plus the set of *occupied*
//!   servers. The node-manager kill policy is "youngest first", so the
//!   per-server order is load-bearing; the roster keeps it under O(1)
//!   amortized release by tombstoning instead of splicing (the old code
//!   paid a `position` scan plus an element shift per release). Dead
//!   entries are popped lazily off the tail when the youngest container
//!   is asked for, and the list is compacted (order-preserving) once
//!   tombstones outnumber the living.
//! * [`StageSources`] — which servers a stage's finished tasks ran on,
//!   i.e. where a dependent stage's shuffle reads from. Placement
//!   appends and returns a slot; a kill invalidates exactly the killed
//!   task's slot (O(1), no value scan), so the re-run's server is what
//!   the shuffle ends up reading.
//!
//! Both preserve deterministic iteration orders — the simulator's
//! placement RNG consumption depends on them.

use harvest_cluster::ServerId;
use std::collections::BTreeSet;

/// List length below which release never bothers compacting.
const COMPACT_MIN_LEN: usize = 32;

/// Per-server container lists (oldest → youngest) plus an occupied-server
/// index. Container liveness is owned by the caller and supplied as a
/// predicate; the roster only counts and orders.
#[derive(Debug, Clone)]
pub struct ContainerRoster {
    /// Container ids per server in placement order; may contain dead
    /// (tombstoned) ids between compactions.
    lists: Vec<Vec<usize>>,
    /// Alive containers per server.
    live: Vec<u32>,
    /// Servers with `live > 0`, ascending.
    occupied: BTreeSet<u32>,
}

impl ContainerRoster {
    /// An empty roster over `n_servers` servers.
    pub fn new(n_servers: usize) -> Self {
        ContainerRoster {
            lists: vec![Vec::new(); n_servers],
            live: vec![0; n_servers],
            occupied: BTreeSet::new(),
        }
    }

    /// Records container `cid` starting on `server` (it becomes the
    /// server's youngest).
    pub fn place(&mut self, server: ServerId, cid: usize) {
        let s = server.0 as usize;
        self.lists[s].push(cid);
        self.live[s] += 1;
        if self.live[s] == 1 {
            self.occupied.insert(server.0);
        }
    }

    /// Records a container leaving `server` (finished or killed). The
    /// caller must have marked it dead (so `alive` rejects it) *before*
    /// calling. O(1) amortized: the id is tombstoned in place; an idle
    /// server's list is dropped wholesale, and a list more than half
    /// dead is compacted, preserving placement order.
    pub fn release(&mut self, server: ServerId, alive: impl Fn(usize) -> bool) {
        let s = server.0 as usize;
        debug_assert!(self.live[s] > 0, "release on an empty server");
        self.live[s] -= 1;
        if self.live[s] == 0 {
            self.lists[s].clear();
            self.occupied.remove(&server.0);
        } else if self.lists[s].len() >= COMPACT_MIN_LEN
            && self.lists[s].len() >= 2 * self.live[s] as usize
        {
            self.lists[s].retain(|&cid| alive(cid));
        }
    }

    /// The youngest (most recently placed) container still alive on
    /// `server`, popping tombstones off the tail on the way.
    pub fn youngest(&mut self, server: ServerId, alive: impl Fn(usize) -> bool) -> Option<usize> {
        let list = &mut self.lists[server.0 as usize];
        while let Some(&cid) = list.last() {
            if alive(cid) {
                return Some(cid);
            }
            list.pop();
        }
        None
    }

    /// Alive containers on `server`.
    pub fn live_on(&self, server: ServerId) -> u32 {
        self.live[server.0 as usize]
    }

    /// Servers currently hosting at least one alive container,
    /// ascending — the order a whole-fleet 0..n scan would visit them
    /// in, so kills land in the same order whichever walks the fleet.
    pub fn occupied(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.occupied.iter().map(|&s| ServerId(s))
    }

    /// Number of occupied servers.
    pub fn n_occupied(&self) -> usize {
        self.occupied.len()
    }
}

/// The servers a stage's placed tasks ran on, in placement order — the
/// upstream ends of a dependent stage's shuffle.
#[derive(Debug, Clone, Default)]
pub struct StageSources {
    /// One slot per placed task; a killed task's slot is invalidated
    /// (it produced no output to fetch).
    slots: Vec<Option<ServerId>>,
}

impl StageSources {
    /// An empty source list.
    pub fn new() -> Self {
        StageSources::default()
    }

    /// Records a task placed on `server`; returns the slot to pass to
    /// [`StageSources::invalidate`] should the task be killed.
    pub fn record(&mut self, server: ServerId) -> u32 {
        self.slots.push(Some(server));
        (self.slots.len() - 1) as u32
    }

    /// Drops the task in `slot` from the sources (killed before
    /// producing output). O(1); the re-run's `record` appends its new
    /// server, which is what the shuffle then reads.
    pub fn invalidate(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
    }

    /// The live source servers in placement order, duplicates included.
    pub fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }

    /// Appends up to `cap` *distinct* live sources, in first-placement
    /// order, to `out`.
    pub fn distinct_into(&self, cap: usize, out: &mut Vec<ServerId>) {
        for s in self.iter() {
            if !out.contains(&s) {
                out.push(s);
                if out.len() >= cap {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const S0: ServerId = ServerId(0);
    const S1: ServerId = ServerId(1);

    /// Kill-order pin: the youngest alive container is always the most
    /// recently placed one that has not finished, whatever order the
    /// others left in — the node manager's "kill youngest first" must
    /// survive the tombstone representation.
    #[test]
    fn youngest_is_last_alive_in_placement_order() {
        let mut roster = ContainerRoster::new(2);
        let mut dead: HashSet<usize> = HashSet::new();
        for cid in 0..5 {
            roster.place(S0, cid);
        }
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), Some(4));
        // 4 finishes; 3 becomes youngest.
        dead.insert(4);
        roster.release(S0, |c| !dead.contains(&c));
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), Some(3));
        // 1 (a middle entry) finishes; youngest is still 3.
        dead.insert(1);
        roster.release(S0, |c| !dead.contains(&c));
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), Some(3));
        // A new placement becomes the youngest immediately.
        roster.place(S0, 7);
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), Some(7));
        // Kill it (youngest-first policy); 3 is youngest again.
        dead.insert(7);
        roster.release(S0, |c| !dead.contains(&c));
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), Some(3));
        assert_eq!(roster.live_on(S0), 3, "0, 2, 3 remain alive");
    }

    #[test]
    fn occupied_tracks_liveness_ascending() {
        let mut roster = ContainerRoster::new(3);
        assert_eq!(roster.n_occupied(), 0);
        roster.place(S1, 0);
        roster.place(S0, 1);
        assert_eq!(roster.occupied().collect::<Vec<_>>(), vec![S0, S1]);
        let dead: HashSet<usize> = [1].into_iter().collect();
        roster.release(S0, |c| !dead.contains(&c));
        assert_eq!(roster.occupied().collect::<Vec<_>>(), vec![S1]);
        assert_eq!(roster.live_on(S0), 0);
        assert_eq!(roster.youngest(S0, |c| !dead.contains(&c)), None);
    }

    /// Compaction fires once tombstones dominate a long list, and
    /// preserves placement order.
    #[test]
    fn compaction_preserves_order() {
        let mut roster = ContainerRoster::new(1);
        let mut dead: HashSet<usize> = HashSet::new();
        for cid in 0..COMPACT_MIN_LEN + 8 {
            roster.place(S0, cid);
        }
        // Finish every even container (none are the tail youngest until
        // the end, so tombstones accumulate mid-list).
        for cid in (0..COMPACT_MIN_LEN + 8).step_by(2) {
            dead.insert(cid);
            roster.release(S0, |c| !dead.contains(&c));
        }
        let len_after = roster.lists[0].len();
        assert!(
            len_after <= COMPACT_MIN_LEN + 8,
            "list grew past placements"
        );
        assert!(
            len_after < COMPACT_MIN_LEN + 8,
            "no compaction ever happened"
        );
        // Survivors pop youngest-first in reverse placement order.
        let mut seen = Vec::new();
        while let Some(cid) = roster.youngest(S0, |c| !dead.contains(&c)) {
            seen.push(cid);
            dead.insert(cid);
            roster.release(S0, |c| !dead.contains(&c));
        }
        let mut expect: Vec<usize> = (0..COMPACT_MIN_LEN + 8).filter(|c| c % 2 == 1).collect();
        expect.reverse();
        assert_eq!(seen, expect, "kill order changed under compaction");
    }

    /// A killed-then-rerun task's *new* server is what the shuffle
    /// reads: the kill invalidates exactly the killed task's slot.
    #[test]
    fn killed_task_rerun_updates_shuffle_sources() {
        let mut src = StageSources::new();
        let slot_a = src.record(S0);
        src.record(S1);
        // The S0 task is killed; its slot (and only its slot) goes.
        src.invalidate(slot_a);
        assert_eq!(src.iter().collect::<Vec<_>>(), vec![S1]);
        // The re-run lands on server 2: that is what a shuffle reads.
        let s2 = ServerId(2);
        src.record(s2);
        let mut distinct = Vec::new();
        src.distinct_into(16, &mut distinct);
        assert_eq!(distinct, vec![S1, s2]);
    }

    /// Duplicate-server sources: killing one task keeps the other
    /// task's (equal-valued) source, and dedup caps respect order.
    #[test]
    fn distinct_sources_cap_and_dedup() {
        let mut src = StageSources::new();
        let first = src.record(S0);
        src.record(S1);
        src.record(S0); // second task on S0
        src.invalidate(first);
        let mut out = Vec::new();
        src.distinct_into(16, &mut out);
        assert_eq!(out, vec![S1, S0], "surviving duplicate lost");
        let mut capped = Vec::new();
        src.distinct_into(1, &mut capped);
        assert_eq!(capped, vec![S1]);
    }
}
