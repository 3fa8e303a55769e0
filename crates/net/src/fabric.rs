//! Event-driven flow-level simulation with max-min fair sharing.
//!
//! A [`Fabric`] carries flows between servers over a [`Topology`].
//! Whenever the active-flow set changes — a flow starts or finishes —
//! link bandwidth is re-divided max-min fairly and the affected flows'
//! completions are re-predicted. Starts, completions, and those
//! re-predictions all travel through one [`EventQueue`]; a superseded
//! completion is cancelled in the queue (and, defensively, recognized
//! by its version stamp should one ever fire).
//!
//! Everything is exact integer time plus deterministic `f64` arithmetic
//! over deterministically ordered collections, so a fabric replay is
//! bit-identical for identical inputs.
//!
//! # Cost model
//!
//! The fabric serves each event with the cheaper of two allocators,
//! chosen per component from the input by a classifier:
//!
//! 1. **Analytic** (O(log n) per event): a component whose flows all
//!    traverse one common saturated link — the reimage-storm shape —
//!    is served by a [`harvest_sim::fairshare::FairShare`] group: a
//!    virtual fair-work clock plus a completion-ordered heap, one live
//!    completion event for the whole group. The classifier is the
//!    filling itself: whenever a progressive-filling pass freezes the
//!    entire component in its *first* iteration, the bottleneck it
//!    picked is crossed by every flow and the component is promoted
//!    into a group. After that, a start that crosses the group's
//!    bottleneck (and shares no link with any loose flow) joins in
//!    O(log n), and a finish pops the heap in O(log n). A per-group
//!    lazy heap over (link fair-share, link id) re-checks, also in
//!    amortized O(log), that the stored bottleneck is still the
//!    lexicographic minimum the filling would pick — the instant it is
//!    not (a join lands on a NIC-bound path, the population shrinks
//!    until NICs bind, a fault changes capacity), the group *migrates*
//!    back to filling: every member's `remaining` is materialized from
//!    the clock, the component is re-filled, and nothing is lost or
//!    double-completed. Migration may immediately re-promote under the
//!    new bottleneck.
//! 2. **Component filling** (O(component links × filling iterations)
//!    per event): the multi-bottleneck fallback. The fabric maintains a
//!    persistent inverted index (link → active flows crossing it), and
//!    a flow start/finish recomputes only the connected component of
//!    flows transitively sharing a link with the changed flow. Flows
//!    in disjoint components keep their rates, their per-flow progress
//!    stamps, and their already-predicted completion events untouched.
//!    Progress is advanced lazily, per flow, only when a flow's rate
//!    actually changes, and a superseded completion event is
//!    *cancelled* in the queue rather than left to fire stale, so the
//!    event heap stays O(active + scheduled) instead of
//!    O(re-shares × flows). The pass's buffers live on the fabric and
//!    are reused, so a warmed pass makes no heap allocation.
//!
//! **Exactness.** Component filling is *bitwise* what filling over the
//! whole population computes: a component's progressive-filling
//! arithmetic is unaffected by flows it shares no link with. The
//! analytic tier's rates are also bitwise identical — its per-flow rate
//! is `capacity / n as f64`, the same division filling performs when
//! its first iteration splits the untouched bottleneck — but completion
//! *times* re-associate the float arithmetic: filling folds
//! `(r − a) − b − …` across re-shares while the fair-work clock
//! computes `r − (a + b + …)`, so predicted completions can drift by a
//! few ulps (≈1e-16 relative), which the integer-millisecond clock
//! virtually never surfaces. The dev-only `harvest-oracle` crate holds
//! an independent reference — max-min progressive filling over every
//! active flow on every event, sharing no lazy-advance, cancellation,
//! index, or `FairShare` code with this module — and the oracle tests
//! pin rates bitwise, single-bottleneck completion schedules exactly,
//! and mixed workloads within one millisecond. Which tier served an
//! event is visible: `analytic_components` / `analytic_events` /
//! `fallback_migrations` in [`FabricStats`] and as `net/*` counters.
//!
//! Every flow touch — a start, a completion, a rate lookup — finds its
//! flow by id in an [`IdMap`] (one multiply per hash). Nothing reads
//! those tables in their own order: the fault scans (`set_link_down`,
//! [`Fabric::apply_fault`]'s endpoint kill, `abort_flows_with_tags`) and
//! [`Fabric::active_flow_ids`] take their ids from [`sorted_ids`], so
//! aborts and listings run in ascending id order.
//!
//! The worst case is a genuinely multi-bottleneck workload whose every
//! flow shares a link with every other (one giant component that never
//! classifies single-bottleneck): then a re-share touches the whole
//! population, and offered load must not exceed fabric capacity for
//! sustained periods, or the backlog (and the simulation) grows without
//! bound. Callers injecting unthrottled demand must bound concurrency
//! themselves (see `StormConfig::max_repair_streams` in `harvest-dfs`
//! for the repair-path backpressure).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use harvest_cluster::ServerId;
use harvest_sim::engine::{EventKey, EventQueue};
use harvest_sim::fairshare::FairShare;
use harvest_sim::fault::FaultAction;
use harvest_sim::idmap::{sorted_ids, IdMap};
use harvest_sim::obs::{GaugeId, HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::{SimDuration, SimTime};

use crate::config::NetworkConfig;
use crate::topology::{LinkId, Path, Topology};

/// Identifies a flow within a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A finished transfer, as reported by [`Fabric::pump`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCompletion {
    /// The flow that finished.
    pub flow: FlowId,
    /// When its last byte arrived.
    pub at: SimTime,
    /// The caller's tag, echoed back.
    pub tag: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// When the flow entered the fabric.
    pub started: SimTime,
}

/// One in-flight transfer.
#[derive(Debug, Clone)]
struct Flow {
    tag: u64,
    bytes: u64,
    /// Bytes left as of `last_update` (plus the folded-in latency
    /// padding).
    remaining: f64,
    /// Current max-min allocation in bytes/s.
    rate: f64,
    /// Bumped whenever the rate changes; completion events carry the
    /// version they were predicted under.
    version: u64,
    /// When `remaining` was last advanced. Flows advance lazily — only
    /// at rate changes — so disjoint components cost nothing per event.
    last_update: SimTime,
    /// The flow's live completion event, cancelled when superseded.
    pending: Option<EventKey>,
    /// Component-BFS visit stamp (see `Fabric::epoch`).
    seen: u64,
    started: SimTime,
    path: Path,
    /// The analytic group serving this flow, if any. While enrolled,
    /// `remaining`/`rate`/`last_update` are frozen at enrollment (the
    /// group's fair-work clock is authoritative) and `pending` is
    /// `None` — the group holds the single live completion event.
    group: Option<u32>,
}

/// Sentinel for `Fabric::link_of`: the link is not owned by any group.
const NO_GROUP: u32 = u32::MAX;

/// An analytic single-bottleneck component (cost-model tier 1).
#[derive(Debug)]
struct AnalyticGroup {
    /// The common saturated link every member crosses.
    bottleneck: u32,
    engine: FairShare,
    /// Lazy min-heap over the group's links: `(share bits, link id,
    /// flow count at push)`. An entry is valid iff the link is still
    /// owned by this group and its flow count still matches; a fresh
    /// entry is pushed whenever a link's count changes, so the valid
    /// minimum is exactly the `(share, link)` progressive filling
    /// would pick first. The group stays analytic iff that minimum is
    /// the stored bottleneck.
    links: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// The single live completion event for the whole group.
    event: Option<EventKey>,
}

/// A transfer waiting for its scheduled start time.
#[derive(Debug, Clone)]
struct PendingFlow {
    src: ServerId,
    dst: ServerId,
    bytes: u64,
    tag: u64,
}

#[derive(Debug)]
enum NetEvent {
    Start(FlowId),
    Complete(FlowId, u64),
}

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricStats {
    /// Flows completed.
    pub completed: u64,
    /// Bytes delivered by completed flows.
    pub bytes_delivered: u64,
    /// High-water mark of concurrently active flows.
    pub peak_active: usize,
    /// Re-share passes run (a measure of contention churn).
    pub reshares: u64,
    /// Superseded completion events dropped — cancelled in the queue
    /// when a re-share re-predicted the flow, or (defensively)
    /// recognized stale by version at fire time, plus cancels that
    /// found nothing to cancel (the key had already fired — counted so
    /// fault-driven mass cancellation stays observable). High churn
    /// relative to `completed` means heavy rate turbulence.
    pub stale_events_dropped: u64,
    /// Flows aborted by fault injection (link or endpoint death) before
    /// their last byte arrived — scheduled-but-unstarted flows included.
    pub flows_aborted: u64,
    /// High-water mark of the event heap (including not-yet-collected
    /// tombstones) — the memory the fabric's future-event list peaked
    /// at.
    pub peak_queue_len: usize,
    /// Analytic groups created (a component classified single-
    /// bottleneck and promoted off the filling path).
    pub analytic_components: u64,
    /// Events (starts/finishes) served by the analytic tier in
    /// O(log n) instead of a filling pass.
    pub analytic_events: u64,
    /// Groups dissolved back to progressive filling (classification
    /// invalidated by a join, departure, or fault).
    pub fallback_migrations: u64,
}

/// The flow-level network simulator. See the module docs.
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
    queue: EventQueue<NetEvent>,
    pending: IdMap<PendingFlow>,
    active: IdMap<Flow>,
    /// Inverted index: `flows_on[link]` holds the active flows crossing
    /// `link`, ascending by id. This is what makes re-shares
    /// component-scoped and `link_load` O(flows-on-link).
    flows_on: Vec<Vec<u64>>,
    /// Component-BFS link visit stamps, paired with `epoch`.
    link_seen: Vec<u64>,
    /// Bumped per component walk; a link/flow is in the current walk
    /// iff its stamp equals this.
    epoch: u64,
    /// Fault state: a down link contributes zero capacity to the
    /// filling, so flows crossing it starve (rate 0, parked completion)
    /// until the link comes back. All-true outside fault runs.
    link_up: Vec<bool>,
    /// Dead cancels already folded into `stats.stale_events_dropped`
    /// (see `sync_dead_cancels`).
    dead_cancels_seen: u64,
    /// Analytic groups, indexed by the id in `Flow::group`/`link_of`;
    /// freed slots are recycled through `free_groups`.
    groups: Vec<Option<AnalyticGroup>>,
    free_groups: Vec<u32>,
    /// `link_of[link]` is the analytic group owning `link`
    /// (`NO_GROUP` if none). Invariant: every flow crossing an owned
    /// link is a member of the owning group — promotion covers whole
    /// components and joins preserve it — so loose flows and group
    /// members never share a link.
    link_of: Vec<u32>,
    next_id: u64,
    hop_latency: SimDuration,
    stats: FabricStats,
    completions: Vec<FlowCompletion>,
    /// Observability sink ([`Recorder::off`] unless a caller attaches
    /// one); `obs` holds the registered ids iff recording is on, so a
    /// hot path pays exactly one `Option` check when off.
    rec: Recorder,
    obs: Option<FabricObs>,
    /// Buffers reused by every re-share pass.
    scratch: Scratch,
}

/// Re-share buffers, kept on the fabric so a warmed re-share allocates
/// nothing. A pass takes them out (`mem::take`) and puts them back, so
/// they are never borrowed alongside the fabric.
#[derive(Debug, Default)]
struct Scratch {
    /// The component's flow ids, ascending.
    flows: Vec<u64>,
    /// The component's link ids, ascending.
    links: Vec<u32>,
    frontier: Vec<u32>,
    /// Per component link (same order as `links`): capacity not yet
    /// handed out, and unfrozen flows crossing it.
    spare: Vec<f64>,
    unfrozen_on: Vec<u32>,
    /// Per component flow (same order as `flows`).
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

/// Metric ids registered on [`Fabric::set_recorder`].
#[derive(Debug)]
struct FabricObs {
    track: TrackId,
    flow_secs: HistogramId,
    component_flows: HistogramId,
    queue_len: GaugeId,
    tombstones: GaugeId,
    /// Wait-state track keyed by flow id: `running` from wire start to
    /// last byte. Flows start at their scheduled instant (the fabric
    /// has no admission queue), so contention shows up as a longer
    /// `running` state, never a queue wait.
    states: StateTrackId,
}

impl Fabric {
    /// A fabric over an explicit topology.
    pub fn new(topo: Topology, config: &NetworkConfig) -> Self {
        let n_links = topo.n_links();
        Fabric {
            topo,
            queue: EventQueue::new(),
            pending: IdMap::default(),
            active: IdMap::default(),
            flows_on: vec![Vec::new(); n_links],
            link_seen: vec![0; n_links],
            epoch: 0,
            link_up: vec![true; n_links],
            dead_cancels_seen: 0,
            groups: Vec::new(),
            free_groups: Vec::new(),
            link_of: vec![NO_GROUP; n_links],
            next_id: 0,
            hop_latency: SimDuration::from_secs_f64(config.hop_latency_ms / 1_000.0),
            stats: FabricStats::default(),
            completions: Vec::new(),
            rec: Recorder::off(),
            obs: None,
            scratch: Scratch::default(),
        }
    }

    /// Attaches an observability recorder (typically a
    /// [`Recorder::child`] of the caller's). Recording never changes a
    /// trajectory: flow lifetimes land as spans on the `fabric` track,
    /// durations in `fabric/flow_secs`, re-share component sizes in
    /// `fabric/reshare_component_flows`, and event-heap depth/tombstone
    /// gauges sampled at each re-share.
    pub fn set_recorder(&mut self, mut rec: Recorder) {
        self.obs = rec.is_on().then(|| FabricObs {
            track: rec.track("fabric"),
            flow_secs: rec.histogram("fabric/flow_secs"),
            component_flows: rec.histogram("fabric/reshare_component_flows"),
            queue_len: rec.gauge("fabric/queue_len"),
            tombstones: rec.gauge("fabric/queue_tombstones"),
            states: rec.state_track("fabric/flow"),
        });
        self.rec = rec;
    }

    /// Detaches and returns the recorder, mirroring the final
    /// [`FabricStats`] into `fabric/*` counters first so the metrics
    /// report carries the same numbers as the struct.
    pub fn take_recorder(&mut self) -> Recorder {
        if self.rec.is_on() {
            let s = self.stats;
            for (name, v) in [
                ("fabric/completed", s.completed),
                ("fabric/bytes_delivered", s.bytes_delivered),
                ("fabric/peak_active", s.peak_active as u64),
                ("fabric/reshares", s.reshares),
                ("fabric/stale_events_dropped", s.stale_events_dropped),
                ("fabric/flows_aborted", s.flows_aborted),
                ("fabric/peak_queue_len", s.peak_queue_len as u64),
                ("net/analytic_components", s.analytic_components),
                ("net/analytic_events", s.analytic_events),
                ("net/fallback_migrations", s.fallback_migrations),
            ] {
                let id = self.rec.counter(name);
                self.rec.counter_set(id, v);
            }
        }
        self.obs = None;
        std::mem::take(&mut self.rec)
    }

    /// Builds topology and fabric for a datacenter in one step.
    pub fn from_datacenter(dc: &harvest_cluster::Datacenter, config: &NetworkConfig) -> Self {
        Fabric::new(Topology::from_datacenter(dc, config), config)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Flows currently moving bytes.
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// A flow's current rate: the group engine's fair share for
    /// analytic members (whose stored per-flow rate is frozen at
    /// enrollment), the stored rate otherwise.
    fn rate_of(&self, f: &Flow) -> f64 {
        match f.group {
            Some(g) => self.groups[g as usize]
                .as_ref()
                .expect("member's group is live")
                .engine
                .rate(),
            None => f.rate,
        }
    }

    /// The current max-min rate of a flow in bytes/s, if it is active.
    pub fn flow_rate(&self, flow: FlowId) -> Option<f64> {
        self.active.get(&flow.0).map(|f| self.rate_of(f))
    }

    /// Ids of the currently active flows, ascending.
    pub fn active_flow_ids(&self) -> Vec<FlowId> {
        sorted_ids(&self.active, |_| true)
            .into_iter()
            .map(FlowId)
            .collect()
    }

    /// The links a flow traverses, if it is active.
    pub fn flow_path(&self, flow: FlowId) -> Option<&[LinkId]> {
        self.active.get(&flow.0).map(|f| f.path.as_slice())
    }

    /// Sum of active-flow rates crossing `link`, in bytes/s. Served
    /// from the inverted index in O(flows-on-link).
    pub fn link_load(&self, link: LinkId) -> f64 {
        self.flows_on[link.0 as usize]
            .iter()
            .map(|id| self.rate_of(&self.active[id]))
            .sum()
    }

    /// Schedules a `src → dst` transfer of `bytes` to start at `at`.
    /// Returns the flow's id; its completion will be reported by a later
    /// [`Fabric::pump`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` is before the fabric's clock —
    /// the fabric never runs backwards.
    pub fn schedule_flow(
        &mut self,
        at: SimTime,
        src: ServerId,
        dst: ServerId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.pending.insert(
            id.0,
            PendingFlow {
                src,
                dst,
                bytes,
                tag,
            },
        );
        self.queue.push(at, NetEvent::Start(id));
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
        id
    }

    /// The next instant anything can happen in the fabric (`None` when
    /// it is idle). Superseded completion events are cancelled in the
    /// queue, so this is exact: the next event is a real flow start or
    /// a live predicted completion.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the fabric through every event at or before `until`,
    /// returning the transfers that completed, in completion order.
    pub fn pump(&mut self, until: SimTime) -> Vec<FlowCompletion> {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            match ev {
                NetEvent::Start(id) => self.on_start(id, now),
                NetEvent::Complete(id, version) => self.on_complete(id, version, now),
            }
        }
        self.sync_dead_cancels();
        std::mem::take(&mut self.completions)
    }

    /// Folds the queue's dead-cancel count (cancels of already-fired
    /// keys — only fault-driven mass cancellation produces them) into
    /// `stale_events_dropped`. A no-op in fault-free runs.
    fn sync_dead_cancels(&mut self) {
        let d = self.queue.n_dead_cancels();
        self.stats.stale_events_dropped += d - self.dead_cancels_seen;
        self.dead_cancels_seen = d;
    }

    /// Drains the fabric to quiescence, returning all remaining
    /// completions. Useful at the end of a simulation.
    pub fn drain(&mut self) -> Vec<FlowCompletion> {
        self.pump(SimTime::MAX)
    }

    /// Whether every link on the `src → dst` path is up. The empty path
    /// (a local copy) is trivially up; endpoint death is visible here
    /// only through the NIC links, so callers tracking dead *servers*
    /// must check those separately.
    pub fn path_up(&self, src: ServerId, dst: ServerId) -> bool {
        self.topo
            .path_links(src, dst)
            .as_slice()
            .iter()
            .all(|l| self.link_up[l.0 as usize])
    }

    /// Takes a link down: active flows crossing it abort (their tags
    /// are returned so the caller can retry elsewhere), scheduled but
    /// unstarted flows whose path crosses it abort too, and until
    /// [`Fabric::set_link_up`] the link contributes zero capacity — a
    /// new flow routed over it starves at rate 0 (parked completion)
    /// rather than erroring. Idempotent; a second down returns nothing.
    pub fn set_link_down(&mut self, now: SimTime, link: LinkId) -> Vec<u64> {
        if !self.link_up[link.0 as usize] {
            return Vec::new();
        }
        // A capacity change invalidates the owning group's
        // classification: migrate its state back to filling before the
        // abort sweep (survivors are re-filled — and possibly
        // re-promoted — by the re-share below).
        let owner = self.link_of[link.0 as usize];
        if owner != NO_GROUP {
            self.dissolve_group(owner, now);
        }
        self.link_up[link.0 as usize] = false;
        let ids: Vec<u64> = self.flows_on[link.0 as usize].clone();
        let mut tags = Vec::new();
        let mut seeds: Vec<LinkId> = vec![link];
        for id in ids {
            if let Some(tag) = self.abort_active(FlowId(id), now, &mut seeds) {
                tags.push(tag);
            }
        }
        let topo = &self.topo;
        let crossing = sorted_ids(&self.pending, |p| {
            topo.path_links(p.src, p.dst).as_slice().contains(&link)
        });
        for id in crossing {
            let p = self.pending.remove(&id).expect("collected above");
            self.stats.flows_aborted += 1;
            tags.push(p.tag);
        }
        self.reshare(now, &seeds);
        self.sync_dead_cancels();
        tags
    }

    /// Brings a link back up and re-shares over it, rescuing any flows
    /// parked at rate 0 on its account. Idempotent.
    pub fn set_link_up(&mut self, now: SimTime, link: LinkId) {
        if self.link_up[link.0 as usize] {
            return;
        }
        self.link_up[link.0 as usize] = true;
        self.reshare(now, &[link]);
    }

    /// Applies one real fault action (see [`harvest_sim::fault`]) at
    /// `now` and returns the tags of the flows it aborted: a crash takes
    /// the server's NIC links down and aborts every flow touching it,
    /// scheduled ones too; an uplink outage takes the rack's uplink down
    /// both ways and aborts every flow crossing it. Restores bring the
    /// links back up. Disk actions do not concern the fabric.
    pub fn apply_fault(&mut self, now: SimTime, action: FaultAction) -> Vec<u64> {
        let t = &self.topo;
        let links = match action {
            FaultAction::Crash(s) | FaultAction::Restore(s) => {
                [t.server_tx(ServerId(s)), t.server_rx(ServerId(s))]
            }
            FaultAction::UplinkDown(rack) | FaultAction::UplinkUp(rack) => {
                [t.rack_up(rack), t.rack_down(rack)]
            }
            FaultAction::DiskFail(_) | FaultAction::DiskDegrade(..) => return Vec::new(),
        };
        if let FaultAction::Restore(_) | FaultAction::UplinkUp(_) = action {
            for link in links {
                self.set_link_up(now, link);
            }
            return Vec::new();
        }
        let mut tags: Vec<u64> = links
            .into_iter()
            .flat_map(|link| self.set_link_down(now, link))
            .collect();
        if let FaultAction::Crash(s) = action {
            let server = ServerId(s);
            for id in sorted_ids(&self.pending, |p| p.src == server || p.dst == server) {
                let p = self.pending.remove(&id).expect("collected above");
                self.stats.flows_aborted += 1;
                tags.push(p.tag);
            }
        }
        tags
    }

    /// Aborts every flow (active or scheduled) whose tag is in `tags` —
    /// the fault path for "this transfer's purpose just died" (e.g. a
    /// repair whose destination crashed). Returns the number aborted.
    pub fn abort_flows_with_tags(
        &mut self,
        now: SimTime,
        tags: &std::collections::HashSet<u64>,
    ) -> usize {
        let ids = sorted_ids(&self.active, |f| tags.contains(&f.tag));
        let mut n = 0;
        let mut seeds: Vec<LinkId> = Vec::new();
        for id in ids {
            if self.abort_active(FlowId(id), now, &mut seeds).is_some() {
                n += 1;
            }
        }
        let pend = sorted_ids(&self.pending, |p| tags.contains(&p.tag));
        for id in pend {
            self.pending.remove(&id);
            self.stats.flows_aborted += 1;
            n += 1;
        }
        if !seeds.is_empty() {
            self.reshare(now, &seeds);
        }
        self.sync_dead_cancels();
        n
    }

    /// Removes an active flow without completing it, mirroring
    /// `on_complete`'s bookkeeping (index, running totals, pending
    /// event, obs state). Pushes the flow's links onto `seeds` so the
    /// caller can re-share once over everything it aborted.
    fn abort_active(&mut self, id: FlowId, now: SimTime, seeds: &mut Vec<LinkId>) -> Option<u64> {
        // An analytic member cannot be plucked out piecemeal — its
        // progress lives in the group clock. Migrate the whole group
        // to filling state first (exact), then abort normally; the
        // caller's re-share re-predicts the surviving ex-members.
        if let Some(g) = self.active.get(&id.0).and_then(|f| f.group) {
            self.dissolve_group(g, now);
        }
        let flow = self.active.remove(&id.0)?;
        for l in &flow.path {
            let list = &mut self.flows_on[l.0 as usize];
            let pos = list.binary_search(&id.0).expect("flow indexed on link");
            list.remove(pos);
            seeds.push(*l);
        }
        if let Some(key) = flow.pending {
            if self.queue.cancel(key) {
                self.stats.stale_events_dropped += 1;
            }
        }
        self.stats.flows_aborted += 1;
        if let Some(obs) = &self.obs {
            self.rec.state_exit(obs.states, id.0, now);
        }
        Some(flow.tag)
    }

    fn on_start(&mut self, id: FlowId, now: SimTime) {
        let Some(p) = self.pending.remove(&id.0) else {
            return; // cancelled
        };
        let path = self.topo.path_links(p.src, p.dst);
        if let Some(obs) = &self.obs {
            self.rec.state_enter(obs.states, id.0, "running", now);
        }
        // Per-hop switching latency: charge it up front by extending the
        // effective start; for the empty path (local copy) the flow
        // completes immediately.
        if path.is_empty() {
            self.finish_flow(id, now, p.tag, p.bytes, now);
            return;
        }
        let latency = self.hop_latency.mul_f64(path.len() as f64);
        // Fold per-hop latency in as bottleneck-bytes so a tiny flow
        // still takes ≥ the path latency.
        let remaining = p.bytes as f64 + latency.as_secs_f64() * self.path_bottleneck(&path);
        self.active.insert(
            id.0,
            Flow {
                tag: p.tag,
                bytes: p.bytes,
                remaining,
                rate: 0.0,
                version: 0,
                last_update: now,
                pending: None,
                seen: 0,
                started: now,
                path,
                group: None,
            },
        );
        for l in &path {
            let list = &mut self.flows_on[l.0 as usize];
            // Ids are assigned at schedule time but start in event-time
            // order, so keep each list sorted explicitly.
            let pos = list.binary_search(&id.0).unwrap_err();
            list.insert(pos, id.0);
        }
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        if self.try_join_group(id, now) {
            return;
        }
        self.reshare(now, path.as_slice());
    }

    /// The analytic tier's O(log n) start path: if every link on the
    /// new flow's path is either owned by one analytic group or
    /// exclusively the flow's own, and the flow crosses the group's
    /// bottleneck, enroll it — no filling pass. Returns `true` when
    /// the start has been fully served (including the case where the
    /// join invalidated the classification and the component was
    /// migrated and re-filled). The flow must already be in
    /// `active`/`flows_on`.
    fn try_join_group(&mut self, id: FlowId, now: SimTime) -> bool {
        let path = self.active[&id.0].path;
        let mut owner: Option<u32> = None;
        let mut merges = false;
        let mut loose = false;
        for l in &path {
            let g = self.link_of[l.0 as usize];
            if g == NO_GROUP {
                // Unowned: fine if the new flow is alone on it; any
                // other flow there is loose (never a member, by the
                // ownership invariant) and would bridge components.
                if self.flows_on[l.0 as usize].len() > 1 {
                    loose = true;
                }
            } else if owner.is_none() || owner == Some(g) {
                owner = Some(g);
            } else {
                merges = true;
            }
        }
        let Some(g) = owner else {
            return false; // purely loose start: filling (may promote)
        };
        let grp = self.groups[g as usize]
            .as_ref()
            .expect("owned link's group");
        if merges || loose || !path.contains(&LinkId(grp.bottleneck)) {
            // The join bridges groups/loose flows or skips the
            // bottleneck: the merged component is no longer provably
            // single-bottleneck. Migrate and re-fill (which re-runs
            // the classifier on the merged component).
            if merges {
                let owners: Vec<u32> = {
                    let mut v: Vec<u32> = path
                        .iter()
                        .map(|l| self.link_of[l.0 as usize])
                        .filter(|&g| g != NO_GROUP)
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                for g in owners {
                    self.dissolve_group(g, now);
                }
            } else {
                self.dissolve_group(g, now);
            }
            self.reshare(now, path.as_slice());
            return true;
        }
        // Enroll: the flow's remaining was set at this instant, so it
        // enters the fair-work clock exactly.
        let remaining = self.active[&id.0].remaining;
        {
            let grp = self.groups[g as usize].as_mut().expect("checked above");
            grp.engine.insert(now, id.0, remaining);
        }
        self.active.get_mut(&id.0).expect("just started").group = Some(g);
        for l in &path {
            if self.link_of[l.0 as usize] == NO_GROUP {
                self.link_of[l.0 as usize] = g;
            }
            self.push_link_share(g, l.0);
        }
        if self.group_is_single_bottleneck(g) {
            self.stats.reshares += 1; // an allocation pass, served analytically
            self.stats.analytic_events += 1;
            self.repredict_group(g, now);
        } else {
            // The join moved the filling minimum off the bottleneck
            // (e.g. a NIC now binds): migrate and re-fill.
            self.dissolve_group(g, now);
            self.reshare(now, path.as_slice());
        }
        true
    }

    fn on_complete(&mut self, id: FlowId, version: u64, now: SimTime) {
        let stale = match self.active.get(&id.0) {
            Some(f) => f.version != version,
            None => true,
        };
        if stale {
            // Defensive: superseded events are cancelled at re-predict
            // time, so a stale fire indicates a missed cancellation.
            self.stats.stale_events_dropped += 1;
            return;
        }
        let flow = self.active.remove(&id.0).expect("checked above");
        for l in &flow.path {
            let list = &mut self.flows_on[l.0 as usize];
            let pos = list.binary_search(&id.0).expect("flow indexed on link");
            list.remove(pos);
        }
        if let Some(g) = flow.group {
            self.on_analytic_complete(id, g, &flow.path, now);
            self.finish_flow(id, now, flow.tag, flow.bytes, flow.started);
            return;
        }
        self.finish_flow(id, now, flow.tag, flow.bytes, flow.started);
        self.reshare(now, flow.path.as_slice());
    }

    /// The analytic tier's O(log n) finish path: the group's single
    /// completion event just fired for member `id` (already removed
    /// from `active`/`flows_on`). Update the group and either
    /// re-predict the next completion or migrate if the departure
    /// moved the filling minimum off the bottleneck.
    fn on_analytic_complete(&mut self, id: FlowId, g: u32, path: &Path, now: SimTime) {
        {
            let grp = self.groups[g as usize].as_mut().expect("member's group");
            grp.event = None; // it just fired
            grp.engine.remove(now, id.0);
        }
        for l in path {
            if self.link_of[l.0 as usize] == g {
                if self.flows_on[l.0 as usize].is_empty() {
                    // The departed flow's exclusive links (its NICs)
                    // leave the group.
                    self.link_of[l.0 as usize] = NO_GROUP;
                } else {
                    self.push_link_share(g, l.0);
                }
            }
        }
        let grp = self.groups[g as usize].as_ref().expect("member's group");
        if grp.engine.is_empty() {
            self.stats.reshares += 1; // an allocation pass, served analytically
            self.stats.analytic_events += 1;
            self.groups[g as usize] = None;
            self.free_groups.push(g);
        } else if self.group_is_single_bottleneck(g) {
            self.stats.reshares += 1; // an allocation pass, served analytically
            self.stats.analytic_events += 1;
            self.repredict_group(g, now);
        } else {
            self.dissolve_group(g, now);
            self.reshare(now, path.as_slice());
        }
    }

    /// Pushes a fresh saturation-heap entry for `link` (owned by group
    /// `g`) at its current flow count. The share is the same division
    /// progressive filling would perform for this link in its first
    /// iteration, so the heap's valid minimum is exactly the filling's
    /// first pick.
    fn push_link_share(&mut self, g: u32, link: u32) {
        let cnt = self.flows_on[link as usize].len() as u32;
        debug_assert!(cnt > 0, "owned link with no flows");
        let share = self.effective_capacity(LinkId(link)) / cnt as f64;
        let grp = self.groups[g as usize]
            .as_mut()
            .expect("owned link's group");
        grp.links.push(Reverse((share.to_bits(), link, cnt)));
    }

    /// Whether group `g`'s stored bottleneck is still the
    /// lexicographically smallest `(fair share, link id)` among its
    /// links — i.e. the link progressive filling would pick first.
    /// Pops stale heap entries (dead links, outdated counts) lazily.
    fn group_is_single_bottleneck(&mut self, g: u32) -> bool {
        let link_of = &self.link_of;
        let flows_on = &self.flows_on;
        let grp = self.groups[g as usize].as_mut().expect("live group");
        let expected = (grp.engine.rate().to_bits(), grp.bottleneck);
        while let Some(&Reverse((bits, l, cnt))) = grp.links.peek() {
            if link_of[l as usize] == g && flows_on[l as usize].len() as u32 == cnt {
                return (bits, l) == expected;
            }
            grp.links.pop();
        }
        false
    }

    /// Re-predicts group `g`'s single completion event from the
    /// fair-work clock, cancelling the superseded one.
    fn repredict_group(&mut self, g: u32, now: SimTime) {
        let (top, eta) = {
            let grp = self.groups[g as usize].as_mut().expect("live group");
            if let Some(key) = grp.event.take() {
                if self.queue.cancel(key) {
                    self.stats.stale_events_dropped += 1;
                }
            }
            grp.engine.peek(now).expect("non-empty unparked group")
        };
        let version = self.active[&top].version;
        let key = self.queue.push_keyed(
            now + SimDuration::from_secs_f64(eta),
            NetEvent::Complete(FlowId(top), version),
        );
        self.groups[g as usize].as_mut().expect("live group").event = Some(key);
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
    }

    /// Migrates group `g` back to progressive filling: every member's
    /// `remaining` is materialized from the fair-work clock at `now`,
    /// its per-flow stamps are re-anchored, and the group's links are
    /// released. Members are left without a live completion event —
    /// every dissolve site follows up with a re-share whose component
    /// covers all ex-members (they share the ex-bottleneck), which
    /// re-predicts them.
    fn dissolve_group(&mut self, g: u32, now: SimTime) {
        let Some(mut grp) = self.groups[g as usize].take() else {
            return;
        };
        grp.engine.advance(now);
        if let Some(key) = grp.event.take() {
            if self.queue.cancel(key) {
                self.stats.stale_events_dropped += 1;
            }
        }
        let rate = grp.engine.rate();
        for (id, remaining) in grp.engine.members() {
            let f = self.active.get_mut(&id).expect("group member is active");
            f.remaining = remaining;
            f.last_update = now;
            f.rate = rate;
            f.pending = None;
            f.group = None;
            let path = f.path;
            for l in &path {
                if self.link_of[l.0 as usize] == g {
                    self.link_of[l.0 as usize] = NO_GROUP;
                }
            }
        }
        self.free_groups.push(g);
        self.stats.fallback_migrations += 1;
    }

    fn finish_flow(&mut self, id: FlowId, now: SimTime, tag: u64, bytes: u64, started: SimTime) {
        self.stats.completed += 1;
        self.stats.bytes_delivered += bytes;
        if let Some(obs) = &self.obs {
            self.rec
                .observe(obs.flow_secs, now.since(started).as_secs_f64());
            self.rec
                .span_args(obs.track, "flow", started, now, &[("bytes", bytes as f64)]);
            self.rec.state_exit(obs.states, id.0, now);
        }
        self.completions.push(FlowCompletion {
            flow: id,
            at: now,
            tag,
            bytes,
            started,
        });
    }

    /// A link's capacity as the filling sees it: zero while the link is
    /// down (fault injection), the physical capacity otherwise. The
    /// all-up multiply-by-nothing path is the exact `topo.capacity`
    /// value, so fault-free runs are bitwise unaffected.
    fn effective_capacity(&self, link: LinkId) -> f64 {
        if self.link_up[link.0 as usize] {
            self.topo.capacity(link)
        } else {
            0.0
        }
    }

    fn path_bottleneck(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|&l| self.effective_capacity(l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Collects the connected component of active flows transitively
    /// sharing a link with `seeds` (a changed flow's path): breadth-
    /// first over the inverted index, alternating link → flows and
    /// flow → links. Leaves (flow ids, link ids) in `sc.flows` and
    /// `sc.links`, both ascending — the sort makes the filling order
    /// independent of discovery order.
    fn component(&mut self, seeds: &[LinkId], sc: &mut Scratch) {
        self.epoch += 1;
        let epoch = self.epoch;
        let Scratch {
            flows,
            links,
            frontier,
            ..
        } = sc;
        flows.clear();
        links.clear();
        for l in seeds {
            if self.link_seen[l.0 as usize] != epoch {
                self.link_seen[l.0 as usize] = epoch;
                frontier.push(l.0);
            }
        }
        let flows_on = &self.flows_on;
        let active = &mut self.active;
        let link_seen = &mut self.link_seen;
        while let Some(l) = frontier.pop() {
            links.push(l);
            for fid in &flows_on[l as usize] {
                let f = active.get_mut(fid).expect("indexed flow is active");
                if f.seen == epoch {
                    continue;
                }
                f.seen = epoch;
                flows.push(*fid);
                for pl in f.path.as_slice() {
                    if link_seen[pl.0 as usize] != epoch {
                        link_seen[pl.0 as usize] = epoch;
                        frontier.push(pl.0);
                    }
                }
            }
        }
        flows.sort_unstable();
        links.sort_unstable();
    }

    /// Recomputes max-min fair rates (progressive filling) for the
    /// flows the event can affect and re-predicts their completions.
    /// `seeds` is the changed flow's path; only its connected component
    /// is recomputed.
    ///
    /// Progressive filling: repeatedly find the most-contended link (the
    /// one whose remaining capacity split across its unfrozen flows is
    /// smallest), freeze those flows at that fair share, subtract their
    /// demand everywhere, and repeat. The result is the unique max-min
    /// fair allocation; every flow ends up bottlenecked by (at least) one
    /// saturated link on its path. Filling over a component is bitwise
    /// identical to filling over the whole population restricted to it:
    /// a link's fair share involves only its own component's flows, so
    /// interleaving freezes across disjoint components never changes
    /// what any flow gets.
    fn reshare(&mut self, now: SimTime, seeds: &[LinkId]) {
        // Filling over group-owned links would corrupt group state
        // (members' stamps are frozen; the group holds their event):
        // any group this event reaches is migrated to filling state
        // first. Loose flows never share a link with members, so the
        // component walk can only enter a group through a seed — four
        // array reads on the no-group hot path.
        for l in seeds {
            let g = self.link_of[l.0 as usize];
            if g != NO_GROUP {
                self.dissolve_group(g, now);
            }
        }
        self.stats.reshares += 1;
        if self.active.is_empty() {
            return;
        }
        let mut sc = std::mem::take(&mut self.scratch);
        self.fill_component(now, seeds, &mut sc);
        self.scratch = sc;
    }

    /// The body of [`Fabric::reshare`], over buffers `sc` taken out of
    /// the fabric.
    fn fill_component(&mut self, now: SimTime, seeds: &[LinkId], sc: &mut Scratch) {
        // The candidate set: the component, both lists ascending so the
        // freeze order and the bottleneck tie-break are those of a
        // filling over the whole population.
        self.component(seeds, sc);
        let Scratch {
            flows: ids,
            links: used,
            spare,
            unfrozen_on,
            frozen,
            rates,
            ..
        } = sc;
        if ids.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            self.rec.observe(obs.component_flows, ids.len() as f64);
            self.rec
                .gauge_at(obs.queue_len, now, self.queue.len() as f64);
            self.rec
                .gauge_at(obs.tombstones, now, self.queue.n_stale() as f64);
        }

        let slot_of =
            |link: LinkId| -> usize { used.binary_search(&link.0).expect("link in used set") };
        spare.clear();
        spare.extend(used.iter().map(|&l| self.effective_capacity(LinkId(l))));
        unfrozen_on.clear();
        unfrozen_on.resize(used.len(), 0);
        for id in ids.iter() {
            for l in &self.active[id].path {
                unfrozen_on[slot_of(*l)] += 1;
            }
        }
        frozen.clear();
        frozen.resize(ids.len(), false);
        rates.clear();
        rates.resize(ids.len(), 0.0);
        let mut left = ids.len();
        // The classifier rides the filling for free: remember the
        // first iteration's pick and how many iterations ran.
        let mut first: Option<(f64, u32)> = None;
        let mut iterations = 0usize;

        while left > 0 {
            // The bottleneck link and its fair share.
            let mut best: Option<(f64, usize)> = None;
            for (slot, &cnt) in unfrozen_on.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let share = spare[slot] / cnt as f64;
                match best {
                    Some((s, _)) if s <= share => {}
                    _ => best = Some((share, slot)),
                }
            }
            let Some((share, bottleneck)) = best else {
                break; // no unfrozen flow crosses any link
            };
            let share = share.max(0.0);
            let bottleneck = used[bottleneck];
            if iterations == 0 {
                first = Some((share, bottleneck));
            }
            iterations += 1;
            // Freeze every unfrozen flow crossing the bottleneck,
            // ascending by id straight off the inverted index (every
            // flow on a candidate link is itself a candidate).
            for fid in &self.flows_on[bottleneck as usize] {
                let i = ids.binary_search(fid).expect("flow in candidate set");
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                rates[i] = share;
                left -= 1;
                for l in &self.active[fid].path {
                    let slot = slot_of(*l);
                    spare[slot] = (spare[slot] - share).max(0.0);
                    unfrozen_on[slot] -= 1;
                }
            }
        }

        // Single-bottleneck classification: one iteration froze the
        // whole component, so every flow crosses the picked link and
        // max-min degenerates to an equal split — promote the
        // component to the analytic tier (unless the component is
        // trivial, or the bottleneck is a dead link parking everyone
        // at 0).
        if let Some((share, bottleneck)) = first {
            if iterations == 1 && share > 0.0 && ids.len() >= 2 {
                self.promote(now, ids, used, bottleneck, share);
                return;
            }
        }

        // Apply rates and re-predict completions. A flow whose rate is
        // bitwise-unchanged keeps its pending Complete event: its
        // `remaining` hasn't been advanced since that event was
        // predicted, so the predicted absolute completion time is still
        // exact. A flow whose rate changes is advanced lazily — one
        // multiply covering the whole span since its own last change —
        // and its superseded event is cancelled in the queue.
        // (`version > 0 && pending` means a live event exists; a flow
        // freshly migrated from an analytic group has `version > 0`
        // but no event, and must be re-predicted even at an unchanged
        // rate.)
        let active = &mut self.active;
        let queue = &mut self.queue;
        let stats = &mut self.stats;
        for (i, id) in ids.iter().enumerate() {
            let f = active.get_mut(id).expect("active");
            debug_assert!(f.group.is_none(), "filling visited an analytic member");
            if f.version > 0 && rates[i] == f.rate && f.pending.is_some() {
                continue;
            }
            let dt = now.since(f.last_update).as_secs_f64();
            if dt > 0.0 {
                let advanced = (f.remaining - f.rate * dt).max(0.0);
                f.remaining = advanced;
            }
            f.last_update = now;
            if let Some(key) = f.pending.take() {
                if queue.cancel(key) {
                    stats.stale_events_dropped += 1;
                }
            }
            f.rate = rates[i];
            f.version += 1;
            let eta = if f.rate > 0.0 {
                SimDuration::from_secs_f64(f.remaining / f.rate)
            } else {
                // Starved flow (zero-capacity link): park the completion
                // far in the future; a later re-share will rescue it.
                SimDuration::from_days(365_000)
            };
            f.pending =
                Some(queue.push_keyed(now + eta, NetEvent::Complete(FlowId(*id), f.version)));
            stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
        }
    }

    /// Promotes a component the filling just proved single-bottleneck
    /// (`ids` all cross `bottleneck`, each at fair share `share`) into
    /// an analytic group. Every member is advanced to `now` with the
    /// same fused multiply the filling apply loop uses, its per-flow
    /// event is cancelled, and it is enrolled in the fair-work clock —
    /// after which the first predicted completion is bitwise the one
    /// filling would have pushed (`v = 0`, so keys are exactly the
    /// remaining work).
    fn promote(&mut self, now: SimTime, ids: &[u64], used: &[u32], bottleneck: u32, share: f64) {
        let g = match self.free_groups.pop() {
            Some(g) => g,
            None => {
                self.groups.push(None);
                (self.groups.len() - 1) as u32
            }
        };
        let mut engine = FairShare::new(self.effective_capacity(LinkId(bottleneck)), now);
        for id in ids {
            let f = self.active.get_mut(id).expect("component flow is active");
            let dt = now.since(f.last_update).as_secs_f64();
            if dt > 0.0 {
                let advanced = (f.remaining - f.rate * dt).max(0.0);
                f.remaining = advanced;
            }
            f.last_update = now;
            if let Some(key) = f.pending.take() {
                if self.queue.cancel(key) {
                    self.stats.stale_events_dropped += 1;
                }
            }
            f.rate = share;
            f.version += 1;
            f.group = Some(g);
            engine.insert(now, *id, f.remaining);
        }
        // The component's crossed links are the group's links: claim
        // them and seed the saturation heap at current counts. (`used`
        // may also carry flowless seed links — a just-departed flow's
        // NICs — which stay unowned; they cannot be a bottleneck.)
        let mut links = BinaryHeap::with_capacity(used.len());
        for &l in used {
            let cnt = self.flows_on[l as usize].len() as u32;
            if cnt == 0 {
                continue;
            }
            self.link_of[l as usize] = g;
            let entry_share = self.effective_capacity(LinkId(l)) / cnt as f64;
            links.push(Reverse((entry_share.to_bits(), l, cnt)));
        }
        self.groups[g as usize] = Some(AnalyticGroup {
            bottleneck,
            engine,
            links,
            event: None,
        });
        self.stats.analytic_components += 1;
        self.repredict_group(g, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_cluster::Datacenter;
    use harvest_trace::datacenter::DatacenterProfile;

    impl Fabric {
        /// Whether a link is currently up (fault injection downs links).
        fn link_is_up(&self, link: LinkId) -> bool {
            self.link_up[link.0 as usize]
        }

        /// Number of active flows crossing `link` (O(1) via the index).
        fn link_flows(&self, link: LinkId) -> usize {
            self.flows_on[link.0 as usize].len()
        }

        /// The re-prediction version of an active flow — bumped whenever a
        /// re-share changes its rate. Disjoint-component flows keep their
        /// version (and their scheduled completion event) across unrelated
        /// starts/finishes; tests pin that. Analytic-group members keep
        /// the version they enrolled with — the group serves rate changes
        /// without per-flow re-prediction, which is the point.
        fn flow_version(&self, flow: FlowId) -> Option<u64> {
            self.active.get(&flow.0).map(|f| f.version)
        }

        /// Flows scheduled but not yet started.
        fn n_pending(&self) -> usize {
            self.pending.len()
        }
    }

    const MB: u64 = 1024 * 1024;

    fn fabric() -> (Datacenter, Fabric) {
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 42);
        let f = Fabric::from_datacenter(&dc, &NetworkConfig::datacenter());
        (dc, f)
    }

    fn cross_rack_pair(dc: &Datacenter) -> (ServerId, ServerId) {
        let a = dc.servers[0].id;
        let b = dc
            .servers
            .iter()
            .find(|s| s.rack != dc.servers[0].rack)
            .expect("multi-rack dc")
            .id;
        (a, b)
    }

    #[test]
    fn single_flow_runs_at_nic_speed() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 1_250 * MB, 1);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        // 1250 MiB at 1.25e9 B/s ≈ 1.05 s (MiB vs MB) + hop latency.
        let secs = done[0].at.since(done[0].started).as_secs_f64();
        assert!((1.0..1.2).contains(&secs), "single flow took {secs}s");
    }

    #[test]
    fn local_copy_is_instant() {
        let (dc, mut f) = fabric();
        let a = dc.servers[0].id;
        f.schedule_flow(SimTime::from_secs(5), a, a, 999 * MB, 7);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, SimTime::from_secs(5));
        assert_eq!(done[0].tag, 7);
    }

    #[test]
    fn two_flows_share_a_nic_fairly() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        // Both flows leave server `a`: its TX NIC is the bottleneck.
        f.schedule_flow(SimTime::ZERO, a, b, 125 * MB, 1);
        f.schedule_flow(SimTime::ZERO, a, b, 125 * MB, 2);
        f.pump(SimTime::ZERO);
        let r1 = f.flow_rate(FlowId(0)).unwrap();
        let r2 = f.flow_rate(FlowId(1)).unwrap();
        assert!((r1 - r2).abs() < 1.0, "unequal shares {r1} vs {r2}");
        let nic = NetworkConfig::datacenter().nic_bytes_per_sec();
        assert!((r1 + r2 - nic).abs() / nic < 1e-9, "NIC not saturated");
        // Sharing doubles the transfer time vs. running alone.
        let done = f.drain();
        let secs = done[1].at.since(done[1].started).as_secs_f64();
        assert!((0.2..0.25).contains(&secs), "shared pair took {secs}s");
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let (dc, mut f) = fabric();
        // Two flows between entirely different rack pairs.
        let racks = dc.n_racks();
        assert!(racks >= 4, "need 4 racks, have {racks}");
        let by_rack = |r: u32| {
            dc.servers
                .iter()
                .find(|s| s.rack.0 == r)
                .expect("rack populated")
                .id
        };
        f.schedule_flow(SimTime::ZERO, by_rack(0), by_rack(1), 125 * MB, 1);
        f.schedule_flow(SimTime::ZERO, by_rack(2), by_rack(3), 125 * MB, 2);
        f.pump(SimTime::ZERO);
        let nic = NetworkConfig::datacenter().nic_bytes_per_sec();
        for id in [0, 1] {
            let r = f.flow_rate(FlowId(id)).unwrap();
            assert!((r - nic).abs() / nic < 1e-9, "flow {id} throttled to {r}");
        }
        f.drain();
    }

    #[test]
    fn oversubscribed_uplink_throttles_a_storm() {
        let (dc, mut f) = fabric();
        // Many flows out of one rack to distinct remote servers: the
        // 4:1-oversubscribed uplink (5 NICs worth) is the bottleneck.
        let rack0: Vec<ServerId> = dc
            .servers
            .iter()
            .filter(|s| s.rack.0 == 0)
            .map(|s| s.id)
            .collect();
        let remote: Vec<ServerId> = dc
            .servers
            .iter()
            .filter(|s| s.rack.0 != 0)
            .take(rack0.len())
            .map(|s| s.id)
            .collect();
        assert!(rack0.len() >= 10, "rack 0 has {}", rack0.len());
        for (i, (&s, &d)) in rack0.iter().zip(&remote).enumerate() {
            f.schedule_flow(SimTime::ZERO, s, d, 125 * MB, i as u64);
        }
        f.pump(SimTime::ZERO);
        let uplink = f.topology().rack_up(0);
        let cap = f.topology().capacity(uplink);
        let load = f.link_load(uplink);
        assert!(
            load <= cap * (1.0 + 1e-9),
            "uplink overloaded: {load} > {cap}"
        );
        assert!(
            load >= cap * (1.0 - 1e-9),
            "uplink not work-conserving: {load} < {cap}"
        );
        // Each flow gets the uplink fair share, which is below NIC speed.
        let nic = NetworkConfig::datacenter().nic_bytes_per_sec();
        let share = f.flow_rate(FlowId(0)).unwrap();
        assert!(share < nic, "share {share} not throttled below NIC {nic}");
        f.drain();
    }

    #[test]
    fn departures_release_bandwidth() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        // A short and a long flow share `a`'s NIC; after the short one
        // leaves, the long one speeds up, finishing sooner than it would
        // have at the half-rate.
        f.schedule_flow(SimTime::ZERO, a, b, 125 * MB, 1);
        f.schedule_flow(SimTime::ZERO, a, b, 1_250 * MB, 2);
        let done = f.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "short flow finishes first");
        let long_secs = done[1].at.as_secs_f64();
        // Alone: ~1.05 s. Always halved: ~2.1 s. With the short flow
        // departing around 0.21 s the long one lands near 1.16 s.
        assert!(
            (1.05..1.6).contains(&long_secs),
            "long flow took {long_secs}s — bandwidth not released?"
        );
    }

    #[test]
    fn staggered_starts_replay_deterministically() {
        let run = || {
            let (dc, mut f) = fabric();
            let (a, b) = cross_rack_pair(&dc);
            let mut ends = Vec::new();
            for i in 0..20u64 {
                f.schedule_flow(
                    SimTime::from_millis(i * 37),
                    dc.servers[(i as usize * 13) % dc.n_servers()].id,
                    if i % 3 == 0 { a } else { b },
                    (i + 1) * 10 * MB,
                    i,
                );
            }
            for c in f.drain() {
                ends.push((c.tag, c.at));
            }
            ends
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pump_respects_the_horizon() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 1_250 * MB, 1); // ~1 s
        let early = f.pump(SimTime::from_millis(500));
        assert!(early.is_empty(), "flow finished early: {early:?}");
        assert_eq!(f.n_active(), 1);
        let late = f.pump(SimTime::from_secs(10));
        assert_eq!(late.len(), 1);
        assert_eq!(f.n_active(), 0);
    }

    #[test]
    fn stats_track_the_population() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 10 * MB, 1);
        f.schedule_flow(SimTime::ZERO, a, b, 10 * MB, 2);
        f.drain();
        let s = f.stats();
        assert_eq!(s.completed, 2);
        assert_eq!(s.bytes_delivered, 20 * MB);
        assert_eq!(s.peak_active, 2);
        assert!(s.reshares >= 4);
        // The second flow's arrival re-predicted the first's completion,
        // which cancelled (dropped) the superseded event.
        assert!(s.stale_events_dropped >= 1);
        assert!(s.peak_queue_len >= 2);
    }

    /// The point of component scoping: an unrelated start/finish leaves
    /// a disjoint flow's rate, version, and scheduled completion event
    /// untouched.
    #[test]
    fn disjoint_flows_keep_their_event_version() {
        let (dc, mut f) = fabric();
        let racks = dc.n_racks();
        assert!(racks >= 4, "need 4 racks, have {racks}");
        let by_rack = |r: u32| {
            dc.servers
                .iter()
                .find(|s| s.rack.0 == r)
                .expect("rack populated")
                .id
        };
        // A long-lived flow between racks 0 and 1.
        let bystander = f.schedule_flow(SimTime::ZERO, by_rack(0), by_rack(1), 1_250 * MB, 1);
        f.pump(SimTime::ZERO);
        let v0 = f.flow_version(bystander).expect("active");
        let r0 = f.flow_rate(bystander).expect("active");
        // An unrelated flow between racks 2 and 3 starts and finishes.
        f.schedule_flow(SimTime::from_millis(10), by_rack(2), by_rack(3), 10 * MB, 2);
        f.pump(SimTime::from_millis(500));
        assert_eq!(f.stats().completed, 1, "unrelated flow should be done");
        assert_eq!(
            f.flow_version(bystander),
            Some(v0),
            "disjoint-component flow was re-predicted by an unrelated start/finish"
        );
        assert_eq!(f.flow_rate(bystander), Some(r0));
        // A flow that *does* share the bystander's links bumps it.
        f.schedule_flow(SimTime::from_secs(1), by_rack(0), by_rack(1), 10 * MB, 3);
        f.pump(SimTime::from_secs(1));
        assert!(
            f.flow_version(bystander).expect("active") > v0,
            "sharing flow must re-predict the bystander"
        );
        f.drain();
    }

    /// Recording is pure observation: the completion schedule and the
    /// stats struct are bitwise identical with a recorder attached, and
    /// the recorder mirrors the final stats as counters.
    #[test]
    fn recording_does_not_change_the_trajectory() {
        let run = |record: bool| {
            let (dc, mut f) = fabric();
            if record {
                f.set_recorder(Recorder::new("fabric-test"));
            }
            let n = dc.n_servers();
            for i in 0..40u64 {
                f.schedule_flow(
                    SimTime::from_millis(i * 23),
                    dc.servers[(i as usize * 13) % n].id,
                    dc.servers[(i as usize * 7 + 1) % n].id,
                    (i % 64 + 1) * 4 * MB,
                    i,
                );
            }
            let ends: Vec<(u64, SimTime)> = f.drain().into_iter().map(|c| (c.tag, c.at)).collect();
            let stats = *f.stats();
            (ends, stats, f.take_recorder())
        };
        let (ends_off, stats_off, rec_off) = run(false);
        let (ends_on, stats_on, rec_on) = run(true);
        assert_eq!(ends_off, ends_on, "recording changed the schedule");
        assert_eq!(stats_off, stats_on, "recording changed the stats");
        assert!(!rec_off.is_on());
        assert_eq!(
            rec_on.counter_value("fabric/completed"),
            Some(stats_on.completed)
        );
        assert_eq!(
            rec_on.counter_value("fabric/reshares"),
            Some(stats_on.reshares)
        );
        assert_eq!(
            rec_on.counter_value("fabric/stale_events_dropped"),
            Some(stats_on.stale_events_dropped)
        );
        assert_eq!(
            rec_on.counter_value("fabric/peak_queue_len"),
            Some(stats_on.peak_queue_len as u64)
        );
    }

    #[test]
    fn link_down_aborts_crossing_flows() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 1_250 * MB, 7);
        f.pump(SimTime::ZERO);
        assert_eq!(f.n_active(), 1);
        let tx = f.topology().server_tx(a);
        assert!(f.path_up(a, b));
        let tags = f.set_link_down(SimTime::from_millis(100), tx);
        assert_eq!(tags, vec![7]);
        assert_eq!(f.n_active(), 0);
        assert_eq!(f.stats().flows_aborted, 1);
        assert!(!f.link_is_up(tx));
        assert!(!f.path_up(a, b));
        // Idempotent: a second down aborts nothing.
        assert!(f.set_link_down(SimTime::from_millis(100), tx).is_empty());
        // The aborted flow never completes.
        assert!(f.drain().is_empty());
        assert_eq!(f.stats().completed, 0);
    }

    #[test]
    fn flow_over_a_dead_link_parks_until_link_up() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        let tx = f.topology().server_tx(a);
        f.set_link_down(SimTime::ZERO, tx);
        // Scheduled after the outage: it starts, starves at rate 0.
        let id = f.schedule_flow(SimTime::from_millis(10), a, b, 10 * MB, 1);
        f.pump(SimTime::from_millis(10));
        assert_eq!(f.n_active(), 1);
        assert_eq!(f.flow_rate(id), Some(0.0));
        // No completion while the link is down...
        assert!(f.pump(SimTime::from_secs(3_600)).is_empty());
        // ...and the link coming back rescues it.
        f.set_link_up(SimTime::from_secs(3_600), tx);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert!(done[0].at >= SimTime::from_secs(3_600));
    }

    #[test]
    fn endpoint_death_aborts_everything_touching_the_server() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 500 * MB, 1); // outbound, active
        f.schedule_flow(SimTime::ZERO, b, a, 500 * MB, 2); // inbound, active
        f.schedule_flow(SimTime::from_secs(5), a, a, MB, 3); // pending local copy
        f.pump(SimTime::ZERO);
        let t = SimTime::from_millis(50);
        // Disk actions do not concern the fabric.
        assert!(f.apply_fault(t, FaultAction::DiskFail(a.0)).is_empty());
        assert_eq!(f.n_active(), 2);
        let mut tags = f.apply_fault(t, FaultAction::Crash(a.0));
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(f.n_active(), 0);
        assert_eq!(f.n_pending(), 0);
        assert_eq!(f.stats().flows_aborted, 3);
        // After restore, new transfers to the server work again.
        let restored = f.apply_fault(SimTime::from_secs(10), FaultAction::Restore(a.0));
        assert!(restored.is_empty());
        f.schedule_flow(SimTime::from_secs(10), b, a, 10 * MB, 4);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 4);
    }

    #[test]
    fn abort_by_tag_takes_out_all_parts() {
        let (dc, mut f) = fabric();
        let (a, b) = cross_rack_pair(&dc);
        f.schedule_flow(SimTime::ZERO, a, b, 500 * MB, 9);
        f.schedule_flow(SimTime::ZERO, b, a, 500 * MB, 9);
        f.schedule_flow(SimTime::ZERO, a, b, 10 * MB, 2);
        f.pump(SimTime::ZERO);
        let dead: std::collections::HashSet<u64> = [9].into_iter().collect();
        assert_eq!(f.abort_flows_with_tags(SimTime::from_millis(1), &dead), 2);
        assert_eq!(f.n_active(), 1);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
    }

    /// link_load served from the inverted index agrees with a direct
    /// scan over flow paths.
    #[test]
    fn link_load_matches_path_scan() {
        let (dc, mut f) = fabric();
        let n = dc.n_servers();
        for i in 0..30u64 {
            f.schedule_flow(
                SimTime::ZERO,
                dc.servers[(i as usize * 11) % n].id,
                dc.servers[(i as usize * 3 + 2) % n].id,
                50 * MB,
                i,
            );
        }
        f.pump(SimTime::ZERO);
        for l in 0..f.topology().n_links() {
            let link = LinkId(l as u32);
            let scan: f64 = f
                .active_flow_ids()
                .iter()
                .filter(|&&id| f.flow_path(id).unwrap().contains(&link))
                .map(|&id| f.flow_rate(id).unwrap())
                .sum();
            assert_eq!(f.link_load(link), scan, "link {l}");
            assert_eq!(
                f.link_flows(link),
                f.active_flow_ids()
                    .iter()
                    .filter(|&&id| f.flow_path(id).unwrap().contains(&link))
                    .count()
            );
        }
        f.drain();
    }
}
