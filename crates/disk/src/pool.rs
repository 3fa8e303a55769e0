//! Event-driven shared-disk simulation with fair sharing and
//! primary-tenant contention.
//!
//! A [`DiskPool`] models one disk per server, each with independent
//! read and write channels. Secondary (harvested) streams on a channel
//! split its bandwidth equally — the max-min fair allocation for
//! single-resource flows — after the primary tenant's demand and the
//! [`crate::ThrottlePolicy`] have taken their cut.
//!
//! Primary I/O is not simulated as individual operations: it is a
//! bandwidth reservation derived from the utilization playback through
//! [`crate::PrimaryIoModel`] (see [`DiskPool::set_primary_util`]), which
//! is how the paper's isolation manager perceives it too. A fully
//! throttled channel (zero secondary bandwidth) parks its streams on a
//! far-future completion; the re-share triggered when the primary's
//! demand drops rescues them — this is the mechanism behind the §7
//! lesson-2 heartbeat incident.
//!
//! # Cost model
//!
//! Every occupied channel is served by a [`FairShare`] engine: a
//! virtual fair-work clock plus a completion-ordered heap. Disk
//! channels are single-bottleneck by construction (every stream
//! saturates exactly one channel), so the engine's equal split *is*
//! the max-min allocation and no classifier or fallback is needed. A
//! stream start, finish, or capacity change (throttle transition,
//! brown-out — absorbed via [`FairShare::set_capacity`]) costs
//! O(log n) in the channel's occupancy and touches no other channel.
//! Each channel owns one engine for the pool's lifetime: the first
//! stream of every occupancy period resets it to exactly the state a
//! fresh engine would have ([`FairShare::reset`]), so a channel that
//! drains and refills keeps its allocations instead of rebuilding
//! them. The channel holds exactly one live completion event, for
//! the engine's next finisher; every change re-predicts it and
//! *cancels* the superseded one in the queue, so the event heap stays
//! O(channels) instead of O(re-shares). A fully parked channel keeps
//! one far-future placeholder event until the re-share that restores
//! its capacity rescues it.
//!
//! Per-stream rates are the `capacity / n` division, bitwise. The
//! fair-work clock re-associates completion-time arithmetic (see the
//! `harvest_sim::fairshare` docs), which can drift by ulps; the
//! integer-millisecond clock virtually never surfaces it. The
//! independent equal-split reference in the dev-only `harvest-oracle`
//! crate pins rates bitwise and completion schedules exactly.
//!
//! Streams are looked up by id in [`IdMap`] tables (one multiply per
//! hash); the fault paths that scan them take their ids from
//! [`sorted_ids`], so every abort runs in ascending id order.
//! Everything is exact integer time plus deterministic `f64`
//! arithmetic over deterministically ordered walks, so a replay
//! is bit-identical for identical inputs.
//!
//! The pool also serves change-driven callers: [`DiskPool::active_servers`]
//! iterates (ascending) exactly the disks whose rates a primary-demand
//! change can currently move, and [`DiskPool::set_primary_util`]
//! early-outs a bitwise-unchanged utilization before the demand model
//! runs — so a utilization replay over a mostly-idle fleet costs
//! O(disks with in-flight streams) per tick, not O(fleet).

use std::collections::BTreeSet;

use harvest_cluster::ServerId;
use harvest_signal::classify::UtilizationPattern;
use harvest_sim::engine::{EventKey, EventQueue};
use harvest_sim::fairshare::FairShare;
use harvest_sim::fault::FaultAction;
use harvest_sim::idmap::{sorted_ids, IdMap};
use harvest_sim::obs::{CounterId, GaugeId, HistogramId, Recorder, StateTrackId, TrackId};
use harvest_sim::{SimDuration, SimTime};

use crate::config::DiskConfig;

/// Identifies a stream within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

/// Which channel of a disk an operation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IoDir {
    /// The read channel.
    Read,
    /// The write channel.
    Write,
}

/// A finished stream, as reported by [`DiskPool::pump`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCompletion {
    /// The stream that finished.
    pub stream: StreamId,
    /// When its last byte was serviced.
    pub at: SimTime,
    /// The caller's tag, echoed back.
    pub tag: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// When the stream entered the pool.
    pub started: SimTime,
    /// The disk it ran on.
    pub server: ServerId,
    /// The channel it used.
    pub dir: IoDir,
}

/// One in-flight secondary I/O stream. Its remaining work lives in its
/// channel's [`FairShare`] engine.
#[derive(Debug)]
struct Stream {
    tag: u64,
    bytes: u64,
    started: SimTime,
    chan: u32,
}

/// A stream waiting for its scheduled start time.
#[derive(Debug, Clone)]
struct PendingStream {
    server: ServerId,
    dir: IoDir,
    bytes: u64,
    tag: u64,
}

#[derive(Debug)]
enum DiskEvent {
    Start(StreamId),
    /// The named channel's next finisher completes.
    Complete(u32),
}

/// One direction of one disk.
#[derive(Debug, Clone)]
struct Channel {
    /// Active stream ids in start order (deterministic iteration).
    streams: Vec<u64>,
    /// The sharing engine. Empty exactly while `streams` is; reset to
    /// a fresh engine's state at the start of each occupancy period,
    /// so its allocations outlive the period.
    engine: FairShare,
    /// The channel's single live completion event (a far-future
    /// placeholder while fully parked), `None` while empty.
    event: Option<EventKey>,
}

impl Default for Channel {
    fn default() -> Self {
        Channel {
            streams: Vec::new(),
            engine: FairShare::new(0.0, SimTime::ZERO),
            event: None,
        }
    }
}

/// Aggregate pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Streams completed.
    pub completed: u64,
    /// Bytes moved by completed streams.
    pub bytes_moved: u64,
    /// High-water mark of concurrently active streams, pool-wide.
    pub peak_active: usize,
    /// Channel allocation passes run.
    pub reshares: u64,
    /// Superseded completion events cancelled in the queue when a
    /// channel was re-predicted, plus cancels that found nothing to
    /// cancel (fault-driven mass cancellation).
    pub stale_events_dropped: u64,
    /// Streams aborted by fault injection (disk death or a caller
    /// tearing down a doomed transfer) before completion.
    pub streams_aborted: u64,
    /// High-water mark of the event heap (including not-yet-collected
    /// tombstones).
    pub peak_queue_len: usize,
    /// Channel occupancy periods served by a [`FairShare`] engine: a
    /// channel that drains and refills counts again (its engine is
    /// reset to a fresh one's state, not rebuilt).
    pub analytic_channels: u64,
    /// Completions served by the channel engines in O(log n) — every
    /// completion.
    pub analytic_events: u64,
}

/// How far in the future a fully parked channel's placeholder
/// completion sits; the re-share that restores capacity rescues it.
const PARKED: SimDuration = SimDuration::from_days(365_000);

/// The shared-disk simulator. See the module docs.
#[derive(Debug)]
pub struct DiskPool {
    config: DiskConfig,
    /// Per-server tenant class, for the util→demand mapping.
    patterns: Vec<UtilizationPattern>,
    /// Per-server primary demand as a fraction of channel capacity.
    primary_fraction: Vec<f64>,
    /// Last utilization each server's demand was derived from (NaN
    /// until the first update), so a bitwise-unchanged utilization
    /// replay costs one compare instead of a demand-model evaluation.
    primary_util: Vec<f64>,
    /// Fault state: a brown-out multiplier on each disk's secondary
    /// bandwidth (1.0 = healthy; 0.0 parks every stream). Multiplying
    /// by 1.0 is bitwise-exact, so fault-free runs are unaffected.
    degrade: Vec<f64>,
    /// Dead cancels already folded into `stats.stale_events_dropped`.
    dead_cancels_seen: u64,
    /// Active secondary streams per server, across both channels.
    streams_per_server: Vec<u32>,
    /// Servers with at least one active stream, ascending — the set a
    /// change-driven primary replay needs to touch.
    active_servers: BTreeSet<u32>,
    /// `2 * server + dir` — read and write channels of every disk.
    channels: Vec<Channel>,
    queue: EventQueue<DiskEvent>,
    pending: IdMap<PendingStream>,
    active: IdMap<Stream>,
    next_id: u64,
    stats: DiskStats,
    completions: Vec<StreamCompletion>,
    /// Observability sink ([`Recorder::off`] unless a caller attaches
    /// one); `obs` holds the registered ids iff recording is on, so a
    /// hot path pays exactly one `Option` check when off.
    rec: Recorder,
    obs: Option<DiskObs>,
}

/// Metric ids registered on [`DiskPool::set_recorder`].
#[derive(Debug)]
struct DiskObs {
    track: TrackId,
    stream_secs: HistogramId,
    reshare_streams: HistogramId,
    queue_len: GaugeId,
    tombstones: GaugeId,
    parks: CounterId,
    /// Wait-state track `disk/stream`: a stream is `running` from
    /// start to completion except while fully throttled, when it sits
    /// in `throttle_parked` until a re-share rescues it.
    states: StateTrackId,
}

impl DiskPool {
    /// A pool of `n_disks` identical disks with all-constant tenant
    /// classes (useful for benches and single-disk replays).
    ///
    /// # Panics
    ///
    /// Panics if `n_disks` is zero or the config is invalid.
    pub fn new(n_disks: usize, config: &DiskConfig) -> Self {
        Self::with_patterns(vec![UtilizationPattern::Constant; n_disks], config)
    }

    /// One disk per server of `dc`, each tagged with its primary
    /// tenant's utilization pattern.
    pub fn from_datacenter(dc: &harvest_cluster::Datacenter, config: &DiskConfig) -> Self {
        Self::with_patterns(
            dc.servers
                .iter()
                .map(|s| dc.tenant(s.tenant).pattern)
                .collect(),
            config,
        )
    }

    /// A pool with an explicit per-server tenant class.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or the config is invalid.
    pub(crate) fn with_patterns(patterns: Vec<UtilizationPattern>, config: &DiskConfig) -> Self {
        config.validate();
        assert!(!patterns.is_empty(), "cannot build a pool of zero disks");
        let n = patterns.len();
        DiskPool {
            config: *config,
            patterns,
            primary_fraction: vec![0.0; n],
            primary_util: vec![f64::NAN; n],
            degrade: vec![1.0; n],
            dead_cancels_seen: 0,
            streams_per_server: vec![0; n],
            active_servers: BTreeSet::new(),
            channels: vec![Channel::default(); 2 * n],
            queue: EventQueue::new(),
            pending: IdMap::default(),
            active: IdMap::default(),
            next_id: 0,
            stats: DiskStats::default(),
            completions: Vec::new(),
            rec: Recorder::off(),
            obs: None,
        }
    }

    /// Attaches an observability recorder (typically a
    /// [`Recorder::child`] of the caller's). Recording never changes a
    /// trajectory: stream lifetimes land as spans on the `disk` track,
    /// durations in `disk/stream_secs`, per-re-share channel occupancy
    /// in `disk/reshare_streams`, throttle parks as `disk/parks` (with
    /// an instant event per park), and event-heap depth/tombstone
    /// gauges sampled at each re-share. Wait states land on the
    /// `disk/stream` state track: `running` from start to completion,
    /// interrupted by `throttle_parked` while fully throttled.
    pub fn set_recorder(&mut self, mut rec: Recorder) {
        self.obs = rec.is_on().then(|| DiskObs {
            track: rec.track("disk"),
            stream_secs: rec.histogram("disk/stream_secs"),
            reshare_streams: rec.histogram("disk/reshare_streams"),
            queue_len: rec.gauge("disk/queue_len"),
            tombstones: rec.gauge("disk/queue_tombstones"),
            parks: rec.counter("disk/parks"),
            states: rec.state_track("disk/stream"),
        });
        self.rec = rec;
    }

    /// Detaches and returns the recorder, mirroring the final
    /// [`DiskStats`] into `disk/*` counters first so the metrics report
    /// carries the same numbers as the struct.
    pub fn take_recorder(&mut self) -> Recorder {
        if self.rec.is_on() {
            let s = self.stats;
            for (name, v) in [
                ("disk/completed", s.completed),
                ("disk/bytes_moved", s.bytes_moved),
                ("disk/peak_active", s.peak_active as u64),
                ("disk/reshares", s.reshares),
                ("disk/stale_events_dropped", s.stale_events_dropped),
                ("disk/streams_aborted", s.streams_aborted),
                ("disk/peak_queue_len", s.peak_queue_len as u64),
                ("disk/analytic_channels", s.analytic_channels),
                ("disk/analytic_events", s.analytic_events),
            ] {
                let id = self.rec.counter(name);
                self.rec.counter_set(id, v);
            }
        }
        self.obs = None;
        std::mem::take(&mut self.rec)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The current rate of a stream in bytes/s, if it is active.
    pub fn stream_rate(&self, stream: StreamId) -> Option<f64> {
        let s = self.active.get(&stream.0)?;
        Some(self.channels[s.chan as usize].engine.rate())
    }

    /// Ids of the currently active streams, ascending.
    pub fn active_stream_ids(&self) -> Vec<StreamId> {
        sorted_ids(&self.active, |_| true)
            .into_iter()
            .map(StreamId)
            .collect()
    }

    /// The disk and channel an active stream runs on.
    pub fn stream_channel(&self, stream: StreamId) -> Option<(ServerId, IoDir)> {
        self.active.get(&stream.0).map(|s| unchan(s.chan))
    }

    /// A channel's raw capacity in bytes/s.
    pub fn capacity(&self, dir: IoDir) -> f64 {
        match dir {
            IoDir::Read => self.config.read_bytes_per_sec(),
            IoDir::Write => self.config.write_bytes_per_sec(),
        }
    }

    /// The bandwidth currently available to secondary streams on a
    /// channel, after the primary's demand, the throttle policy, and
    /// any fault-injected brown-out factor.
    pub fn secondary_capacity(&self, server: ServerId, dir: IoDir) -> f64 {
        let share = self
            .config
            .throttle
            .secondary_fraction(self.primary_fraction[server.0 as usize]);
        self.capacity(dir) * share * self.degrade[server.0 as usize]
    }

    /// Sum of active secondary stream rates on a channel, in bytes/s.
    pub fn channel_load(&self, server: ServerId, dir: IoDir) -> f64 {
        let engine = &self.channels[chan(server, dir) as usize].engine;
        engine.rate() * engine.n() as f64
    }

    /// Active secondary streams on a channel.
    pub fn channel_streams(&self, server: ServerId, dir: IoDir) -> usize {
        self.channels[chan(server, dir) as usize].streams.len()
    }

    /// The primary utilization a server's disk demand was last derived
    /// from (NaN before the first [`DiskPool::set_primary_util`]).
    pub fn primary_util(&self, server: ServerId) -> f64 {
        self.primary_util[server.0 as usize]
    }

    /// Whether the isolation manager is currently suppressing secondary
    /// I/O on a server's disk below its fair share.
    pub fn is_throttled(&self, server: ServerId) -> bool {
        self.config
            .throttle
            .is_throttling(self.primary_fraction[server.0 as usize])
    }

    /// Updates a server's primary CPU utilization at `now`, mapping it
    /// to disk demand through the configured [`crate::PrimaryIoModel`]
    /// and re-sharing the disk's channels if the demand changed. A
    /// bitwise-unchanged utilization early-outs before the demand model
    /// runs (the NaN sentinel makes the very first update always
    /// apply), so replaying an idle sample grid costs one compare per
    /// touched server.
    ///
    /// The caller must have pumped the pool to `now` first (the pool
    /// never runs backwards); utilization playback naturally satisfies
    /// this by updating on its sample grid.
    pub fn set_primary_util(&mut self, now: SimTime, server: ServerId, util: f64) {
        if util == self.primary_util[server.0 as usize] {
            return;
        }
        debug_assert!(
            self.queue.peek_time().map(|t| t >= now).unwrap_or(true),
            "set_primary_util at {now} with unpumped events pending"
        );
        self.primary_util[server.0 as usize] = util;
        let fraction = self
            .config
            .primary
            .demand_fraction(self.patterns[server.0 as usize], util);
        if fraction == self.primary_fraction[server.0 as usize] {
            return;
        }
        self.primary_fraction[server.0 as usize] = fraction;
        for dir in [IoDir::Read, IoDir::Write] {
            self.reshare(chan(server, dir), now);
        }
    }

    /// Servers with at least one in-flight secondary stream, ascending —
    /// the only disks whose rates a primary-demand change can move
    /// *right now*, and therefore the only disks a change-driven
    /// utilization replay has to visit each tick.
    pub fn active_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.active_servers.iter().map(|&s| ServerId(s))
    }

    /// Schedules a secondary stream of `bytes` on `server`'s `dir`
    /// channel, starting at `at`. Returns the stream's id; its
    /// completion will be reported by a later [`DiskPool::pump`].
    pub fn schedule_stream(
        &mut self,
        at: SimTime,
        server: ServerId,
        dir: IoDir,
        bytes: u64,
        tag: u64,
    ) -> StreamId {
        let id = StreamId(self.next_id);
        self.next_id += 1;
        self.pending.insert(
            id.0,
            PendingStream {
                server,
                dir,
                bytes,
                tag,
            },
        );
        self.queue.push(at, DiskEvent::Start(id));
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
        id
    }

    /// The next instant anything can happen in the pool (`None` when it
    /// is idle). Superseded completion events are cancelled in the
    /// queue, so this is exact: the next event is a real stream start
    /// or a live predicted completion.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the pool through every event at or before `until`,
    /// returning the streams that completed, in completion order.
    pub fn pump(&mut self, until: SimTime) -> Vec<StreamCompletion> {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            match ev {
                DiskEvent::Start(id) => self.on_start(id, now),
                DiskEvent::Complete(c) => self.on_complete(c, now),
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

    /// Applies one real fault action (see [`harvest_sim::fault`]) at
    /// `now` and returns the tags of the streams it aborted: a crash or
    /// a disk failure aborts every stream on the server's disk, scheduled
    /// ones too (the replaced disk takes new streams), and a brown-out
    /// sets its [`DiskPool::set_degrade`] factor. Restores and uplinks
    /// do not concern the pool. The pool must be pumped to `now`.
    pub fn apply_fault(&mut self, now: SimTime, action: FaultAction) -> Vec<u64> {
        if let FaultAction::DiskDegrade(s, factor) = action {
            self.set_degrade(now, ServerId(s), factor);
        }
        let (FaultAction::Crash(s) | FaultAction::DiskFail(s)) = action else {
            return Vec::new();
        };
        let server = ServerId(s);
        let mut ids: Vec<u64> = Vec::new();
        for dir in [IoDir::Read, IoDir::Write] {
            ids.extend(&self.channels[chan(server, dir) as usize].streams);
        }
        let mut tags = Vec::new();
        for id in ids {
            if let Some((tag, c)) = self.abort_active(StreamId(id), now) {
                tags.push(tag);
                self.reshare(c, now);
            }
        }
        let pend = sorted_ids(&self.pending, |p| p.server == server);
        for id in pend {
            let p = self.pending.remove(&id).expect("collected above");
            self.stats.streams_aborted += 1;
            tags.push(p.tag);
        }
        self.sync_dead_cancels();
        tags
    }

    /// Sets a disk's brown-out factor and re-shares both its channels.
    /// `factor` multiplies the secondary bandwidth: 0.7 models a
    /// degraded replacement disk, 0.0 parks every stream until a later
    /// call restores it. Same pumped-to-`now` contract as
    /// [`DiskPool::set_primary_util`].
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn set_degrade(&mut self, now: SimTime, server: ServerId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "degrade factor must be finite and non-negative, got {factor}"
        );
        if factor == self.degrade[server.0 as usize] {
            return;
        }
        self.degrade[server.0 as usize] = factor;
        for dir in [IoDir::Read, IoDir::Write] {
            self.reshare(chan(server, dir), now);
        }
    }

    /// Aborts every stream (active or scheduled) whose tag is in `tags`
    /// — the fault path for "this transfer's purpose just died".
    /// Returns the number aborted.
    pub fn abort_streams_with_tags(
        &mut self,
        now: SimTime,
        tags: &std::collections::HashSet<u64>,
    ) -> usize {
        let ids = sorted_ids(&self.active, |s| tags.contains(&s.tag));
        let mut n = 0;
        for id in ids {
            if let Some((_, c)) = self.abort_active(StreamId(id), now) {
                n += 1;
                self.reshare(c, now);
            }
        }
        let pend = sorted_ids(&self.pending, |p| tags.contains(&p.tag));
        for id in pend {
            self.pending.remove(&id);
            self.stats.streams_aborted += 1;
            n += 1;
        }
        self.sync_dead_cancels();
        n
    }

    /// Removes an active stream without completing it: out of its
    /// channel's engine and indexes, the channel's event cancelled
    /// (it may predict this very stream). Returns the stream's tag and
    /// channel so the caller can re-share it.
    fn abort_active(&mut self, id: StreamId, now: SimTime) -> Option<(u64, u32)> {
        let stream = self.active.remove(&id.0)?;
        let c = stream.chan;
        self.channels[c as usize].engine.remove(now, id.0);
        self.cancel_event(c);
        self.unlist(id.0, c);
        self.stats.streams_aborted += 1;
        if let Some(obs) = &self.obs {
            self.rec.state_exit(obs.states, id.0, now);
        }
        Some((stream.tag, c))
    }

    /// Drains the pool to quiescence, returning all remaining
    /// completions. A fully throttled channel does not quiesce until
    /// its far-future placeholder fires; drain only a pool whose
    /// primary demand will not strand streams.
    pub fn drain(&mut self) -> Vec<StreamCompletion> {
        self.pump(SimTime::MAX)
    }

    fn on_start(&mut self, id: StreamId, now: SimTime) {
        let Some(p) = self.pending.remove(&id.0) else {
            return; // cancelled
        };
        let c = chan(p.server, p.dir);
        self.active.insert(
            id.0,
            Stream {
                tag: p.tag,
                bytes: p.bytes,
                started: now,
                chan: c,
            },
        );
        self.channels[c as usize].streams.push(id.0);
        let per_server = &mut self.streams_per_server[p.server.0 as usize];
        *per_server += 1;
        if *per_server == 1 {
            self.active_servers.insert(p.server.0);
        }
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        if let Some(obs) = &self.obs {
            self.rec.state_enter(obs.states, id.0, "running", now);
        }
        // Fold the per-op seek in as capacity-bytes, the same trick the
        // fabric uses for hop latency: a zero-byte stream still takes
        // one seek.
        let seek_bytes = self.config.seek_ms / 1_000.0 * self.capacity(p.dir);
        let cap = self.secondary_capacity(p.server, p.dir);
        let engine = &mut self.channels[c as usize].engine;
        if engine.is_empty() {
            engine.reset(cap, now);
            self.stats.analytic_channels += 1;
        }
        engine.insert(now, id.0, p.bytes as f64 + seek_bytes);
        let (n, parked) = (engine.n(), engine.rate() == 0.0);
        if parked {
            self.park_obs(id.0, now);
        }
        self.alloc_pass_obs(n, now);
        self.repredict(c, now);
    }

    /// The channel's one live event fired: its engine's next finisher
    /// completes in O(log n).
    fn on_complete(&mut self, c: u32, now: SimTime) {
        let ch = &mut self.channels[c as usize];
        ch.event = None;
        let engine = &mut ch.engine;
        let id = match engine.pop(now) {
            Some(id) => id,
            None => {
                // A parked channel's placeholder reached its far-future
                // instant: its lowest-id stream completes then.
                let (id, _) = engine.members()[0];
                engine.remove(now, id);
                id
            }
        };
        self.stats.analytic_events += 1;
        let stream = self.active.remove(&id).expect("engine member is active");
        self.unlist(id, c);
        let (server, dir) = unchan(c);
        self.stats.completed += 1;
        self.stats.bytes_moved += stream.bytes;
        if let Some(obs) = &self.obs {
            self.rec
                .observe(obs.stream_secs, now.since(stream.started).as_secs_f64());
            self.rec.state_exit(obs.states, id, now);
            self.rec.span_args(
                obs.track,
                "stream",
                stream.started,
                now,
                &[("bytes", stream.bytes as f64)],
            );
        }
        self.completions.push(StreamCompletion {
            stream: StreamId(id),
            at: now,
            tag: stream.tag,
            bytes: stream.bytes,
            started: stream.started,
            server,
            dir,
        });
        let left = self.channels[c as usize].streams.len();
        if left > 0 {
            self.alloc_pass_obs(left, now);
            self.repredict(c, now);
        }
    }

    /// Brings a channel current after a membership or capacity change:
    /// refreshes its engine's capacity (throttle, brown-out), records
    /// park/rescue transitions, and re-predicts its completion event.
    /// An emptied channel only loses its event; the next occupancy
    /// period resets the engine to the capacity of its day.
    fn reshare(&mut self, c: u32, now: SimTime) {
        if self.channels[c as usize].streams.is_empty() {
            self.cancel_event(c);
            return;
        }
        let (server, dir) = unchan(c);
        let cap = self.secondary_capacity(server, dir);
        let engine = &mut self.channels[c as usize].engine;
        let was = engine.rate();
        engine.set_capacity(now, cap);
        let rate = engine.rate();
        let n = engine.n();
        if (was == 0.0) != (rate == 0.0) {
            for (id, _) in engine.members() {
                if rate == 0.0 {
                    self.park_obs(id, now);
                } else if let Some(obs) = &self.obs {
                    self.rec.state_enter(obs.states, id, "running", now);
                }
            }
        }
        self.alloc_pass_obs(n, now);
        self.repredict(c, now);
    }

    /// Re-predicts an occupied channel's single completion event from
    /// its engine's next finisher, cancelling the superseded one. A
    /// parked channel (zero rate) gets a far-future [`PARKED`]
    /// placeholder, so [`DiskPool::next_event_time`] stays `Some` while
    /// any stream is in flight.
    fn repredict(&mut self, c: u32, now: SimTime) {
        self.cancel_event(c);
        let ch = &mut self.channels[c as usize];
        let eta = match ch.engine.peek(now) {
            Some((_, eta)) => SimDuration::from_secs_f64(eta),
            None => PARKED,
        };
        ch.event = Some(self.queue.push_keyed(now + eta, DiskEvent::Complete(c)));
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(self.queue.len());
    }

    /// Cancels a channel's live completion event, if any.
    fn cancel_event(&mut self, c: u32) {
        if let Some(key) = self.channels[c as usize].event.take() {
            if self.queue.cancel(key) {
                self.stats.stale_events_dropped += 1;
            }
        }
    }

    /// Drops a departed stream from its channel's list and the
    /// per-server index.
    fn unlist(&mut self, id: u64, c: u32) {
        let list = &mut self.channels[c as usize].streams;
        let pos = list.iter().position(|&s| s == id).expect("on channel");
        list.remove(pos);
        let (server, _) = unchan(c);
        let per_server = &mut self.streams_per_server[server.0 as usize];
        *per_server -= 1;
        if *per_server == 0 {
            self.active_servers.remove(&server.0);
        }
    }

    /// Counts one allocation pass for [`DiskStats::reshares`] and
    /// samples the re-share histograms and queue gauges.
    fn alloc_pass_obs(&mut self, n_streams: usize, now: SimTime) {
        self.stats.reshares += 1;
        if let Some(obs) = &self.obs {
            self.rec.observe(obs.reshare_streams, n_streams as f64);
            self.rec
                .gauge_at(obs.queue_len, now, self.queue.len() as f64);
            self.rec
                .gauge_at(obs.tombstones, now, self.queue.n_stale() as f64);
        }
    }

    /// Records one stream's throttle park (counter, instant, state).
    fn park_obs(&mut self, id: u64, now: SimTime) {
        if let Some(obs) = &self.obs {
            self.rec.add(obs.parks, 1);
            self.rec.instant(obs.track, "park", now);
            self.rec.state_enter(obs.states, id, "throttle_parked", now);
        }
    }
}

fn chan(server: ServerId, dir: IoDir) -> u32 {
    server.0 * 2
        + match dir {
            IoDir::Read => 0,
            IoDir::Write => 1,
        }
}

fn unchan(c: u32) -> (ServerId, IoDir) {
    (
        ServerId(c / 2),
        if c.is_multiple_of(2) {
            IoDir::Read
        } else {
            IoDir::Write
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DiskPool {
        /// The fault-injected brown-out factor on a disk (1.0 = healthy).
        fn degrade_factor(&self, server: ServerId) -> f64 {
            self.degrade[server.0 as usize]
        }

        /// Number of disks currently hosting at least one active stream.
        fn n_active_servers(&self) -> usize {
            self.active_servers.len()
        }

        /// Streams currently moving bytes.
        fn n_active(&self) -> usize {
            self.active.len()
        }
    }

    const MB: u64 = 1_000_000;
    const S0: ServerId = ServerId(0);
    const S1: ServerId = ServerId(1);

    fn pool() -> DiskPool {
        DiskPool::new(4, &DiskConfig::datacenter())
    }

    #[test]
    fn single_read_runs_at_channel_speed() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        // 160 MB at 160 MB/s = 1 s, plus the 8 ms seek.
        let secs = done[0].at.since(done[0].started).as_secs_f64();
        assert!((1.0..1.05).contains(&secs), "single read took {secs}s");
        assert_eq!(done[0].server, S0);
        assert_eq!(done[0].dir, IoDir::Read);
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 120 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 120 * MB, 2);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "read should finish first");
        assert!(done[1].at > done[0].at);
    }

    #[test]
    fn concurrent_streams_share_a_channel_fairly() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 2);
        p.pump(SimTime::ZERO);
        let r1 = p.stream_rate(StreamId(0)).unwrap();
        let r2 = p.stream_rate(StreamId(1)).unwrap();
        assert!((r1 - r2).abs() < 1.0, "unequal shares {r1} vs {r2}");
        let cap = p.capacity(IoDir::Read);
        assert!((r1 + r2 - cap).abs() / cap < 1e-9, "channel not saturated");
        // Sharing doubles the transfer time vs. running alone.
        let done = p.drain();
        let secs = done[1].at.since(done[1].started).as_secs_f64();
        assert!((1.0..1.1).contains(&secs), "shared pair took {secs}s");
    }

    #[test]
    fn different_disks_do_not_interact() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 80 * MB, 2);
        p.pump(SimTime::ZERO);
        let cap = p.capacity(IoDir::Read);
        for id in [0, 1] {
            let r = p.stream_rate(StreamId(id)).unwrap();
            assert!((r - cap).abs() / cap < 1e-9, "stream {id} throttled to {r}");
        }
        p.drain();
    }

    #[test]
    fn primary_demand_shrinks_secondary_bandwidth() {
        let mut p = pool();
        // Constant-class tenant at 50% CPU: demand = 0.05 + 0.5*0.5 =
        // 0.3 of the channel, below the 0.5 throttle threshold, so the
        // stream gets the remaining 70%.
        p.set_primary_util(SimTime::ZERO, S0, 0.5);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 1);
        p.pump(SimTime::ZERO);
        let r = p.stream_rate(StreamId(0)).unwrap();
        let expect = p.capacity(IoDir::Read) * 0.7;
        assert!((r - expect).abs() / expect < 1e-9, "rate {r} vs {expect}");
        p.drain();
    }

    #[test]
    fn throttle_parks_and_rescues_streams() {
        let mut p = pool();
        // Constant-class at 95% CPU: demand 0.525 >= 0.5 threshold, so
        // the paper policy pauses secondaries outright.
        p.set_primary_util(SimTime::ZERO, S0, 0.95);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 7);
        let early = p.pump(SimTime::from_secs(600));
        assert!(early.is_empty(), "stream finished while throttled");
        assert!(p.is_throttled(S0));
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0));
        // Primary backs off ten minutes in; the stream completes ~0.1 s
        // later (16 MB at 160 MB/s against an idle-demand disk).
        p.set_primary_util(SimTime::from_secs(600), S0, 0.0);
        let done = p.pump(SimTime::from_secs(700));
        assert_eq!(done.len(), 1);
        let at = done[0].at.as_secs_f64();
        assert!((600.0..601.0).contains(&at), "rescued at {at}s");
    }

    /// A fully parked channel keeps a far-future placeholder event:
    /// `next_event_time()` must stay `Some` while any stream is in
    /// flight (heartbeat replay in `harvest_dfs` drives the pool off
    /// `next_event_time` and relies on it).
    #[test]
    fn parked_analytic_channel_keeps_a_next_event() {
        let mut p = pool();
        p.set_primary_util(SimTime::ZERO, S0, 0.95);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 7);
        p.pump(SimTime::from_secs(60));
        assert_eq!(p.stats().analytic_channels, 1, "channel has no engine");
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0), "not parked");
        assert!(
            p.next_event_time().is_some(),
            "parked analytic channel dropped its placeholder event"
        );
        // The rescue cancels the placeholder and completes the stream.
        p.set_primary_util(SimTime::from_secs(600), S0, 0.0);
        let done = p.pump(SimTime::from_secs(700));
        assert_eq!(done.len(), 1);
        let at = done[0].at.as_secs_f64();
        assert!((600.0..601.0).contains(&at), "rescued at {at}s");
    }

    #[test]
    fn departures_release_bandwidth() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 16 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 2);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "short stream finishes first");
        let long_secs = done[1].at.as_secs_f64();
        // Alone: ~1.0 s. Always halved: ~2.0 s. With the short stream
        // departing around 0.2 s the long one lands near 1.1 s.
        assert!(
            (1.0..1.6).contains(&long_secs),
            "long stream took {long_secs}s — bandwidth not released?"
        );
    }

    #[test]
    fn pump_respects_the_horizon() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1); // ~1 s
        let early = p.pump(SimTime::from_millis(500));
        assert!(early.is_empty(), "stream finished early: {early:?}");
        assert_eq!(p.n_active(), 1);
        let late = p.pump(SimTime::from_secs(10));
        assert_eq!(late.len(), 1);
        assert_eq!(p.n_active(), 0);
    }

    #[test]
    fn staggered_starts_replay_deterministically() {
        let run = || {
            let mut p = DiskPool::new(8, &DiskConfig::datacenter());
            for i in 0..30u64 {
                p.schedule_stream(
                    SimTime::from_millis(i * 37),
                    ServerId((i % 8) as u32),
                    if i % 3 == 0 {
                        IoDir::Write
                    } else {
                        IoDir::Read
                    },
                    (i + 1) * 4 * MB,
                    i,
                );
            }
            p.set_primary_util(SimTime::ZERO, ServerId(2), 0.4);
            p.drain()
                .into_iter()
                .map(|c| (c.tag, c.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_the_population() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 10 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 10 * MB, 2);
        p.drain();
        let s = p.stats();
        assert_eq!(s.completed, 2);
        assert_eq!(s.bytes_moved, 20 * MB);
        assert_eq!(s.peak_active, 2);
        // Two starts and the first completion each re-divide the (still
        // occupied) channel; the last completion leaves it empty, which
        // does not count as an allocation pass.
        assert!(s.reshares >= 3);
        // The second stream's arrival re-predicted the first's
        // completion, which cancelled (dropped) the superseded event.
        assert!(s.stale_events_dropped >= 1);
        assert!(s.peak_queue_len >= 2);
    }

    /// An event on one disk leaves other disks' channels alone: no
    /// allocation pass runs there and their scheduled completion event
    /// is neither cancelled nor moved.
    #[test]
    fn other_channels_keep_their_event_version() {
        let mut p = pool();
        let bystander = p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let r0 = p.stream_rate(bystander).expect("active");
        let next = p.next_event_time();
        let (passes, dropped) = (p.stats().reshares, p.stats().stale_events_dropped);
        // Unrelated churn on another disk starts and finishes: one
        // allocation pass on its own channel (the completion that
        // empties it is not one), no cancellation anywhere.
        p.schedule_stream(SimTime::from_millis(10), S1, IoDir::Write, 4 * MB, 2);
        p.pump(SimTime::from_millis(500));
        assert_eq!(p.stats().completed, 1, "unrelated stream should be done");
        assert_eq!(
            p.stats().reshares,
            passes + 1,
            "untouched channel re-shared"
        );
        assert_eq!(
            p.stats().stale_events_dropped,
            dropped,
            "stream on an untouched channel was re-predicted"
        );
        assert_eq!(p.stream_rate(bystander), Some(r0));
        assert_eq!(p.next_event_time(), next, "bystander's completion moved");
        // Churn on the *same* channel re-predicts it.
        p.schedule_stream(SimTime::from_millis(600), S0, IoDir::Read, 4 * MB, 3);
        p.pump(SimTime::from_millis(600));
        assert!(p.stats().stale_events_dropped > dropped);
        assert_eq!(p.stream_rate(bystander), Some(r0 / 2.0));
        p.drain();
    }

    /// The active-server index tracks stream starts and completions and
    /// iterates in ascending server order.
    #[test]
    fn active_server_index_tracks_streams() {
        let mut p = pool();
        assert_eq!(p.n_active_servers(), 0);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 160 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 160 * MB, 2);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 4 * MB, 3);
        p.pump(SimTime::ZERO);
        let active: Vec<ServerId> = p.active_servers().collect();
        assert_eq!(active, vec![S0, S1], "index not ascending / complete");
        // The short read finishes; S0 still has its write in flight.
        p.pump(SimTime::from_millis(500));
        assert_eq!(p.active_servers().collect::<Vec<_>>(), vec![S0, S1]);
        p.drain();
        assert_eq!(p.n_active_servers(), 0, "drained pool still indexed");
    }

    /// A bitwise-unchanged utilization replay is a no-op: no re-share
    /// runs and in-flight streams keep their completion predictions.
    #[test]
    fn unchanged_util_early_outs() {
        let mut p = pool();
        p.set_primary_util(SimTime::ZERO, S0, 0.4);
        let s = p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let rate = p.stream_rate(s).unwrap();
        let next = p.next_event_time();
        let (reshares, dropped) = (p.stats().reshares, p.stats().stale_events_dropped);
        // Replaying the same sample must not disturb the stream.
        p.set_primary_util(SimTime::from_millis(100), S0, 0.4);
        assert_eq!(p.next_event_time(), next, "stream was re-predicted");
        assert_eq!(p.stats().stale_events_dropped, dropped);
        assert_eq!(p.stats().reshares, reshares, "re-share ran needlessly");
        // A moved sample still applies.
        p.set_primary_util(SimTime::from_millis(100), S0, 0.6);
        assert!(p.stream_rate(s).unwrap() < rate);
        assert!(p.stats().reshares > reshares);
        p.set_primary_util(SimTime::from_millis(200), S0, 0.0);
        p.drain();
    }

    /// Recording is pure observation: the completion schedule and the
    /// stats struct are bitwise identical with a recorder attached, and
    /// throttle parks are counted.
    #[test]
    fn recording_does_not_change_the_trajectory() {
        let run = |record: bool| {
            let mut p = DiskPool::new(8, &DiskConfig::datacenter());
            if record {
                p.set_recorder(Recorder::new("disk-test"));
            }
            // Throttle S0 so its stream parks, then rescue it.
            p.set_primary_util(SimTime::ZERO, S0, 0.95);
            for i in 0..30u64 {
                p.schedule_stream(
                    SimTime::from_millis(i * 37),
                    ServerId((i % 8) as u32),
                    if i % 3 == 0 {
                        IoDir::Write
                    } else {
                        IoDir::Read
                    },
                    (i + 1) * 4 * MB,
                    i,
                );
            }
            p.pump(SimTime::from_secs(60));
            p.set_primary_util(SimTime::from_secs(60), S0, 0.0);
            let ends: Vec<(u64, SimTime)> = p.drain().into_iter().map(|c| (c.tag, c.at)).collect();
            let stats = *p.stats();
            (ends, stats, p.take_recorder())
        };
        let (ends_off, stats_off, _) = run(false);
        let (ends_on, stats_on, rec) = run(true);
        assert_eq!(ends_off, ends_on, "recording changed the schedule");
        assert_eq!(stats_off, stats_on, "recording changed the stats");
        assert_eq!(
            rec.counter_value("disk/completed"),
            Some(stats_on.completed)
        );
        assert_eq!(rec.counter_value("disk/reshares"), Some(stats_on.reshares));
        assert_eq!(
            rec.counter_value("disk/analytic_events"),
            Some(stats_on.analytic_events)
        );
        assert!(
            rec.counter_value("disk/parks").unwrap_or(0) >= 1,
            "the throttled stream should have parked at least once"
        );
    }

    #[test]
    fn degrade_slows_and_restores_streams() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.pump(SimTime::ZERO);
        let healthy = p.stream_rate(StreamId(0)).unwrap();
        assert_eq!(p.degrade_factor(S0), 1.0);
        p.set_degrade(SimTime::from_millis(100), S0, 0.5);
        let r = p.stream_rate(StreamId(0)).unwrap();
        assert!(
            (r - healthy * 0.5).abs() / healthy < 1e-9,
            "browned-out rate {r} vs healthy {healthy}"
        );
        // Full brown-out parks; restore rescues.
        p.set_degrade(SimTime::from_millis(200), S0, 0.0);
        assert_eq!(p.stream_rate(StreamId(0)), Some(0.0));
        assert!(p.pump(SimTime::from_secs(3_600)).is_empty());
        p.set_degrade(SimTime::from_secs(3_600), S0, 1.0);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        assert!(done[0].at >= SimTime::from_secs(3_600));
    }

    #[test]
    fn fail_server_aborts_both_channels_and_pending() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 160 * MB, 1);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Write, 160 * MB, 2);
        p.schedule_stream(SimTime::from_secs(9), S0, IoDir::Read, MB, 3);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Read, 16 * MB, 4);
        p.pump(SimTime::ZERO);
        let t = SimTime::from_millis(50);
        // A restore does not concern the pool.
        assert!(p.apply_fault(t, FaultAction::Restore(S0.0)).is_empty());
        let mut tags = p.apply_fault(t, FaultAction::DiskFail(S0.0));
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(p.stats().streams_aborted, 3);
        assert_eq!(p.n_active(), 1, "the bystander on S1 survives");
        // The replaced disk accepts new streams.
        p.schedule_stream(SimTime::from_secs(10), S0, IoDir::Read, MB, 5);
        let done: Vec<u64> = p.drain().into_iter().map(|c| c.tag).collect();
        assert_eq!(done, vec![4, 5]);
    }

    #[test]
    fn abort_by_tag_leaves_other_streams_alone() {
        let mut p = pool();
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 80 * MB, 9);
        p.schedule_stream(SimTime::ZERO, S1, IoDir::Write, 80 * MB, 9);
        p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 8 * MB, 2);
        p.pump(SimTime::ZERO);
        let dead: std::collections::HashSet<u64> = [9].into_iter().collect();
        assert_eq!(p.abort_streams_with_tags(SimTime::from_millis(1), &dead), 2);
        let done = p.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        // The survivor sped up once its channel-mate aborted.
        let secs = done[0].at.as_secs_f64();
        assert!(secs < 0.2, "survivor took {secs}s — bandwidth not released");
    }

    /// Fault interplay regression: a disk brown-out to zero mid-storm
    /// (then a degraded replacement) is a capacity change the channel
    /// engines absorb in place — no stream is lost or double-completed.
    #[test]
    fn degrade_mid_storm_loses_nothing() {
        let mut p = DiskPool::new(4, &DiskConfig::datacenter());
        let mut tags: Vec<u64> = Vec::new();
        for i in 0..24u64 {
            p.schedule_stream(
                SimTime::from_millis(i * 31),
                ServerId((i % 4) as u32),
                if i % 2 == 0 {
                    IoDir::Read
                } else {
                    IoDir::Write
                },
                (i % 5 + 1) * 16 * MB,
                i,
            );
        }
        tags.extend(p.pump(SimTime::from_millis(800)).iter().map(|c| c.tag));
        p.set_degrade(SimTime::from_millis(800), S1, 0.0);
        tags.extend(p.pump(SimTime::from_secs(30)).iter().map(|c| c.tag));
        assert!(p.n_active() > 0, "S1 streams should be parked");
        p.set_degrade(SimTime::from_secs(30), S1, 0.7);
        tags.extend(p.drain().iter().map(|c| c.tag));
        tags.sort_unstable();
        assert_eq!(tags, (0..24).collect::<Vec<u64>>(), "lost or doubled");
        assert_eq!(p.stats().completed, 24);
        assert!(p.stats().analytic_events > 0, "fast path never served");
    }

    /// The engine counters: one engine per channel occupancy period,
    /// every completion served by it.
    #[test]
    fn analytic_counters_track_the_fast_path() {
        let mut p = pool();
        for tag in 0..3u64 {
            p.schedule_stream(SimTime::ZERO, S0, IoDir::Read, 8 * MB, tag);
        }
        p.drain();
        assert_eq!(p.stats().analytic_channels, 1, "one channel, one engine");
        assert_eq!(p.stats().analytic_events, 3);
        // The drained channel dropped its engine; refilling it makes a
        // fresh one.
        p.schedule_stream(SimTime::from_secs(5), S0, IoDir::Read, 8 * MB, 3);
        p.drain();
        assert_eq!(p.stats().analytic_channels, 2);
        assert_eq!(p.stats().analytic_events, 4);
    }
}
