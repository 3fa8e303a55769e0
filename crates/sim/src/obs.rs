//! Zero-cost-when-off observability: counters, gauges, histograms, and
//! sim-time spans, with Chrome-trace and machine-readable exporters.
//!
//! Every engine in the workspace (fabric, disk pool, scheduler, DFS
//! repair, the parallel harness) reports into a [`Recorder`]. The
//! recorder is a facade over an `Option<Box<Inner>>`:
//! [`Recorder::off`] is the default everywhere, and engines built
//! without one behave exactly as before.
//!
//! # Cost model
//!
//! **Off** (the default): every record method starts with one branch on
//! a niche-optimized `Option<Box<_>>` (a null-pointer check) and
//! returns. No allocation, no formatting, no syscalls — the only cost
//! an instrumented hot loop pays is that one predictable branch per
//! site, plus engines short-circuit whole instrumentation blocks behind
//! a single `Option<ObsIds>` check. `benches/obs.rs` pins the off-mode
//! overhead on the scheduler tick workload at ≤ 5%.
//!
//! **On**, per event:
//! * counter `add`/`counter_set` — one bounds-checked vector write;
//! * gauge sample — min/max/count update plus (amortized) one point
//!   appended to a bounded series: the series holds at most
//!   [`SERIES_CAP`] points and decimates itself (keep-every-other,
//!   recording stride doubles) when full, so month-scale horizons keep
//!   bounded memory;
//! * histogram `observe` — amortized O(1) into a fixed-size
//!   [`QuantileSketch`] (bounded levels of 256 slots; an occasional
//!   sort of one full level);
//! * span — one fixed-size record (name pointer, two timestamps, up to
//!   two inline key/value args; no per-span allocation), capped at
//!   [`MAX_SPANS`] recorder-wide with drops counted in the exported
//!   `obs/spans_dropped` counter — never silently truncated;
//! * state transition ([`Recorder::state_enter`] /
//!   [`Recorder::state_exit`], the wait-state hooks behind the
//!   [`analyze`] blame tables) — one fixed-size record (entity id,
//!   timestamp, interned state index; state names are `&'static str`
//!   interned by a short linear scan, no allocation per event), capped
//!   at [`MAX_TRANSITIONS`] recorder-wide with drops counted in the
//!   exported `transitions_dropped` field. Off-path a state hook is
//!   the same single null branch as every other record method, and
//!   engines keep whole wait-state blocks behind their one
//!   `Option<ObsIds>` check.
//!
//! # Determinism
//!
//! Recording is pure observation: no RNG, no reordering, no stdout.
//! Every simulation trajectory is bitwise identical with recording on
//! and off (`crates/core/tests/determinism.rs` pins `repro` stdout
//! byte-for-byte across the two). Exporters write only to the strings
//! they return; where they land on disk is the caller's business.
//!
//! # Composition
//!
//! Engines own a child recorder ([`Recorder::child`], on iff the
//! parent is on) for the duration of a run and hand it back through
//! [`Recorder::absorb`], which merges by metric name: counters sum,
//! gauges merge, histogram sketches merge, span tracks concatenate, and
//! state tracks concatenate with the child's entity namespaces shifted
//! past the parent's (each [`Recorder::state_track`] registration —
//! local or absorbed — owns a disjoint entity namespace, so engines can
//! number entities from 0 without colliding in [`analyze`]). Subsystems
//! namespace their metrics themselves (`"fabric/reshares"`,
//! `"disk/parks"`, …).
//!
//! # Exporters
//!
//! * [`Recorder::chrome_trace_json`] — the Chrome Trace Event format
//!   (loads in Perfetto / `chrome://tracing`): sim-time span tracks per
//!   subsystem on pid 1 (sim milliseconds mapped to trace
//!   microseconds), gauge series as counter tracks, and wall-time
//!   worker/harness tracks on pid 2.
//! * [`Recorder::metrics_json`] — a machine-readable run report
//!   (counters, gauge envelopes, histogram quantiles), parseable with
//!   the no-dependency [`json`] module below.
//!
//! State transitions export into the Chrome trace as balanced async
//! begin/end pairs (`ph` `b`/`e`, `cat` `"state"`, the entity id as the
//! async `id`), one Perfetto thread per state track; [`analyze`] folds
//! them — from a live recorder or a written trace file — into
//! per-entity per-state sim-time totals with an exact conservation
//! check and a critical-path blame summary.

pub mod analyze;

use std::collections::HashMap;

use crate::metrics::QuantileSketch;
use crate::par::WorkerProfile;
use crate::time::SimTime;

/// Gauge series point budget; a full series decimates keep-every-other
/// and doubles its recording stride.
pub const SERIES_CAP: usize = 4_096;

/// Recorder-wide span budget across all sim-time tracks; spans past it
/// are counted in the exported `obs/spans_dropped` counter.
pub const MAX_SPANS: usize = 1_000_000;

/// Recorder-wide state-transition budget across all state tracks;
/// transitions past it are counted in the exported
/// `transitions_dropped` field.
pub const MAX_TRANSITIONS: usize = 1_000_000;

/// Inline key/value slots per span (changed/occupied is the widest
/// annotation any engine records).
const SPAN_ARGS: usize = 2;

/// Sentinel id handed out by an off recorder; every record method
/// ignores it.
const OFF: u32 = u32::MAX;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram (quantile sketch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Handle to a registered sim-time span track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u32);

/// Handle to a registered wait-state track. Each registration of the
/// same name gets the same track but a distinct entity namespace (see
/// [`Recorder::state_track`]), so two engine instances whose local
/// entity counters both start at 0 never collide on the shared track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateTrackId {
    track: u32,
    salt: u64,
}

/// Bits of an entity id below the instance salt. Engine-local entity
/// ids (stream/flow/repair/request counters, `job << 32 | stage` tags)
/// must fit in 48 bits; ids are masked to that width before salting.
const ENTITY_SALT_SHIFT: u32 = 48;

/// Mask keeping the engine-local bits of an entity id.
const ENTITY_MASK: u64 = (1 << ENTITY_SALT_SHIFT) - 1;

/// State index meaning "the entity left its last state" (lifetime end).
const EXIT_STATE: u32 = u32::MAX;

/// One wait-state transition: `entity` enters the state named
/// `states[state]` at `at_ms` (implicitly leaving its previous state),
/// or — with `state == EXIT_STATE` — ends its lifetime.
#[derive(Debug, Clone, Copy)]
struct Transition {
    entity: u64,
    at_ms: u64,
    state: u32,
}

/// A named lane of per-entity wait-state transitions (one Perfetto
/// async-event thread on pid 1). State names are interned per track —
/// the vocabulary is small (`queued`, `running`, `blocked_on_net`, …)
/// so a linear scan beats a map.
#[derive(Debug, Default)]
struct StateTrack {
    states: Vec<&'static str>,
    transitions: Vec<Transition>,
    /// Registrations handed out for this track — the next instance's
    /// entity-namespace salt. Bumped by [`Recorder::state_track`] and
    /// by [`Recorder::absorb`] when merging a child's same-name track.
    instances: u64,
}

impl StateTrack {
    fn intern_state(&mut self, name: &'static str) -> u32 {
        if let Some(i) = self.states.iter().position(|s| *s == name) {
            return i as u32;
        }
        self.states.push(name);
        (self.states.len() - 1) as u32
    }
}

/// One sim-time span: `[start_ms, end_ms]` with up to two inline args.
/// `end == start` exports as an instant event.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ms: u64,
    end_ms: u64,
    args: [(&'static str, f64); SPAN_ARGS],
    n_args: u8,
}

/// A named lane of sim-time spans (one Perfetto thread on pid 1).
#[derive(Debug, Default)]
struct Track {
    spans: Vec<Span>,
}

/// A bounded gauge time series: stride-doubling decimation keeps at
/// most [`SERIES_CAP`] points however long the run.
#[derive(Debug, Clone)]
struct Series {
    points: Vec<(u64, f64)>,
    stride: u64,
    seen: u64,
}

impl Series {
    fn new() -> Self {
        Series {
            points: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }

    fn push(&mut self, t_ms: u64, v: f64) {
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !keep {
            return;
        }
        self.points.push((t_ms, v));
        if self.points.len() >= SERIES_CAP {
            self.decimate();
        }
    }

    fn decimate(&mut self) {
        let mut i = 0usize;
        self.points.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        self.stride *= 2;
    }
}

/// Last/min/max/count envelope plus the bounded series.
#[derive(Debug, Clone)]
struct Gauge {
    last: f64,
    min: f64,
    max: f64,
    count: u64,
    series: Series,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            last: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
            series: Series::new(),
        }
    }

    fn set(&mut self, t_ms: u64, v: f64) {
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
        self.series.push(t_ms, v);
    }
}

/// One wall-time span (µs from an arbitrary per-run epoch).
#[derive(Debug, Clone)]
struct WallSpan {
    label: String,
    start_us: u64,
    end_us: u64,
}

/// A named wall-time lane (one Perfetto thread on pid 2): a par_map
/// worker, or the harness's per-experiment lane.
#[derive(Debug)]
struct WallTrack {
    name: String,
    spans: Vec<WallSpan>,
}

/// Name-interned storage shared by every metric kind.
#[derive(Debug)]
struct Registry<T> {
    names: Vec<String>,
    items: Vec<T>,
    index: HashMap<String, u32>,
}

impl<T> Registry<T> {
    fn new() -> Self {
        Registry {
            names: Vec::new(),
            items: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn intern(&mut self, name: &str, make: impl FnOnce() -> T) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.items.len() as u32;
        self.names.push(name.to_string());
        self.items.push(make());
        self.index.insert(name.to_string(), id);
        id
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.items.get_mut(id as usize)
    }

    /// `(name, item)` pairs in ascending name order (deterministic
    /// export regardless of registration order).
    fn sorted(&self) -> Vec<(&str, &T)> {
        let mut v: Vec<(&str, &T)> = self
            .names
            .iter()
            .map(String::as_str)
            .zip(self.items.iter())
            .collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }
}

#[derive(Debug)]
struct Inner {
    name: String,
    counters: Registry<u64>,
    gauges: Registry<Gauge>,
    hists: Registry<QuantileSketch>,
    tracks: Registry<Track>,
    states: Registry<StateTrack>,
    wall: Vec<WallTrack>,
    spans_total: usize,
    spans_dropped: u64,
    transitions_total: usize,
    transitions_dropped: u64,
}

impl Inner {
    fn new(name: &str) -> Self {
        Inner {
            name: name.to_string(),
            counters: Registry::new(),
            gauges: Registry::new(),
            hists: Registry::new(),
            tracks: Registry::new(),
            states: Registry::new(),
            wall: Vec::new(),
            spans_total: 0,
            spans_dropped: 0,
            transitions_total: 0,
            transitions_dropped: 0,
        }
    }

    fn wall_track_mut(&mut self, name: &str) -> &mut WallTrack {
        if let Some(i) = self.wall.iter().position(|t| t.name == name) {
            return &mut self.wall[i];
        }
        self.wall.push(WallTrack {
            name: name.to_string(),
            spans: Vec::new(),
        });
        self.wall.last_mut().expect("just pushed")
    }
}

/// The observability facade. See the module docs for the cost model.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// The no-op recorder: every method is one branch and a return.
    pub fn off() -> Self {
        Recorder { inner: None }
    }

    /// An active recorder named `name` (the name heads the metrics
    /// report).
    pub fn new(name: &str) -> Self {
        Recorder {
            inner: Some(Box::new(Inner::new(name))),
        }
    }

    /// Whether this recorder is recording.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// A child recorder for an engine to own during a run: on iff
    /// `self` is on. Hand it back through [`Recorder::absorb`].
    pub fn child(&self) -> Recorder {
        if self.is_on() {
            Recorder::new("")
        } else {
            Recorder::off()
        }
    }

    /// Merges a child recorder's contents: counters add, gauges merge,
    /// histogram sketches merge, tracks concatenate, all by name.
    pub fn absorb(&mut self, child: Recorder) {
        let Some(inner) = &mut self.inner else { return };
        let Some(c) = child.inner else { return };
        for (name, value) in c.counters.names.iter().zip(&c.counters.items) {
            let id = inner.counters.intern(name, || 0);
            *inner.counters.get_mut(id).expect("interned") += value;
        }
        for (name, g) in c.gauges.names.iter().zip(&c.gauges.items) {
            let id = inner.gauges.intern(name, Gauge::new);
            let dst = inner.gauges.get_mut(id).expect("interned");
            if g.count > 0 {
                dst.last = g.last;
                dst.min = dst.min.min(g.min);
                dst.max = dst.max.max(g.max);
                dst.count += g.count;
                dst.series.points.extend_from_slice(&g.series.points);
                dst.series.points.sort_by_key(|&(t, _)| t);
                while dst.series.points.len() >= SERIES_CAP {
                    dst.series.decimate();
                }
            }
        }
        for (name, h) in c.hists.names.iter().zip(&c.hists.items) {
            let id = inner.hists.intern(name, QuantileSketch::new);
            inner.hists.get_mut(id).expect("interned").merge(h);
        }
        for (name, t) in c.tracks.names.iter().zip(&c.tracks.items) {
            let id = inner.tracks.intern(name, Track::default);
            inner
                .tracks
                .get_mut(id)
                .expect("interned")
                .spans
                .extend_from_slice(&t.spans);
        }
        for (name, st) in c.states.names.iter().zip(&c.states.items) {
            let id = inner.states.intern(name, StateTrack::default);
            let dst = inner.states.get_mut(id).expect("interned");
            let remap: Vec<u32> = st.states.iter().map(|s| dst.intern_state(s)).collect();
            // Shift the child's entity namespaces above the parent's:
            // the child salted from 0 too, and entity ids compose as
            // `salt << SHIFT | local`, so one additive bump keeps every
            // child instance disjoint from every parent instance.
            let rebase = dst.instances << ENTITY_SALT_SHIFT;
            dst.instances += st.instances;
            dst.transitions
                .extend(st.transitions.iter().map(|t| Transition {
                    entity: t.entity.wrapping_add(rebase),
                    state: if t.state == EXIT_STATE {
                        EXIT_STATE
                    } else {
                        remap[t.state as usize]
                    },
                    ..*t
                }));
        }
        for t in c.wall {
            inner.wall_track_mut(&t.name).spans.extend(t.spans);
        }
        inner.spans_total += c.spans_total;
        inner.spans_dropped += c.spans_dropped;
        inner.transitions_total += c.transitions_total;
        inner.transitions_dropped += c.transitions_dropped;
    }

    /// Registers (or finds) a counter. Returns a dummy id when off.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match &mut self.inner {
            Some(i) => CounterId(i.counters.intern(name, || 0)),
            None => CounterId(OFF),
        }
    }

    /// Registers (or finds) a gauge. Returns a dummy id when off.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match &mut self.inner {
            Some(i) => GaugeId(i.gauges.intern(name, Gauge::new)),
            None => GaugeId(OFF),
        }
    }

    /// Registers (or finds) a histogram. Returns a dummy id when off.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        match &mut self.inner {
            Some(i) => HistogramId(i.hists.intern(name, QuantileSketch::new)),
            None => HistogramId(OFF),
        }
    }

    /// Registers (or finds) a sim-time span track. Returns a dummy id
    /// when off.
    pub fn track(&mut self, name: &str) -> TrackId {
        match &mut self.inner {
            Some(i) => TrackId(i.tracks.intern(name, Track::default)),
            None => TrackId(OFF),
        }
    }

    /// Registers a wait-state track. Same-name registrations share one
    /// exported track but each call claims a fresh entity namespace:
    /// two engine instances (say, the showcase disk pool and the pool
    /// inside a reimage storm) can both number their streams from 0
    /// without their lifetimes merging in analysis. Returns a dummy id
    /// when off.
    pub fn state_track(&mut self, name: &str) -> StateTrackId {
        match &mut self.inner {
            Some(i) => {
                let idx = i.states.intern(name, StateTrack::default);
                let t = i.states.get_mut(idx).expect("interned");
                let salt = t.instances;
                t.instances += 1;
                StateTrackId { track: idx, salt }
            }
            None => StateTrackId {
                track: OFF,
                salt: 0,
            },
        }
    }

    /// Records `entity` entering `state` at `at`, implicitly leaving
    /// whatever state it was in. The first enter opens the entity's
    /// lifetime.
    #[inline]
    pub fn state_enter(&mut self, id: StateTrackId, entity: u64, state: &'static str, at: SimTime) {
        let Some(inner) = &mut self.inner else { return };
        if inner.transitions_total >= MAX_TRANSITIONS {
            inner.transitions_dropped += 1;
            return;
        }
        let Some(t) = inner.states.get_mut(id.track) else {
            return;
        };
        let state = t.intern_state(state);
        t.transitions.push(Transition {
            entity: (id.salt << ENTITY_SALT_SHIFT) | (entity & ENTITY_MASK),
            at_ms: at.as_millis(),
            state,
        });
        inner.transitions_total += 1;
    }

    /// Records `entity` leaving its current state at `at`, closing its
    /// lifetime (until a later [`Recorder::state_enter`] reopens it).
    #[inline]
    pub fn state_exit(&mut self, id: StateTrackId, entity: u64, at: SimTime) {
        let Some(inner) = &mut self.inner else { return };
        if inner.transitions_total >= MAX_TRANSITIONS {
            inner.transitions_dropped += 1;
            return;
        }
        let Some(t) = inner.states.get_mut(id.track) else {
            return;
        };
        t.transitions.push(Transition {
            entity: (id.salt << ENTITY_SALT_SHIFT) | (entity & ENTITY_MASK),
            at_ms: at.as_millis(),
            state: EXIT_STATE,
        });
        inner.transitions_total += 1;
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(c) = inner.counters.get_mut(id.0) {
            *c += delta;
        }
    }

    /// Sets a counter to an absolute value (for mirroring an engine's
    /// final totals).
    #[inline]
    pub fn counter_set(&mut self, id: CounterId, value: u64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(c) = inner.counters.get_mut(id.0) {
            *c = value;
        }
    }

    /// Samples a gauge at a sim-time instant.
    #[inline]
    pub fn gauge_at(&mut self, id: GaugeId, at: SimTime, value: f64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(g) = inner.gauges.get_mut(id.0) {
            g.set(at.as_millis(), value);
        }
    }

    /// Adds one observation to a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(h) = inner.hists.get_mut(id.0) {
            h.push(value);
        }
    }

    /// Records a sim-time span on a track.
    #[inline]
    pub fn span(&mut self, id: TrackId, name: &'static str, start: SimTime, end: SimTime) {
        self.span_args(id, name, start, end, &[]);
    }

    /// Records a sim-time span with up to [`SPAN_ARGS`] inline
    /// key/value annotations (extras are dropped).
    #[inline]
    pub fn span_args(
        &mut self,
        id: TrackId,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, f64)],
    ) {
        let Some(inner) = &mut self.inner else { return };
        if inner.spans_total >= MAX_SPANS {
            inner.spans_dropped += 1;
            return;
        }
        let Some(t) = inner.tracks.get_mut(id.0) else {
            return;
        };
        let mut inline = [("", 0.0); SPAN_ARGS];
        let n = args.len().min(SPAN_ARGS);
        inline[..n].copy_from_slice(&args[..n]);
        t.spans.push(Span {
            name,
            start_ms: start.as_millis(),
            end_ms: end.as_millis(),
            args: inline,
            n_args: n as u8,
        });
        inner.spans_total += 1;
    }

    /// Records an instant event (a zero-length span) on a track.
    #[inline]
    pub fn instant(&mut self, id: TrackId, name: &'static str, at: SimTime) {
        self.span_args(id, name, at, at, &[]);
    }

    /// Records one wall-time span on the named wall track (µs from any
    /// fixed per-run epoch).
    pub fn wall_span(&mut self, track: &str, label: &str, start_us: u64, end_us: u64) {
        let Some(inner) = &mut self.inner else { return };
        inner.wall_track_mut(track).spans.push(WallSpan {
            label: label.to_string(),
            start_us,
            end_us,
        });
    }

    /// Records [`crate::par::par_map_profiled`] worker profiles as one
    /// wall track per worker (`{label}/w{worker}`), one span per task.
    /// A worker that ran no task still gets its (empty) track.
    pub fn record_worker_profiles(&mut self, label: &str, profiles: &[WorkerProfile]) {
        let Some(inner) = &mut self.inner else { return };
        for p in profiles {
            let track = inner.wall_track_mut(&format!("{label}/w{}", p.worker));
            track.spans.extend(p.tasks.iter().map(|t| WallSpan {
                label: format!("task {}", t.task),
                start_us: t.start_us,
                end_us: t.end_us,
            }));
        }
    }

    /// The current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let &id = inner.counters.index.get(name)?;
        inner.counters.items.get(id as usize).copied()
    }

    /// Serializes everything as Chrome Trace Event JSON (see the
    /// module docs for the track layout). Off recorders export an
    /// empty-but-valid trace.
    pub fn chrome_trace_json(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push(meta_event(1, 0, "process_name", "sim-time"));
        if let Some(inner) = &self.inner {
            for (tid0, (name, track)) in inner.tracks.sorted().into_iter().enumerate() {
                let tid = tid0 as u64 + 1;
                ev.push(meta_event(1, tid, "thread_name", name));
                for s in &track.spans {
                    ev.push(span_event(1, tid, s));
                }
            }
            // Wait-state tracks: one async-event thread per track after
            // the span threads, each closed state interval a balanced
            // `b`/`e` pair keyed by the entity id. Intervals still open
            // at export (an entity never exited) are dropped — engines
            // exit every entity they enter.
            let n_span_tracks = inner.tracks.names.len() as u64;
            for (sidx, (name, st)) in inner.states.sorted().into_iter().enumerate() {
                let tid = n_span_tracks + 1 + sidx as u64;
                ev.push(meta_event(1, tid, "thread_name", name));
                let mut open: HashMap<u64, (u32, u64)> = HashMap::new();
                for tr in &st.transitions {
                    if let Some((state, since)) = open.remove(&tr.entity) {
                        let sname = st.states[state as usize];
                        ev.push(state_event("b", tid, tr.entity, sname, since));
                        ev.push(state_event("e", tid, tr.entity, sname, tr.at_ms));
                    }
                    if tr.state != EXIT_STATE {
                        open.insert(tr.entity, (tr.state, tr.at_ms));
                    }
                }
            }
            // Gauge series as Perfetto counter tracks on the sim-time
            // process.
            for (name, g) in inner.gauges.sorted() {
                for &(t_ms, v) in &g.series.points {
                    ev.push(format!(
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                        jstr(name),
                        t_ms * 1_000,
                        jnum(v)
                    ));
                }
            }
            ev.push(meta_event(2, 0, "process_name", "wall-time"));
            for (tid0, track) in inner.wall.iter().enumerate() {
                let tid = tid0 as u64 + 1;
                ev.push(meta_event(2, tid, "thread_name", &track.name));
                for s in &track.spans {
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{}}}",
                        tid,
                        jstr(&s.label),
                        s.start_us,
                        s.end_us.saturating_sub(s.start_us).max(1)
                    ));
                }
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
    }

    /// Serializes counters, gauge envelopes, and histogram summaries as
    /// a machine-readable JSON report (keys in sorted order), parseable
    /// with [`json::parse`]. Off recorders export an empty report.
    pub fn metrics_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return "{\"name\":\"off\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
                .to_string();
        };
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"name\": {},\n", jstr(&inner.name)));
        out.push_str(&format!(
            "  \"spans_recorded\": {},\n  \"spans_dropped\": {},\n",
            inner.spans_total, inner.spans_dropped
        ));
        out.push_str(&format!(
            "  \"transitions_recorded\": {},\n  \"transitions_dropped\": {},\n",
            inner.transitions_total, inner.transitions_dropped
        ));

        let counters: Vec<String> = inner
            .counters
            .sorted()
            .into_iter()
            .map(|(n, v)| format!("    {}: {}", jstr(n), v))
            .collect();
        out.push_str(&format!(
            "  \"counters\": {{\n{}\n  }},\n",
            counters.join(",\n")
        ));

        let gauges: Vec<String> = inner
            .gauges
            .sorted()
            .into_iter()
            .map(|(n, g)| {
                format!(
                    "    {}: {{ \"last\": {}, \"min\": {}, \"max\": {}, \"count\": {} }}",
                    jstr(n),
                    jnum(g.last),
                    jnum(if g.count == 0 { 0.0 } else { g.min }),
                    jnum(if g.count == 0 { 0.0 } else { g.max }),
                    g.count
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"gauges\": {{\n{}\n  }},\n",
            gauges.join(",\n")
        ));

        let hists: Vec<String> = inner
            .hists
            .sorted()
            .into_iter()
            .map(|(n, h)| {
                format!(
                    "    {}: {{ \"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                    jstr(n),
                    h.count(),
                    jnum(h.min().unwrap_or(0.0)),
                    jnum(h.max().unwrap_or(0.0)),
                    jnum(h.mean().unwrap_or(0.0)),
                    jnum(h.quantile(0.50).unwrap_or(0.0)),
                    jnum(h.quantile(0.90).unwrap_or(0.0)),
                    jnum(h.quantile(0.99).unwrap_or(0.0)),
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"histograms\": {{\n{}\n  }},\n",
            hists.join(",\n")
        ));

        let tracks: Vec<String> = inner
            .tracks
            .sorted()
            .into_iter()
            .map(|(n, t)| format!("    {}: {}", jstr(n), t.spans.len()))
            .collect();
        out.push_str(&format!(
            "  \"tracks\": {{\n{}\n  }},\n",
            tracks.join(",\n")
        ));

        let states: Vec<String> = inner
            .states
            .sorted()
            .into_iter()
            .map(|(n, t)| format!("    {}: {}", jstr(n), t.transitions.len()))
            .collect();
        out.push_str(&format!(
            "  \"state_tracks\": {{\n{}\n  }}\n}}\n",
            states.join(",\n")
        ));
        out
    }
}

fn meta_event(pid: u64, tid: u64, kind: &str, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"args\":{{\"name\":{}}}}}",
        jstr(kind),
        jstr(name)
    )
}

/// One async state event (`ph` `b` or `e`): the entity id doubles as
/// the async id so viewers and [`analyze`] pair begins with ends.
fn state_event(ph: &str, tid: u64, entity: u64, state: &str, t_ms: u64) -> String {
    format!(
        "{{\"ph\":\"{ph}\",\"cat\":\"state\",\"pid\":1,\"tid\":{tid},\"id\":\"0x{entity:x}\",\"name\":{},\"ts\":{}}}",
        jstr(state),
        t_ms * 1_000
    )
}

fn span_event(pid: u64, tid: u64, s: &Span) -> String {
    let ts = s.start_ms * 1_000;
    if s.end_ms == s.start_ms {
        return format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"ts\":{ts},\"s\":\"t\"}}",
            jstr(s.name)
        );
    }
    let dur = (s.end_ms - s.start_ms) * 1_000;
    let mut args = String::new();
    for (i, (k, v)) in s.args[..s.n_args as usize].iter().enumerate() {
        if i > 0 {
            args.push(',');
        }
        args.push_str(&format!("{}:{}", jstr(k), jnum(*v)));
    }
    format!(
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
        jstr(s.name)
    )
}

/// JSON string literal (quotes + escapes).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal; non-finite values (which no engine should
/// produce) serialize as 0 to keep the document valid.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

pub mod json {
    //! A minimal JSON parser for validating the exporters' output in
    //! tests, benches, and `examples/validate_obs.rs` — not a general
    //! JSON library (no serde in this workspace).

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member by key.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The number, if this is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The string, if this is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// The members, if this is an object.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
    }

    /// Deepest container nesting [`parse`] accepts. Recursive descent
    /// burns one stack frame per level, so an adversarially nested
    /// document must error out long before the thread's stack does
    /// (the exporters themselves never nest past ~4).
    pub const MAX_DEPTH: usize = 512;

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => parse_obj(b, pos, depth),
            Some(b'[') => parse_arr(b, pos, depth),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_num(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex4 = |b: &[u8], at: usize| {
                                b.get(at..at + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                            };
                            let mut code = hex4(b, *pos + 1)
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            *pos += 4;
                            // A high surrogate followed by an escaped
                            // low surrogate decodes as one supplementary
                            // character (how JSON spells e.g. emoji);
                            // unpaired surrogates fall through to the
                            // replacement character below.
                            if (0xD800..=0xDBFF).contains(&code)
                                && b.get(*pos + 1) == Some(&b'\\')
                                && b.get(*pos + 2) == Some(&b'u')
                            {
                                if let Some(lo) = hex4(b, *pos + 3) {
                                    if (0xDC00..=0xDFFF).contains(&lo) {
                                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        *pos += 6;
                                    }
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b
                        .get(*pos..*pos + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| format!("bad utf-8 at byte {pos}"))?;
                    out.push_str(chunk);
                    *pos += len;
                }
            }
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos, depth + 1)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut members = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            members.push((key, parse_value(b, pos, depth + 1)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;
    use crate::time::SimDuration;

    /// Every worker profile gets its wall track, including a worker
    /// that never claimed a task.
    #[test]
    fn idle_workers_keep_their_wall_track() {
        let mut r = Recorder::new("t");
        let busy = WorkerProfile {
            worker: 1,
            tasks: vec![crate::par::TaskTiming {
                task: 0,
                start_us: 5,
                end_us: 9,
            }],
        };
        let idle = WorkerProfile {
            worker: 0,
            tasks: Vec::new(),
        };
        r.record_worker_profiles("sweep", &[idle, busy]);
        let trace = r.chrome_trace_json();
        json::parse(&trace).expect("trace parses");
        assert!(trace.contains("\"sweep/w0\""), "idle worker lost its track");
        assert!(trace.contains("\"sweep/w1\""));
        assert!(trace.contains("\"task 0\""));
    }

    #[test]
    fn off_recorder_is_inert() {
        let mut r = Recorder::off();
        assert!(!r.is_on());
        let c = r.counter("x");
        let g = r.gauge("y");
        let h = r.histogram("z");
        let t = r.track("w");
        r.add(c, 5);
        r.gauge_at(g, SimTime::from_secs(1), 2.0);
        r.observe(h, 3.0);
        r.span(t, "s", SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(r.counter_value("x"), None);
        assert!(!r.child().is_on());
        // Exporters still emit valid documents.
        json::parse(&r.chrome_trace_json()).expect("off trace parses");
        json::parse(&r.metrics_json()).expect("off metrics parse");
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let mut r = Recorder::new("t");
        let c = r.counter("a/count");
        r.add(c, 2);
        r.add(c, 3);
        assert_eq!(r.counter_value("a/count"), Some(5));
        let c2 = r.counter("a/count");
        assert_eq!(c, c2, "re-registration must return the same id");
        let g = r.gauge("a/depth");
        for i in 0..10 {
            r.gauge_at(g, SimTime::from_secs(i), i as f64);
        }
        let h = r.histogram("a/lat");
        for i in 1..=100 {
            r.observe(h, i as f64);
        }
        let doc = json::parse(&r.metrics_json()).expect("parses");
        let depth = doc.get("gauges").and_then(|g| g.get("a/depth")).unwrap();
        assert_eq!(depth.get("min").unwrap().as_f64(), Some(0.0));
        assert_eq!(depth.get("max").unwrap().as_f64(), Some(9.0));
        assert_eq!(depth.get("last").unwrap().as_f64(), Some(9.0));
        let lat = doc.get("histograms").and_then(|h| h.get("a/lat")).unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(100.0));
        let p50 = lat.get("p50").unwrap().as_f64().unwrap();
        assert!((45.0..=55.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn absorb_merges_by_name() {
        let mut parent = Recorder::new("p");
        let pc = parent.counter("fabric/reshares");
        parent.add(pc, 10);
        let mut child = parent.child();
        assert!(child.is_on());
        let cc = child.counter("fabric/reshares");
        child.add(cc, 7);
        let ch = child.histogram("fabric/flow_secs");
        child.observe(ch, 1.0);
        let ct = child.track("fabric");
        child.span(ct, "flow", SimTime::ZERO, SimTime::from_secs(1));
        parent.absorb(child);
        assert_eq!(parent.counter_value("fabric/reshares"), Some(17));
        let doc = json::parse(&parent.metrics_json()).expect("parses");
        let flows = doc.get("tracks").and_then(|t| t.get("fabric")).unwrap();
        assert_eq!(flows.as_f64(), Some(1.0));
    }

    #[test]
    fn gauge_series_memory_is_bounded() {
        let mut r = Recorder::new("b");
        let g = r.gauge("q");
        // A month of two-minute samples is ~21 600 points; push far
        // more and check the stored series stayed under the cap.
        for i in 0..200_000u64 {
            r.gauge_at(g, SimTime::from_secs(i), (i % 97) as f64);
        }
        let inner = r.inner.as_ref().unwrap();
        let series = &inner.gauges.items[0].series;
        assert!(series.points.len() < SERIES_CAP, "{}", series.points.len());
        assert!(series.stride > 1, "never decimated");
        assert_eq!(inner.gauges.items[0].count, 200_000);
    }

    #[test]
    fn span_cap_drops_are_counted() {
        let mut r = Recorder::new("cap");
        let t = r.track("x");
        for i in 0..(MAX_SPANS + 10) as u64 {
            r.span(t, "s", SimTime::from_millis(i), SimTime::from_millis(i + 1));
        }
        let inner = r.inner.as_ref().unwrap();
        assert_eq!(inner.spans_total, MAX_SPANS);
        assert_eq!(inner.spans_dropped, 10);
        let doc = json::parse(&r.metrics_json()).expect("parses");
        assert_eq!(doc.get("spans_dropped").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn chrome_trace_round_trips() {
        let mut r = Recorder::new("rt");
        let t = r.track("fabric");
        r.span_args(
            t,
            "flow",
            SimTime::from_millis(5),
            SimTime::from_millis(17),
            &[("bytes", 1024.0)],
        );
        r.instant(t, "park", SimTime::from_millis(20));
        let g = r.gauge("fabric/queue_len");
        r.gauge_at(g, SimTime::from_millis(5), 3.0);
        r.wall_span("workers/w0", "task 0", 100, 250);
        let doc = json::parse(&r.chrome_trace_json()).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let find = |ph: &str, name: &str| -> &Value {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Value::as_str) == Some(ph)
                        && e.get("name").and_then(Value::as_str) == Some(name)
                })
                .unwrap_or_else(|| panic!("no {ph} event named {name}"))
        };
        let flow = find("X", "flow");
        assert_eq!(flow.get("ts").unwrap().as_f64(), Some(5_000.0));
        assert_eq!(flow.get("dur").unwrap().as_f64(), Some(12_000.0));
        assert_eq!(flow.get("pid").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            flow.get("args")
                .and_then(|a| a.get("bytes"))
                .unwrap()
                .as_f64(),
            Some(1024.0)
        );
        find("i", "park");
        let ctr = find("C", "fabric/queue_len");
        assert_eq!(
            ctr.get("args")
                .and_then(|a| a.get("value"))
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        let task = find("X", "task 0");
        assert_eq!(task.get("pid").unwrap().as_f64(), Some(2.0));
        assert_eq!(task.get("ts").unwrap().as_f64(), Some(100.0));
        // Track naming metadata present for both processes.
        find("M", "process_name");
        find("M", "thread_name");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = json::parse("{\"a\\n\": [1, -2.5e3, true, null, \"x\\u0041\\\"\"], \"b\": {}}")
            .expect("parses");
        let arr = doc.get("a\n").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2], Value::Bool(true));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(arr[4].as_str(), Some("xA\""));
        assert!(doc.get("b").unwrap().as_obj().unwrap().is_empty());
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn state_tracks_export_balanced_pairs() {
        let mut r = Recorder::new("st");
        let st = r.state_track("fabric/flow");
        r.state_enter(st, 7, "queued", SimTime::from_millis(10));
        r.state_enter(st, 7, "running", SimTime::from_millis(25));
        r.state_exit(st, 7, SimTime::from_millis(40));
        let doc = json::parse(&r.chrome_trace_json()).expect("parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let state_events: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("state"))
            .collect();
        // Two closed intervals, each a b/e pair.
        assert_eq!(state_events.len(), 4);
        let phs: Vec<&str> = state_events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phs, ["b", "e", "b", "e"]);
        let first = state_events[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("queued"));
        assert_eq!(first.get("id").unwrap().as_str(), Some("0x7"));
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(10_000.0));
        assert_eq!(state_events[1].get("ts").unwrap().as_f64(), Some(25_000.0));
        // The metrics report counts the transitions.
        let m = json::parse(&r.metrics_json()).expect("parses");
        assert_eq!(m.get("transitions_recorded").unwrap().as_f64(), Some(3.0));
        let stt = m.get("state_tracks").unwrap().get("fabric/flow").unwrap();
        assert_eq!(stt.as_f64(), Some(3.0));
    }

    #[test]
    fn state_tracks_absorb_with_remapped_names() {
        let mut parent = Recorder::new("p");
        let ps = parent.state_track("disk/stream");
        parent.state_enter(ps, 1, "running", SimTime::from_millis(0));
        parent.state_exit(ps, 1, SimTime::from_millis(5));
        let mut child = parent.child();
        let cs = child.state_track("disk/stream");
        // Child interns in a different order; absorb must remap.
        child.state_enter(cs, 2, "throttle_parked", SimTime::from_millis(1));
        child.state_enter(cs, 2, "running", SimTime::from_millis(3));
        child.state_exit(cs, 2, SimTime::from_millis(9));
        parent.absorb(child);
        let a = analyze::analyze_recorder(&parent).expect("analyzes");
        assert_eq!(a.states.len(), 1);
        let sb = &a.states[0];
        assert_eq!(sb.entities, 2);
        assert_eq!(sb.conserved, 2);
        let running = sb
            .by_state
            .iter()
            .find(|(s, _)| s == "running")
            .map(|(_, us)| *us);
        assert_eq!(running, Some(11_000), "5 ms + 6 ms of running");
    }

    #[test]
    fn state_track_registrations_get_disjoint_entity_namespaces() {
        // Two engine instances both number their entities from 0 — one
        // shared track, but the lifetimes must not merge: the second
        // registration's entity 0 is a different entity. Same again for
        // a child recorder (its own namespaces) after absorb.
        let mut rec = Recorder::new("t");
        let a = rec.state_track("disk/stream");
        let b = rec.state_track("disk/stream");
        rec.state_enter(a, 0, "running", SimTime::from_millis(0));
        rec.state_exit(a, 0, SimTime::from_millis(10));
        rec.state_enter(b, 0, "running", SimTime::from_millis(50));
        rec.state_exit(b, 0, SimTime::from_millis(60));
        let mut child = rec.child();
        let c = child.state_track("disk/stream");
        child.state_enter(c, 0, "running", SimTime::from_millis(100));
        child.state_exit(c, 0, SimTime::from_millis(110));
        rec.absorb(child);
        let an = analyze::analyze_recorder(&rec).expect("analyzes");
        let sb = &an.states[0];
        assert_eq!(sb.entities, 3, "instances must not share entity ids");
        assert_eq!(sb.conserved, 3, "a merged lifetime would have gaps");
        assert_eq!(sb.lifetime_us, 30_000);
    }

    #[test]
    fn off_state_hooks_are_inert() {
        let mut r = Recorder::off();
        let st = r.state_track("x");
        r.state_enter(st, 1, "queued", SimTime::ZERO);
        r.state_exit(st, 1, SimTime::from_secs(1));
        json::parse(&r.chrome_trace_json()).expect("off trace parses");
    }

    #[test]
    fn transition_cap_drops_are_counted() {
        let mut r = Recorder::new("cap");
        let st = r.state_track("x");
        for i in 0..(MAX_TRANSITIONS + 6) as u64 {
            r.state_enter(st, i, "running", SimTime::from_millis(i));
        }
        let inner = r.inner.as_ref().unwrap();
        assert_eq!(inner.transitions_total, MAX_TRANSITIONS);
        assert_eq!(inner.transitions_dropped, 6);
        let doc = json::parse(&r.metrics_json()).expect("parses");
        assert_eq!(doc.get("transitions_dropped").unwrap().as_f64(), Some(6.0));
    }

    #[test]
    fn json_parser_decodes_surrogate_pairs() {
        // U+1F600 as a JSON surrogate pair.
        let doc = json::parse("{\"s\": \"\\uD83D\\uDE00!\"}").expect("parses");
        assert_eq!(doc.get("s").unwrap().as_str(), Some("😀!"));
        // Unpaired surrogates degrade to the replacement character.
        let doc = json::parse("{\"s\": \"\\uD83Dx\"}").expect("parses");
        assert_eq!(doc.get("s").unwrap().as_str(), Some("\u{fffd}x"));
        // Raw multi-byte UTF-8 still round-trips through jstr.
        let quoted = super::jstr("流量/фабрика");
        let doc = json::parse(&quoted).expect("parses");
        assert_eq!(doc.as_str(), Some("流量/фабрика"));
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        let deep_ok = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        json::parse(&deep_ok).expect("at the limit parses");
        let too_deep = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        let err = json::parse(&too_deep).expect_err("past the limit errors");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn span_times_survive_sim_durations() {
        let mut r = Recorder::new("t");
        let t = r.track("x");
        let start = SimTime::ZERO + SimDuration::from_hours(3);
        let end = start + SimDuration::from_mins(2);
        r.span(t, "tick", start, end);
        let doc = json::parse(&r.chrome_trace_json()).expect("parses");
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tick = ev
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("tick"))
            .unwrap();
        assert_eq!(tick.get("dur").unwrap().as_f64(), Some(120_000_000.0));
    }
}
