//! The disk-pool reference: an equal split of every channel's
//! secondary capacity, recomputed from scratch on every event.

use std::collections::BTreeMap;

use harvest_cluster::ServerId;
use harvest_disk::{DiskConfig, IoDir, StreamCompletion, StreamId};
use harvest_signal::classify::UtilizationPattern;
use harvest_sim::{SimDuration, SimTime};

/// A stream waiting for its start time.
#[derive(Debug)]
struct Pending {
    at: SimTime,
    server: ServerId,
    dir: IoDir,
    bytes: u64,
    tag: u64,
}

/// A stream moving bytes.
#[derive(Debug)]
struct Stream {
    tag: u64,
    bytes: u64,
    started: SimTime,
    server: ServerId,
    dir: IoDir,
    /// Bytes left as of the oracle's clock (plus the seek, charged as
    /// channel-bytes like the product does).
    remaining: f64,
    rate: f64,
    /// Predicted completion; `None` while parked at rate zero.
    due: Option<SimTime>,
}

/// The reference pool: the slice of `harvest_disk::DiskPool`'s API the
/// oracle tests drive, implemented naively. Every disk's tenant class
/// is `Constant`, as in `DiskPool::new`.
#[derive(Debug)]
pub struct OraclePool {
    config: DiskConfig,
    primary_fraction: Vec<f64>,
    degrade: Vec<f64>,
    now: SimTime,
    next_id: u64,
    pending: BTreeMap<u64, Pending>,
    active: BTreeMap<u64, Stream>,
}

impl OraclePool {
    /// A reference pool of `n_disks` identical disks.
    pub fn new(n_disks: usize, config: &DiskConfig) -> Self {
        OraclePool {
            config: *config,
            primary_fraction: vec![0.0; n_disks],
            degrade: vec![1.0; n_disks],
            now: SimTime::ZERO,
            next_id: 0,
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
        }
    }

    /// Schedules a stream of `bytes` on `server`'s `dir` channel,
    /// starting at `at`; ids are assigned in call order, as the
    /// product does.
    pub fn schedule_stream(
        &mut self,
        at: SimTime,
        server: ServerId,
        dir: IoDir,
        bytes: u64,
        tag: u64,
    ) -> StreamId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(
            id,
            Pending {
                at,
                server,
                dir,
                bytes,
                tag,
            },
        );
        StreamId(id)
    }

    /// Sets a server's primary CPU utilization at `now` (after pumping
    /// to `now`), mapped to disk demand by the configured model.
    pub fn set_primary_util(&mut self, now: SimTime, server: ServerId, util: f64) {
        self.advance(now);
        self.primary_fraction[server.0 as usize] = self
            .config
            .primary
            .demand_fraction(UtilizationPattern::Constant, util);
        self.reshare();
    }

    /// Sets a disk's brown-out factor at `now` (after pumping to `now`).
    pub fn set_degrade(&mut self, now: SimTime, server: ServerId, factor: f64) {
        self.advance(now);
        self.degrade[server.0 as usize] = factor;
        self.reshare();
    }

    /// An active stream's rate in bytes/s.
    pub fn stream_rate(&self, stream: StreamId) -> Option<f64> {
        self.active.get(&stream.0).map(|s| s.rate)
    }

    /// Ids of the active streams, ascending.
    pub fn active_stream_ids(&self) -> Vec<StreamId> {
        self.active.keys().map(|&id| StreamId(id)).collect()
    }

    /// Runs every event at or before `until` and returns the streams
    /// that completed.
    pub fn pump(&mut self, until: SimTime) -> Vec<StreamCompletion> {
        let mut done = Vec::new();
        loop {
            let start = self.pending.iter().map(|(&id, p)| (p.at, id)).min();
            let finish = self
                .active
                .iter()
                .filter_map(|(&id, s)| s.due.map(|t| (t, id)))
                .min();
            match (start, finish) {
                (Some((t, id)), f) if t <= until && f.is_none_or(|(ft, _)| t <= ft) => {
                    self.advance(t);
                    let p = self.pending.remove(&id).expect("scheduled stream");
                    let seek_bytes = self.config.seek_ms / 1_000.0 * self.capacity(p.dir);
                    self.active.insert(
                        id,
                        Stream {
                            tag: p.tag,
                            bytes: p.bytes,
                            started: t,
                            server: p.server,
                            dir: p.dir,
                            remaining: p.bytes as f64 + seek_bytes,
                            rate: 0.0,
                            due: None,
                        },
                    );
                }
                (_, Some((t, id))) if t <= until => {
                    self.advance(t);
                    let s = self.active.remove(&id).expect("due stream is active");
                    done.push(StreamCompletion {
                        stream: StreamId(id),
                        at: t,
                        tag: s.tag,
                        bytes: s.bytes,
                        started: s.started,
                        server: s.server,
                        dir: s.dir,
                    });
                }
                _ => return done,
            }
            self.reshare();
        }
    }

    /// Runs to quiescence (parked streams never finish).
    pub fn drain(&mut self) -> Vec<StreamCompletion> {
        self.pump(SimTime::MAX)
    }

    fn capacity(&self, dir: IoDir) -> f64 {
        match dir {
            IoDir::Read => self.config.read_bytes_per_sec(),
            IoDir::Write => self.config.write_bytes_per_sec(),
        }
    }

    /// Moves every active stream's progress to `t` at its current rate.
    fn advance(&mut self, t: SimTime) {
        let dt = t.since(self.now).as_secs_f64();
        for s in self.active.values_mut() {
            s.remaining = (s.remaining - s.rate * dt).max(0.0);
        }
        self.now = t;
    }

    /// Splits every channel's secondary capacity — what the primary's
    /// demand, the throttle policy, and the brown-out factor leave —
    /// equally among its streams, and re-predicts every completion.
    fn reshare(&mut self) {
        let mut occupancy: BTreeMap<(ServerId, IoDir), usize> = BTreeMap::new();
        for s in self.active.values() {
            *occupancy.entry((s.server, s.dir)).or_default() += 1;
        }
        let now = self.now;
        let rates: Vec<f64> = self
            .active
            .values()
            .map(|s| {
                let i = s.server.0 as usize;
                let share = self
                    .config
                    .throttle
                    .secondary_fraction(self.primary_fraction[i]);
                let cap = self.capacity(s.dir) * share * self.degrade[i];
                cap / occupancy[&(s.server, s.dir)] as f64
            })
            .collect();
        for (s, rate) in self.active.values_mut().zip(rates) {
            s.rate = rate;
            s.due = (rate > 0.0).then(|| now + SimDuration::from_secs_f64(s.remaining / rate));
        }
    }
}

/// The disk pool's oracle tests on fixed inputs (the randomized ones
/// live in the workspace's `tests/properties.rs`).
#[cfg(test)]
mod tests {
    use super::*;
    use harvest_disk::DiskPool;

    const MB: u64 = 1_000_000;

    /// The product pool and the reference, 8 disks each, carrying the
    /// same `n` streams of `bytes(i)` staggered `gap_ms` apart.
    fn pair(n: u64, gap_ms: u64, bytes: impl Fn(u64) -> u64) -> (DiskPool, OraclePool) {
        let config = DiskConfig::datacenter();
        let mut p = DiskPool::new(8, &config);
        let mut o = OraclePool::new(8, &config);
        for i in 0..n {
            let (at, server) = (SimTime::from_millis(i * gap_ms), ServerId((i % 8) as u32));
            let dir = if i % 3 == 0 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            p.schedule_stream(at, server, dir, bytes(i), i);
            o.schedule_stream(at, server, dir, bytes(i), i);
        }
        (p, o)
    }

    fn rates(ids: Vec<StreamId>, rate: impl Fn(StreamId) -> Option<f64>) -> Vec<(u64, u64)> {
        ids.into_iter()
            .map(|id| (id.0, rate(id).expect("active").to_bits()))
            .collect()
    }

    fn schedule(done: Vec<StreamCompletion>) -> Vec<(SimTime, u64)> {
        let mut ends: Vec<(SimTime, u64)> = done.into_iter().map(|c| (c.at, c.tag)).collect();
        ends.sort_unstable();
        ends
    }

    /// Channel-scoped sharing (each channel touched only by its own
    /// events) allocates what re-splitting every channel on every event
    /// does: rates bitwise mid-run, completions at the same instants.
    #[test]
    fn channel_scope_matches_global_scope() {
        let (mut p, mut o) = pair(30, 37, |i| (i + 1) * 4 * MB);
        p.set_primary_util(SimTime::ZERO, ServerId(2), 0.4);
        o.set_primary_util(SimTime::ZERO, ServerId(2), 0.4);
        let mut ends_p = p.pump(SimTime::from_millis(700));
        let mut ends_o = o.pump(SimTime::from_millis(700));
        assert_eq!(
            rates(p.active_stream_ids(), |id| p.stream_rate(id)),
            rates(o.active_stream_ids(), |id| o.stream_rate(id)),
            "mid-run rates diverged"
        );
        ends_p.extend(p.drain());
        ends_o.extend(o.drain());
        assert_eq!(
            schedule(ends_p),
            schedule(ends_o),
            "completion schedules diverged"
        );
    }

    /// The fair-share engines reproduce the reference exactly — rates
    /// bitwise, completion schedule at full `SimTime` resolution —
    /// through starts, finishes, a mid-storm brown-out, a fully parked
    /// channel, and its rescue.
    #[test]
    fn analytic_matches_filling_exactly() {
        let (mut p, mut o) = pair(40, 61, |i| (i % 9 + 1) * 8 * MB);
        // Server 3 is fully throttled before its streams start.
        p.set_primary_util(SimTime::ZERO, ServerId(3), 0.95);
        o.set_primary_util(SimTime::ZERO, ServerId(3), 0.95);
        let mut ends_p = p.pump(SimTime::from_millis(400));
        let mut ends_o = o.pump(SimTime::from_millis(400));
        p.set_degrade(SimTime::from_millis(400), ServerId(0), 0.5);
        o.set_degrade(SimTime::from_millis(400), ServerId(0), 0.5);
        ends_p.extend(p.pump(SimTime::from_secs(2)));
        ends_o.extend(o.pump(SimTime::from_secs(2)));
        let parked = rates(p.active_stream_ids(), |id| p.stream_rate(id));
        assert!(parked.iter().any(|&(_, bits)| bits == 0), "nothing parked");
        assert_eq!(
            parked,
            rates(o.active_stream_ids(), |id| o.stream_rate(id)),
            "mid-run rates diverged"
        );
        p.set_primary_util(SimTime::from_secs(2), ServerId(3), 0.0);
        o.set_primary_util(SimTime::from_secs(2), ServerId(3), 0.0);
        ends_p.extend(p.drain());
        ends_o.extend(o.drain());
        assert_eq!(ends_p.len(), 40, "streams lost");
        assert_eq!(
            schedule(ends_p),
            schedule(ends_o),
            "completion schedules diverged"
        );
    }
}
