//! The fabric reference: max-min progressive filling over every active
//! flow, recomputed from scratch on every event.

use std::collections::BTreeMap;

use harvest_cluster::{Datacenter, ServerId};
use harvest_net::{FlowCompletion, FlowId, LinkId, NetworkConfig, Topology};
use harvest_sim::{SimDuration, SimTime};

/// A flow waiting for its start time.
#[derive(Debug)]
struct Pending {
    at: SimTime,
    src: ServerId,
    dst: ServerId,
    bytes: u64,
    tag: u64,
}

/// A flow moving bytes.
#[derive(Debug)]
struct Flow {
    tag: u64,
    bytes: u64,
    started: SimTime,
    path: Vec<LinkId>,
    /// Bytes left as of the oracle's clock (plus the hop-latency
    /// padding, charged as bottleneck-bytes like the product does).
    remaining: f64,
    rate: f64,
    /// Predicted completion; `None` while starved at rate zero.
    due: Option<SimTime>,
}

/// The reference fabric: the slice of `harvest_net::Fabric`'s API the
/// oracle tests and the re-share bench drive, implemented naively.
#[derive(Debug)]
pub struct OracleFabric {
    topo: Topology,
    hop_latency: SimDuration,
    link_up: Vec<bool>,
    now: SimTime,
    next_id: u64,
    pending: BTreeMap<u64, Pending>,
    active: BTreeMap<u64, Flow>,
}

impl OracleFabric {
    /// A reference fabric over an explicit topology.
    pub fn new(topo: Topology, config: &NetworkConfig) -> Self {
        OracleFabric {
            link_up: vec![true; topo.n_links()],
            topo,
            hop_latency: SimDuration::from_secs_f64(config.hop_latency_ms / 1_000.0),
            now: SimTime::ZERO,
            next_id: 0,
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
        }
    }

    /// A reference fabric over `dc`'s topology.
    pub fn from_datacenter(dc: &Datacenter, config: &NetworkConfig) -> Self {
        OracleFabric::new(Topology::from_datacenter(dc, config), config)
    }

    /// Schedules a `src → dst` transfer of `bytes` starting at `at`;
    /// ids are assigned in call order, as the product does.
    pub fn schedule_flow(
        &mut self,
        at: SimTime,
        src: ServerId,
        dst: ServerId,
        bytes: u64,
        tag: u64,
    ) -> FlowId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(
            id,
            Pending {
                at,
                src,
                dst,
                bytes,
                tag,
            },
        );
        FlowId(id)
    }

    /// An active flow's max-min rate in bytes/s.
    pub fn flow_rate(&self, flow: FlowId) -> Option<f64> {
        self.active.get(&flow.0).map(|f| f.rate)
    }

    /// Ids of the active flows, ascending.
    pub fn active_flow_ids(&self) -> Vec<FlowId> {
        self.active.keys().map(|&id| FlowId(id)).collect()
    }

    /// Runs every event at or before `until` and returns the flows that
    /// completed.
    pub fn pump(&mut self, until: SimTime) -> Vec<FlowCompletion> {
        let mut done = Vec::new();
        loop {
            let start = self.pending.iter().map(|(&id, p)| (p.at, id)).min();
            let finish = self
                .active
                .iter()
                .filter_map(|(&id, f)| f.due.map(|t| (t, id)))
                .min();
            match (start, finish) {
                (Some((t, id)), f) if t <= until && f.is_none_or(|(ft, _)| t <= ft) => {
                    self.advance(t);
                    self.start(id, &mut done);
                }
                (_, Some((t, id))) if t <= until => {
                    self.advance(t);
                    let f = self.active.remove(&id).expect("due flow is active");
                    done.push(FlowCompletion {
                        flow: FlowId(id),
                        at: t,
                        tag: f.tag,
                        bytes: f.bytes,
                        started: f.started,
                    });
                }
                _ => return done,
            }
            self.refill();
        }
    }

    /// Runs to quiescence.
    pub fn drain(&mut self) -> Vec<FlowCompletion> {
        self.pump(SimTime::MAX)
    }

    /// Takes a link down at `now` for good: flows crossing it (active,
    /// then scheduled) abort and their tags are returned.
    pub fn set_link_down(&mut self, now: SimTime, link: LinkId) -> Vec<u64> {
        if !self.link_up[link.0 as usize] {
            return Vec::new();
        }
        self.advance(now);
        self.link_up[link.0 as usize] = false;
        let mut tags: Vec<u64> = Vec::new();
        self.active.retain(|_, f| {
            let crosses = f.path.contains(&link);
            if crosses {
                tags.push(f.tag);
            }
            !crosses
        });
        let topo = &self.topo;
        self.pending.retain(|_, p| {
            let crosses = topo.path(p.src, p.dst).contains(&link);
            if crosses {
                tags.push(p.tag);
            }
            !crosses
        });
        self.refill();
        tags
    }

    fn capacity(&self, link: LinkId) -> f64 {
        if self.link_up[link.0 as usize] {
            self.topo.capacity(link)
        } else {
            0.0
        }
    }

    /// Moves every active flow's progress to `t` at its current rate.
    fn advance(&mut self, t: SimTime) {
        let dt = t.since(self.now).as_secs_f64();
        for f in self.active.values_mut() {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.now = t;
    }

    fn start(&mut self, id: u64, done: &mut Vec<FlowCompletion>) {
        let p = self.pending.remove(&id).expect("scheduled flow");
        let path = self.topo.path(p.src, p.dst);
        if path.is_empty() {
            // A local copy never touches the fabric.
            done.push(FlowCompletion {
                flow: FlowId(id),
                at: self.now,
                tag: p.tag,
                bytes: p.bytes,
                started: self.now,
            });
            return;
        }
        let bottleneck = path
            .iter()
            .map(|&l| self.capacity(l))
            .fold(f64::INFINITY, f64::min);
        let latency = self.hop_latency.mul_f64(path.len() as f64);
        self.active.insert(
            id,
            Flow {
                tag: p.tag,
                bytes: p.bytes,
                started: self.now,
                remaining: p.bytes as f64 + latency.as_secs_f64() * bottleneck,
                path,
                rate: 0.0,
                due: None,
            },
        );
    }

    /// Progressive filling over every active flow: repeatedly take the
    /// link with the smallest fair share of its spare capacity (lowest
    /// id on ties), freeze its unfrozen flows (ascending id) at that
    /// share, and charge the share to every link they cross. Then
    /// re-predict every completion.
    fn refill(&mut self) {
        let mut on: BTreeMap<LinkId, Vec<u64>> = BTreeMap::new();
        for (&id, f) in &self.active {
            for &l in &f.path {
                on.entry(l).or_default().push(id);
            }
        }
        let links: Vec<LinkId> = on.keys().copied().collect();
        let mut spare: Vec<f64> = links.iter().map(|&l| self.capacity(l)).collect();
        let mut unfrozen: Vec<usize> = on.values().map(Vec::len).collect();
        let mut rates: BTreeMap<u64, f64> = BTreeMap::new();
        while rates.len() < self.active.len() {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..links.len() {
                if unfrozen[i] > 0 {
                    let share = spare[i] / unfrozen[i] as f64;
                    if best.is_none_or(|(s, _)| share < s) {
                        best = Some((share, i));
                    }
                }
            }
            let (share, b) = best.expect("an unfrozen flow crosses some link");
            let share = share.max(0.0);
            for &id in &on[&links[b]] {
                if rates.contains_key(&id) {
                    continue;
                }
                rates.insert(id, share);
                for l in &self.active[&id].path {
                    let i = links.binary_search(l).expect("crossed link");
                    spare[i] = (spare[i] - share).max(0.0);
                    unfrozen[i] -= 1;
                }
            }
        }
        let now = self.now;
        for (id, f) in self.active.iter_mut() {
            f.rate = rates[id];
            f.due = (f.rate > 0.0).then(|| now + SimDuration::from_secs_f64(f.remaining / f.rate));
        }
    }
}

/// The fabric's oracle tests on fixed inputs (the randomized ones live
/// in the workspace's `tests/properties.rs`): `harvest_net::Fabric`,
/// whichever sharing tier serves it, against the reference filling.
#[cfg(test)]
mod tests {
    use super::*;
    use harvest_net::Fabric;
    use harvest_trace::datacenter::DatacenterProfile;

    const MB: u64 = 1024 * 1024;

    fn dc() -> Datacenter {
        Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 42)
    }

    fn by_rack(dc: &Datacenter, r: u32) -> Vec<ServerId> {
        dc.servers
            .iter()
            .filter(|s| s.rack.0 == r)
            .map(|s| s.id)
            .collect()
    }

    /// Builds the product fabric and the reference over `dc`, schedules
    /// the same `(at, src, dst, bytes, tag)` flows on both.
    fn pair(
        dc: &Datacenter,
        flows: &[(SimTime, ServerId, ServerId, u64, u64)],
    ) -> (Fabric, OracleFabric) {
        let net = NetworkConfig::datacenter();
        let mut f = Fabric::from_datacenter(dc, &net);
        let mut o = OracleFabric::from_datacenter(dc, &net);
        for &(at, src, dst, bytes, tag) in flows {
            assert_eq!(
                f.schedule_flow(at, src, dst, bytes, tag),
                o.schedule_flow(at, src, dst, bytes, tag)
            );
        }
        (f, o)
    }

    /// Every active flow's rate bits, ascending by id.
    fn rates(ids: Vec<FlowId>, rate: impl Fn(FlowId) -> Option<f64>) -> Vec<(u64, u64)> {
        ids.into_iter()
            .map(|id| (id.0, rate(id).expect("active").to_bits()))
            .collect()
    }

    /// A completion schedule sorted by (time, tag): same-millisecond
    /// completions may pop in a different order.
    fn schedule(done: Vec<FlowCompletion>) -> Vec<(SimTime, u64)> {
        let mut ends: Vec<(SimTime, u64)> = done.into_iter().map(|c| (c.at, c.tag)).collect();
        ends.sort_unstable();
        ends
    }

    /// Component-scoped re-sharing (with the analytic tier on whatever
    /// it classifies single-bottleneck) allocates what the global
    /// filling does — rates bitwise mid-run, every completion at the
    /// same instant — on a mixed workload of arbitrary pairs.
    #[test]
    fn component_scope_matches_global_scope() {
        let dc = dc();
        let n = dc.n_servers();
        let flows: Vec<_> = (0..40u64)
            .map(|i| {
                (
                    SimTime::from_millis(i * 23),
                    dc.servers[(i as usize * 13) % n].id,
                    dc.servers[(i as usize * 7 + 1) % n].id,
                    (i % 64 + 1) * 4 * MB,
                    i,
                )
            })
            .collect();
        let (mut f, mut o) = pair(&dc, &flows);
        let mut ends_f = f.pump(SimTime::from_millis(300));
        let mut ends_o = o.pump(SimTime::from_millis(300));
        assert_eq!(
            rates(f.active_flow_ids(), |id| f.flow_rate(id)),
            rates(o.active_flow_ids(), |id| o.flow_rate(id)),
            "mid-run rates diverged"
        );
        ends_f.extend(f.drain());
        ends_o.extend(o.drain());
        assert_eq!(
            schedule(ends_f),
            schedule(ends_o),
            "completion schedules diverged"
        );
    }

    /// A rack-pair convoy (every flow through one oversubscribed
    /// uplink) classifies single-bottleneck, is served analytically,
    /// migrates back to filling when the population shrinks until the
    /// NICs bind — and the whole trajectory is exactly the reference
    /// filling's.
    #[test]
    fn storm_promotes_and_matches_filling_exactly() {
        let dc = dc();
        let (rack0, rack1) = (by_rack(&dc, 0), by_rack(&dc, 1));
        assert!(rack0.len() >= 12 && rack1.len() >= 12);
        let flows: Vec<_> = (0..12u64)
            .map(|i| {
                (
                    SimTime::from_millis(i * 7),
                    rack0[i as usize],
                    rack1[i as usize],
                    64 * MB,
                    i,
                )
            })
            .collect();
        let (mut f, mut o) = pair(&dc, &flows);
        assert_eq!(
            schedule(f.drain()),
            schedule(o.drain()),
            "analytic schedule diverged"
        );
        let stats = f.stats();
        assert_eq!(stats.completed, 12);
        assert!(
            stats.analytic_components >= 1,
            "storm never classified single-bottleneck: {stats:?}"
        );
        assert!(stats.analytic_events > 0);
        assert!(
            stats.fallback_migrations >= 1,
            "NIC-bound tail never migrated: {stats:?}"
        );
    }

    /// Mid-run rate allocations under the analytic tier are bitwise the
    /// reference filling's, and so is the completion schedule.
    #[test]
    fn analytic_rates_match_global_bitwise() {
        let dc = dc();
        let (rack0, rack1) = (by_rack(&dc, 0), by_rack(&dc, 1));
        let flows: Vec<_> = (0..10u64)
            .map(|i| {
                (
                    SimTime::from_millis(i * 5),
                    rack0[i as usize],
                    rack1[i as usize],
                    256 * MB,
                    i,
                )
            })
            .collect();
        let (mut f, mut o) = pair(&dc, &flows);
        let mut ends_f = f.pump(SimTime::from_millis(60));
        let mut ends_o = o.pump(SimTime::from_millis(60));
        assert!(f.stats().analytic_components >= 1, "convoy never promoted");
        assert_eq!(
            rates(f.active_flow_ids(), |id| f.flow_rate(id)),
            rates(o.active_flow_ids(), |id| o.flow_rate(id)),
            "mid-run rates diverged bitwise"
        );
        ends_f.extend(f.drain());
        ends_o.extend(o.drain());
        assert_eq!(
            schedule(ends_f),
            schedule(ends_o),
            "completion schedules diverged"
        );
    }

    /// The fault-interplay regression: an uplink going down mid-storm
    /// invalidates the analytic classification. The group must migrate
    /// its state exactly — crossing flows abort (as the reference
    /// aborts them), survivors re-promote under the new shape, and no
    /// flow is lost or double-completed.
    #[test]
    fn uplink_down_mid_storm_migrates_exactly() {
        let dc = dc();
        let (rack0, rack1, rack2) = (by_rack(&dc, 0), by_rack(&dc, 1), by_rack(&dc, 2));
        // 8 flows to rack 1 and 8 to rack 2, all through rack 0's
        // uplink: one single-bottleneck component of 16.
        let mut flows = Vec::new();
        for i in 0..8usize {
            flows.push((SimTime::ZERO, rack0[i], rack1[i], 256 * MB, i as u64));
            flows.push((
                SimTime::ZERO,
                rack0[8 + i],
                rack2[i],
                256 * MB,
                100 + i as u64,
            ));
        }
        let (mut f, mut o) = pair(&dc, &flows);
        let at = SimTime::from_millis(50);
        assert!(f.pump(at).is_empty() && o.pump(at).is_empty());
        // Rack 1's downlink dies mid-storm.
        let down = f.topology().rack_down(1);
        let mut ab_f = f.set_link_down(at, down);
        let mut ab_o = o.set_link_down(at, down);
        ab_f.sort_unstable();
        ab_o.sort_unstable();
        assert_eq!(ab_f, ab_o, "abort sets diverged");
        let ends = schedule(f.drain());
        assert_eq!(ends, schedule(o.drain()), "survivor schedules diverged");
        // Conservation: every scheduled flow either completed once or
        // aborted once — none lost, none double-completed.
        let stats = f.stats();
        assert_eq!(ab_f.len(), 8, "expected the rack-1 half to abort");
        assert_eq!((stats.completed, stats.flows_aborted), (8, 8));
        let mut seen: Vec<u64> = ends.iter().map(|&(_, tag)| tag).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "a survivor completed twice");
        // The fault really did hit a live analytic group, and the
        // survivors re-promoted afterwards.
        assert!(stats.fallback_migrations >= 1, "{stats:?}");
        assert!(stats.analytic_components >= 2, "{stats:?}");
    }
}
