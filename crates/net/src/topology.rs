//! The fabric's link graph, derived from a datacenter's rack layout.

use harvest_cluster::datacenter::RACK_SIZE;
use harvest_cluster::{Datacenter, ServerId};

use crate::config::NetworkConfig;

/// Identifies a directed link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// The (at most four) links a flow traverses, inline — the hierarchical
/// topology never produces longer paths, so the fabric's hot path can
/// carry one of these per flow without a heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    links: [LinkId; 4],
    len: u8,
}

impl Path {
    fn new(links: &[LinkId]) -> Self {
        debug_assert!(links.len() <= 4, "paths are at most 4 hops");
        let mut buf = [LinkId(0); 4];
        buf[..links.len()].copy_from_slice(links);
        Path {
            links: buf,
            len: links.len() as u8,
        }
    }

    /// The links, in traversal order.
    pub(crate) fn as_slice(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Number of hops (0 for a local copy).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the path is empty (source and destination coincide).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Path {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a LinkId;
    type IntoIter = std::slice::Iter<'a, LinkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The hierarchical topology: every server hangs off its rack's ToR
/// switch through a full-duplex NIC link, and every ToR reaches the
/// (non-blocking) aggregation/core tier through an oversubscribed uplink
/// pair.
///
/// Links are directed. Layout, for `n` servers and `r` racks:
///
/// * `[0, n)` — server transmit (server → ToR);
/// * `[n, 2n)` — server receive (ToR → server);
/// * `[2n, 2n + r)` — rack uplink (ToR → core);
/// * `[2n + r, 2n + 2r)` — rack downlink (core → ToR).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Per-link capacity in bytes per second.
    capacity: Vec<f64>,
    /// Rack of each server.
    rack_of: Vec<u32>,
    n_servers: u32,
    n_racks: u32,
    /// Fixed per-hop latency.
    hop_latency_ms: f64,
}

impl Topology {
    /// Builds the fabric for `dc` under `config`.
    ///
    /// Rack membership comes from the datacenter's own layout
    /// ([`harvest_cluster::Server::rack`]); rack uplink capacity is
    /// `RACK_SIZE * nic / oversubscription` regardless of how full the
    /// last rack is, as real ToRs are provisioned for full racks.
    ///
    /// # Panics
    ///
    /// Panics if the datacenter has no servers or the config is invalid.
    pub fn from_datacenter(dc: &Datacenter, config: &NetworkConfig) -> Self {
        config.validate();
        let n = dc.n_servers() as u32;
        assert!(n > 0, "cannot build a fabric over zero servers");
        let r = dc.n_racks() as u32;
        let nic = config.nic_bytes_per_sec();
        let uplink = nic * RACK_SIZE as f64 / config.oversubscription;

        let mut capacity = Vec::with_capacity((2 * n + 2 * r) as usize);
        capacity.extend(std::iter::repeat_n(nic, 2 * n as usize));
        capacity.extend(std::iter::repeat_n(uplink, 2 * r as usize));

        Topology {
            capacity,
            rack_of: dc.servers.iter().map(|s| s.rack.0).collect(),
            n_servers: n,
            n_racks: r,
            hop_latency_ms: config.hop_latency_ms,
        }
    }

    /// A synthetic topology of `n_servers` in full racks of
    /// [`RACK_SIZE`], without generating a [`Datacenter`] (no tenants,
    /// no utilization traces). Link layout and capacities are identical
    /// to [`Topology::from_datacenter`] over a datacenter of the same
    /// size — this is how the benches build unscaled DC-sized fabrics
    /// cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `n_servers` is zero or the config is invalid.
    pub fn synthetic(n_servers: usize, config: &NetworkConfig) -> Self {
        config.validate();
        assert!(n_servers > 0, "cannot build a fabric over zero servers");
        let n = n_servers as u32;
        let r = n.div_ceil(RACK_SIZE);
        let nic = config.nic_bytes_per_sec();
        let uplink = nic * RACK_SIZE as f64 / config.oversubscription;

        let mut capacity = Vec::with_capacity((2 * n + 2 * r) as usize);
        capacity.extend(std::iter::repeat_n(nic, 2 * n as usize));
        capacity.extend(std::iter::repeat_n(uplink, 2 * r as usize));

        Topology {
            capacity,
            rack_of: (0..n).map(|s| s / RACK_SIZE).collect(),
            n_servers: n,
            n_racks: r,
            hop_latency_ms: config.hop_latency_ms,
        }
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.n_servers as usize
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        self.n_racks as usize
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of a link in bytes per second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacity[link.0 as usize]
    }

    /// The rack a server sits in.
    pub(crate) fn rack_of(&self, server: ServerId) -> u32 {
        self.rack_of[server.0 as usize]
    }

    /// The server's transmit link (server → ToR).
    pub fn server_tx(&self, server: ServerId) -> LinkId {
        LinkId(server.0)
    }

    /// The server's receive link (ToR → server).
    pub(crate) fn server_rx(&self, server: ServerId) -> LinkId {
        LinkId(self.n_servers + server.0)
    }

    /// A rack's uplink (ToR → core).
    pub(crate) fn rack_up(&self, rack: u32) -> LinkId {
        LinkId(2 * self.n_servers + rack)
    }

    /// A rack's downlink (core → ToR).
    pub fn rack_down(&self, rack: u32) -> LinkId {
        LinkId(2 * self.n_servers + self.n_racks + rack)
    }

    /// The directed path a `src → dst` flow traverses. Empty when source
    /// and destination are the same server (a local copy never touches
    /// the fabric); two links within a rack; four links across racks.
    pub fn path(&self, src: ServerId, dst: ServerId) -> Vec<LinkId> {
        self.path_links(src, dst).as_slice().to_vec()
    }

    /// Allocation-free variant of [`Topology::path`] for hot paths: the
    /// fabric stores one [`Path`] per flow and builds its inverted
    /// link → flows index from it.
    pub(crate) fn path_links(&self, src: ServerId, dst: ServerId) -> Path {
        if src == dst {
            return Path::new(&[]);
        }
        let (sr, dr) = (self.rack_of(src), self.rack_of(dst));
        if sr == dr {
            Path::new(&[self.server_tx(src), self.server_rx(dst)])
        } else {
            Path::new(&[
                self.server_tx(src),
                self.rack_up(sr),
                self.rack_down(dr),
                self.server_rx(dst),
            ])
        }
    }

    /// Transfer time of `bytes` over an otherwise-idle fabric, in
    /// seconds: bandwidth term plus per-hop latency. This is the static
    /// estimate consumers use when they only need a latency, not
    /// contention (e.g. scoring a remote read). Allocation-free — it is
    /// called once per simulated read in hot loops.
    pub fn idle_transfer_secs(&self, src: ServerId, dst: ServerId, bytes: u64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let (sr, dr) = (self.rack_of(src), self.rack_of(dst));
        let mut bw = self
            .capacity(self.server_tx(src))
            .min(self.capacity(self.server_rx(dst)));
        let hops = if sr == dr {
            2.0
        } else {
            bw = bw
                .min(self.capacity(self.rack_up(sr)))
                .min(self.capacity(self.rack_down(dr)));
            4.0
        };
        bytes as f64 / bw + hops * self.hop_latency_ms / 1_000.0
    }

    /// An upper bound on [`Topology::idle_transfer_secs`] for `bytes`
    /// over any server pair: the slowest link in the fabric plus the
    /// full four-hop path. Used to size latency histograms.
    pub fn max_idle_transfer_secs(&self, bytes: u64) -> f64 {
        let min_bw = self.capacity.iter().copied().fold(f64::INFINITY, f64::min);
        bytes as f64 / min_bw + 4.0 * self.hop_latency_ms / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;

    impl Topology {
        /// The bottleneck capacity of the `src → dst` path in bytes/s
        /// (`f64::INFINITY` for a local copy).
        fn path_capacity(&self, src: ServerId, dst: ServerId) -> f64 {
            self.path(src, dst)
                .into_iter()
                .map(|l| self.capacity(l))
                .fold(f64::INFINITY, f64::min)
        }
    }

    fn topo() -> (Datacenter, Topology) {
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 42);
        let t = Topology::from_datacenter(&dc, &NetworkConfig::datacenter());
        (dc, t)
    }

    #[test]
    fn link_layout_covers_everything() {
        let (dc, t) = topo();
        assert_eq!(t.n_servers(), dc.n_servers());
        assert_eq!(t.n_racks(), dc.n_racks());
        assert_eq!(t.n_links(), 2 * dc.n_servers() + 2 * dc.n_racks());
        // Every helper returns a distinct in-range link.
        let mut seen = std::collections::HashSet::new();
        for s in 0..dc.n_servers() as u32 {
            assert!(seen.insert(t.server_tx(ServerId(s))));
            assert!(seen.insert(t.server_rx(ServerId(s))));
        }
        for r in 0..dc.n_racks() as u32 {
            assert!(seen.insert(t.rack_up(r)));
            assert!(seen.insert(t.rack_down(r)));
        }
        assert_eq!(seen.len(), t.n_links());
        assert!(seen.iter().all(|l| (l.0 as usize) < t.n_links()));
    }

    #[test]
    fn paths_follow_the_hierarchy() {
        let (dc, t) = topo();
        // Same server: no fabric.
        assert!(t.path(ServerId(0), ServerId(0)).is_empty());
        // Same rack: two links.
        let same_rack = dc
            .servers
            .iter()
            .find(|s| s.id.0 != 0 && s.rack == dc.servers[0].rack)
            .expect("rack has a second server");
        assert_eq!(t.path(ServerId(0), same_rack.id).len(), 2);
        // Cross rack: four links, including both rack links.
        let other_rack = dc
            .servers
            .iter()
            .find(|s| s.rack != dc.servers[0].rack)
            .expect("dc has a second rack");
        let path = t.path(ServerId(0), other_rack.id);
        assert_eq!(path.len(), 4);
        assert!(path.contains(&t.rack_up(t.rack_of(ServerId(0)))));
        assert!(path.contains(&t.rack_down(t.rack_of(other_rack.id))));
    }

    #[test]
    fn synthetic_matches_datacenter_layout() {
        let (dc, t) = topo();
        let s = Topology::synthetic(dc.n_servers(), &NetworkConfig::datacenter());
        assert_eq!(s.n_servers(), t.n_servers());
        // Rack count can differ by partial trailing racks, but link
        // capacities and path shapes agree for any server pair.
        let a = ServerId(0);
        let b = ServerId(dc.n_servers() as u32 - 1);
        assert_eq!(s.path(a, b).len(), 4);
        assert_eq!(s.capacity(s.server_tx(a)), t.capacity(t.server_tx(a)));
        assert_eq!(s.capacity(s.rack_up(0)), t.capacity(t.rack_up(0)));
        assert_eq!(s.path_capacity(a, b), t.path_capacity(a, b));
    }

    #[test]
    fn path_links_agrees_with_path() {
        let (dc, t) = topo();
        for (i, j) in [(0usize, 0usize), (0, 1), (0, dc.n_servers() - 1)] {
            let a = ServerId(i as u32);
            let b = ServerId(j as u32);
            assert_eq!(t.path(a, b), t.path_links(a, b).as_slice().to_vec());
        }
    }

    #[test]
    fn oversubscription_shrinks_uplinks() {
        let (dc, _) = topo();
        let tight = Topology::from_datacenter(
            &dc,
            &NetworkConfig {
                oversubscription: 8.0,
                ..NetworkConfig::datacenter()
            },
        );
        let loose = Topology::from_datacenter(&dc, &NetworkConfig::non_blocking());
        assert!(tight.capacity(tight.rack_up(0)) < loose.capacity(loose.rack_up(0)));
        // NICs are unaffected by oversubscription.
        assert_eq!(
            tight.capacity(tight.server_tx(ServerId(0))),
            loose.capacity(loose.server_tx(ServerId(0)))
        );
    }

    #[test]
    fn idle_transfer_times_are_ordered_by_distance() {
        let (dc, t) = topo();
        let same_rack = dc
            .servers
            .iter()
            .find(|s| s.id.0 != 0 && s.rack == dc.servers[0].rack)
            .unwrap()
            .id;
        let other_rack = dc
            .servers
            .iter()
            .find(|s| s.rack != dc.servers[0].rack)
            .unwrap()
            .id;
        let bytes = 256 * 1024 * 1024;
        let local = t.idle_transfer_secs(ServerId(0), ServerId(0), bytes);
        let rack = t.idle_transfer_secs(ServerId(0), same_rack, bytes);
        let cross = t.idle_transfer_secs(ServerId(0), other_rack, bytes);
        assert_eq!(local, 0.0);
        assert!(rack > 0.0);
        assert!(cross > rack, "cross-rack {cross} <= in-rack {rack}");
        // 256 MB at 10 Gb/s is ~0.21 s.
        assert!((0.2..0.3).contains(&rack), "in-rack transfer {rack}s");
    }
}
