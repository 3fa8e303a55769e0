//! Pins every placement policy's exact output and RNG consumption.
//!
//! Each run fills a store with 5k blocks, then reimages 50 servers and
//! re-places every surviving affected replica. The run is folded into
//! one FNV-1a hash: every returned server, a marker for each failed
//! placement, and one final draw from the RNG — so a change that keeps
//! the placements but shifts the draw order still breaks the pin.

use harvest_cluster::{Datacenter, ServerId};
use harvest_dfs::placement::{PlacementPolicy, Placer};
use harvest_dfs::store::BlockStore;
use harvest_sim::rng::stream_rng;
use harvest_trace::datacenter::DatacenterProfile;
use rand::RngExt;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const NONE: u64 = u64::MAX;

fn run(dc: &Datacenter, policy: PlacementPolicy, soft: bool, r: usize) -> u64 {
    let placer = Placer::new(dc, policy).with_soft_constraints(soft);
    let n = dc.n_servers();
    let busy: Vec<bool> = (0..n).map(|s| s % 7 == 3).collect();
    let busy = (policy == PlacementPolicy::PrimaryAware).then_some(busy.as_slice());
    let mut store = BlockStore::new(dc);
    let mut rng = stream_rng(r as u64, "placement-pin");
    let mut h = Fnv::new();
    for i in 0..5_000usize {
        let writer = ServerId((i * 7_919 % n) as u32);
        match placer.place_new(&mut rng, &store, writer, r, busy) {
            Some(p) => {
                for s in &p.servers {
                    h.write(s.0 as u64);
                }
                h.write(p.relaxed as u64);
                store.create_block(&p.servers);
            }
            None => h.write(NONE),
        }
    }
    for k in 0..50usize {
        let server = ServerId((k * 104_729 % n) as u32);
        for block in store.reimage_server(server) {
            if store.replica_count(block) == 0 {
                continue;
            }
            match placer.place_repair(&mut rng, &store, store.replicas(block), busy) {
                Some(dest) => {
                    h.write(dest.0 as u64);
                    store.add_replica(block, dest);
                }
                None => h.write(NONE),
            }
        }
    }
    h.write(rng.random::<u64>());
    h.0
}

#[test]
fn placement_sequences_are_pinned() {
    let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.05), 13);
    let runs = [
        ("stock", PlacementPolicy::Stock, true),
        ("primary-aware", PlacementPolicy::PrimaryAware, true),
        ("history-soft", PlacementPolicy::History, true),
        ("history-hard", PlacementPolicy::History, false),
    ];
    // Recorded before the allocation-free store and placement rewrite.
    let expected: [[u64; 3]; 4] = [
        [
            0x2a25_8c05_a457_3662,
            0xa436_dcdc_42e4_704b,
            0x2699_77ad_b989_2248,
        ],
        [
            0x21d2_692d_da5c_02c3,
            0x8783_5369_f48d_eaa6,
            0xd0d7_c444_4fc0_bb89,
        ],
        [
            0xef39_71f7_a493_88ce,
            0x35b7_08f5_ac62_d2fe,
            0x0ade_c60f_0b31_c8c8,
        ],
        [
            0x482f_74a6_c755_8da2,
            0xf7ef_8640_e13f_b56e,
            0xaf1b_8d42_ed03_bf81,
        ],
    ];
    let mut got = [[0u64; 3]; 4];
    for (i, &(_, policy, soft)) in runs.iter().enumerate() {
        for (j, r) in (3..=5).enumerate() {
            got[i][j] = run(&dc, policy, soft, r);
        }
    }
    for (i, (name, _, _)) in runs.iter().enumerate() {
        for (j, r) in (3..=5).enumerate() {
            assert_eq!(
                got[i][j], expected[i][j],
                "{name} R={r} drifted; all runs: {got:#x?}"
            );
        }
    }
}
