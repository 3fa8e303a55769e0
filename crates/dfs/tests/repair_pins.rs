//! Pins the repair path's exact output: reimage storms and durability
//! runs across every transfer model, stream cap, placement policy,
//! replication factor and fault profile.
//!
//! Each case folds its whole result into one FNV-1a hash: the result's
//! `Debug` text (every counter, the fabric and disk statistics, and the
//! floats in their shortest round-trip form), the bits of its float
//! fields, and — for a storm with a transfer model — the `dfs/repair`
//! blame line of its recorded trace. A change to how repairs are
//! queued, placed, transferred or landed moves a hash.

use harvest_cluster::Datacenter;
use harvest_dfs::durability::{simulate_durability, DurabilityConfig};
use harvest_dfs::placement::PlacementPolicy;
use harvest_dfs::repair::{simulate_reimage_storm_recorded, StormConfig};
use harvest_disk::DiskConfig;
use harvest_net::NetworkConfig;
use harvest_sim::fault::FaultProfile;
use harvest_sim::obs::{analyze, Recorder};
use harvest_sim::SimDuration;
use harvest_trace::datacenter::DatacenterProfile;

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One recorded storm on DC-9 ×0.02 (largest tenant): the result and
/// its `dfs/repair` blame line, hashed. Capped storms lift the throttle
/// so that the cap binds and many slots release in the same millisecond.
fn storm_case(dc: &Datacenter, net: bool, disk: bool, cap: Option<usize>) -> u64 {
    let tenant = dc
        .tenants
        .iter()
        .max_by_key(|t| t.n_servers())
        .expect("dc has tenants")
        .id;
    let mut cfg = StormConfig::new(tenant, 3);
    cfg.fill_fraction = 0.2;
    cfg.network = net.then(NetworkConfig::datacenter);
    cfg.disk = disk.then(DiskConfig::datacenter);
    cfg.max_repair_streams = cap;
    if cap.is_some() {
        cfg.repair.blocks_per_server_per_hour = 100_000.0;
    }
    let mut rec = Recorder::new("repair-pin");
    let r = simulate_reimage_storm_recorded(dc, &cfg, &mut rec);
    let analysis = analyze::analyze_recorder(&rec).expect("storm trace analyzes");
    let blame = analysis
        .states
        .iter()
        .find(|s| s.name == "dfs/repair")
        .map(|s| s.blame_line())
        .unwrap_or_default();
    fnv(&format!(
        "{r:?} {:016x} {blame}",
        r.mean_transfer_secs.to_bits()
    ))
}

/// One two-month durability run on DC-3 ×0.02 over the fabric and the
/// disks under a fault profile, hashed.
fn durability_case(
    dc: &Datacenter,
    policy: PlacementPolicy,
    replication: usize,
    profile: FaultProfile,
) -> u64 {
    let mut cfg = DurabilityConfig::paper(policy, replication, 5);
    cfg.months = 2;
    cfg.network = Some(NetworkConfig::datacenter());
    cfg.disk = Some(DiskConfig::datacenter());
    cfg.faults = profile.plan(5, dc.cluster_shape(), SimDuration::from_days(60));
    let r = simulate_durability(dc, &cfg, &mut Recorder::off());
    fnv(&format!("{r:?} {:016x}", r.lost_percent.to_bits()))
}

#[test]
fn repair_drivers_are_pinned() {
    let dc9 = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.02), 17);
    let mut storms = Vec::new();
    for (net, disk) in [(false, false), (true, false), (false, true), (true, true)] {
        for cap in [None, Some(64)] {
            storms.push(storm_case(&dc9, net, disk, cap));
        }
    }

    let dc3 = Datacenter::generate(&DatacenterProfile::dc(3).scaled(0.02), 23);
    let mut durability = Vec::new();
    for policy in [PlacementPolicy::History, PlacementPolicy::Stock] {
        for replication in [3, 4] {
            for profile in FaultProfile::ALL {
                durability.push(durability_case(&dc3, policy, replication, profile));
            }
        }
    }

    assert_eq!(
        storms,
        [
            0x3fef_f794_d0e4_3bee,
            0xff83_d52f_d1e3_7930,
            0xd74e_65a5_8a13_914f,
            0x4f47_4952_507b_3e32,
            0x6b13_64b2_188b_fe6f,
            0x9065_6806_baf9_d99a,
            0x75ed_165b_eea0_2cb9,
            0x981c_8fde_c21e_4c0e,
        ],
        "storm fingerprints moved"
    );
    assert_eq!(
        durability,
        [
            0xcaf9_b3b1_f733_31bc,
            0x0655_483d_5ec1_8058,
            0x12d6_5642_f1e6_9699,
            0x8ea7_e4db_c369_435d,
            0x4990_24e3_4447_b0aa,
            0x5ff5_fcce_9cf3_8b21,
            0x6c38_1caf_fcf9_6d0c,
            0x7ce4_07df_1c1a_18f2,
            0x96ad_65d2_0506_3c7e,
            0x41bd_63dd_0095_c5a0,
            0xda46_f2b8_7c8b_b9af,
            0xb566_3f9d_50c8_c31c,
            0xa713_575e_3d4a_ff89,
            0x0b4a_4bed_be99_d659,
            0x282c_b58d_9065_c57a,
            0xf9aa_8ba3_111e_9ea1,
        ],
        "durability fingerprints moved"
    );
}
