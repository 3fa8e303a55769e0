//! Heartbeat-thread behaviour under primary I/O pressure (§7, lesson 2).
//!
//! "The manager throttles the secondary tenants' disk activity when the
//! primary tenant performs substantial disk I/O. This caused the DN
//! heartbeats on these servers to stop flowing, as the heartbeat thread
//! does synchronous I/O to get the status of modified blocks and free
//! space. As a result, the NN started a replication storm for data that
//! it thought was lost. We then changed the heartbeat thread to become
//! asynchronous and report the status that it most recently found."
//!
//! [`replay_heartbeats_disk`] replays that incident over a modeled
//! [`harvest_disk::DiskPool`]: the heartbeat thread's synchronous status
//! read is a real secondary stream on the DataNode's disk, the primary's
//! I/O pressure comes from a utilization trace through the configured
//! util→demand mapping, and a missed timeout is an *emergent*
//! consequence of the throttle policy parking the status read — exactly
//! the production failure chain. Figure 15's `--disk` report carries one
//! such replay as a note.

use harvest_cluster::ServerId;
use harvest_disk::{DiskConfig, DiskPool, IoDir, MIN_SERVE_FRACTION};
use harvest_sim::{SimDuration, SimTime};

/// How the data node's heartbeat thread gathers block status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatMode {
    /// The heartbeat thread performs synchronous disk I/O; when the
    /// primary's I/O is throttling secondaries, the heartbeat blocks.
    Synchronous,
    /// The heartbeat thread reports the most recent status it has and
    /// never blocks on disk I/O.
    Asynchronous,
}

/// Interval between heartbeats (HDFS default: 3 s).
const INTERVAL: SimDuration = SimDuration::from_secs(3);

/// Silence after which the NN declares the DN dead (~10 min).
const DEAD_AFTER: SimDuration = SimDuration::from_mins(10);

/// Result of replaying one data node's heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatOutcome {
    /// Heartbeats that should have been sent.
    pub expected: u64,
    /// Heartbeats that actually flowed.
    pub delivered: u64,
    /// Heartbeats whose status payload was stale (asynchronous mode
    /// during throttling).
    pub stale: u64,
    /// Whether the NN declared the node dead at any point (and so
    /// started re-replicating every block it holds).
    pub declared_dead: bool,
}

/// Bytes the heartbeat thread's synchronous status scan reads (modified
/// block metadata plus the free-space probe — small next to a block,
/// large next to a throttled disk).
const STATUS_SCAN_BYTES: u64 = 8_000_000;

/// Builds a primary CPU-utilization trace: `total` intervals at
/// `idle_util` with one solid burst of `burst` intervals at
/// `burst_util` starting at `start`.
pub fn util_burst_trace(
    total: usize,
    start: usize,
    burst: usize,
    idle_util: f64,
    burst_util: f64,
) -> Vec<f64> {
    (0..total)
        .map(|i| {
            if i >= start && i < start + burst {
                burst_util
            } else {
                idle_util
            }
        })
        .collect()
}

/// Replays one data node's heartbeats against a modeled disk.
///
/// `primary_util` gives the node's primary CPU utilization per 3 s
/// heartbeat interval; `disk` maps it to disk demand and applies the
/// isolation manager. The NN declares the node dead after 10 minutes of
/// silence. In [`HeartbeatMode::Synchronous`] the heartbeat thread
/// issues an 8 MB status read on the node's disk as a
/// *secondary* stream and the heartbeat only flows when the read
/// completes — a beat whose scheduled instant passes while the thread is
/// still blocked is missed outright. In [`HeartbeatMode::Asynchronous`]
/// (the paper's fix) every beat flows on time carrying the most recent
/// status, stale whenever the status scan is being starved.
///
/// Whether the node gets declared dead is therefore decided by the
/// interplay of the [`harvest_disk::ThrottlePolicy`] and the heartbeat
/// mode, not by a scripted throttling flag.
pub fn replay_heartbeats_disk(
    mode: HeartbeatMode,
    disk: &DiskConfig,
    primary_util: &[f64],
) -> HeartbeatOutcome {
    let node = ServerId(0);
    let n = primary_util.len();
    if n == 0 {
        return HeartbeatOutcome {
            expected: 0,
            delivered: 0,
            stale: 0,
            declared_dead: false,
        };
    }
    let end = SimTime::ZERO + INTERVAL.mul_f64(n as f64);
    let expected = n as u64;
    let mut delivered = 0u64;
    let mut stale = 0u64;
    let mut last_heard = SimTime::ZERO;
    let mut declared_dead = false;
    let check = |heard_at: SimTime, last: &mut SimTime, dead: &mut bool| {
        if heard_at.since(*last) >= DEAD_AFTER {
            *dead = true;
        }
        *last = heard_at;
    };

    match mode {
        HeartbeatMode::Asynchronous => {
            // The fixed thread never touches the disk on the heartbeat
            // path: every beat flows at its scheduled instant. Its
            // payload is stale whenever the background status scan is
            // starved below a usable share.
            for (i, &util) in primary_util.iter().enumerate() {
                let now = SimTime::ZERO + INTERVAL.mul_f64((i + 1) as f64);
                delivered += 1;
                let fraction = disk
                    .primary
                    .demand_fraction(harvest_signal::classify::UtilizationPattern::Constant, util);
                if disk.throttle.secondary_fraction(fraction) < MIN_SERVE_FRACTION {
                    stale += 1;
                }
                check(now, &mut last_heard, &mut declared_dead);
            }
        }
        HeartbeatMode::Synchronous => {
            let mut pool = DiskPool::new(1, disk);
            pool.set_primary_util(SimTime::ZERO, node, primary_util[0]);
            // Index of the next utilization boundary to apply (sample i
            // takes effect at i * interval; sample 0 applied above).
            let mut next_util = 1usize;
            let mut free_at = SimTime::ZERO;
            for k in 1..=n {
                let t_k = SimTime::ZERO + INTERVAL.mul_f64(k as f64);
                if t_k < free_at {
                    continue; // thread still blocked: this beat is missed
                }
                // Apply utilization samples up to the issue instant.
                while next_util < n {
                    let t_u = SimTime::ZERO + INTERVAL.mul_f64(next_util as f64);
                    if t_u > t_k {
                        break;
                    }
                    pool.pump(t_u);
                    pool.set_primary_util(t_u, node, primary_util[next_util]);
                    next_util += 1;
                }
                pool.pump(t_k);
                let scan =
                    pool.schedule_stream(t_k, node, IoDir::Read, STATUS_SCAN_BYTES, k as u64);
                // Run the disk forward — interleaving future utilization
                // changes — until the scan lands, or the trace runs out
                // of utilization changes with the thread still parked.
                let done_at = loop {
                    let t_disk = pool.next_event_time().expect("scan in flight");
                    let t_u =
                        (next_util < n).then(|| SimTime::ZERO + INTERVAL.mul_f64(next_util as f64));
                    if let Some(t_u) = t_u.filter(|&t_u| t_u < t_disk) {
                        pool.pump(t_u);
                        pool.set_primary_util(t_u, node, primary_util[next_util]);
                        next_util += 1;
                        continue;
                    }
                    if t_u.is_none() && pool.stream_rate(scan) == Some(0.0) {
                        break None; // starved with nothing left to rescue it
                    }
                    if let Some(c) = pool.pump(t_disk).into_iter().find(|c| c.tag == k as u64) {
                        break Some(c.at);
                    }
                };
                let Some(done_at) = done_at else {
                    break; // the thread never unblocks within the trace
                };
                free_at = done_at;
                delivered += 1;
                check(done_at, &mut last_heard, &mut declared_dead);
            }
        }
    }

    // The silence after the last delivered beat counts too.
    if end.since(last_heard) >= DEAD_AFTER {
        declared_dead = true;
    }

    HeartbeatOutcome {
        expected,
        delivered,
        stale,
        declared_dead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Intervals in a 12-minute burst (long enough to cross the 10-minute
    /// dead timeout).
    const LONG_BURST: usize = 240;

    /// A naive isolation manager (the paper's: secondaries pause
    /// outright) plus a synchronous heartbeat thread reproduces the
    /// production incident: the status read parks behind the throttle
    /// for the whole burst and the NN declares the node dead.
    #[test]
    fn modeled_disk_naive_throttle_causes_the_storm() {
        let trace = util_burst_trace(400, 50, LONG_BURST, 0.1, 0.9);
        let out = replay_heartbeats_disk(
            HeartbeatMode::Synchronous,
            &DiskConfig::datacenter(),
            &trace,
        );
        assert!(out.declared_dead, "sync + naive throttle must miss timeout");
        assert!(
            out.delivered < out.expected,
            "beats flowed while the disk was parked"
        );
    }

    /// The paper's fix — the heartbeat thread never blocks on disk —
    /// keeps beats flowing through the same burst, at the price of
    /// stale status while the scan is starved.
    #[test]
    fn modeled_disk_async_mode_prevents_the_storm() {
        let trace = util_burst_trace(400, 50, LONG_BURST, 0.1, 0.9);
        let out = replay_heartbeats_disk(
            HeartbeatMode::Asynchronous,
            &DiskConfig::datacenter(),
            &trace,
        );
        assert!(!out.declared_dead);
        assert_eq!(out.delivered, out.expected);
        assert_eq!(out.stale, LONG_BURST as u64);
    }

    /// A policy that never fully starves secondaries (plain fair
    /// sharing) slows the synchronous scan but never parks it: beats
    /// thin out yet the node is never silent for ten minutes.
    #[test]
    fn modeled_disk_fair_share_survives_sync_mode() {
        let trace = util_burst_trace(400, 50, LONG_BURST, 0.1, 0.9);
        let out = replay_heartbeats_disk(
            HeartbeatMode::Synchronous,
            &DiskConfig::fair_share(),
            &trace,
        );
        assert!(
            !out.declared_dead,
            "fair-share disk should keep heartbeats trickling"
        );
        assert!(out.delivered > 0);
    }

    /// A 3-minute burst is well under the 10-minute dead interval: even
    /// the synchronous thread, parked behind the throttle for the whole
    /// burst, is heard from again in time.
    #[test]
    fn modeled_disk_short_bursts_are_harmless_in_both_modes() {
        let trace = util_burst_trace(400, 50, 60, 0.1, 0.9);
        for mode in [HeartbeatMode::Synchronous, HeartbeatMode::Asynchronous] {
            let out = replay_heartbeats_disk(mode, &DiskConfig::datacenter(), &trace);
            assert!(!out.declared_dead, "{mode:?} declared dead on short burst");
            if mode == HeartbeatMode::Synchronous {
                assert!(
                    out.delivered < out.expected,
                    "the burst never parked the scan"
                );
            }
        }
    }

    /// A quiet primary delivers every beat promptly in sync mode: the
    /// scan takes ~60 ms against a 3 s interval.
    #[test]
    fn modeled_disk_quiet_primary_delivers_everything() {
        let trace = vec![0.05; 100];
        let out = replay_heartbeats_disk(
            HeartbeatMode::Synchronous,
            &DiskConfig::datacenter(),
            &trace,
        );
        assert_eq!(out.delivered, out.expected);
        assert!(!out.declared_dead);
    }

    #[test]
    fn modeled_disk_replay_is_deterministic() {
        let trace = util_burst_trace(300, 40, 200, 0.15, 0.85);
        let run = || {
            replay_heartbeats_disk(
                HeartbeatMode::Synchronous,
                &DiskConfig::datacenter(),
                &trace,
            )
        };
        assert_eq!(run(), run());
    }
}
