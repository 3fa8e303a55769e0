//! Disk-model configuration: channel speeds, the util→disk-bandwidth
//! mapping for primary tenants, and the pluggable isolation-manager
//! throttle.

use harvest_signal::classify::UtilizationPattern;

/// Secondary I/O below this fraction of channel capacity is treated as
/// unusable by static consumers (a read that would take 20x its
/// uncontended time has timed out in practice). The event-driven
/// [`crate::DiskPool`] does not apply this floor — a starved stream
/// simply waits for the throttle to lift.
pub const MIN_SERVE_FRACTION: f64 = 0.05;

/// How the performance-isolation manager divides a channel between the
/// primary tenant and secondary (harvested) streams.
///
/// §6 of the paper: "the manager throttles the secondary tenants' disk
/// activity when the primary tenant performs substantial disk I/O."
/// That policy protects the primary but is exactly what starved the
/// DataNode heartbeat thread (§7, lesson 2), so it is pluggable here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThrottlePolicy {
    /// No isolation manager: secondary streams fair-share whatever
    /// bandwidth the primary's own demand leaves free.
    FairShare,
    /// The paper's isolation manager: while the primary's demand is at
    /// least `threshold` of channel capacity, secondary streams are
    /// collectively capped at `secondary_floor` of capacity (0.0 pauses
    /// them outright, as the production incident did); below the
    /// threshold they fair-share the remainder like
    /// [`FairShare`](harvest_sim::FairShare).
    PrimaryIsolation {
        /// Primary-demand fraction at which throttling engages.
        threshold: f64,
        /// Fraction of capacity secondaries keep while throttled.
        secondary_floor: f64,
    },
}

impl ThrottlePolicy {
    /// The paper's policy: secondaries pause completely once the primary
    /// uses half the disk.
    pub(crate) fn paper() -> Self {
        ThrottlePolicy::PrimaryIsolation {
            threshold: 0.5,
            secondary_floor: 0.0,
        }
    }

    /// The fraction of channel capacity available to secondary streams
    /// when the primary demands `primary_fraction` of it.
    pub fn secondary_fraction(&self, primary_fraction: f64) -> f64 {
        let p = primary_fraction.clamp(0.0, 1.0);
        match *self {
            ThrottlePolicy::FairShare => 1.0 - p,
            ThrottlePolicy::PrimaryIsolation {
                threshold,
                secondary_floor,
            } => {
                if p >= threshold {
                    secondary_floor.min(1.0 - p)
                } else {
                    1.0 - p
                }
            }
        }
    }

    /// Whether the policy is actively suppressing secondaries below
    /// their fair share at this primary demand.
    pub(crate) fn is_throttling(&self, primary_fraction: f64) -> bool {
        self.secondary_fraction(primary_fraction) < (1.0 - primary_fraction.clamp(0.0, 1.0)) - 1e-12
    }

    /// Validates the policy parameters.
    ///
    /// # Panics
    ///
    /// Panics if a threshold or floor lies outside `[0, 1]`.
    pub(crate) fn validate(&self) {
        if let ThrottlePolicy::PrimaryIsolation {
            threshold,
            secondary_floor,
        } = *self
        {
            assert!(
                (0.0..=1.0).contains(&threshold),
                "throttle threshold must be in [0, 1], got {threshold}"
            );
            assert!(
                (0.0..=1.0).contains(&secondary_floor),
                "secondary floor must be in [0, 1], got {secondary_floor}"
            );
        }
    }
}

/// Maps a primary tenant's CPU utilization to the fraction of its
/// server's disk bandwidth it consumes, per tenant class.
///
/// The paper's primaries differ in I/O intensity: diurnal user-facing
/// services (periodic) are index- and log-heavy, always-on pipelines
/// (constant) stream steadily, development/test tenants (unpredictable)
/// sit in between. CPU utilization is the only signal the traces carry,
/// so disk demand is derived from it linearly with a per-class gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimaryIoModel {
    /// Disk-bandwidth fraction demanded at zero CPU (logging, scrubbing).
    pub floor: f64,
    /// Demand fraction added per unit CPU utilization for periodic
    /// tenants.
    pub periodic_gain: f64,
    /// Same, for constant tenants.
    pub constant_gain: f64,
    /// Same, for unpredictable tenants.
    pub unpredictable_gain: f64,
}

impl PrimaryIoModel {
    /// Calibration used by the presets.
    pub(crate) fn paper() -> Self {
        PrimaryIoModel {
            floor: 0.05,
            periodic_gain: 0.80,
            constant_gain: 0.50,
            unpredictable_gain: 0.65,
        }
    }

    /// The channel-capacity fraction a primary of `pattern` running at
    /// CPU `util` demands, clamped to `[0, 1]`.
    pub fn demand_fraction(&self, pattern: UtilizationPattern, util: f64) -> f64 {
        let gain = match pattern {
            UtilizationPattern::Periodic => self.periodic_gain,
            UtilizationPattern::Constant => self.constant_gain,
            UtilizationPattern::Unpredictable => self.unpredictable_gain,
        };
        (self.floor + gain * util.clamp(0.0, 1.0)).clamp(0.0, 1.0)
    }

    /// Validates the model parameters.
    ///
    /// # Panics
    ///
    /// Panics if the floor or a gain is negative or non-finite.
    pub(crate) fn validate(&self) {
        for (name, v) in [
            ("floor", self.floor),
            ("periodic_gain", self.periodic_gain),
            ("constant_gain", self.constant_gain),
            ("unpredictable_gain", self.unpredictable_gain),
        ] {
            assert!(
                v >= 0.0 && v.is_finite(),
                "{name} must be non-negative and finite, got {v}"
            );
        }
    }
}

/// Per-server disk parameters plus the isolation policy.
///
/// Each server has one disk with independent read and write channels
/// (full-duplex like the NIC model — real HDDs interleave, but at flow
/// level steady mixed workloads behave like two coupled channels and
/// the separation keeps read-heavy primaries from hiding write
/// contention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Sequential read bandwidth in MB/s (10^6 bytes).
    pub read_mbps: f64,
    /// Sequential write bandwidth in MB/s.
    pub write_mbps: f64,
    /// Per-operation positioning latency in milliseconds, charged to
    /// every stream (dwarfed by transfer time for blocks, visible for
    /// heartbeat-sized status reads).
    pub seek_ms: f64,
    /// How the isolation manager divides each channel.
    pub throttle: ThrottlePolicy,
    /// The util→disk-demand mapping for primary tenants.
    pub primary: PrimaryIoModel,
}

impl DiskConfig {
    /// The paper-era datacenter disk: a 7.2k enterprise HDD behind the
    /// production isolation manager.
    pub fn datacenter() -> Self {
        DiskConfig {
            read_mbps: 160.0,
            write_mbps: 120.0,
            seek_ms: 8.0,
            throttle: ThrottlePolicy::paper(),
            primary: PrimaryIoModel::paper(),
        }
    }

    /// The same disk without an isolation manager (secondaries keep
    /// their fair share however busy the primary gets).
    pub fn fair_share() -> Self {
        DiskConfig {
            throttle: ThrottlePolicy::FairShare,
            ..DiskConfig::datacenter()
        }
    }

    /// Read-channel capacity in bytes per second.
    pub fn read_bytes_per_sec(&self) -> f64 {
        self.read_mbps * 1e6
    }

    /// Write-channel capacity in bytes per second.
    pub fn write_bytes_per_sec(&self) -> f64 {
        self.write_mbps * 1e6
    }

    /// Static estimate of a single secondary read's service time in
    /// seconds, against a primary demanding `primary_fraction` of the
    /// channel, with no other secondary streams. `None` when the
    /// throttle leaves less than [`MIN_SERVE_FRACTION`] of the channel —
    /// the read would starve rather than merely crawl.
    pub fn read_service_secs(&self, primary_fraction: f64, bytes: u64) -> Option<f64> {
        self.service_secs(self.read_bytes_per_sec(), primary_fraction, bytes)
    }

    fn service_secs(&self, capacity: f64, primary_fraction: f64, bytes: u64) -> Option<f64> {
        let share = self.throttle.secondary_fraction(primary_fraction);
        if share < MIN_SERVE_FRACTION {
            return None;
        }
        Some(bytes as f64 / (capacity * share) + self.seek_ms / 1_000.0)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is non-positive, the seek latency is
    /// negative, or a sub-model is invalid.
    pub(crate) fn validate(&self) {
        assert!(
            self.read_mbps > 0.0 && self.read_mbps.is_finite(),
            "read bandwidth must be positive, got {}",
            self.read_mbps
        );
        assert!(
            self.write_mbps > 0.0 && self.write_mbps.is_finite(),
            "write bandwidth must be positive, got {}",
            self.write_mbps
        );
        assert!(
            self.seek_ms >= 0.0 && self.seek_ms.is_finite(),
            "seek latency must be non-negative, got {}",
            self.seek_ms
        );
        self.throttle.validate();
        self.primary.validate();
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::datacenter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        DiskConfig::datacenter().validate();
        DiskConfig::fair_share().validate();
    }

    #[test]
    fn bandwidth_conversion() {
        let c = DiskConfig::datacenter();
        assert_eq!(c.read_bytes_per_sec(), 160e6);
        assert_eq!(c.write_bytes_per_sec(), 120e6);
    }

    #[test]
    fn isolation_throttles_above_threshold_only() {
        let p = ThrottlePolicy::paper();
        assert_eq!(p.secondary_fraction(0.2), 0.8);
        assert!(!p.is_throttling(0.2));
        assert_eq!(p.secondary_fraction(0.6), 0.0);
        assert!(p.is_throttling(0.6));
    }

    #[test]
    fn fair_share_never_throttles() {
        let f = ThrottlePolicy::FairShare;
        for p in [0.0, 0.3, 0.7, 1.0] {
            assert!((f.secondary_fraction(p) - (1.0 - p)).abs() < 1e-12);
            assert!(!f.is_throttling(p));
        }
    }

    #[test]
    fn demand_grows_with_util_and_differs_by_class() {
        let m = PrimaryIoModel::paper();
        let lo = m.demand_fraction(UtilizationPattern::Periodic, 0.1);
        let hi = m.demand_fraction(UtilizationPattern::Periodic, 0.8);
        assert!(hi > lo);
        assert!(
            m.demand_fraction(UtilizationPattern::Periodic, 0.5)
                > m.demand_fraction(UtilizationPattern::Constant, 0.5)
        );
        assert!(m.demand_fraction(UtilizationPattern::Periodic, 5.0) <= 1.0);
    }

    #[test]
    fn service_time_estimates() {
        let c = DiskConfig::datacenter();
        // Idle disk: 160 MB in 1 s plus seek.
        let t = c.read_service_secs(0.0, 160_000_000).unwrap();
        assert!((t - 1.008).abs() < 1e-9, "idle read took {t}s");
        // Above the throttle threshold: starved.
        assert!(c.read_service_secs(0.6, 1).is_none());
        // Fair-share policy still serves, slowly.
        let f = DiskConfig::fair_share();
        assert!(f.read_service_secs(0.6, 160_000_000).unwrap() > t);
    }

    #[test]
    #[should_panic(expected = "read bandwidth")]
    fn zero_bandwidth_rejected() {
        let mut c = DiskConfig::datacenter();
        c.read_mbps = 0.0;
        c.validate();
    }
}
