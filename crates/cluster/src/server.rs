//! Servers, tenants, and their identifiers.

use std::fmt;
use std::ops::Range;

use harvest_signal::classify::UtilizationPattern;
use harvest_trace::reimage::TenantReimageModel;
use harvest_trace::timeseries::TimeSeries;

/// Identifies a server within a [`crate::Datacenter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// Identifies a primary tenant within a [`crate::Datacenter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Identifies a rack within a [`crate::Datacenter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One physical server.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// The server's id (also its index in [`crate::Datacenter::servers`]).
    pub id: ServerId,
    /// The primary tenant that owns the server.
    pub tenant: TenantId,
    /// The rack the server sits in.
    pub rack: RackId,
    /// How many 256 MB blocks of spare disk the primary tenant lets the
    /// harvesting file system use (§5.4: "primary tenants declare how much
    /// storage HDFS-H can use in each server").
    pub harvest_blocks: u32,
}

/// One primary tenant: an `<environment, machine function>` pair and the
/// servers it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// The tenant's id (also its index in [`crate::Datacenter::tenants`]).
    pub id: TenantId,
    /// Display name.
    pub name: String,
    /// Environment this tenant belongs to. Multiple tenants (machine
    /// functions) may share one environment, and replica placement must
    /// not put two replicas in the same environment.
    pub environment: usize,
    /// The utilization pattern the tenant was generated with. The
    /// clustering service re-derives this from the trace; generation
    /// keeps the intent for validation.
    pub pattern: UtilizationPattern,
    /// One month of the tenant's "average server" CPU utilization at
    /// two-minute resolution (§3.2).
    pub trace: TimeSeries,
    /// The tenant's reimage behaviour.
    pub reimage: TenantReimageModel,
    /// The contiguous range of server indices the tenant owns.
    pub server_range: Range<u32>,
}

impl Tenant {
    /// Number of servers the tenant owns.
    pub fn n_servers(&self) -> usize {
        self.server_range.len()
    }

    /// Iterator over the tenant's server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.server_range.clone().map(ServerId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::SimDuration;

    impl Tenant {
        /// Whether the tenant owns the given server.
        fn owns(&self, server: ServerId) -> bool {
            self.server_range.contains(&server.0)
        }
    }

    fn tenant() -> Tenant {
        Tenant {
            id: TenantId(3),
            name: "t".into(),
            environment: 1,
            pattern: UtilizationPattern::Constant,
            trace: TimeSeries::constant(SimDuration::from_mins(2), 0.3, 10),
            reimage: TenantReimageModel::quiescent(),
            server_range: 10..15,
        }
    }

    #[test]
    fn server_range_accessors() {
        let t = tenant();
        assert_eq!(t.n_servers(), 5);
        assert!(t.owns(ServerId(10)));
        assert!(t.owns(ServerId(14)));
        assert!(!t.owns(ServerId(15)));
        let ids: Vec<ServerId> = t.server_ids().collect();
        assert_eq!(ids.first(), Some(&ServerId(10)));
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn id_display() {
        assert_eq!(ServerId(7).to_string(), "s7");
        assert_eq!(TenantId(2).to_string(), "t2");
        assert_eq!(RackId(1).to_string(), "r1");
    }
}
