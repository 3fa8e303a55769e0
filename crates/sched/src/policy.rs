//! Scheduler variants (§6.1's baselines).

/// Which scheduler runs the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// "YARN-Stock": stock YARN + Tez. Oblivious to primary tenants —
    /// containers use the full server, nothing is ever killed for the
    /// primary's sake, and the primary's latency pays for it.
    Stock,
    /// "YARN-PT": primary-tenant-aware YARN with stock Tez. Keeps the
    /// burst reserve and kills youngest containers when it is violated,
    /// but places tasks using only *current* utilization.
    PrimaryAware,
    /// "YARN-H/Tez-H": primary-tenant awareness plus history-based class
    /// selection (Algorithm 1).
    History,
}

impl SchedPolicy {
    /// All policies in the paper's comparison order.
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::Stock,
        SchedPolicy::PrimaryAware,
        SchedPolicy::History,
    ];

    /// Whether this policy respects the primary tenant (reserve + kills).
    pub(crate) fn primary_aware(self) -> bool {
        !matches!(self, SchedPolicy::Stock)
    }

    /// Whether this policy uses the clustering service and Algorithm 1.
    pub(crate) fn uses_history(self) -> bool {
        matches!(self, SchedPolicy::History)
    }

    /// The paper's name for the system.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Stock => "YARN-Stock",
            SchedPolicy::PrimaryAware => "YARN-PT",
            SchedPolicy::History => "YARN-H/Tez-H",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awareness_flags() {
        assert!(!SchedPolicy::Stock.primary_aware());
        assert!(SchedPolicy::PrimaryAware.primary_aware());
        assert!(SchedPolicy::History.primary_aware());
        assert!(SchedPolicy::History.uses_history());
        assert!(!SchedPolicy::PrimaryAware.uses_history());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SchedPolicy::Stock.to_string(), "YARN-Stock");
        assert_eq!(SchedPolicy::PrimaryAware.to_string(), "YARN-PT");
        assert_eq!(SchedPolicy::History.to_string(), "YARN-H/Tez-H");
    }
}
