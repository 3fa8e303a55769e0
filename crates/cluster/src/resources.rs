//! Core/memory resource vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bundle of schedulable resources: CPU cores and memory.
///
/// YARN arbitrates exactly these two dimensions ("currently, cores and
/// memory", §5.1), so the model does too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Resources {
    /// CPU cores.
    pub cores: u32,
    /// Memory in MB.
    pub memory_mb: u32,
}

impl Resources {
    /// No resources.
    pub const ZERO: Resources = Resources {
        cores: 0,
        memory_mb: 0,
    };

    /// Creates a resource vector.
    pub const fn new(cores: u32, memory_mb: u32) -> Self {
        Resources { cores, memory_mb }
    }

    /// Whether a request of size `other` fits inside `self`.
    pub fn fits(&self, other: Resources) -> bool {
        self.cores >= other.cores && self.memory_mb >= other.memory_mb
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(self, other: Resources) -> Resources {
        Resources {
            cores: self.cores.saturating_sub(other.cores),
            memory_mb: self.memory_mb.saturating_sub(other.memory_mb),
        }
    }

    /// True if both components are zero.
    pub fn is_zero(&self) -> bool {
        self.cores == 0 && self.memory_mb == 0
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cores: self.cores + rhs.cores,
            memory_mb: self.memory_mb + rhs.memory_mb,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;

    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}MB", self.cores, self.memory_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Resources {
        /// The number of containers of size `unit` that fit in `self`
        /// (limited by the scarcer dimension).
        fn container_count(&self, unit: Resources) -> u32 {
            let by_cores = self.cores.checked_div(unit.cores).unwrap_or(u32::MAX);
            let by_mem = self
                .memory_mb
                .checked_div(unit.memory_mb)
                .unwrap_or(u32::MAX);
            by_cores.min(by_mem)
        }
    }

    #[test]
    fn fits_requires_both_dimensions() {
        let cap = Resources::new(8, 16_000);
        assert!(cap.fits(Resources::new(8, 16_000)));
        assert!(cap.fits(Resources::ZERO));
        assert!(!cap.fits(Resources::new(9, 1)));
        assert!(!cap.fits(Resources::new(1, 16_001)));
    }

    #[test]
    fn saturating_subtraction() {
        let a = Resources::new(4, 1_000);
        let b = Resources::new(6, 500);
        assert_eq!(a - b, Resources::new(0, 500));
    }

    #[test]
    fn container_count_limited_by_scarcer_dimension() {
        let cap = Resources::new(8, 18_000);
        let unit = Resources::new(1, 2_048);
        assert_eq!(cap.container_count(unit), 8);
        let mem_tight = Resources::new(8, 4_096);
        assert_eq!(mem_tight.container_count(unit), 2);
        assert_eq!(Resources::ZERO.container_count(unit), 0);
    }

    #[test]
    fn arithmetic_round_trip() {
        let mut r = Resources::new(2, 4_096);
        r += Resources::new(1, 2_048);
        assert_eq!(r, Resources::new(3, 6_144));
        r -= Resources::new(1, 2_048);
        assert_eq!(r, Resources::new(2, 4_096));
    }

    #[test]
    fn display() {
        assert_eq!(Resources::new(4, 10_240).to_string(), "4c/10240MB");
    }
}
