//! Algorithm 2's two-dimensional clustering scheme (Figure 8).
//!
//! "Our replica placement algorithm creates a two-dimensional clustering
//! scheme, where one dimension corresponds to durability (disk reimages)
//! and the other to availability (peak CPU utilization). It splits the
//! two-dimensional space into 3×3 classes …, each of which has the same
//! amount of available storage for harvesting S/9."
//!
//! Tenants are first split into three *columns* of equal space along the
//! reimage axis, then each column is split into three *rows* of equal
//! space along the peak-utilization axis — which is why "the rows
//! defining the peak utilization classes do not align" in Figure 8. Each
//! tenant lands in exactly one cell ("we prevent this situation by
//! selecting a single class for each tenant"), trading perfect space
//! balance for placement diversity.

use harvest_cluster::{Datacenter, TenantId};

/// A cell of the 3×3 grid: (reimage column, peak-utilization row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Reimage-frequency column: 0 = infrequent … 2 = frequent.
    pub col: u8,
    /// Peak-utilization row: 0 = low … 2 = high.
    pub row: u8,
}

impl Cell {
    /// The cell's index in `0..9` (row-major).
    pub(crate) fn index(self) -> usize {
        self.row as usize * 3 + self.col as usize
    }
}

/// The 3×3 tenant clustering used by Algorithm 2.
#[derive(Debug, Clone)]
pub struct Grid2D {
    /// Cell of each tenant, indexed by tenant id.
    tenant_cell: Vec<Cell>,
    /// Member tenants per cell (row-major index).
    members: Vec<Vec<TenantId>>,
    /// Total harvestable blocks per cell.
    space: [u64; 9],
}

impl Grid2D {
    /// Clusters the datacenter's tenants from their reimage models and
    /// utilization traces.
    ///
    /// The reimage axis uses each tenant's expected monthly reimage rate;
    /// the availability axis uses the tenant's peak trace utilization.
    /// In production both would come from telemetry; callers with
    /// measured statistics can use [`Grid2D::from_stats`].
    pub fn build(dc: &Datacenter) -> Self {
        let stats: Vec<(f64, f64, u64)> = dc
            .tenants
            .iter()
            .map(|t| {
                let space: u64 = t
                    .server_ids()
                    .map(|sid| dc.server(sid).harvest_blocks as u64)
                    .sum();
                (t.reimage.expected_monthly_rate(), t.trace.peak(), space)
            })
            .collect();
        Self::from_stats(&stats)
    }

    /// Clusters from explicit per-tenant `(reimage_rate, peak_util,
    /// harvestable_blocks)` triples. Tenant `i` of the slice is
    /// [`TenantId`] `i`.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    pub fn from_stats(stats: &[(f64, f64, u64)]) -> Self {
        assert!(!stats.is_empty(), "cannot build a grid with no tenants");
        let n = stats.len();

        // Column split: order by reimage rate, cut into three runs of
        // equal cumulative space.
        let mut by_rate: Vec<usize> = (0..n).collect();
        by_rate.sort_by(|&a, &b| {
            stats[a]
                .0
                .partial_cmp(&stats[b].0)
                .expect("NaN reimage rate")
                .then(a.cmp(&b))
        });
        let cols = split_equal_space(&by_rate, |i| stats[i].2, 3);

        let mut tenant_cell = vec![Cell { col: 0, row: 0 }; n];
        let mut members: Vec<Vec<TenantId>> = vec![Vec::new(); 9];
        let mut space = [0u64; 9];

        for (c, col_members) in cols.iter().enumerate() {
            // Row split within the column: order by peak utilization.
            let mut by_peak = col_members.clone();
            by_peak.sort_by(|&a, &b| {
                stats[a]
                    .1
                    .partial_cmp(&stats[b].1)
                    .expect("NaN peak util")
                    .then(a.cmp(&b))
            });
            let rows = split_equal_space(&by_peak, |i| stats[i].2, 3);
            for (r, row_members) in rows.iter().enumerate() {
                let cell = Cell {
                    col: c as u8,
                    row: r as u8,
                };
                for &t in row_members {
                    tenant_cell[t] = cell;
                    members[cell.index()].push(TenantId(t as u32));
                    space[cell.index()] += stats[t].2;
                }
            }
        }

        Grid2D {
            tenant_cell,
            members,
            space,
        }
    }

    /// The cell a tenant belongs to.
    pub fn cell_of(&self, tenant: TenantId) -> Cell {
        self.tenant_cell[tenant.0 as usize]
    }

    /// Member tenants of a cell.
    pub fn members(&self, cell: Cell) -> &[TenantId] {
        &self.members[cell.index()]
    }

    /// Harvestable blocks in a cell.
    pub fn space(&self, cell: Cell) -> u64 {
        self.space[cell.index()]
    }

    /// All nine cells, row-major.
    pub fn cells() -> impl Iterator<Item = Cell> {
        (0..3u8).flat_map(|row| (0..3u8).map(move |col| Cell { col, row }))
    }

    /// The ratio of the largest to the smallest cell's space — 1.0 is a
    /// perfect split; large tenants make it worse (the space-vs-diversity
    /// tradeoff of §4.2).
    pub fn space_imbalance(&self) -> f64 {
        let max = self.space.iter().max().copied().unwrap_or(0);
        let min = self.space.iter().min().copied().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Splits an ordered index list into `k` consecutive runs whose space
/// sums are as equal as a greedy sweep can make them, without splitting
/// any single index across runs.
fn split_equal_space(order: &[usize], space: impl Fn(usize) -> u64, k: usize) -> Vec<Vec<usize>> {
    let total: u64 = order.iter().map(|&i| space(i)).sum();
    let target = total as f64 / k as f64;
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut run = 0usize;
    let mut acc = 0u64;
    for (pos, &i) in order.iter().enumerate() {
        let remaining_slots = k - run - 1;
        let remaining_items = order.len() - pos;
        // Never leave a later run empty.
        if run < k - 1
            && acc as f64 >= target * (run + 1) as f64
            && remaining_items > remaining_slots
        {
            run += 1;
        }
        // Force a move if we'd otherwise starve the remaining runs.
        if remaining_items == remaining_slots && run < k - 1 && !out[run].is_empty() {
            run += 1;
        }
        out[run].push(i);
        acc += space(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_trace::datacenter::DatacenterProfile;

    fn uniform_stats(n: usize) -> Vec<(f64, f64, u64)> {
        (0..n)
            .map(|i| {
                let rate = (i % 10) as f64 / 10.0;
                let peak = ((i * 7) % 10) as f64 / 10.0;
                (rate, peak, 100)
            })
            .collect()
    }

    #[test]
    fn nine_cells_with_equal_space_for_uniform_tenants() {
        let grid = Grid2D::from_stats(&uniform_stats(90));
        for cell in Grid2D::cells() {
            assert_eq!(grid.space(cell), 1_000, "cell {cell:?}");
        }
        assert!((grid.space_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn columns_respect_reimage_ordering() {
        let grid = Grid2D::from_stats(&uniform_stats(90));
        // Max rate in column 0 must not exceed min rate in column 2.
        let stats = uniform_stats(90);
        let col_rates = |c: u8| -> Vec<f64> {
            (0..90)
                .filter(|&t| grid.cell_of(TenantId(t as u32)).col == c)
                .map(|t| stats[t].0)
                .collect()
        };
        let c0 = col_rates(0);
        let c2 = col_rates(2);
        let max0 = c0.iter().cloned().fold(f64::MIN, f64::max);
        let min2 = c2.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max0 <= min2, "column ordering violated: {max0} > {min2}");
    }

    #[test]
    fn rows_respect_peak_ordering_within_a_column() {
        let stats = uniform_stats(90);
        let grid = Grid2D::from_stats(&stats);
        for col in 0..3u8 {
            let peak_of_row = |r: u8| -> Vec<f64> {
                (0..90)
                    .filter(|&t| {
                        let c = grid.cell_of(TenantId(t as u32));
                        c.col == col && c.row == r
                    })
                    .map(|t| stats[t].1)
                    .collect()
            };
            let r0 = peak_of_row(0);
            let r2 = peak_of_row(2);
            if r0.is_empty() || r2.is_empty() {
                continue;
            }
            let max0 = r0.iter().cloned().fold(f64::MIN, f64::max);
            let min2 = r2.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max0 <= min2, "row ordering violated in col {col}");
        }
    }

    #[test]
    fn every_tenant_in_exactly_one_cell() {
        let stats = uniform_stats(50);
        let grid = Grid2D::from_stats(&stats);
        let total: usize = Grid2D::cells().map(|c| grid.members(c).len()).sum();
        assert_eq!(total, 50);
        for t in 0..50u32 {
            let cell = grid.cell_of(TenantId(t));
            assert!(grid.members(cell).contains(&TenantId(t)));
        }
    }

    #[test]
    fn no_cell_is_empty_even_with_skewed_sizes() {
        // One huge tenant plus small ones.
        let mut stats = vec![(0.5, 0.5, 100_000u64)];
        stats.extend((0..20).map(|i| (i as f64 / 20.0, (i % 5) as f64 / 5.0, 100u64)));
        let grid = Grid2D::from_stats(&stats);
        // A tenant holding most of the space starves some cells — the
        // §4.2 space-vs-diversity tradeoff. Placement tolerates empty
        // cells, but most must stay populated.
        let populated = Grid2D::cells()
            .filter(|&c| !grid.members(c).is_empty())
            .count();
        assert!(populated >= 5, "only {populated} populated cells");
        // Imbalance is real and measurable (space-vs-diversity tradeoff).
        assert!(grid.space_imbalance() > 10.0);
    }

    #[test]
    fn nine_tenants_one_per_cell() {
        let stats: Vec<(f64, f64, u64)> = (0..9)
            .map(|i| ((i / 3) as f64, (i % 3) as f64, 500))
            .collect();
        let grid = Grid2D::from_stats(&stats);
        for cell in Grid2D::cells() {
            assert_eq!(grid.members(cell).len(), 1, "cell {cell:?}");
        }
    }

    #[test]
    fn builds_from_a_real_datacenter() {
        let dc = harvest_cluster::Datacenter::generate(&DatacenterProfile::dc(3).scaled(0.1), 7);
        let grid = Grid2D::build(&dc);
        let total_space: u64 = Grid2D::cells().map(|c| grid.space(c)).sum();
        assert_eq!(total_space, dc.total_harvest_blocks());
        // With dozens of tenants the split should be reasonably balanced.
        assert!(grid.space_imbalance() < 8.0, "{}", grid.space_imbalance());
    }

    #[test]
    fn cell_index_is_row_major() {
        assert_eq!(Cell { col: 0, row: 0 }.index(), 0);
        assert_eq!(Cell { col: 2, row: 0 }.index(), 2);
        assert_eq!(Cell { col: 0, row: 1 }.index(), 3);
        assert_eq!(Cell { col: 2, row: 2 }.index(), 8);
    }
}
