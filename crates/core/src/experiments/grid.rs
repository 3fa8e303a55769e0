//! Figure 8: the two-dimensional clustering scheme.

use harvest_cluster::Datacenter;
use harvest_dfs::grid::Grid2D;
use harvest_trace::datacenter::DatacenterProfile;

use crate::checkpoint::sweep_plain;
use crate::report::{num, Table};
use crate::scale::Scale;

/// Figure 8: the 3×3 (reimages × peak utilization) clustering of DC-9's
/// tenants, with per-cell space and statistic ranges.
pub(crate) fn fig8(scale: &Scale) -> String {
    let profile = DatacenterProfile::dc(9).scaled(scale.dc_scale.max(0.1));
    let dc = Datacenter::generate(&profile, scale.seed);
    let grid = Grid2D::build(&dc);

    let mut table = Table::new(
        "Figure 8: two-dimensional clustering scheme (DC-9)",
        &[
            "cell (col,row)",
            "tenants",
            "space (blocks)",
            "reimage rate range",
            "peak util range",
        ],
    );
    // Each cell's member scan is independent; fan the nine cells out
    // and emit the rows in cell order.
    let cells: Vec<_> = Grid2D::cells().collect();
    let swept = sweep_plain(
        scale,
        "fig8",
        &cells,
        |cell| format!("c{}r{}", cell.col, cell.row),
        |&cell, _cancel| {
            let members = grid.members(cell);
            let mut rate_lo = f64::MAX;
            let mut rate_hi = f64::MIN;
            let mut peak_lo = f64::MAX;
            let mut peak_hi = f64::MIN;
            for &tid in members {
                let t = dc.tenant(tid);
                let rate = t.reimage.expected_monthly_rate();
                rate_lo = rate_lo.min(rate);
                rate_hi = rate_hi.max(rate);
                peak_lo = peak_lo.min(t.trace.peak());
                peak_hi = peak_hi.max(t.trace.peak());
            }
            let ranges = if members.is_empty() {
                ("-".to_string(), "-".to_string())
            } else {
                (
                    format!("{}..{}", num(rate_lo, 2), num(rate_hi, 2)),
                    format!("{}..{}", num(peak_lo, 2), num(peak_hi, 2)),
                )
            };
            [
                format!("({}, {})", cell.col, cell.row),
                members.len().to_string(),
                grid.space(cell).to_string(),
                ranges.0,
                ranges.1,
            ]
        },
    );
    for (cell, row) in cells.iter().zip(&swept.results) {
        match row {
            Some(row) => table.row(row),
            None => table.row(&[
                format!("({}, {})", cell.col, cell.row),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        };
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    table.note(format!(
        "space imbalance (max/min cell): {}; the paper splits so every cell holds S/9 — rows do not align across columns because each column is split by space, not by peak value",
        num(grid.space_imbalance(), 2)
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_dfs::grid::Cell;

    #[test]
    fn fig8_reports_nine_cells() {
        let out = fig8(&Scale::quick());
        // Nine cells: (0,0) through (2,2).
        for col in 0..3 {
            for row in 0..3 {
                assert!(
                    out.contains(&format!("({col}, {row})")),
                    "missing cell {col},{row}"
                );
            }
        }
    }

    #[test]
    fn fig8_cell_of_is_consistent() {
        let scale = Scale::quick();
        let profile = DatacenterProfile::dc(9).scaled(0.1);
        let dc = Datacenter::generate(&profile, scale.seed);
        let grid = Grid2D::build(&dc);
        for t in &dc.tenants {
            let cell: Cell = grid.cell_of(t.id);
            assert!(grid.members(cell).contains(&t.id));
        }
    }
}
