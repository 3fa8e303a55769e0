//! Figure 7: the TPC-DS query 19 DAG and its concurrency estimate.

use harvest_jobs::estimate::max_concurrent_tasks;
use harvest_jobs::tpcds::query_19;

use crate::checkpoint::sweep_plain;
use crate::report::Table;
use crate::scale::Scale;

/// Figure 7: per-level concurrency of query 19 and the BFS estimate.
pub(crate) fn fig7(scale: &Scale) -> String {
    let q = query_19();
    let levels = q.levels();
    let max_level = levels.iter().copied().max().unwrap_or(0);

    let mut table = Table::new(
        "Figure 7: TPC-DS query 19 execution DAG",
        &["level", "vertices", "concurrent tasks"],
    );
    // Each level's row is an independent scan of the stage list.
    let level_ids: Vec<usize> = (0..=max_level).collect();
    let swept = sweep_plain(
        scale,
        "fig7",
        &level_ids,
        |&level| format!("lv{level}"),
        |&level, _cancel| {
            let members: Vec<String> = q
                .stages
                .iter()
                .enumerate()
                .filter(|(i, _)| levels[*i] == level)
                .map(|(_, s)| format!("{} ({})", s.name, s.tasks))
                .collect();
            let tasks: u32 = q
                .stages
                .iter()
                .enumerate()
                .filter(|(i, _)| levels[*i] == level)
                .map(|(_, s)| s.tasks)
                .sum();
            [level.to_string(), members.join(", "), tasks.to_string()]
        },
    );
    for (level, row) in level_ids.iter().zip(&swept.results) {
        match row {
            Some(row) => table.row(row),
            None => table.row(&[
                level.to_string(),
                "(quarantined)".to_string(),
                "-".to_string(),
            ]),
        };
    }
    if let Some(note) = swept.note {
        table.note(note);
    }
    let estimate = max_concurrent_tasks(&q);
    table.note(format!(
        "BFS max-concurrency estimate: {estimate} containers (paper: 469)"
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_estimate_matches_paper() {
        let out = fig7(&Scale::quick());
        assert!(out.contains("estimate: 469 containers"));
        assert!(out.contains("Mapper 2 (469)"));
    }
}
