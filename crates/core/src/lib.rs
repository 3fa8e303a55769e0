//! The experiment harness: every table and figure of the paper's
//! evaluation, regenerated.
//!
//! Each `fig*` function in [`experiments`] runs one experiment at a
//! configurable [`scale::Scale`] and renders a plain-text report whose
//! rows correspond to the paper's plotted series. The `repro` binary
//! dispatches on experiment ids (`fig1` … `fig16`, `micro`, `all`).
//!
//! Absolute numbers differ from the paper's (their substrate was a
//! Microsoft production testbed; ours is a calibrated simulator), but
//! each report states the paper's qualitative claim next to the measured
//! result so the *shape* can be checked — see `EXPERIMENTS.md` at the
//! workspace root for the recorded comparison.
//!
//! # The task matrix
//!
//! Every sweep experiment is structured the same way: build the shared
//! read-only state (datacenters, utilization views), flatten the sweep
//! — every `(point × run)`, or per-tenant unit — into a list of task
//! descriptors each carrying its own derived seed stream, fan the list
//! out over `Scale::jobs` workers of the one supervised worker loop
//! ([`harvest_sim::supervise`], reached through `checkpoint::sweep`
//! for sweeps and [`harvest_sim::par::par_map`] for set-up), then
//! aggregate the returned results in input order. Because nothing
//! mutable is shared and aggregation order is fixed, a report is
//! byte-identical at any `--jobs` value (`crates/core/tests/
//! determinism.rs` pins this against `--jobs 1`, where one worker runs
//! the tasks in input order, the same oracle pattern as the
//! `harvest-oracle` reference allocators).
//!
//! # Surviving failures
//!
//! Sweeps run under [`checkpoint`]'s supervised harness: a panicking
//! task is retried with bounded backoff and then *quarantined* (its
//! row marked in the report, every other byte unchanged), a watchdog
//! flags straggling tasks against a per-task deadline, and
//! `repro --checkpoint FILE` journals each completed task's result so
//! a killed run resumes (`--resume FILE`) with stdout byte-identical
//! to an uninterrupted one.

pub mod checkpoint;
pub mod experiments;
pub mod report;
pub mod scale;

pub use checkpoint::{Checkpoint, Harness, SweepSnapshot};
pub use report::Table;
pub use scale::Scale;

/// Runs the experiment with the given id, returning its report.
///
/// Ids: `fig1`–`fig8`, `fig10`–`fig16`, `micro`. (`fig9` is the paper's
/// architecture diagram and `table1` its extension inventory — both are
/// documentation, not experiments.)
pub fn run_experiment(id: &str, scale: &Scale) -> Result<String, String> {
    let mut rec = harvest_sim::obs::Recorder::off();
    run_experiment_recorded(id, scale, &mut rec)
}

/// [`run_experiment`] with an observability
/// [`Recorder`](harvest_sim::obs::Recorder)
/// (`harvest_sim::obs::Recorder`): recording-aware experiments
/// (currently `micro`, which replays a recorded scheduling run, a
/// recorded reimage storm, and a profiled supervised sweep) feed spans,
/// counters, and histograms into `rec`; every other experiment ignores
/// it. The returned report is byte-identical to [`run_experiment`]'s —
/// recording is invisible on stdout.
pub fn run_experiment_recorded(
    id: &str,
    scale: &Scale,
    rec: &mut harvest_sim::obs::Recorder,
) -> Result<String, String> {
    match id {
        "fig1" => Ok(experiments::characterization::fig1(scale)),
        "fig2" => Ok(experiments::characterization::fig2(scale)),
        "fig3" => Ok(experiments::characterization::fig3(scale)),
        "fig4" => Ok(experiments::characterization::fig4(scale)),
        "fig5" => Ok(experiments::characterization::fig5(scale)),
        "fig6" => Ok(experiments::characterization::fig6(scale)),
        "fig7" => Ok(experiments::dag::fig7(scale)),
        "fig8" => Ok(experiments::grid::fig8(scale)),
        "fig10" => Ok(experiments::testbed::fig10(scale)),
        "fig11" => Ok(experiments::testbed::fig11(scale)),
        "fig12" => Ok(experiments::testbed::fig12(scale)),
        "fig13" => Ok(experiments::sched_sim::fig13(scale)),
        "fig14" => Ok(experiments::sched_sim::fig14(scale)),
        "fig15" => Ok(experiments::durability::fig15(scale)),
        "fig16" => Ok(experiments::availability::fig16(scale)),
        "micro" => Ok(experiments::micro::micro(scale, rec)),
        other => Err(format!(
            "unknown experiment '{other}' (expected fig1-fig8, fig10-fig16, or micro)"
        )),
    }
}

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "micro",
];
