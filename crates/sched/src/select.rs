//! Algorithm 1: class selection for a batch job.
//!
//! ```text
//! 1: Given: Classes C, Headroom(type, c), Ranking Weights W
//! 2: function SCHEDULE(Batch job J)
//! 3:   J.type = Length (short, medium, or long) from its last run
//! 4:   J.req  = Max amount of concurrent resources from DAG
//! 5:   for each c in C: c.weightedroom = Headroom(J.type, c) × W[J.type, c.class]
//! 8:   F = { c in C | Headroom(J.type, c) >= J.req }
//! 9:   if F not empty:   pick 1 class probabilistically ∝ weightedroom
//! 12:  elif J fits in multiple classes combined: pick classes probabilistically
//! 16:  else: pick no classes
//! ```

use harvest_jobs::length::JobLength;
use harvest_sim::dist;
use rand::Rng;

use crate::classes::ClusteringService;
use crate::headroom::{class_headroom, RankingWeights};

/// The outcome of Algorithm 1 for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassSelection {
    /// One class had room for the whole job (line 11).
    Single(usize),
    /// The job was spread across several classes (line 14).
    Multiple(Vec<usize>),
    /// No combination of classes had room (line 17); the job must wait.
    None,
}

impl ClassSelection {
    /// The selected class ids (empty for [`ClassSelection::None`]).
    pub(crate) fn class_ids(&self) -> Vec<usize> {
        match self {
            ClassSelection::Single(c) => vec![*c],
            ClassSelection::Multiple(cs) => cs.clone(),
            ClassSelection::None => Vec::new(),
        }
    }
}

/// Runs Algorithm 1.
///
/// * `length` — the job's type from its last run (line 3);
/// * `req` — the BFS max-concurrent-containers estimate (line 4);
/// * `current_utils[c]` — the current average CPU utilization of class
///   `c`'s servers.
///
/// # Panics
///
/// Panics if `current_utils.len()` differs from the number of classes.
pub fn select_classes<R: Rng + ?Sized>(
    rng: &mut R,
    svc: &ClusteringService,
    weights: &RankingWeights,
    length: JobLength,
    req: u64,
    current_utils: &[f64],
) -> ClassSelection {
    assert_eq!(
        current_utils.len(),
        svc.class_count(),
        "one current utilization per class required"
    );

    // Lines 5-7: weighted headroom per class.
    let headrooms: Vec<u64> = svc
        .classes()
        .iter()
        .zip(current_utils)
        .map(|(c, &util)| class_headroom(length, c, util))
        .collect();
    let weighted: Vec<f64> = svc
        .classes()
        .iter()
        .zip(&headrooms)
        .map(|(c, &h)| h as f64 * weights.weight(length, c.pattern))
        .collect();

    // Line 8: classes that fit the whole job.
    let fits: Vec<usize> = (0..svc.class_count())
        .filter(|&c| headrooms[c] >= req)
        .collect();

    if !fits.is_empty() {
        // Lines 9-11: one class, probability ∝ weighted headroom.
        let w: Vec<f64> = fits.iter().map(|&c| weighted[c]).collect();
        let pick = dist::weighted_index(rng, &w).expect("fits non-empty");
        return ClassSelection::Single(fits[pick]);
    }

    // Lines 12-14: spread across classes if the total room suffices.
    let total: u64 = headrooms.iter().sum();
    if total >= req {
        let mut chosen = Vec::new();
        let mut remaining = req;
        let mut avail: Vec<f64> = weighted.clone();
        while remaining > 0 {
            let pick = match dist::weighted_index(rng, &avail) {
                Some(p) if avail[p] > 0.0 => p,
                _ => break,
            };
            chosen.push(pick);
            remaining = remaining.saturating_sub(headrooms[pick]);
            avail[pick] = 0.0; // each class picked at most once
        }
        if remaining == 0 {
            chosen.sort_unstable();
            return ClassSelection::Multiple(chosen);
        }
        // Weighted sampling ran out of positive-weight classes (possible
        // when some headroom sits in zero-weight classes); fall through.
        let mut all: Vec<usize> = (0..svc.class_count())
            .filter(|&c| headrooms[c] > 0)
            .collect();
        all.sort_unstable();
        let mut acc = 0u64;
        let mut chosen = Vec::new();
        for c in all {
            chosen.push(c);
            acc += headrooms[c];
            if acc >= req {
                return ClassSelection::Multiple(chosen);
            }
        }
    }

    // Lines 15-17.
    ClassSelection::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_cluster::Datacenter;
    use harvest_sim::rng::stream_rng;
    use harvest_trace::datacenter::DatacenterProfile;

    fn service() -> (Datacenter, ClusteringService) {
        let dc = Datacenter::generate(&DatacenterProfile::dc(9).scaled(0.1), 42);
        let svc = ClusteringService::build(&dc, 42);
        (dc, svc)
    }

    #[test]
    fn small_job_gets_single_class() {
        let (_dc, svc) = service();
        let utils = vec![0.2; svc.class_count()];
        let mut rng = stream_rng(1, "sel");
        let sel = select_classes(
            &mut rng,
            &svc,
            &RankingWeights::paper(),
            JobLength::Short,
            10,
            &utils,
        );
        assert!(matches!(sel, ClassSelection::Single(_)), "got {sel:?}");
    }

    #[test]
    fn huge_job_spreads_across_classes() {
        let (dc, svc) = service();
        let utils = vec![0.2; svc.class_count()];
        // More containers than any single class can host, but less than
        // the whole cluster: 8 per server is the theoretical cap.
        let biggest = svc.classes().iter().map(|c| c.n_servers()).max().unwrap();
        let req = (biggest as u64 * 8) + 1;
        let total_possible = dc.n_servers() as u64 * 8;
        assert!(req < total_possible);
        let mut rng = stream_rng(2, "sel");
        let sel = select_classes(
            &mut rng,
            &svc,
            &RankingWeights::paper(),
            JobLength::Short,
            req,
            &utils,
        );
        match sel {
            ClassSelection::Multiple(cs) => {
                assert!(cs.len() >= 2);
                let room: u64 = cs
                    .iter()
                    .map(|&c| class_headroom(JobLength::Short, &svc.classes()[c], utils[c]))
                    .sum();
                assert!(room >= req, "selected classes lack room");
            }
            other => panic!("expected Multiple, got {other:?}"),
        }
    }

    #[test]
    fn impossible_job_selects_nothing() {
        let (dc, svc) = service();
        let utils = vec![0.2; svc.class_count()];
        let req = dc.n_servers() as u64 * 8 + 1;
        let mut rng = stream_rng(3, "sel");
        let sel = select_classes(
            &mut rng,
            &svc,
            &RankingWeights::paper(),
            JobLength::Short,
            req,
            &utils,
        );
        assert_eq!(sel, ClassSelection::None);
    }

    #[test]
    fn saturated_cluster_selects_nothing() {
        let (_dc, svc) = service();
        let utils = vec![1.0; svc.class_count()];
        let mut rng = stream_rng(4, "sel");
        let sel = select_classes(
            &mut rng,
            &svc,
            &RankingWeights::paper(),
            JobLength::Long,
            1,
            &utils,
        );
        assert_eq!(sel, ClassSelection::None);
    }

    #[test]
    fn long_jobs_prefer_constant_classes() {
        let (_dc, svc) = service();
        let utils = vec![0.1; svc.class_count()];
        let mut rng = stream_rng(5, "sel");
        let mut constant_picks = 0usize;
        let trials = 400;
        for _ in 0..trials {
            if let ClassSelection::Single(c) = select_classes(
                &mut rng,
                &svc,
                &RankingWeights::paper(),
                JobLength::Long,
                1,
                &utils,
            ) {
                if svc.classes()[c].pattern
                    == harvest_signal::classify::UtilizationPattern::Constant
                {
                    constant_picks += 1;
                }
            }
        }
        // Constant classes get weight 3 for long jobs; with comparable
        // headroom they should win the majority of picks.
        assert!(
            constant_picks * 2 > trials,
            "constant picked only {constant_picks}/{trials}"
        );
    }

    #[test]
    fn selection_respects_headroom_not_just_weights() {
        let (_dc, svc) = service();
        // Saturate every class except one.
        let mut utils = vec![1.0; svc.class_count()];
        utils[0] = 0.0;
        let mut rng = stream_rng(6, "sel");
        for _ in 0..50 {
            let sel = select_classes(
                &mut rng,
                &svc,
                &RankingWeights::paper(),
                JobLength::Medium,
                1,
                &utils,
            );
            match sel {
                ClassSelection::Single(c) => assert_eq!(c, 0),
                other => panic!("expected Single(0), got {other:?}"),
            }
        }
    }
}
