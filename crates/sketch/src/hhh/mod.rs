//! Hierarchical heavy hitters (§2.2 of the paper).
//!
//! * [`domain`] — hierarchical domains (Definition 2.9);
//! * [`tms12`] — the deterministic `[TMS12]` baseline (Theorem 2.11);
//! * [`robust`] — Algorithms 3–4 (Theorem 2.14);
//! * [`HhhReferee`] — an exact ground-truth referee checking both clauses
//!   of Definition 2.10 inside the white-box game.

pub mod domain;
pub mod robust;
pub mod tms12;

pub use domain::{Hierarchy, Prefix, RadixHierarchy};
pub use robust::{BernHHH, RobustHHH};
pub use tms12::{HhhReport, HierarchicalSpaceSaving};

use std::collections::HashMap;
use wb_core::game::{Referee, Verdict};
use wb_core::stream::{InsertOnly, StreamAlg};

/// Exact referee for the HHH Problem (Definition 2.10).
///
/// Checks, at configurable strides (full coverage checks enumerate all
/// live prefixes):
///
/// 1. **accuracy** — every reported prefix's estimate lies in
///    `[f*_p − tol·m, f*_p + tol·m]` where `f*_p` is the exact subtree
///    count;
/// 2. **coverage** — every *non-reported* prefix `q` has conditioned count
///    (excluding leaves under reported descendants of `q`) at most
///    `(γ + tol)·m`.
#[derive(Debug, Clone)]
pub struct HhhReferee<H: Hierarchy> {
    hierarchy: H,
    leaf_counts: HashMap<u64, u64>,
    m: u64,
    gamma: f64,
    tol: f64,
    grace: u64,
    stride: u64,
}

impl<H: Hierarchy> HhhReferee<H> {
    /// Referee with threshold `γ` and tolerance `tol` (fractions of `m`).
    pub fn new(hierarchy: H, gamma: f64, tol: f64) -> Self {
        HhhReferee {
            hierarchy,
            leaf_counts: HashMap::new(),
            m: 0,
            gamma,
            tol,
            grace: 0,
            stride: 1,
        }
    }

    /// Skip checks for the first `rounds` updates.
    pub fn with_grace(mut self, rounds: u64) -> Self {
        self.grace = rounds;
        self
    }

    /// Run the (expensive) full check only every `stride` rounds.
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Exact subtree count of a prefix.
    fn subtree_count(&self, p: Prefix) -> u64 {
        self.leaf_counts
            .iter()
            .filter(|(&leaf, _)| self.hierarchy.ancestor(leaf, p.level) == p.id)
            .map(|(_, &c)| c)
            .sum()
    }

    fn check_report(&self, t: u64, report: &HhhReport) -> Verdict {
        let m = self.m as f64;
        if m == 0.0 {
            return Verdict::Correct;
        }
        // (1) accuracy
        for &(p, fp) in report {
            let truth = self.subtree_count(p) as f64;
            if fp > truth + self.tol * m + 1e-9 || fp < truth - self.tol * m - 1e-9 {
                return Verdict::violation(format!(
                    "round {t}: estimate {fp:.1} for {p:?} outside f*±tol·m (f*={truth})"
                ));
            }
        }
        // (2) coverage: enumerate live prefixes per level.
        for level in 0..=self.hierarchy.height() {
            let mut conditioned: HashMap<u64, u64> = HashMap::new();
            'leaf: for (&leaf, &c) in &self.leaf_counts {
                // Exclude leaves under a reported strict descendant of q.
                for &(p, _) in report {
                    if p.level < level && self.hierarchy.ancestor(leaf, p.level) == p.id {
                        continue 'leaf;
                    }
                }
                let q = self.hierarchy.ancestor(leaf, level);
                *conditioned.entry(q).or_insert(0) += c;
            }
            for (q, cond) in conditioned {
                let reported = report.iter().any(|&(p, _)| p.level == level && p.id == q);
                if !reported && cond as f64 > (self.gamma + self.tol) * m {
                    return Verdict::violation(format!(
                        "round {t}: unreported prefix (level {level}, id {q:#x}) has \
                         conditioned count {cond} > (γ+tol)·m = {:.1}",
                        (self.gamma + self.tol) * m
                    ));
                }
            }
        }
        Verdict::Correct
    }
}

impl<A, H> Referee<A> for HhhReferee<H>
where
    H: Hierarchy,
    A: StreamAlg<Update = InsertOnly, Output = HhhReport>,
{
    fn observe(&mut self, update: &InsertOnly) {
        self.m += 1;
        *self.leaf_counts.entry(update.0).or_insert(0) += 1;
    }

    fn check(&mut self, t: u64, output: &HhhReport) -> Verdict {
        if t < self.grace || !t.is_multiple_of(self.stride) {
            return Verdict::Correct;
        }
        self.check_report(t, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_engine::Game;

    #[test]
    fn referee_accepts_correct_robust_hhh_in_game() {
        let h = RadixHierarchy::new(8, 2); // 16-bit leaves, height 2
        let m = 20_000u64;
        let script: Vec<InsertOnly> = (0..m)
            .map(|t| {
                InsertOnly(match t % 10 {
                    0..=3 => 0xAB01,             // hot leaf 40%
                    4..=6 => 0xCD00 | (t % 256), // hot prefix 30%
                    _ => (t * 2654435761) & 0xFFFF,
                })
            })
            .collect();
        let referee = HhhReferee::new(h, 0.25, 0.10)
            .with_grace(1024)
            .with_stride(997);
        let report = Game::new(RobustHHH::new(h, 0.05, 0.25))
            .script(script)
            .referee(referee)
            .max_rounds(m)
            .seed(64)
            .run();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
    }

    #[test]
    fn referee_catches_fabricated_reports() {
        let h = RadixHierarchy::new(8, 2);
        let mut r = HhhReferee::new(h, 0.2, 0.05);
        for _ in 0..100 {
            Referee::<RobustHHH<RadixHierarchy>>::observe(&mut r, &InsertOnly(0xAB01));
        }
        // Claiming a prefix that has zero traffic with a big estimate.
        let bogus: HhhReport = vec![(
            Prefix {
                level: 0,
                id: 0x9999,
            },
            80.0,
        )];
        assert!(!r.check_report(100, &bogus).is_correct());
    }

    #[test]
    fn referee_catches_missing_heavy_prefix() {
        let h = RadixHierarchy::new(8, 2);
        let mut r = HhhReferee::new(h, 0.2, 0.05);
        for _ in 0..100 {
            Referee::<RobustHHH<RadixHierarchy>>::observe(&mut r, &InsertOnly(0xAB01));
        }
        // Empty report misses the obviously heavy leaf (and its ancestors).
        let empty: HhhReport = vec![];
        assert!(!r.check_report(100, &empty).is_correct());
    }

    #[test]
    fn referee_accepts_exact_report() {
        let h = RadixHierarchy::new(8, 2);
        let mut r = HhhReferee::new(h, 0.2, 0.05);
        for _ in 0..100 {
            Referee::<RobustHHH<RadixHierarchy>>::observe(&mut r, &InsertOnly(0xAB01));
        }
        // Reporting the heavy leaf exactly: ancestors' conditioned counts
        // drop to zero, so coverage is satisfied.
        let good: HhhReport = vec![(
            Prefix {
                level: 0,
                id: 0xAB01,
            },
            100.0,
        )];
        assert!(r.check_report(100, &good).is_correct());
    }
}
