//! Mergeable sketch state — the substrate of sharded ingestion.
//!
//! A *mergeable* summary supports combining two instances built from two
//! disjoint stream segments into one instance whose guarantee covers the
//! concatenated stream. Mergeability is what lets one logical stream be
//! partitioned across many cores (see `wb_engine::shard`): each shard
//! ingests its slice independently and the final answer is read off the
//! merged state.
//!
//! **White-box caveat.** Sharding does not weaken the adversary — it
//! strengthens it. In the white-box model of the source paper the adversary
//! already observes the complete internal state; with `S` shards it observes
//! *every* shard's state and every shard's randomness tape. Only algorithms
//! whose robustness argument never relies on hidden state (deterministic
//! summaries, linear sketches with public coefficients) merge soundly here;
//! randomized state whose distribution matters (Morris exponents) is
//! deliberately [`MergeError::Unmergeable`], because no deterministic
//! combination of two exponents preserves the estimator's distribution.
//!
//! The typed entry point is [`StreamAlg::merge_from`], which states the
//! merge contract; the erased mirror is `DynStreamAlg::merge_dyn` in
//! `wb_engine`, which downcast-checks that both operands are the same
//! concrete type before delegating to it.
//!
//! [`StreamAlg::merge_from`]: crate::stream::StreamAlg::merge_from

use std::fmt;

/// Why two summaries could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The algorithm has no sound merge operation (e.g. Morris counters:
    /// combining two exponents deterministically biases the estimator).
    Unmergeable {
        /// Bare name of the algorithm that refused.
        alg: &'static str,
    },
    /// The erased operands are different concrete types — merging a
    /// `MisraGries` into a `CountMin` is a wiring bug, not a stream issue.
    TypeMismatch {
        /// Name of the receiving instance.
        left: &'static str,
        /// Name of the offered instance.
        right: &'static str,
    },
    /// Same type, but the instances were built with incompatible parameters
    /// (different counter budgets, different hash seeds, …).
    Incompatible(String),
}

impl MergeError {
    /// Convenience constructor for [`MergeError::Unmergeable`].
    pub fn unmergeable(alg: &'static str) -> Self {
        MergeError::Unmergeable { alg }
    }

    /// Convenience constructor for [`MergeError::Incompatible`].
    pub fn incompatible(msg: impl Into<String>) -> Self {
        MergeError::Incompatible(msg.into())
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Unmergeable { alg } => {
                write!(f, "{alg} has no sound merge operation")
            }
            MergeError::TypeMismatch { left, right } => {
                write!(f, "cannot merge {right} into {left} (different types)")
            }
            MergeError::Incompatible(msg) => {
                write!(f, "instances are not merge-compatible: {msg}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            MergeError::unmergeable("MorrisCounter").to_string(),
            "MorrisCounter has no sound merge operation"
        );
        assert_eq!(
            MergeError::TypeMismatch {
                left: "MisraGries",
                right: "CountMin",
            }
            .to_string(),
            "cannot merge CountMin into MisraGries (different types)"
        );
        assert_eq!(
            MergeError::incompatible("k 4 vs 8").to_string(),
            "instances are not merge-compatible: k 4 vs 8"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MergeError::unmergeable("X"));
        assert!(e.to_string().contains("no sound merge"));
    }
}
