//! Byte-identity pins for the paper's slow white-box kernels.
//!
//! `robust_hh` (Theorem 1.1), `phi_eps_hh` (Theorem 1.2), `sis_l0`
//! (Theorem 1.5) and the `median_morris` counter under the first two carry
//! memo tables, fixed-base exponentiation tables and per-batch column
//! grouping. None of that may change an output. `batch_equivalence` only
//! compares the batch path against the scalar path of the same build, so a
//! drift that both paths share slips past it. This file pins the state
//! itself: the FNV-1a digest of `snapshot_dyn()` followed by the
//! `TranscriptRng` snapshot, after each stream, for the batch path at
//! chunks {1, 7, 4096} and for per-update `process_dyn`. The constants were
//! recorded on the implementation that predates those tables, so any
//! change to a sketch, a random word or its order fails here.
//!
//! The pinned values include `f64` bits from `powi`; CI runs this file
//! under `--release` as well as in the default debug profile.

use wbstream::core::rng::TranscriptRng;
use wbstream::core::snap::{SnapWriter, Snapshot};
use wbstream::engine::registry::{self, Params};
use wbstream::engine::{Update, WorkloadSpec};

/// Universe size, as in the offline benchmark.
const N: u64 = 1 << 12;
/// Seed of the game tape each run draws from.
const GAME_SEED: u64 = 0x5107_7a11;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the algorithm's snapshot frame followed by the tape's.
fn fingerprint(alg: &dyn wbstream::engine::DynStreamAlg, rng: &TranscriptRng) -> u64 {
    let mut bytes = alg.snapshot_dyn().expect("registry algorithms snapshot");
    let mut w = SnapWriter::new();
    rng.snap(&mut w);
    bytes.extend(w.finish());
    fnv1a(&bytes)
}

/// Fingerprint after feeding `updates` in `chunk`-sized batches, or one
/// `process_dyn` call per update when `chunk` is `None`.
fn run(name: &str, updates: &[Update], chunk: Option<usize>) -> u64 {
    let params = Params::default().with_n(N);
    let mut alg = registry::get(name, &params).unwrap();
    let mut rng = TranscriptRng::from_seed(GAME_SEED);
    match chunk {
        Some(c) => {
            for part in updates.chunks(c) {
                alg.process_batch_dyn(part, &mut rng).unwrap();
            }
        }
        None => {
            for u in updates {
                alg.process_dyn(u, &mut rng).unwrap();
            }
        }
    }
    fingerprint(alg.as_ref(), &rng)
}

/// Every path must land on `expected`.
fn check(name: &str, spec: WorkloadSpec, expected: u64) {
    let updates = spec.generate();
    let mut got = vec![("scalar".to_string(), run(name, &updates, None))];
    for chunk in [1, 7, 4096] {
        got.push((format!("chunk {chunk}"), run(name, &updates, Some(chunk))));
    }
    for (path, fp) in got {
        assert_eq!(
            fp, expected,
            "{name}: {path} fingerprint {fp:#018x} != pinned {expected:#018x}"
        );
    }
}

#[test]
fn robust_hh_matches_pinned_state() {
    check(
        "robust_hh",
        WorkloadSpec::Cycle {
            items: 8,
            m: 1 << 15,
        },
        0x7ade_5eda_3649_4a8c,
    );
}

#[test]
fn phi_eps_hh_matches_pinned_state() {
    check(
        "phi_eps_hh",
        WorkloadSpec::Cycle {
            items: 8,
            m: 1 << 13,
        },
        0x936d_8eb3_0cd9_8c6e,
    );
}

#[test]
fn phi_eps_hh_matches_pinned_state_on_many_distinct_items() {
    // Thousands of distinct items: digest memo slots collide and evict.
    check(
        "phi_eps_hh",
        WorkloadSpec::Uniform {
            n: N,
            m: 1 << 13,
            seed: 0x0d15,
        },
        0x9589_2295_0dd0_1a63,
    );
}

#[test]
fn median_morris_matches_pinned_state() {
    check(
        "median_morris",
        WorkloadSpec::Cycle {
            items: 8,
            m: 1 << 16,
        },
        0x7cbe_4e90_24a1_f52d,
    );
}

#[test]
fn sis_l0_matches_pinned_state() {
    check(
        "sis_l0",
        WorkloadSpec::Churn {
            n: N,
            waves: 3,
            wave: 4096,
            seed: 0x0c4u64,
        },
        0xca22_2c44_9d84_4b48,
    );
}
