//! Byte-identity pins for every registry algorithm.
//!
//! `robust_hh` (Theorem 1.1), `phi_eps_hh` (Theorem 1.2), `sis_l0`
//! (Theorem 1.5) and the `median_morris` counter under the first two carry
//! memo tables, an exponent power chain, fixed-base exponentiation tables
//! and per-batch column grouping; `space_saving` keeps its counters in heap
//! order. None of that may change an output. `batch_equivalence` only
//! compares the batch path against the scalar path of the same build, so a
//! drift that both paths share slips past it. This file pins the state
//! itself: the FNV-1a digest of `snapshot_dyn()` followed by the
//! `TranscriptRng` snapshot, after each stream, for the batch path at
//! chunks {1, 7, 4096} and for per-update `process_dyn`. The constants of
//! those five kernels were recorded on the implementations that predate
//! the tables and the heap (plain `powi` per exponent, a full scan per
//! eviction). The other seven registry algorithms are pinned too —
//! `misra_gries`, `bern_mg`, `bernoulli_hh`, `morris` and `count_min` on
//! insertion-only workloads, `ams_f2` and `exact_l0` on turnstile churn —
//! so every `snapshot_dyn` frame the registry can produce is fixed, and
//! any change to a sketch, its snapshot layout, a random word or its order
//! fails here.
//!
//! The pinned values include `f64` bits of `(1+a)^x`; CI runs this file
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
fn run(name: &str, params: &Params, updates: &[Update], chunk: Option<usize>) -> u64 {
    let mut alg = registry::get(name, params).unwrap();
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

/// Every path must land on `expected` at the default parameters.
fn check(name: &str, spec: WorkloadSpec, expected: u64) {
    check_with(name, name, &Params::default().with_n(N), spec, expected);
}

/// Every path must land on `expected` at `params`; failures name `label`.
fn check_with(label: &str, name: &str, params: &Params, spec: WorkloadSpec, expected: u64) {
    let updates = spec.generate();
    let mut got = vec![("scalar".to_string(), run(name, params, &updates, None))];
    for chunk in [1, 7, 4096] {
        let fp = run(name, params, &updates, Some(chunk));
        got.push((format!("chunk {chunk}"), fp));
    }
    for (path, fp) in got {
        assert_eq!(
            fp, expected,
            "{label}: {path} fingerprint {fp:#018x} != pinned {expected:#018x}"
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
fn robust_hh_matches_pinned_state_past_exponent_2_16() {
    // 2^18 increments at `a ≈ 1.5·10⁻⁵` carry the Morris exponents past
    // 2^16, into the high bits of the exponent power chain.
    check(
        "robust_hh",
        WorkloadSpec::Cycle {
            items: 8,
            m: 1 << 18,
        },
        0x1657_e89f_51dd_c194,
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

#[test]
fn misra_gries_matches_pinned_state() {
    check(
        "misra_gries",
        WorkloadSpec::Zipf {
            n: N,
            m: 1 << 15,
            heavy: 64,
            seed: 0x3a61,
        },
        0xe88f_8979_0355_ba25,
    );
}

#[test]
fn bern_mg_matches_pinned_state() {
    check(
        "bern_mg",
        WorkloadSpec::Zipf {
            n: N,
            m: 1 << 15,
            heavy: 64,
            seed: 0xbe44,
        },
        0x99a8_b0ac_33df_c3a0,
    );
}

#[test]
fn bernoulli_hh_matches_pinned_state() {
    check(
        "bernoulli_hh",
        WorkloadSpec::Uniform {
            n: N,
            m: 1 << 15,
            seed: 0xbe41,
        },
        0xd443_a6d6_ed3b_40ad,
    );
}

#[test]
fn morris_matches_pinned_state() {
    check(
        "morris",
        WorkloadSpec::Cycle {
            items: 8,
            m: 1 << 15,
        },
        0x1126_1600_4a9a_16bb,
    );
}

#[test]
fn count_min_matches_pinned_state() {
    check(
        "count_min",
        WorkloadSpec::Zipf {
            n: N,
            m: 1 << 15,
            heavy: 16,
            seed: 0xc0c0,
        },
        0x238a_0f71_5725_cbb4,
    );
}

#[test]
fn ams_f2_matches_pinned_state() {
    check(
        "ams_f2",
        WorkloadSpec::Churn {
            n: N,
            waves: 3,
            wave: 4096,
            seed: 0xa2f2,
        },
        0xb264_0436_ea15_6abb,
    );
}

#[test]
fn exact_l0_matches_pinned_state() {
    check(
        "exact_l0",
        WorkloadSpec::Churn {
            n: N,
            waves: 3,
            wave: 4096,
            seed: 0xe10,
        },
        0x7e13_373d_dd42_6899,
    );
}

/// The SpaceSaving workloads: zipf with a 64-item head, where most updates
/// miss and evict, and uniform over the whole universe.
fn space_saving_specs() -> [(&'static str, WorkloadSpec); 2] {
    [
        (
            "zipf",
            WorkloadSpec::Zipf {
                n: N,
                m: 1 << 16,
                heavy: 64,
                seed: 0x5a5a,
            },
        ),
        (
            "uniform",
            WorkloadSpec::Uniform {
                n: N,
                m: 1 << 16,
                seed: 0x55aa,
            },
        ),
    ]
}

#[test]
fn space_saving_matches_pinned_state() {
    // k = 16 at the default ε and k = 64 at ε = 1/32.
    let pins = [
        (0.125, [0xd5a1_8d83_3f5b_a5f0, 0x6600_6bc8_2674_f557]),
        (1.0 / 32.0, [0xacdc_ee5d_0f9d_12d7, 0x0a58_50b6_d442_f52c]),
    ];
    for (eps, expected) in pins {
        let params = Params::default().with_n(N).with_eps(eps);
        for ((workload, spec), want) in space_saving_specs().into_iter().zip(expected) {
            let label = format!("space_saving (eps {eps}, {workload})");
            check_with(&label, "space_saving", &params, spec, want);
        }
    }
}
