//! Batch/sequential equivalence: for **every** registry-listed algorithm,
//! `process_batch` must leave bit-identical observable state (query answer
//! and space accounting) and an identical randomness transcript compared
//! to per-update `process`, for arbitrary update sequences and chunkings.
//! This is the contract that lets the engine route oblivious stream
//! segments through the hand-optimized batch overrides.

use proptest::prelude::*;
use wbstream::core::rng::TranscriptRng;
use wbstream::core::snap::to_bytes;
use wbstream::core::WbError;
use wbstream::engine::registry::{self, Params};
use wbstream::engine::Update;

/// Insertion-only update stream over a small universe (all algorithms can
/// ingest these; turnstile-capable ones see them as unit insertions).
fn insert_updates(items: &[u64]) -> Vec<Update> {
    items.iter().map(|&i| Update::Insert(i)).collect()
}

/// Signed update stream for the turnstile-capable algorithms.
fn turnstile_updates(raw: &[(u64, i64)]) -> Vec<Update> {
    raw.iter()
        .map(|&(item, delta)| Update::Turnstile {
            item,
            delta: if delta == 0 { 1 } else { delta },
        })
        .collect()
}

/// Feed `updates` to a fresh `name` instance sequentially and chunked;
/// assert identical answers, space, and transcripts.
fn assert_equivalent(name: &str, updates: &[Update], chunk: usize, seed: u64) {
    let params = Params::default().with_n(64).with_m_guess(1 << 10);
    assert_equivalent_with(&params, name, updates, chunk, seed);
}

/// [`assert_equivalent`] for an instance built from explicit `params`.
fn assert_equivalent_with(
    params: &Params,
    name: &str,
    updates: &[Update],
    chunk: usize,
    seed: u64,
) {
    let mut seq = registry::get(name, params).unwrap();
    let mut bat = registry::get(name, params).unwrap();
    let mut rng_seq = TranscriptRng::from_seed(seed);
    let mut rng_bat = TranscriptRng::from_seed(seed);
    for u in updates {
        seq.process_dyn(u, &mut rng_seq)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for c in updates.chunks(chunk.max(1)) {
        bat.process_batch_dyn(c, &mut rng_bat)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    assert_eq!(
        seq.query_dyn(),
        bat.query_dyn(),
        "{name}: answers diverge at chunk {chunk}"
    );
    assert_eq!(
        seq.space_bits_dyn(),
        bat.space_bits_dyn(),
        "{name}: space accounting diverges at chunk {chunk}"
    );
    assert_eq!(
        rng_seq.transcript().draws(),
        rng_bat.transcript().draws(),
        "{name}: randomness transcripts diverge at chunk {chunk}"
    );
    assert_eq!(
        rng_seq.transcript().recent(),
        rng_bat.transcript().recent(),
        "{name}: transcript tapes diverge at chunk {chunk}"
    );
}

/// Registry algorithms that accept insertion-only streams (all of them:
/// turnstile algorithms see unit insertions).
fn insert_capable() -> Vec<&'static str> {
    registry::names()
}

/// Registry algorithms whose stream model is turnstile. `ams_f2` and
/// `exact_l0` have hand-optimized batch overrides that aggregate per-item
/// deltas before touching the counters; these cases are what pins their
/// bit-identical-state contract.
const TURNSTILE: &[&str] = &["ams_f2", "exact_l0", "sis_l0"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_equals_sequential_on_insertions(
        items in proptest::collection::vec(0u64..64, 1..400),
        chunk in 1usize..96,
        seed in 0u64..1000,
    ) {
        let updates = insert_updates(&items);
        for name in insert_capable() {
            assert_equivalent(name, &updates, chunk, seed);
        }
    }

    #[test]
    fn batch_equals_sequential_on_turnstile(
        raw in proptest::collection::vec((0u64..64, -3i64..=3), 1..300),
        chunk in 1usize..64,
        seed in 0u64..1000,
    ) {
        let updates = turnstile_updates(&raw);
        for name in TURNSTILE {
            assert_equivalent(name, &updates, chunk, seed);
        }
    }

    #[test]
    fn batch_equals_sequential_on_weighted_inserts(
        raw in proptest::collection::vec((0u64..64, 1i64..=9), 1..200),
        chunk in 1usize..48,
        seed in 0u64..1000,
    ) {
        // Positive multi-unit turnstile deltas reaching insert-only
        // sketches through the erased layer's delta expansion: the batched
        // path (expansion + sort/run-length aggregation in e.g. CountMin)
        // must stay bit-identical to per-update processing — for **every**
        // insert-only algorithm, including the randomized ones whose
        // expanded unit inserts each consume coins.
        let updates: Vec<Update> = raw
            .iter()
            .map(|&(item, delta)| Update::Turnstile { item, delta })
            .collect();
        for name in insert_only() {
            assert_equivalent(name, &updates, chunk, seed);
        }
    }
}

/// The insert-only registry algorithms (turnstile updates reach them via
/// the erased layer's positive-delta expansion).
fn insert_only() -> Vec<&'static str> {
    registry::names()
        .into_iter()
        .filter(|n| !TURNSTILE.contains(n))
        .collect()
}

/// The chunk sizes the ISSUE pins for every newly-kerneled algorithm: a
/// singleton (batch path must degrade to the scalar path exactly), a
/// non-round prime (every block-prefetch kernel ends with a ragged tail),
/// and a batch larger than every internal block size (4096 > 512-word
/// prefetch blocks, forcing multiple refills per call).
const PINNED_CHUNKS: &[usize] = &[1, 7, 4096];

#[test]
fn pinned_chunk_sizes_cover_all_registry_algorithms() {
    // Runs-heavy head (exercises run-collapsing kernels) followed by a
    // high-distinct tail (exercises the no-run fallbacks), 9216 updates so
    // chunk 4096 yields full, ragged, and final partial batches.
    let items: Vec<u64> = (0..9216u64)
        .map(|t| {
            if t % 3 != 2 {
                (t / 7) % 8
            } else {
                t.wrapping_mul(2654435761) % 64
            }
        })
        .collect();
    let updates = insert_updates(&items);
    for &chunk in PINNED_CHUNKS {
        for name in registry::names() {
            assert_equivalent(name, &updates, chunk, 12);
        }
    }
}

#[test]
fn pinned_chunk_sizes_cover_turnstile_and_expansion() {
    // Signed stream: turnstile algorithms fold cancellations; insert-only
    // algorithms see the positive deltas expanded to unit inserts by the
    // erased layer. Both must hold at every pinned chunk size.
    let signed: Vec<Update> = (0..4500u64)
        .map(|t| Update::Turnstile {
            item: t % 48,
            delta: [1, -1, 3, 2, -2, 1, 5][(t % 7) as usize],
        })
        .collect();
    let positive: Vec<Update> = (0..1500u64)
        .map(|t| Update::Turnstile {
            item: t % 32,
            delta: 1 + (t % 9) as i64,
        })
        .collect();
    for &chunk in PINNED_CHUNKS {
        for name in TURNSTILE {
            assert_equivalent(name, &signed, chunk, 23);
        }
        for name in insert_only() {
            assert_equivalent(name, &positive, chunk, 23);
        }
    }
}

/// Large single batches (≥ 4096 updates, one `process_batch_dyn` call) pin
/// the distinct-item aggregation kernels: CountMin's adaptive path samples
/// the batch prefix and either run-aggregates or hashes per update, and
/// AmsF2 folds per-item deltas before touching any counter. Both regimes —
/// low-distinct (aggregation wins, taken) and high-distinct (direct
/// hashing, taken) — must be bit-identical to per-update processing.
#[test]
fn large_batch_low_distinct_matches_sequential() {
    // 8192 updates over 16 items: the sampled prefix is runs-dominated, so
    // CountMin's aggregation path fires and AMS folds 16 signed sums.
    let items: Vec<u64> = (0..8192u64).map(|t| (t * t + 3 * t) % 16).collect();
    let updates = insert_updates(&items);
    for name in ["count_min", "misra_gries", "ams_f2"] {
        assert_equivalent(name, &updates, usize::MAX, 5);
    }
}

#[test]
fn large_batch_high_distinct_matches_sequential() {
    // 4096 updates, nearly all distinct (multiplication by an odd constant
    // permutes the 12-bit universe): CountMin's sample sees ~no runs and
    // falls back to direct per-update hashing.
    let items: Vec<u64> = (0..4096u64)
        .map(|t| (t.wrapping_mul(2654435761)) % 4096)
        .collect();
    let updates = insert_updates(&items);
    for name in ["count_min", "misra_gries", "ams_f2"] {
        assert_equivalent(name, &updates, usize::MAX, 5);
    }
}

#[test]
fn large_batch_turnstile_matches_sequential() {
    // 6144 signed updates over 48 items, deltas in [-3, 3] \ {0}: the
    // turnstile aggregators must fold cancellations exactly.
    let raw: Vec<(u64, i64)> = (0..6144u64)
        .map(|t| (t % 48, ((t / 48) % 7) as i64 - 3))
        .collect();
    let updates = turnstile_updates(&raw);
    for name in TURNSTILE {
        assert_equivalent(name, &updates, usize::MAX, 5);
    }
}

#[test]
fn median_morris_wider_than_one_word_block_matches_sequential() {
    // 600 copies (601 once made odd) draw more words per update than one
    // 512-word prefetch block holds, so every batch takes the one-update
    // heap-buffer path.
    let mut params = Params::default().with_n(64).with_m_guess(1 << 10);
    params.copies = 600;
    let updates = insert_updates(&[0; 40]);
    for chunk in [1, 3, usize::MAX] {
        assert_equivalent_with(&params, "median_morris", &updates, chunk, 9);
    }
}

/// `process_batch_dyn` converts a batch of unit updates in one pass and
/// hands it to `process_batch` once; one update that is not a unit update
/// sends the whole batch through the weighted loop. For every registry
/// algorithm, a 4096-update unit batch with one odd update first, in the
/// middle or last must either leave snapshot and tape bytes equal to a
/// per-update `process_dyn` replay, or be refused with the weighted loop's
/// message and leave both untouched.
#[test]
fn unit_batch_fast_path_meets_weighted_fallback() {
    let params = Params::default().with_n(64).with_m_guess(1 << 10);
    let unit: Vec<Update> = (0..4096u64)
        .map(|t| Update::Insert(t.wrapping_mul(2654435761) % 64))
        .collect();
    for name in registry::names() {
        let turnstile = TURNSTILE.contains(&name);
        let wrong_model = Update::Turnstile {
            item: 5,
            delta: if turnstile { i64::MIN } else { -1 },
        };
        let odd_updates = [
            (
                "weight-2 insertion",
                Update::Turnstile { item: 5, delta: 2 },
            ),
            ("wrong-model update", wrong_model),
            ("out-of-universe item", Update::Insert(64)),
        ];
        for (what, odd) in odd_updates {
            for at in [0, unit.len() / 2, unit.len()] {
                let mut batch = unit.clone();
                batch.insert(at, odd);
                let mut alg = registry::get(name, &params).unwrap();
                let mut rng = TranscriptRng::from_seed(17);
                let before = (alg.snapshot_dyn().unwrap(), to_bytes(&rng));
                let got = alg.process_batch_dyn(&batch, &mut rng);
                let alg_name = alg.name_dyn();
                let refusal = match (what, alg.universe_dyn()) {
                    ("wrong-model update", _) => Some(format!(
                        "{alg_name} cannot ingest a batch containing wrong-model updates"
                    )),
                    ("out-of-universe item", Some(n)) => Some(format!(
                        "{alg_name} cannot ingest item 64 (outside the universe [0, {n}))"
                    )),
                    _ => None,
                };
                let after = (alg.snapshot_dyn().unwrap(), to_bytes(&rng));
                if let Some(msg) = refusal {
                    assert_eq!(got, Err(WbError::invalid(msg)), "{name}: {what} at {at}");
                    assert!(after == before, "{name}: {what} at {at} changed state");
                    continue;
                }
                got.unwrap_or_else(|e| panic!("{name}: {what} at {at}: {e}"));
                let mut replay = registry::get(name, &params).unwrap();
                let mut replay_rng = TranscriptRng::from_seed(17);
                for u in &batch {
                    replay.process_dyn(u, &mut replay_rng).unwrap();
                }
                let replayed = (replay.snapshot_dyn().unwrap(), to_bytes(&replay_rng));
                assert!(after == replayed, "{name}: {what} at {at} diverges");
            }
        }
    }
}

#[test]
fn registry_names_cover_both_models() {
    let names = registry::names();
    assert!(names.len() >= 8);
    for t in TURNSTILE {
        assert!(names.contains(t), "{t} missing from registry");
    }
}
