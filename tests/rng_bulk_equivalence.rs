//! Bulk RNG / scalar equivalence: the amortized batch APIs of the
//! vectorized pipeline (`Xoshiro256StarStar::fill_u64`,
//! `TranscriptRng::next_u64_many`, and the bulk uniform rule `fill_below`
//! fed by it) must be **draw-for-draw identical** to the historical scalar
//! loops: same raw words, same items,
//! and the same public transcript (`draws`, `recent`, `last`). This is the
//! white-box model's non-negotiable: every optimization must leave the
//! public random tape byte-identical.

use proptest::prelude::*;
use wbstream::core::rng::{
    below, coin_threshold, f64_from_word, fill_below, rejection_zone, TranscriptRng, WordSource,
    Xoshiro256StarStar,
};

/// Batch sizes the ISSUE pins: a singleton, a non-round prime, and a batch
/// larger than the transcript ring (4096 > 1024) so `record_many` has to
/// wrap and drop non-surviving words.
const BATCH_SIZES: &[usize] = &[1, 7, 4096];

/// Moduli worth pinning: non-powers-of-two (the rejection path), a power
/// of two (the mask path), `1` (degenerate), and a value above `2^63`
/// where rejection sampling actually rejects ~half the raw words, forcing
/// `fill_below` through its redraw rounds.
const MODULI: &[u64] = &[1, 3, 5, 100, 1_000_003, 1 << 16, (1 << 63) + 3];

/// Asserts the two generators have identical public transcripts.
fn assert_transcripts_eq(a: &TranscriptRng, b: &TranscriptRng, ctx: &str) {
    assert_eq!(
        a.transcript().draws(),
        b.transcript().draws(),
        "{ctx}: draws"
    );
    assert_eq!(a.transcript().last(), b.transcript().last(), "{ctx}: last");
    assert_eq!(
        a.transcript().recent(),
        b.transcript().recent(),
        "{ctx}: recent ring"
    );
}

#[test]
fn fill_u64_matches_scalar_next_u64() {
    for &len in BATCH_SIZES {
        let mut bulk = Xoshiro256StarStar::from_seed(0xFEED);
        let mut scalar = Xoshiro256StarStar::from_seed(0xFEED);
        let mut words = vec![0u64; len];
        bulk.fill_u64(&mut words);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(w, scalar.next_u64(), "word {i} of {len}");
        }
        // The generators stay in lockstep after the batch.
        assert_eq!(bulk.next_u64(), scalar.next_u64(), "post-batch word");
    }
}

#[test]
fn next_u64_many_matches_scalar_loop() {
    for &len in BATCH_SIZES {
        let mut bulk = TranscriptRng::from_seed(42);
        let mut scalar = TranscriptRng::from_seed(42);
        let mut words = vec![0u64; len];
        bulk.next_u64_many(&mut words);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(w, scalar.next_u64(), "word {i} of batch {len}");
        }
        assert_transcripts_eq(&bulk, &scalar, &format!("batch {len}"));
    }
}

#[test]
fn fill_below_matches_scalar_loop() {
    for &n in MODULI {
        for &len in BATCH_SIZES {
            let mut bulk = TranscriptRng::from_seed(7);
            let mut scalar = TranscriptRng::from_seed(7);
            let mut items = vec![0u64; len];
            fill_below(&mut bulk, n, &mut items);
            for (i, &it) in items.iter().enumerate() {
                assert_eq!(it, scalar.below(n), "item {i} of batch {len}, n={n}");
            }
            assert_transcripts_eq(&bulk, &scalar, &format!("n={n} batch {len}"));
        }
    }
}

/// A tape of fixed words, read in order. Reading past the last word
/// panics, so a draw that consumes more words than it should fails.
struct FixedWords {
    words: Vec<u64>,
    read: usize,
}

impl FixedWords {
    fn new(words: &[u64]) -> Self {
        FixedWords {
            words: words.to_vec(),
            read: 0,
        }
    }
}

impl WordSource for FixedWords {
    fn next_u64(&mut self) -> u64 {
        self.read += 1;
        self.words[self.read - 1]
    }

    fn next_u64_many(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.next_u64();
        }
    }
}

/// The uniform-draw rule's rejection boundary: for a modulus that is not
/// a power of two, the top word and the zone itself are rejected and the
/// word just below the zone is accepted, by the scalar and the bulk rule
/// alike, after exactly three words.
#[test]
fn uniform_rule_rejects_exactly_from_the_zone_up() {
    for &n in &[
        3u64,
        4032,
        (1 << 61) - 1,
        (1 << 63) + 1,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let zone = u64::MAX - u64::MAX % n;
        // The zone is the largest multiple of n in u64 range.
        assert_eq!(zone % n, 0, "zone is a multiple of n={n}");
        assert!(u64::MAX - zone < n, "zone is the largest multiple, n={n}");
        assert_eq!(rejection_zone(n), zone, "n={n}");
        let words = [u64::MAX, zone, zone - 1];
        let mut tape = FixedWords::new(&words);
        assert_eq!(below(&mut tape, n), (zone - 1) % n, "below, n={n}");
        assert_eq!(tape.read, 3, "below's words, n={n}");
        let mut tape = FixedWords::new(&words);
        let mut out = [0u64];
        fill_below(&mut tape, n, &mut out);
        assert_eq!(out[0], (zone - 1) % n, "fill_below, n={n}");
        assert_eq!(tape.read, 3, "fill_below's words, n={n}");
    }
    // A power of two masks: the top word is accepted as it is.
    for &n in &[1u64, 2, 4096, 1 << 63] {
        let mut tape = FixedWords::new(&[u64::MAX]);
        assert_eq!(below(&mut tape, n), n - 1, "below, n={n}");
        let mut tape = FixedWords::new(&[u64::MAX]);
        let mut out = [0u64];
        fill_below(&mut tape, n, &mut out);
        assert_eq!(out[0], n - 1, "fill_below, n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk word fills agree with the scalar tape from any interior offset
    /// (a scalar prefix desynchronizes any fill that assumed alignment).
    #[test]
    fn fill_u64_matches_from_any_offset(
        seed in any::<u64>(),
        prefix in 0usize..9,
        len in 0usize..600,
    ) {
        let mut bulk = Xoshiro256StarStar::from_seed(seed);
        let mut scalar = Xoshiro256StarStar::from_seed(seed);
        for _ in 0..prefix {
            prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
        }
        let mut words = vec![0u64; len];
        bulk.fill_u64(&mut words);
        for &w in &words {
            prop_assert_eq!(w, scalar.next_u64());
        }
        prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
    }

    /// Interleaved bulk and scalar word draws keep the transcript (and the
    /// tape) in lockstep — `record_many` ends in exactly the ring state the
    /// per-word path produces, including wraps past the 1024-word ring.
    #[test]
    fn interleaved_next_u64_many_keeps_transcript(
        seed in any::<u64>(),
        batches in proptest::collection::vec(0usize..700, 1..6),
    ) {
        let mut bulk = TranscriptRng::from_seed(seed);
        let mut scalar = TranscriptRng::from_seed(seed);
        for (round, &len) in batches.iter().enumerate() {
            let mut words = vec![0u64; len];
            bulk.next_u64_many(&mut words);
            for &w in &words {
                prop_assert_eq!(w, scalar.next_u64());
            }
            // A scalar draw on both keeps them aligned between batches.
            prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
            assert_transcripts_eq(&bulk, &scalar, &format!("round {round}"));
        }
    }

    /// `fill_below` equals the scalar rejection loop for arbitrary
    /// (non-power-of-two included) moduli: same items, same number of raw
    /// words burned, same transcript.
    #[test]
    fn fill_below_matches_scalar_for_arbitrary_n(
        seed in any::<u64>(),
        n in 1u64..=u64::MAX,
        len in 0usize..300,
    ) {
        let mut bulk = TranscriptRng::from_seed(seed);
        let mut scalar = TranscriptRng::from_seed(seed);
        let mut items = vec![0u64; len];
        fill_below(&mut bulk, n, &mut items);
        for &it in &items {
            prop_assert_eq!(it, scalar.below(n));
        }
        assert_transcripts_eq(&bulk, &scalar, &format!("n={n} len={len}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coin_threshold_decides_every_word_like_the_float_compare(
        p_bits in any::<u64>(),
        p_unit in 0u64..(1 << 53),
        w in any::<u64>(),
    ) {
        // Arbitrary bit patterns (NaN, infinities, negatives, subnormals)
        // and probabilities on the 2^-53 grid and just off it.
        let grid = p_unit as f64 / (1u64 << 53) as f64;
        for p in [
            f64::from_bits(p_bits),
            grid,
            grid.next_up(),
            grid.next_down(),
            0.0,
            -0.0,
            1.0,
            1.0f64.next_down(),
        ] {
            let t = coin_threshold(p);
            // The words at the threshold's edge as well as an arbitrary one.
            let edge = t.min(1 << 53) << 11;
            for word in [w, edge, edge.wrapping_sub(1), edge | 0x7FF, edge.wrapping_add(1 << 11)] {
                prop_assert_eq!(
                    (word >> 11) < t,
                    f64_from_word(word) < p,
                    "p = {:e} ({:#x}), word {:#x}",
                    p,
                    p.to_bits(),
                    word
                );
            }
        }
    }
}
