//! Property-based tests for the sketching layer: the deterministic
//! invariants hold on *arbitrary* streams, not just the unit-test ones.

use proptest::prelude::*;
use std::collections::HashMap;
use wbstream::core::rng::TranscriptRng;
use wbstream::core::snap::{SnapReader, SnapWriter, Snapshot};
use wbstream::core::space::SpaceUsage;
use wbstream::core::stream::{InsertOnly, StreamAlg, Turnstile};
use wbstream::sketch::l0::{MatrixMode, SisL0Estimator};
use wbstream::sketch::{MedianMorris, MisraGries, MorrisCounter, SpaceSaving};

/// The snapshot bytes of `x`.
fn snap_bytes(x: &impl Snapshot) -> Vec<u8> {
    let mut w = SnapWriter::new();
    x.snap(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn misra_gries_sandwich_on_arbitrary_streams(
        stream in proptest::collection::vec(0u64..32, 1..600),
        k in 2usize..12,
    ) {
        let mut mg = MisraGries::with_counters(k, 32);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &stream {
            mg.insert(item);
            *truth.entry(item).or_insert(0) += 1;
        }
        let m = stream.len() as u64;
        for item in 0..32u64 {
            let f = truth.get(&item).copied().unwrap_or(0);
            let est = mg.estimate(item);
            prop_assert!(est <= f, "item {item}: est {est} > f {f}");
            prop_assert!(f - est <= m / k as u64, "item {item}: error too large");
        }
        prop_assert!(mg.entries().len() <= k);
    }

    #[test]
    fn space_saving_sandwich_on_arbitrary_streams(
        stream in proptest::collection::vec(0u64..32, 1..600),
        k in 2usize..12,
    ) {
        let mut ss = SpaceSaving::with_counters(k, 32);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &stream {
            ss.insert(item);
            *truth.entry(item).or_insert(0) += 1;
        }
        let m = stream.len() as u64;
        for (item, e) in ss.entries() {
            let f = truth.get(&item).copied().unwrap_or(0);
            prop_assert!(e.count >= f);
            prop_assert!(e.count - e.err <= f);
            prop_assert!(e.err <= m / k as u64 + 1);
        }
    }

    #[test]
    fn morris_estimate_is_monotone_in_exponent(seed in 0u64..500, n in 1u64..5000) {
        let mut rng = TranscriptRng::from_seed(seed);
        let mut c = MorrisCounter::with_base(0.5);
        let mut last_exp = 0;
        for _ in 0..n {
            c.increment(&mut rng);
            prop_assert!(c.exponent() >= last_exp, "exponent never decreases");
            last_exp = c.exponent();
        }
        // The estimate is a strictly increasing function of the exponent.
        prop_assert!(c.estimate() >= 0.0);
        prop_assert!(c.space_bits() <= 64);
    }

    #[test]
    fn sis_l0_sandwich_on_arbitrary_turnstile_streams(
        ops in proptest::collection::vec((0u64..256, -3i64..=3), 1..200),
    ) {
        let mut rng = TranscriptRng::from_seed(9);
        let mut est = SisL0Estimator::new(256, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
        let mut freqs: HashMap<u64, i64> = HashMap::new();
        for &(item, delta) in &ops {
            est.update(item, delta);
            let e = freqs.entry(item).or_insert(0);
            *e += delta;
            if *e == 0 {
                freqs.remove(&item);
            }
        }
        let l0 = freqs.len() as u64;
        let (lo, hi) = est.answer_range();
        prop_assert!(lo <= l0, "answer {lo} exceeds true L0 {l0}");
        prop_assert!(l0 <= hi, "true L0 {l0} exceeds upper bound {hi}");
    }

    #[test]
    fn sis_l0_full_cancellation_always_reads_zero(
        items in proptest::collection::vec(0u64..256, 1..60),
        delta in 1i64..4,
    ) {
        let mut rng = TranscriptRng::from_seed(10);
        let mut est = SisL0Estimator::new(256, 0.5, 0.25, MatrixMode::Explicit, &mut rng);
        for &item in &items {
            est.update(item, delta);
        }
        for &item in &items {
            est.update(item, -delta);
        }
        prop_assert_eq!(est.answer(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sis_grouped_batch_equals_per_update_in_both_modes(
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u64..256, -3i64..=3), 0..400),
        cancel in proptest::collection::vec(0u64..256, 0..40),
        chunk in 1usize..300,
    ) {
        for mode in [MatrixMode::Explicit, MatrixMode::RandomOracle] {
            let mut rng = TranscriptRng::from_seed(seed);
            let mut scalar = SisL0Estimator::new(256, 0.5, 0.25, mode, &mut rng);
            let q = scalar.matrix().params().q as i64;
            // Interleave runs that cancel exactly, and deltas that are
            // nonzero but vanish mod q, with the arbitrary updates.
            let mut updates = Vec::new();
            for i in 0..raw.len().max(cancel.len()) {
                if let Some(&(item, delta)) = raw.get(i) {
                    updates.push(Turnstile { item, delta });
                }
                if let Some(&item) = cancel.get(i) {
                    updates.push(Turnstile { item, delta: 5 });
                    updates.push(Turnstile { item, delta: q });
                    updates.push(Turnstile { item, delta: -5 });
                }
            }
            let mut batched = scalar.clone();
            for u in &updates {
                scalar.update(u.item, u.delta);
            }
            let mut tape = TranscriptRng::from_seed(0);
            for part in updates.chunks(chunk) {
                batched.process_batch(part, &mut tape);
            }
            prop_assert_eq!(batched.answer(), scalar.answer(), "{:?}", mode);
            prop_assert_eq!(snap_bytes(&batched), snap_bytes(&scalar), "{:?}", mode);
        }
    }

    #[test]
    fn median_morris_restored_mid_stream_continues_like_the_uninterrupted_run(
        seed in 0u64..1000,
        k in 1usize..40,
        eps_idx in 0usize..3,
        len in 1usize..3000,
        split_permille in 0usize..=1000,
        chunk in 1usize..200,
    ) {
        // From "nearly every coin bumps" (memo-heavy) to "rare bumps".
        let eps = [0.005, 0.05, 0.3][eps_idx];
        let updates = vec![InsertOnly(0); len];
        let split = len * split_permille / 1000;

        let mut whole = MedianMorris::new(eps, k);
        let mut whole_rng = TranscriptRng::from_seed(seed);
        for part in updates.chunks(chunk) {
            whole.process_batch(part, &mut whole_rng);
        }

        // Scalar path up to the split, then a snapshot restored into a
        // fresh twin (cold memo) that finishes on the batch path.
        let mut first = MedianMorris::new(eps, k);
        let mut rng = TranscriptRng::from_seed(seed);
        for _ in 0..split {
            first.increment(&mut rng);
        }
        let bytes = snap_bytes(&first);
        let mut twin = MedianMorris::new(eps, k);
        let mut r = SnapReader::new(&bytes).unwrap();
        twin.restore(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(twin.estimate().to_bits(), first.estimate().to_bits());
        for part in updates[split..].chunks(chunk) {
            twin.process_batch(part, &mut rng);
        }

        prop_assert_eq!(snap_bytes(&twin), snap_bytes(&whole));
        prop_assert_eq!(twin.estimate().to_bits(), whole.estimate().to_bits());
        prop_assert!(twin.estimate() <= twin.estimate_bound());
        prop_assert_eq!(rng.transcript().draws(), whole_rng.transcript().draws());
        prop_assert_eq!(rng.transcript().recent(), whole_rng.transcript().recent());
    }
}
