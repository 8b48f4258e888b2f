//! Exact L0 (distinct elements) baseline for turnstile streams.
//!
//! Stores the full support of the frequency vector — `Θ(L0·log n)` bits.
//! Deterministic exact counting is what Theorem 1.9 (with `p = 0`) proves
//! unavoidable for white-box adversaries with unbounded computation; the
//! SIS estimator (Algorithm 5) beats it only under Assumption 2.17.

use wb_core::merge::MergeError;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_signed, bits_for_universe, SpaceUsage};
use wb_core::stream::{FrequencyVector, StreamAlg, Turnstile};

/// Exact distinct-element counter over turnstile streams.
#[derive(Debug, Clone, Default)]
pub struct ExactL0 {
    freqs: FrequencyVector,
    n: u64,
}

impl ExactL0 {
    /// Exact counter over universe `[n]`.
    pub fn new(n: u64) -> Self {
        ExactL0 {
            freqs: FrequencyVector::new(),
            n,
        }
    }

    /// Apply a turnstile update.
    pub fn update(&mut self, item: u64, delta: i64) {
        self.freqs.update(item, delta);
    }

    /// Exact `L0 = |{i : f_i ≠ 0}|`.
    pub fn l0(&self) -> u64 {
        self.freqs.l0()
    }

    /// The underlying frequency vector.
    pub fn freqs(&self) -> &FrequencyVector {
        &self.freqs
    }
}

impl Snapshot for ExactL0 {
    /// Layout: `n | freqs`.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.n);
        self.freqs.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_u64()?;
        if n != self.n {
            return Err(SnapError::mismatch(
                format!("ExactL0(n={})", self.n),
                format!("ExactL0(n={n})"),
            ));
        }
        self.freqs.restore(r)
    }
}

impl SpaceUsage for ExactL0 {
    fn space_bits(&self) -> u64 {
        let id_bits = bits_for_universe(self.n);
        self.freqs
            .iter()
            .map(|(_, f)| id_bits + bits_for_signed(f))
            .sum()
    }
}

impl StreamAlg for ExactL0 {
    type Update = Turnstile;
    type Output = u64;

    fn process(&mut self, update: &Turnstile, _rng: &mut TranscriptRng) {
        self.update(update.item, update.delta);
    }

    /// Batched ingestion through [`FrequencyVector::update_batch`]: deltas
    /// are pre-aggregated per item, so each touched coordinate is hashed
    /// once per batch instead of once per update. Coordinate addition is
    /// exact, so the support (and with it `l0()` and the space accounting)
    /// is bit-identical to sequential processing.
    fn process_batch(&mut self, updates: &[Turnstile], _rng: &mut TranscriptRng) {
        let pairs: Vec<(u64, i64)> = updates.iter().map(|u| (u.item, u.delta)).collect();
        self.freqs.update_batch(&pairs);
    }

    /// Exact merge: the underlying frequency vectors add coordinate-wise,
    /// so the merged L0 equals single-stream ingestion of both streams.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.n != other.n {
            return Err(MergeError::incompatible(format!(
                "ExactL0 universe {} vs {}",
                self.n, other.n
            )));
        }
        self.freqs.merge(&other.freqs);
        Ok(())
    }

    fn query(&self) -> u64 {
        self.l0()
    }

    fn name(&self) -> &'static str {
        "ExactL0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_distinct_with_deletions() {
        let mut e = ExactL0::new(1000);
        e.update(1, 3);
        e.update(2, 1);
        e.update(3, 5);
        assert_eq!(e.l0(), 3);
        e.update(2, -1);
        assert_eq!(e.l0(), 2, "cancelled item leaves the support");
        e.update(4, -7);
        assert_eq!(e.l0(), 3, "negative coordinates count");
    }

    #[test]
    fn merge_cancels_across_shards() {
        // Insertions land on one shard and the matching deletions on the
        // other; only the merged view sees the cancellation.
        let mut a = ExactL0::new(1000);
        let mut b = ExactL0::new(1000);
        for i in 0..32u64 {
            a.update(i, 2);
            b.update(i, -2);
        }
        b.update(777, 1);
        assert_eq!(a.l0(), 32);
        a.merge_from(&b).unwrap();
        assert_eq!(a.l0(), 1, "cancelled items must leave the merged support");
        assert_eq!(a.freqs().get(777), 1);
        let wrong_universe = ExactL0::new(10);
        assert!(matches!(
            a.merge_from(&wrong_universe),
            Err(MergeError::Incompatible(_))
        ));
    }

    #[test]
    fn batch_matches_sequential() {
        let mut seq = ExactL0::new(1 << 10);
        let mut bat = ExactL0::new(1 << 10);
        // Waves of inserts followed by the matching deletes: the batch
        // path must see the same support through every cancellation.
        let stream: Vec<Turnstile> = (0..3000u64)
            .map(|t| Turnstile {
                item: t % 53,
                delta: if t % 2 == 0 { 2 } else { -2 },
            })
            .collect();
        let mut r1 = TranscriptRng::from_seed(51);
        let mut r2 = TranscriptRng::from_seed(51);
        for u in &stream {
            seq.process(u, &mut r1);
        }
        for c in stream.chunks(97) {
            bat.process_batch(c, &mut r2);
        }
        assert_eq!(seq.l0(), bat.l0());
        assert_eq!(seq.space_bits(), bat.space_bits());
        assert_eq!(seq.freqs().updates(), bat.freqs().updates());
        for item in 0..53u64 {
            assert_eq!(seq.freqs().get(item), bat.freqs().get(item));
        }
    }

    #[test]
    fn space_scales_with_support() {
        let mut e = ExactL0::new(1 << 20);
        let empty = e.space_bits();
        for i in 0..100 {
            e.update(i, 1);
        }
        assert!(e.space_bits() >= empty + 100 * 20);
    }
}
