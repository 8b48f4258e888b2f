//! CountMin sketch and its white-box attack.
//!
//! CountMin is the canonical example of a sketch whose guarantee survives a
//! *black-box* adversary with output-change arguments but collapses in the
//! white-box model: the row hash functions are part of the internal state,
//! so an adversary that sees them can search for items that collide with a
//! victim item in **every** row and inflate the victim's estimate without
//! ever inserting it. [`forge_all_row_collisions`] implements that search;
//! the experiments (E8) chart its success against the sketch dimensions.

use wb_core::merge::MergeError;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, SpaceUsage};
use wb_core::stream::{InsertOnly, RunAggregator, StreamAlg};
use wb_crypto::mersenne::reduce125;

/// A CountMin sketch with `depth` rows and `width` buckets per row.
///
/// Row hashes are universal hashes `((a·x + b) mod p) mod width` with
/// `(a, b)` drawn from public randomness — fully visible to the white-box
/// adversary.
#[derive(Debug, Clone)]
pub struct CountMin {
    depth: usize,
    width: usize,
    /// Public per-row hash coefficients `(a, b)`.
    seeds: Vec<(u64, u64)>,
    table: Vec<u64>, // depth × width, row-major
    processed: u64,
    /// Reusable batch scratch: distinct-item aggregation table.
    agg: RunAggregator<u64>,
}

/// The Mersenne prime `2^61 − 1` used by the row hashes.
const P: u64 = (1 << 61) - 1;

impl CountMin {
    /// Sketch with the given dimensions; hash coefficients drawn from `rng`
    /// (and thereby published in the transcript).
    pub fn new(depth: usize, width: usize, rng: &mut TranscriptRng) -> Self {
        assert!(depth >= 1 && width >= 2);
        let seeds = (0..depth)
            .map(|_| (rng.range(1, P), rng.below(P)))
            .collect();
        CountMin {
            depth,
            width,
            seeds,
            table: vec![0; depth * width],
            processed: 0,
            agg: RunAggregator::new(),
        }
    }

    /// Bucket of `item` in `row`: `((a·x + b) mod P) mod width`, with the
    /// Mersenne reduction done by shift-adds (`a, b < P` keeps the hash
    /// below `2^125`, so the short [`reduce125`] fold applies, bit-identical
    /// to `% P`) and the width fold a mask when `width` is a power of two.
    pub fn bucket(&self, row: usize, item: u64) -> usize {
        let (a, b) = self.seeds[row];
        let h = reduce125(a as u128 * item as u128 + b as u128);
        if self.width.is_power_of_two() {
            (h & (self.width as u64 - 1)) as usize
        } else {
            (h % self.width as u64) as usize
        }
    }

    /// Add one occurrence of `item`.
    pub fn insert(&mut self, item: u64) {
        self.insert_weighted(item, 1);
    }

    /// Add `w` occurrences of `item` at once (row additions commute, so
    /// this is identical to `w` single insertions).
    pub fn insert_weighted(&mut self, item: u64, w: u64) {
        self.processed += w;
        for row in 0..self.depth {
            let b = self.bucket(row, item);
            self.table[row * self.width + b] += w;
        }
    }

    /// Over-estimate of `item`'s frequency (min over rows).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.table[row * self.width + self.bucket(row, item)])
            .min()
            .expect("depth ≥ 1")
    }

    /// Public hash coefficients (the white-box view).
    pub fn seeds(&self) -> &[(u64, u64)] {
        &self.seeds
    }

    /// Updates processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Oblivious-stream guarantee: estimate ≤ f + `2m/width` w.h.p. per
    /// item (expected collision mass per row is `m/width`).
    pub fn error_bound(&self) -> f64 {
        2.0 * self.processed as f64 / self.width as f64
    }
}

impl Snapshot for CountMin {
    /// Layout: `depth | width | (a, b)… | table | processed`. Dimensions
    /// are validated; the public hash coefficients are serialized and
    /// overwritten (they are state drawn at construction, and restoring
    /// them exactly is what makes post-restore bucketing bit-identical).
    /// The batch aggregator is a pure cache — skipped.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.depth);
        w.put_usize(self.width);
        for &(a, b) in &self.seeds {
            w.put_u64(a);
            w.put_u64(b);
        }
        w.put_u64_seq(&self.table);
        w.put_u64(self.processed);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let depth = r.take_usize()?;
        let width = r.take_usize()?;
        if depth != self.depth || width != self.width {
            return Err(SnapError::mismatch(
                format!("CountMin {}x{}", self.depth, self.width),
                format!("CountMin {depth}x{width}"),
            ));
        }
        let mut seeds = Vec::with_capacity(depth);
        for _ in 0..depth {
            let a = r.take_u64()?;
            let b = r.take_u64()?;
            if a == 0 || a >= P || b >= P {
                return Err(SnapError::corrupt(format!(
                    "CountMin hash coefficients ({a}, {b}) out of range"
                )));
            }
            seeds.push((a, b));
        }
        let table = r.take_u64_seq()?;
        if table.len() != depth * width {
            return Err(SnapError::corrupt(format!(
                "CountMin table holds {} cells for {depth}x{width}",
                table.len()
            )));
        }
        self.seeds = seeds;
        self.table = table;
        self.processed = r.take_u64()?;
        Ok(())
    }
}

impl SpaceUsage for CountMin {
    fn space_bits(&self) -> u64 {
        self.table.iter().map(|&c| bits_for_count(c)).sum::<u64>() + self.seeds.len() as u64 * 128
    }
}

/// The shared row-hash kernel of the batched paths: adds `w` occurrences
/// of each `(item, w)` pair into every row, item-major. The registry's
/// default shape (depth 4, power-of-two width) gets all four hashes
/// unrolled with coefficients in registers and the bucket fold as a mask;
/// other shapes take a generic loop. Both match [`CountMin::bucket`] bit
/// for bit.
fn apply_weighted(
    seeds: &[(u64, u64)],
    table: &mut [u64],
    width: usize,
    pairs: impl Iterator<Item = (u64, u64)>,
) {
    if let ([s0, s1, s2, s3], true) = (seeds, width.is_power_of_two()) {
        let mask = width as u64 - 1;
        // Per-row slices of the arena: indexing each with `h & mask` where
        // `mask = row.len() - 1` lets the compiler drop the bounds checks.
        let (r0, rest) = table.split_at_mut(width);
        let (r1, rest) = rest.split_at_mut(width);
        let (r2, rest) = rest.split_at_mut(width);
        let r3 = &mut rest[..width];
        for (item, w) in pairs {
            let x = item as u128;
            let h0 = (reduce125(s0.0 as u128 * x + s0.1 as u128) & mask) as usize;
            let h1 = (reduce125(s1.0 as u128 * x + s1.1 as u128) & mask) as usize;
            let h2 = (reduce125(s2.0 as u128 * x + s2.1 as u128) & mask) as usize;
            let h3 = (reduce125(s3.0 as u128 * x + s3.1 as u128) & mask) as usize;
            r0[h0] += w;
            r1[h1] += w;
            r2[h2] += w;
            r3[h3] += w;
        }
        return;
    }
    let pow2_mask = width.is_power_of_two().then(|| width as u64 - 1);
    for (item, w) in pairs {
        for (row, &(a, b)) in seeds.iter().enumerate() {
            let h = reduce125(a as u128 * item as u128 + b as u128);
            let bucket = match pow2_mask {
                Some(mask) => (h & mask) as usize,
                None => (h % width as u64) as usize,
            };
            table[row * width + bucket] += w;
        }
    }
}

impl StreamAlg for CountMin {
    type Update = InsertOnly;
    type Output = u64;

    fn process(&mut self, update: &InsertOnly, _rng: &mut TranscriptRng) {
        self.insert(update.0);
    }

    /// Batched ingestion: a prefix of the batch is sampled into the
    /// reusable [`RunAggregator`]; when the prefix is mostly distinct the
    /// whole batch is hashed directly (aggregation would cost more than
    /// the row-hash evaluations it saves), otherwise aggregation continues
    /// over the rest and each distinct item's row hashes are evaluated
    /// once. Either path adds the same per-item totals into the same
    /// cells, and counter additions commute, so the final table is
    /// bit-identical to sequential processing in stream order.
    fn process_batch(&mut self, updates: &[InsertOnly], _rng: &mut TranscriptRng) {
        let CountMin {
            width,
            seeds,
            table,
            processed,
            agg,
            ..
        } = self;
        let width = *width;
        *processed += updates.len() as u64;
        const SAMPLE: usize = 512;
        let sample = updates.len().min(SAMPLE);
        agg.begin(updates.len());
        for u in &updates[..sample] {
            agg.add(u.0, 1);
        }
        if updates.len() > sample && agg.runs().len() * 2 >= sample {
            apply_weighted(seeds, table, width, updates.iter().map(|u| (u.0, 1)));
            return;
        }
        for u in &updates[sample..] {
            agg.add(u.0, 1);
        }
        apply_weighted(seeds, table, width, agg.runs().iter().copied());
    }

    /// Linear-sketch merge: with identical dimensions **and identical row
    /// hash coefficients** the tables add cell-wise, and the merged table
    /// is bit-identical to single-stream ingestion of the concatenated
    /// stream. Instances constructed from the same public seed share
    /// coefficients; anything else is [`MergeError::Incompatible`].
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.depth != other.depth || self.width != other.width {
            return Err(MergeError::incompatible(format!(
                "CountMin {}x{} vs {}x{}",
                self.depth, self.width, other.depth, other.width
            )));
        }
        if self.seeds != other.seeds {
            return Err(MergeError::incompatible(
                "CountMin row hash coefficients differ — shard instances \
                 must be constructed from the same public seed",
            ));
        }
        for (cell, &o) in self.table.iter_mut().zip(&other.table) {
            *cell += o;
        }
        self.processed += other.processed;
        Ok(())
    }

    /// The fixed query in attack experiments: the victim item `0`'s
    /// estimate.
    fn query(&self) -> u64 {
        self.estimate(0)
    }
}

/// White-box attack: scan item ids `1..=budget` for items that collide with
/// `victim` in **every** row. Inserting the returned items inflates the
/// victim's estimate by one each without the victim ever appearing.
///
/// Expected cost per found item is `width^depth` candidates — polynomial
/// for the constant-depth sketches used in practice, which is why CountMin
/// offers no white-box guarantee.
pub fn forge_all_row_collisions(cm: &CountMin, victim: u64, want: usize, budget: u64) -> Vec<u64> {
    let victim_buckets: Vec<usize> = (0..cm.depth).map(|r| cm.bucket(r, victim)).collect();
    let mut found = Vec::with_capacity(want.min(1024));
    for candidate in 1..=budget {
        if candidate == victim {
            continue;
        }
        if (0..cm.depth).all(|r| cm.bucket(r, candidate) == victim_buckets[r]) {
            found.push(candidate);
            if found.len() == want {
                break;
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_sparse_streams() {
        let mut rng = TranscriptRng::from_seed(30);
        let mut cm = CountMin::new(4, 256, &mut rng);
        for _ in 0..10 {
            cm.insert(5);
        }
        for _ in 0..3 {
            cm.insert(9);
        }
        assert!(cm.estimate(5) >= 10);
        assert!(cm.estimate(9) >= 3);
        assert_eq!(cm.processed(), 13);
    }

    #[test]
    fn oblivious_error_within_bound() {
        let mut rng = TranscriptRng::from_seed(31);
        let mut cm = CountMin::new(4, 128, &mut rng);
        let m = 10_000u64;
        for t in 0..m {
            cm.insert(t % 1000);
        }
        // Every item has f = 10; estimates must be ≤ f + 2m/width = 166.
        for item in 0..1000 {
            let e = cm.estimate(item);
            assert!(e >= 10);
            assert!(
                (e as f64) <= 10.0 + cm.error_bound(),
                "item {item}: {e} > bound"
            );
        }
    }

    #[test]
    fn white_box_attack_inflates_victim() {
        // Small sketch so the collision search is fast in a unit test.
        let mut rng = TranscriptRng::from_seed(32);
        let mut cm = CountMin::new(2, 16, &mut rng);
        let victim = 0u64;
        let forged = forge_all_row_collisions(&cm, victim, 50, 200_000);
        assert!(
            forged.len() >= 20,
            "expected ≥20 forged items in budget, got {}",
            forged.len()
        );
        for &item in &forged {
            cm.insert(item);
        }
        let est = cm.estimate(victim);
        assert_eq!(
            est,
            forged.len() as u64,
            "victim estimate inflated by every forged insertion"
        );
        // The oblivious bound is violated wildly: f_victim = 0 but the
        // estimate is maximal — the whole stream lands on the victim.
        assert!(est as f64 > cm.error_bound());
    }

    #[test]
    fn attack_cost_grows_with_depth() {
        // With one more row, the same budget finds ~width× fewer collisions.
        let mut rng = TranscriptRng::from_seed(33);
        let shallow = CountMin::new(1, 64, &mut rng);
        let deep = CountMin::new(3, 64, &mut rng);
        let budget = 300_000;
        let f_shallow = forge_all_row_collisions(&shallow, 0, usize::MAX, budget).len();
        let f_deep = forge_all_row_collisions(&deep, 0, usize::MAX, budget).len();
        assert!(
            f_shallow > 50 * f_deep.max(1),
            "shallow {f_shallow} vs deep {f_deep}"
        );
    }

    #[test]
    fn batch_matches_sequential() {
        let mut rng = TranscriptRng::from_seed(35);
        let mut seq = CountMin::new(3, 64, &mut rng);
        let mut bat = seq.clone();
        let stream: Vec<InsertOnly> = (0..5000u64).map(|t| InsertOnly(t % 321)).collect();
        let mut r1 = TranscriptRng::from_seed(36);
        let mut r2 = TranscriptRng::from_seed(36);
        for u in &stream {
            seq.process(u, &mut r1);
        }
        for c in stream.chunks(113) {
            bat.process_batch(c, &mut r2);
        }
        assert_eq!(seq.table, bat.table);
        assert_eq!(seq.processed(), bat.processed());
    }

    #[test]
    fn widths_off_powers_of_two_match_reference_hash_and_sequential() {
        use wb_core::snap::to_bytes;
        // A mostly distinct stream (the batch path hashes it directly) and
        // a repetitive one (the batch path aggregates it first).
        let distinct: Vec<InsertOnly> = (0..5000u64)
            .map(|t| InsertOnly(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let repetitive: Vec<InsertOnly> = (0..5000u64).map(|t| InsertOnly(t % 37)).collect();
        for width in [3usize, 100, 257, 1000] {
            for depth in [1usize, 3, 4, 5] {
                let mut rng = TranscriptRng::from_seed(39 + width as u64 * 8 + depth as u64);
                let fresh = CountMin::new(depth, width, &mut rng);
                for item in [0, 1, 2, P - 1, P, u64::MAX]
                    .into_iter()
                    .chain(distinct.iter().take(200).map(|u| u.0))
                {
                    for (row, &(a, b)) in fresh.seeds().iter().enumerate() {
                        let h = (a as u128 * item as u128 + b as u128) % P as u128;
                        assert_eq!(
                            fresh.bucket(row, item),
                            (h % width as u128) as usize,
                            "{depth}x{width}, row {row}, item {item}"
                        );
                    }
                }
                for stream in [&distinct, &repetitive] {
                    let mut seq = fresh.clone();
                    for u in stream.iter() {
                        seq.insert(u.0);
                    }
                    for chunk in [1usize, 7, 4096] {
                        let mut bat = fresh.clone();
                        let mut r = TranscriptRng::from_seed(40);
                        for c in stream.chunks(chunk) {
                            bat.process_batch(c, &mut r);
                        }
                        let at = format!("{depth}x{width}, chunk {chunk}");
                        assert_eq!(seq.table, bat.table, "{at}");
                        assert_eq!(to_bytes(&seq), to_bytes(&bat), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_is_exact_for_same_seed_instances() {
        let mut rng = TranscriptRng::from_seed(37);
        let single = CountMin::new(3, 64, &mut rng);
        let mut a = single.clone();
        let mut b = single.clone();
        let mut single = single;
        for t in 0..4000u64 {
            let item = t % 123;
            single.insert(item);
            if item % 2 == 0 {
                a.insert(item);
            } else {
                b.insert(item);
            }
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.table, single.table, "linear merge must be bit-exact");
        assert_eq!(a.processed(), single.processed());
    }

    #[test]
    fn merge_rejects_different_seeds_and_dims() {
        let mut rng = TranscriptRng::from_seed(38);
        let mut a = CountMin::new(2, 32, &mut rng);
        let b = CountMin::new(2, 32, &mut rng); // fresh coefficients
        assert!(matches!(a.merge_from(&b), Err(MergeError::Incompatible(_))));
        let c = CountMin::new(3, 32, &mut rng);
        assert!(matches!(a.merge_from(&c), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn space_accounting() {
        let mut rng = TranscriptRng::from_seed(34);
        let mut cm = CountMin::new(2, 8, &mut rng);
        let empty = cm.space_bits();
        for i in 0..100 {
            cm.insert(i);
        }
        assert!(cm.space_bits() > empty);
    }
}
