//! The Misra–Gries deterministic heavy-hitters summary (Theorem 2.2,
//! `[MG82]`).
//!
//! `k = ⌈2/ε⌉` counters guarantee that every estimate satisfies
//! `f_i − (1/k)·m ≤ f̂_i ≤ f_i` and that every item with `f_i > ε·m` is
//! retained. Being deterministic, Misra–Gries is trivially robust to
//! white-box adversaries — it is the baseline the paper's Theorem 1.1
//! improves on for long streams: its space is
//! `O(ε⁻¹ (log m + log n))` bits (counters grow with `m`), versus the
//! robust randomized algorithm's `O(ε⁻¹ (log n + log ε⁻¹) + log log m)`.

use wb_core::merge::MergeError;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, bits_for_universe, SpaceUsage};
use wb_core::stream::{for_each_run, InsertOnly, StreamAlg};

/// Misra–Gries summary with `k` counters over a universe of size `n`.
///
/// The live counters are two flat parallel arrays rather than a hash map:
/// `k` is small (`⌈2/ε⌉`), so a linear scan of the contiguous key array
/// (one or two cache lines, autovectorizable) beats hashing, and the
/// decrement-all step is a tight in-place compaction instead of a rehash —
/// the observable state (the `(item, count)` set) is identical.
#[derive(Debug, Clone)]
pub struct MisraGries {
    /// Live item keys, at most `k`; `counts[i]` is `keys[i]`'s counter.
    /// Order is an unobservable implementation detail (queries sort,
    /// estimates scan).
    keys: Vec<u64>,
    counts: Vec<u64>,
    k: usize,
    n: u64,
    processed: u64,
}

impl MisraGries {
    /// Summary with `k ≥ 1` counters (guarantee: additive error `m/k`).
    pub fn with_counters(k: usize, n: u64) -> Self {
        assert!(k >= 1, "need at least one counter");
        MisraGries {
            keys: Vec::with_capacity(k),
            counts: Vec::with_capacity(k),
            k,
            n,
            processed: 0,
        }
    }

    /// Summary sized for the `ε`-heavy-hitters guarantee with additive
    /// error `(ε/2)·m`, i.e. `k = ⌈2/ε⌉`.
    pub fn new(eps: f64, n: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        Self::with_counters((2.0 / eps).ceil() as usize, n)
    }

    /// Position of `item` among the live keys, if monitored — the probe on
    /// the per-update hot path. Four keys are compared per step with one
    /// combined any-match test (four independent equality lanes, which the
    /// backend can fuse into a single vector compare), so the scan takes
    /// one well-predicted branch per four keys instead of one per key.
    #[inline]
    fn find(&self, item: u64) -> Option<usize> {
        let mut chunks = self.keys.chunks_exact(4);
        let mut base = 0usize;
        for c in chunks.by_ref() {
            let m = [c[0] == item, c[1] == item, c[2] == item, c[3] == item];
            if m[0] | m[1] | m[2] | m[3] {
                let off = if m[0] {
                    0
                } else if m[1] {
                    1
                } else if m[2] {
                    2
                } else {
                    3
                };
                return Some(base + off);
            }
            base += 4;
        }
        chunks
            .remainder()
            .iter()
            .position(|&key| key == item)
            .map(|i| base + i)
    }

    /// Process one item occurrence.
    pub fn insert(&mut self, item: u64) {
        self.processed += 1;
        if let Some(pos) = self.find(item) {
            self.counts[pos] += 1;
            return;
        }
        if self.keys.len() < self.k {
            self.keys.push(item);
            self.counts.push(1);
            return;
        }
        // Decrement-all step; drop zeros (in-place compaction). Writes are
        // unconditional with a conditional advance — `live ≤ r` keeps them
        // safe, and dropping the data-dependent keep/skip branch (count-1
        // entries are common under churn) keeps the pipeline full.
        let mut live = 0;
        for r in 0..self.keys.len() {
            let c = self.counts[r] - 1;
            self.keys[live] = self.keys[r];
            self.counts[live] = c;
            live += usize::from(c > 0);
        }
        self.keys.truncate(live);
        self.counts.truncate(live);
    }

    /// Process a run of `w` consecutive occurrences of `item`.
    ///
    /// Exactly equivalent to calling [`MisraGries::insert`] `w` times: as
    /// soon as the item holds a counter (or a slot is free) the remaining
    /// occurrences collapse into one counter addition; while the table is
    /// full and the item unmonitored, decrement-all steps are replayed
    /// one by one, since each may free slots and change the outcome.
    pub fn insert_run(&mut self, item: u64, mut w: u64) {
        while w > 0 {
            if let Some(pos) = self.find(item) {
                self.counts[pos] += w;
                self.processed += w;
                return;
            }
            if self.keys.len() < self.k {
                self.keys.push(item);
                self.counts.push(w);
                self.processed += w;
                return;
            }
            self.insert(item);
            w -= 1;
        }
    }

    /// Lower-bound estimate `f̂_i ∈ [f_i − m/k, f_i]` of item `i`.
    pub fn estimate(&self, item: u64) -> u64 {
        self.keys
            .iter()
            .position(|&i| i == item)
            .map_or(0, |pos| self.counts[pos])
    }

    /// All retained `(item, estimate)` pairs, item-ascending.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .keys
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of counters configured.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Updates processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Worst-case additive estimation error at this point, `m/k`.
    pub fn error_bound(&self) -> f64 {
        self.processed as f64 / self.k as f64
    }
}

impl Snapshot for MisraGries {
    /// Layout: `k | n | processed | keys | counts`. `k` and `n` are
    /// construction parameters — validated against the restoring twin, not
    /// overwritten.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.k);
        w.put_u64(self.n);
        w.put_u64(self.processed);
        w.put_u64_seq(&self.keys);
        w.put_u64_seq(&self.counts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let k = r.take_usize()?;
        let n = r.take_u64()?;
        if k != self.k || n != self.n {
            return Err(SnapError::mismatch(
                format!("MisraGries(k={}, n={})", self.k, self.n),
                format!("MisraGries(k={k}, n={n})"),
            ));
        }
        let processed = r.take_u64()?;
        let keys = r.take_u64_seq()?;
        let counts = r.take_u64_seq()?;
        if keys.len() != counts.len() || keys.len() > k {
            return Err(SnapError::corrupt(format!(
                "MisraGries snapshot holds {} keys / {} counts for k={k}",
                keys.len(),
                counts.len()
            )));
        }
        if counts.contains(&0) {
            return Err(SnapError::corrupt("MisraGries zero counter"));
        }
        // k is small; a quadratic scan beats allocating a sort buffer.
        if keys
            .iter()
            .enumerate()
            .any(|(i, key)| keys[..i].contains(key))
        {
            return Err(SnapError::corrupt("MisraGries duplicate key"));
        }
        self.keys = keys;
        self.counts = counts;
        self.processed = processed;
        Ok(())
    }
}

impl SpaceUsage for MisraGries {
    /// Each live counter stores an id (`⌈log₂ n⌉` bits) and a count
    /// (`O(log m)` bits — this is the `log m` term of Theorem 2.2 that the
    /// paper's randomized algorithm removes).
    fn space_bits(&self) -> u64 {
        let id_bits = bits_for_universe(self.n);
        self.counts
            .iter()
            .map(|&c| id_bits + bits_for_count(c))
            .sum()
    }
}

impl StreamAlg for MisraGries {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, _rng: &mut TranscriptRng) {
        self.insert(update.0);
    }

    /// Batched ingestion: consecutive equal items are collapsed into
    /// [`MisraGries::insert_run`] calls, skipping the per-update hash-map
    /// probe on runs. State is bit-identical to sequential processing.
    fn process_batch(&mut self, updates: &[InsertOnly], _rng: &mut TranscriptRng) {
        for_each_run(updates.iter().map(|u| u.0), |item, w| {
            self.insert_run(item, w)
        });
    }

    /// Classic `k`-counter merge (Agarwal–Cormode–Huang–Phillips–Wei–Yi):
    /// counters add pointwise; if more than `k` survive, the `(k+1)`-th
    /// largest count is subtracted from every counter and non-positive
    /// counters are dropped — the merged equivalent of the decrement-all
    /// step. The merged summary's additive error is at most
    /// `(m₁ + m₂)/(k+1)`, i.e. the same `ε`-heavy-hitters guarantee as
    /// single-stream ingestion of the concatenated stream.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.k != other.k || self.n != other.n {
            return Err(MergeError::incompatible(format!(
                "MisraGries (k={}, n={}) vs (k={}, n={})",
                self.k, self.n, other.k, other.n
            )));
        }
        for (&item, &count) in other.keys.iter().zip(&other.counts) {
            match self.keys.iter().position(|&i| i == item) {
                Some(pos) => self.counts[pos] += count,
                None => {
                    self.keys.push(item);
                    self.counts.push(count);
                }
            }
        }
        if self.keys.len() > self.k {
            let mut order: Vec<u64> = self.counts.clone();
            order.sort_unstable_by(|a, b| b.cmp(a));
            let cut = order[self.k];
            let mut live = 0;
            for r in 0..self.keys.len() {
                let c = self.counts[r].saturating_sub(cut);
                if c > 0 {
                    self.keys[live] = self.keys[r];
                    self.counts[live] = c;
                    live += 1;
                }
            }
            self.keys.truncate(live);
            self.counts.truncate(live);
        }
        self.processed += other.processed;
        Ok(())
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.entries()
            .into_iter()
            .map(|(i, c)| (i, c as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::referee::HeavyHitterReferee;
    use wb_engine::Game;

    #[test]
    fn exact_when_few_distinct_items() {
        let mut mg = MisraGries::with_counters(10, 1000);
        for _ in 0..50 {
            mg.insert(1);
        }
        for _ in 0..30 {
            mg.insert(2);
        }
        assert_eq!(mg.estimate(1), 50);
        assert_eq!(mg.estimate(2), 30);
        assert_eq!(mg.estimate(3), 0);
    }

    #[test]
    fn estimates_never_exceed_truth_and_error_bounded() {
        // Adversarial-ish interleaving: 1 heavy item among uniform noise.
        let mut mg = MisraGries::with_counters(20, 1000);
        let mut true_freq = std::collections::HashMap::new();
        let mut m = 0u64;
        for round in 0..2000u64 {
            let item = if round % 3 == 0 {
                7
            } else {
                100 + (round % 50)
            };
            mg.insert(item);
            *true_freq.entry(item).or_insert(0u64) += 1;
            m += 1;
        }
        for (&item, &f) in &true_freq {
            let est = mg.estimate(item);
            assert!(est <= f, "overestimate for {item}: {est} > {f}");
            assert!(
                f - est <= m / 20,
                "error for {item}: {f}-{est} > {}",
                m / 20
            );
        }
    }

    #[test]
    fn heavy_item_always_retained() {
        // f_7 = 667 > m/k for k=4 ⇒ item 7 must survive.
        let mut mg = MisraGries::with_counters(4, 1000);
        for i in 0..2000u64 {
            mg.insert(if i % 3 != 2 { 7 } else { i });
        }
        assert!(mg.estimate(7) > 0, "heavy item evicted");
    }

    #[test]
    fn never_more_than_k_counters() {
        let mut mg = MisraGries::with_counters(5, 10_000);
        for i in 0..5000u64 {
            mg.insert(i);
        }
        assert!(mg.entries().len() <= 5);
    }

    #[test]
    fn space_grows_with_log_m() {
        // Feed one item m times: its counter has log m bits. This is the
        // term the paper's Theorem 1.1 gets rid of.
        let mut small = MisraGries::with_counters(1, 2);
        let mut large = MisraGries::with_counters(1, 2);
        for _ in 0..100u64 {
            small.insert(0);
        }
        for _ in 0..1_000_000u64 {
            large.insert(0);
        }
        assert!(large.space_bits() > small.space_bits());
        assert_eq!(
            large.space_bits() - small.space_bits(),
            bits_for_count(1_000_000) - bits_for_count(100)
        );
    }

    #[test]
    fn insert_run_and_batch_match_sequential() {
        // Mixed regime: spare capacity, then contention with decrement-alls.
        let stream: Vec<u64> = (0..4000u64)
            .map(|t| if t % 5 == 0 { 3 } else { t % 97 })
            .collect();
        for chunk in [1usize, 7, 64, 4000] {
            let mut seq = MisraGries::with_counters(8, 1 << 10);
            let mut bat = MisraGries::with_counters(8, 1 << 10);
            let mut rng_a = TranscriptRng::from_seed(9);
            let mut rng_b = TranscriptRng::from_seed(9);
            for &i in &stream {
                seq.process(&InsertOnly(i), &mut rng_a);
            }
            let updates: Vec<InsertOnly> = stream.iter().map(|&i| InsertOnly(i)).collect();
            for c in updates.chunks(chunk) {
                bat.process_batch(c, &mut rng_b);
            }
            assert_eq!(seq.entries(), bat.entries(), "chunk {chunk}");
            assert_eq!(seq.processed(), bat.processed(), "chunk {chunk}");
        }
    }

    #[test]
    fn passes_heavy_hitter_referee_in_game() {
        // ε = 0.1, additive tolerance m/k = εm/2: referee at ε tolerance.
        let mg = MisraGries::new(0.1, 1 << 16);
        let referee = HeavyHitterReferee::new(0.1, 0.1);
        // Zipf-ish script: item i appears ~ 1/(i+1) of the time.
        let mut script = Vec::new();
        for t in 0..5000u64 {
            let item = match t % 10 {
                0..=4 => 1,
                5..=7 => 2,
                8 => 3,
                _ => 50 + t % 97,
            };
            script.push(InsertOnly(item));
        }
        let report = Game::new(mg)
            .script(script)
            .referee(referee)
            .max_rounds(5000)
            .seed(13)
            .run();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
    }

    #[test]
    fn merge_matches_single_stream_guarantee() {
        // Split a skewed stream across 4 shard instances by item hash, merge,
        // and compare against single-stream ingestion: estimates must agree
        // within the combined additive bound m/(k+1).
        let stream: Vec<u64> = (0..6000u64)
            .map(|t| if t % 3 == 0 { 5 } else { t % 41 })
            .collect();
        let k = 8;
        let mut single = MisraGries::with_counters(k, 1 << 10);
        let mut shards: Vec<MisraGries> = (0..4)
            .map(|_| MisraGries::with_counters(k, 1 << 10))
            .collect();
        for &item in &stream {
            single.insert(item);
            shards[(item % 4) as usize].insert(item);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge_from(s).unwrap();
        }
        assert_eq!(merged.processed(), single.processed());
        assert!(merged.entries().len() <= k, "capacity exceeded by merge");
        let m = stream.len() as u64;
        let truth = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        for (item, est) in merged.entries() {
            let f = truth(item);
            assert!(est <= f, "merged overestimate for {item}: {est} > {f}");
            assert!(f - est <= m / (k as u64 + 1), "merged error too large");
        }
        // The heavy item (1/3 of the stream) must survive the merge.
        assert!(merged.estimate(5) > 0, "heavy item lost in merge");
    }

    #[test]
    fn merge_rejects_mismatched_budgets() {
        let mut a = MisraGries::with_counters(4, 100);
        let b = MisraGries::with_counters(8, 100);
        assert!(matches!(a.merge_from(&b), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn error_bound_reporting() {
        let mut mg = MisraGries::with_counters(10, 100);
        for i in 0..100u64 {
            mg.insert(i % 7);
        }
        assert_eq!(mg.processed(), 100);
        assert!((mg.error_bound() - 10.0).abs() < 1e-9);
        assert_eq!(mg.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_bad_eps() {
        MisraGries::new(0.0, 10);
    }
}
