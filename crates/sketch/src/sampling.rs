//! Sampling primitives that are robust in the white-box model.
//!
//! Theorem 2.3 (`[BY20]`, extended to white-box adversaries by the paper):
//! Bernoulli sampling each update with probability
//! `p ≥ C·log(n/δ) / (ε²·m)` preserves the `ε`-L1-heavy hitters. The proof
//! carries over to white-box adversaries because the sampler keeps **no
//! private randomness**: each coin is flipped once, used, and immediately
//! becomes part of the public transcript — there is nothing for the
//! adversary to learn that helps with *future* coins.
//!
//! [`BernoulliHeavyHitters`] is the known-`m` baseline; Algorithm 1/2 wrap
//! it (via [`crate::bern_mg::BernMG`]) to drop the known-`m` assumption.
//! [`ReservoirSampler`] is included as the classic alternative mentioned in
//! the paper's related-work discussion.

use std::collections::HashMap;
use wb_core::rng::{f64_from_word, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, bits_for_universe, SpaceUsage};
use wb_core::stream::{InsertOnly, RunAggregator, StreamAlg};

/// Recommended sampling probability `min(1, C·ln(n/δ) / (ε²·m))`.
pub fn bernoulli_rate(n: u64, m: u64, eps: f64, delta: f64, c: f64) -> f64 {
    assert!(m > 0 && n > 0);
    let p = c * ((n as f64 / delta).ln()) / (eps * eps * m as f64);
    p.min(1.0)
}

/// Bernoulli-sampled exact counts: the Theorem 2.3 baseline with known `m`.
#[derive(Debug, Clone)]
pub struct BernoulliHeavyHitters {
    p: f64,
    counts: HashMap<u64, u64>,
    n: u64,
    sampled: u64,
    processed: u64,
    /// Batch scratch aggregating sampled occurrences per item — counts are
    /// commutative additions, so per-item totals land each coordinate in
    /// the map once per batch. Not observable state; snapshots skip it.
    agg: RunAggregator<u64>,
}

impl BernoulliHeavyHitters {
    /// Sampler with rate from [`bernoulli_rate`] (constant `C = 8`).
    pub fn new(n: u64, m: u64, eps: f64, delta: f64) -> Self {
        Self::with_rate(n, bernoulli_rate(n, m, eps, delta, 8.0))
    }

    /// Sampler with an explicit rate `p ∈ (0, 1]`.
    pub fn with_rate(n: u64, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "rate must be in (0,1]");
        BernoulliHeavyHitters {
            p,
            counts: HashMap::new(),
            n,
            sampled: 0,
            processed: 0,
            agg: RunAggregator::new(),
        }
    }

    /// Process one update (coin flipped fresh; nothing retained if tails).
    pub fn insert(&mut self, item: u64, rng: &mut TranscriptRng) {
        self.processed += 1;
        if rng.bernoulli(self.p) {
            *self.counts.entry(item).or_insert(0) += 1;
            self.sampled += 1;
        }
    }

    /// Rescaled estimate `count_i / p` of item `i`'s frequency.
    pub fn estimate(&self, item: u64) -> f64 {
        self.counts.get(&item).copied().unwrap_or(0) as f64 / self.p
    }

    /// All sampled items with rescaled estimates, item-ascending.
    pub fn estimates(&self) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .counts
            .iter()
            .map(|(&i, &c)| (i, c as f64 / self.p))
            .collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v
    }

    /// Number of sampled updates.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Number of processed updates.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The public sampling rate.
    pub fn rate(&self) -> f64 {
        self.p
    }
}

impl Snapshot for BernoulliHeavyHitters {
    /// Layout: `p | n | processed | sampled | counts`. `p` and `n` are
    /// construction parameters — validated, not overwritten.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.p);
        w.put_u64(self.n);
        w.put_u64(self.processed);
        w.put_u64(self.sampled);
        w.put_map_u64_u64(&self.counts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let p = r.take_f64()?;
        let n = r.take_u64()?;
        if p.to_bits() != self.p.to_bits() || n != self.n {
            return Err(SnapError::mismatch(
                format!("BernoulliHeavyHitters(p={}, n={})", self.p, self.n),
                format!("BernoulliHeavyHitters(p={p}, n={n})"),
            ));
        }
        let processed = r.take_u64()?;
        let sampled = r.take_u64()?;
        let counts = r.take_map_u64_u64()?;
        if counts.values().any(|&c| c == 0) {
            return Err(SnapError::corrupt("BernoulliHeavyHitters zero count"));
        }
        if counts.values().sum::<u64>() != sampled {
            return Err(SnapError::corrupt(
                "BernoulliHeavyHitters counts do not sum to the sample total",
            ));
        }
        self.counts = counts;
        self.sampled = sampled;
        self.processed = processed;
        Ok(())
    }
}

impl SpaceUsage for BernoulliHeavyHitters {
    fn space_bits(&self) -> u64 {
        let id_bits = bits_for_universe(self.n);
        self.counts
            .values()
            .map(|&c| id_bits + bits_for_count(c))
            .sum()
    }
}

impl StreamAlg for BernoulliHeavyHitters {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, rng: &mut TranscriptRng) {
        self.insert(update.0, rng);
    }

    /// Batched sampling: coin words prefetched block-wise (identical
    /// words, identical transcript); sampled occurrences aggregate per
    /// item before touching the count map. Counts are plain additions, so
    /// per-item totals leave the map bit-identical to the scalar loop.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        let mut agg = std::mem::take(&mut self.agg);
        // Segmented to respect the aggregator's 2^24-pair batch cap.
        for seg in updates.chunks(1 << 20) {
            agg.begin(seg.len());
            rng.for_each_with_words(seg, 1, |u, w| {
                if f64_from_word(w[0]) < self.p {
                    self.sampled += 1;
                    agg.add(u.0, 1u64);
                }
            });
            for &(item, count) in agg.runs() {
                *self.counts.entry(item).or_insert(0) += count;
            }
        }
        self.agg = agg;
        self.processed += updates.len() as u64;
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.estimates()
    }

    fn name(&self) -> &'static str {
        "BernoulliHeavyHitters"
    }
}

/// Classic reservoir sampler of `k` stream elements.
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    reservoir: Vec<u64>,
    k: usize,
    seen: u64,
    n: u64,
}

impl ReservoirSampler {
    /// Reservoir of capacity `k ≥ 1` over universe `[n]`.
    pub fn new(k: usize, n: u64) -> Self {
        assert!(k >= 1);
        ReservoirSampler {
            reservoir: Vec::with_capacity(k),
            k,
            seen: 0,
            n,
        }
    }

    /// Offer one element.
    pub fn insert(&mut self, item: u64, rng: &mut TranscriptRng) {
        self.seen += 1;
        if self.reservoir.len() < self.k {
            self.reservoir.push(item);
        } else {
            let j = rng.below(self.seen);
            if (j as usize) < self.k {
                self.reservoir[j as usize] = item;
            }
        }
    }

    /// Current sample (uniform `k`-subset of the prefix, with repetition of
    /// values possible if the stream repeats them).
    pub fn sample(&self) -> &[u64] {
        &self.reservoir
    }

    /// Elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl SpaceUsage for ReservoirSampler {
    fn space_bits(&self) -> u64 {
        self.reservoir.len() as u64 * bits_for_universe(self.n) + bits_for_count(self.seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formula_caps_at_one() {
        assert_eq!(bernoulli_rate(1000, 1, 0.1, 0.1, 8.0), 1.0);
        let p = bernoulli_rate(1000, 1_000_000, 0.1, 0.1, 8.0);
        assert!(p > 0.0 && p < 1.0);
        // Rate decreases with m.
        assert!(bernoulli_rate(1000, 2_000_000, 0.1, 0.1, 8.0) < p);
    }

    #[test]
    fn estimates_concentrate_around_truth() {
        let mut rng = TranscriptRng::from_seed(5);
        let m = 100_000u64;
        let mut s = BernoulliHeavyHitters::with_rate(1000, 0.05);
        // Item 1: 30% of stream; item 2: 10%.
        for t in 0..m {
            let item = match t % 10 {
                0..=2 => 1,
                3 => 2,
                _ => 100 + t % 500,
            };
            s.insert(item, &mut rng);
        }
        let e1 = s.estimate(1);
        let e2 = s.estimate(2);
        assert!((e1 - 30_000.0).abs() < 3_000.0, "e1 = {e1}");
        assert!((e2 - 10_000.0).abs() < 2_000.0, "e2 = {e2}");
        assert_eq!(s.processed(), m);
    }

    #[test]
    fn sample_count_scales_with_rate() {
        let mut rng = TranscriptRng::from_seed(6);
        let mut s = BernoulliHeavyHitters::with_rate(10, 0.01);
        for t in 0..50_000u64 {
            s.insert(t % 10, &mut rng);
        }
        let frac = s.sampled() as f64 / 50_000.0;
        assert!((frac - 0.01).abs() < 0.004, "sampled fraction {frac}");
        // Space is proportional to samples, not stream length.
        assert!(s.space_bits() < 10 * (4 + 12) + 1);
    }

    #[test]
    fn estimates_sorted_by_item() {
        let mut rng = TranscriptRng::from_seed(7);
        let mut s = BernoulliHeavyHitters::with_rate(100, 1.0);
        for item in [5u64, 3, 9, 3, 5] {
            s.insert(item, &mut rng);
        }
        let ests = s.estimates();
        let items: Vec<u64> = ests.iter().map(|&(i, _)| i).collect();
        assert_eq!(items, vec![3, 5, 9]);
        assert_eq!(s.estimate(3), 2.0);
    }

    #[test]
    fn reservoir_is_uniform_ish() {
        // Insert 0..100; element 0 should stay in a k=10 reservoir about
        // 10% of the time across seeds.
        let mut keeps = 0;
        let trials = 2000;
        for seed in 0..trials {
            let mut rng = TranscriptRng::from_seed(seed);
            let mut r = ReservoirSampler::new(10, 100);
            for item in 0..100u64 {
                r.insert(item, &mut rng);
            }
            if r.sample().contains(&0) {
                keeps += 1;
            }
        }
        let frac = keeps as f64 / trials as f64;
        assert!((frac - 0.1).abs() < 0.03, "keep fraction {frac}");
    }

    #[test]
    fn reservoir_fills_then_caps() {
        let mut rng = TranscriptRng::from_seed(8);
        let mut r = ReservoirSampler::new(5, 100);
        for item in 0..3u64 {
            r.insert(item, &mut rng);
        }
        assert_eq!(r.sample(), &[0, 1, 2]);
        for item in 3..1000u64 {
            r.insert(item, &mut rng);
        }
        assert_eq!(r.sample().len(), 5);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0,1]")]
    fn rejects_zero_rate() {
        BernoulliHeavyHitters::with_rate(10, 0.0);
    }
}
