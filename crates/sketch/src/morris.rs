//! Morris approximate counters (Lemma 2.1 of the paper).
//!
//! A Morris counter stores only `X ≈ log_{1+a}(count)`: it increments `X`
//! with probability `(1+a)^{-X}` and estimates the count as
//! `((1+a)^X − 1)/a`. The estimator is exactly unbiased and, with
//! `a = 2ε²δ`, Chebyshev gives a `(1+ε)`-approximation with probability
//! `1 − δ` — using `O(log log m + log 1/ε + log 1/δ)` bits.
//!
//! **White-box robustness** (Lemma 2.1): the counter's behaviour depends
//! only on *how many* increments it has received, never on update values or
//! any adversary-controllable quantity; each increment's coin is fresh.
//! Seeing `X` tells the adversary nothing actionable — the only "attack" is
//! choosing when to stop, and the estimate is within tolerance at every
//! prefix w.h.p. The experiment E10 runs adaptive adversaries that try to
//! stop at unlucky moments and measures the failure rate.

use wb_core::rng::{coin_threshold, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, SpaceUsage};
use wb_core::stream::{InsertOnly, StreamAlg};

/// A single Morris counter with base `1 + a`.
///
/// **Deliberately unmergeable** (`StreamAlg::merge_from` returns
/// [`wb_core::merge::MergeError::Unmergeable`]): the stored exponent `X` is
/// a random variable whose distribution encodes the whole count, and no
/// deterministic function of two exponents `(X₁, X₂)` is distributed like
/// the exponent of a counter that saw both streams — a sound merge needs
/// fresh randomness (subsampling one counter's increments), which the
/// deterministic [`StreamAlg::merge_from`] contract rules out. Sharded
/// pipelines must route counting through one shard or use exact counters.
#[derive(Debug, Clone)]
pub struct MorrisCounter {
    /// The stored exponent `X`.
    x: u64,
    /// Base offset `a > 0` (smaller `a` → better accuracy, more bits).
    a: f64,
    /// Cached coin threshold `coin_threshold((1+a)^{-X})` — a pure
    /// function of `x` and `a` (refreshed whenever `x` moves), so each
    /// increment costs one integer compare instead of a `powi`. Not
    /// observable state: snapshots skip it and restores recompute it.
    threshold: u64,
}

impl MorrisCounter {
    /// Counter achieving a `(1±ε)`-approximation with probability `1−δ`
    /// at any fixed time (standard Chebyshev analysis: `a = 2ε²δ`).
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        Self::with_base(2.0 * eps * eps * delta)
    }

    /// Counter with an explicit base offset `a`.
    pub fn with_base(a: f64) -> Self {
        assert!(a > 0.0, "base offset must be positive");
        MorrisCounter {
            x: 0,
            a,
            threshold: Self::threshold_at(a, 0),
        }
    }

    /// The increment probability for exponent `x`.
    fn prob_at(a: f64, x: u64) -> f64 {
        (1.0 + a).powi(-(x as i32))
    }

    /// The coin threshold for exponent `x` — the reference formula the
    /// cached `threshold` and the [`MedianMorris`] memo reproduce bit for
    /// bit: a coin word `w` increments iff
    /// `w >> 11 < threshold_at(a, x)`, exactly the draw
    /// `bernoulli(prob_at(a, x))` makes from the same word.
    fn threshold_at(a: f64, x: u64) -> u64 {
        coin_threshold(Self::prob_at(a, x))
    }

    /// The estimate for exponent `x` — the reference formula behind
    /// [`Self::estimate`], which the [`MedianMorris`] memo reproduces bit
    /// for bit.
    fn estimate_at(a: f64, x: u64) -> f64 {
        ((1.0 + a).powi(x as i32) - 1.0) / a
    }

    /// Register one event.
    pub fn increment(&mut self, rng: &mut TranscriptRng) {
        self.increment_with_word(rng.next_u64());
    }

    /// Register one event whose coin word was already drawn (by a bulk
    /// prefetch); returns whether the exponent moved.
    #[inline]
    pub(crate) fn increment_with_word(&mut self, word: u64) -> bool {
        if word >> 11 < self.threshold {
            self.x += 1;
            self.threshold = Self::threshold_at(self.a, self.x);
            true
        } else {
            false
        }
    }

    /// Unbiased estimate `((1+a)^X − 1)/a` of the event count.
    pub fn estimate(&self) -> f64 {
        Self::estimate_at(self.a, self.x)
    }

    /// The stored exponent `X` — the entire mutable state, visible to the
    /// white-box adversary.
    pub fn exponent(&self) -> u64 {
        self.x
    }

    /// The base offset `a` (public parameter).
    pub fn base_offset(&self) -> f64 {
        self.a
    }
}

impl Snapshot for MorrisCounter {
    /// Layout: `x | a`. The base offset `a` is a construction parameter —
    /// validated bit-for-bit, not overwritten.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.x);
        w.put_f64(self.a);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let x = r.take_u64()?;
        let a = r.take_f64()?;
        if a.to_bits() != self.a.to_bits() {
            return Err(SnapError::mismatch(
                format!("MorrisCounter(a={})", self.a),
                format!("MorrisCounter(a={a})"),
            ));
        }
        self.x = x;
        self.threshold = Self::threshold_at(self.a, x);
        Ok(())
    }
}

impl SpaceUsage for MorrisCounter {
    /// Only the exponent is state: `O(log X) = O(log log m + log 1/a)` bits.
    fn space_bits(&self) -> u64 {
        bits_for_count(self.x)
    }
}

impl StreamAlg for MorrisCounter {
    type Update = InsertOnly;
    type Output = f64;

    fn process(&mut self, _update: &InsertOnly, rng: &mut TranscriptRng) {
        self.increment(rng);
    }

    /// Batched coin flips: one word per update, prefetched block-wise by
    /// [`TranscriptRng::for_each_with_words`] (word- and
    /// transcript-identical to repeated `next_u64`) and compared against
    /// the cached coin threshold — the same coins, the same exponent
    /// trajectory, no per-update `powi`.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        rng.for_each_with_words(updates, 1, |_, w| {
            self.increment_with_word(w[0]);
        });
    }

    fn query(&self) -> f64 {
        self.estimate()
    }

    fn name(&self) -> &'static str {
        "MorrisCounter"
    }
}

/// Log2 of the [`MorrisMemo`] slot count.
const MEMO_BITS: u32 = 10;

/// Mask from an exponent to its [`MorrisMemo`] slot.
const MEMO_MASK: u64 = (1 << MEMO_BITS) - 1;

/// Copies whose estimates fit the median's stack buffer; more spill to
/// the heap.
const MEDIAN_STACK: usize = 32;

/// One memo slot: exponent `x` and its two derived values.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    x: u64,
    threshold: u64,
    est: f64,
}

/// Bits of the exponents the [`PowerChain`] serves.
const CHAIN_BITS: u32 = 31;

/// Exponents the [`PowerChain`] serves: below `2^31`, where the reference
/// formulas' `x as i32` is exact. Larger ones take the reference formulas.
const CHAIN_LIMIT: u64 = 1 << CHAIN_BITS;

/// Low exponent bits the [`PowerChain`] resolves with one table load.
const CHAIN_LOW_BITS: u32 = 10;

/// `(1+a)^x` for `x < 2^31`, bit-identical to `(1+a).powi(x as i32)`.
///
/// `powi` multiplies the repeated squares `b^(2^i)` of the set bits of
/// `x` in ascending bit order, starting from `1.0`, and `powi(b, -x)` is
/// `1.0 / powi(b, x)`. The chain keeps those squares and, for the low
/// [`CHAIN_LOW_BITS`] bits, every ascending prefix product, each built
/// with one multiply from a smaller entry. A power is then one table load
/// plus one multiply per set bit above the low ones: the same products in
/// the same order as `powi`, hence the same bits.
#[derive(Clone)]
struct PowerChain {
    /// `squares[i] = (1+a)^(2^i)`, by repeated squaring.
    squares: [f64; CHAIN_BITS as usize],
    /// `low[l]`: the ascending product of `squares[i]` over the set bits
    /// `i` of `l`.
    low: [f64; 1 << CHAIN_LOW_BITS],
}

impl PowerChain {
    fn new(a: f64) -> Box<Self> {
        let mut squares = [0.0; CHAIN_BITS as usize];
        let mut sq = 1.0 + a;
        for s in &mut squares {
            *s = sq;
            sq *= sq;
        }
        let mut low = [1.0; 1 << CHAIN_LOW_BITS];
        for l in 1..low.len() {
            // The highest set bit of `l` is the last factor of its product.
            let top = l.ilog2();
            low[l] = low[l ^ (1 << top)] * squares[top as usize];
        }
        Box::new(PowerChain { squares, low })
    }

    /// `(1+a)^x`; `x` must be below [`CHAIN_LIMIT`].
    #[inline]
    fn pow(&self, x: u64) -> f64 {
        debug_assert!(x < CHAIN_LIMIT);
        let mut r = self.low[(x & ((1 << CHAIN_LOW_BITS) - 1)) as usize];
        let mut high = x >> CHAIN_LOW_BITS;
        while high != 0 {
            r *= self.squares[(high.trailing_zeros() + CHAIN_LOW_BITS) as usize];
            high &= high - 1;
        }
        r
    }
}

/// Direct-mapped memo from an exponent `x` to `threshold_at(a, x)` and
/// `estimate_at(a, x)`, shared by a [`MedianMorris`]'s copies (which all
/// have the same `a`). The copies climb the same exponents one step at a
/// time and stay close together, so each value is computed once instead
/// of once per copy, and indexing by the low bits of `x` keeps neighbours
/// in distinct slots. A miss computes `r = (1+a)^x` once from a
/// [`PowerChain`], built for the first `a` the memo sees (every caller's),
/// and derives both values from it — the threshold as
/// `coin_threshold(1/r)`, the estimate as `(r − 1)/a` — bit-identical to
/// the two `powi` calls of the reference formulas. Scratch, not state:
/// the slots and the chain are built on the first miss, and snapshots and
/// space accounting skip them.
#[derive(Clone, Default)]
struct MorrisMemo {
    slots: Vec<MemoSlot>,
    chain: Option<Box<PowerChain>>,
}

impl std::fmt::Debug for MorrisMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorrisMemo")
            .field("slots", &self.slots.len())
            .field("chain", &self.chain.is_some())
            .finish()
    }
}

impl MorrisMemo {
    /// `(threshold_at(a, x), estimate_at(a, x))`, computed and stored on a
    /// miss. Every call on one memo passes the same `a`.
    #[inline]
    fn get(&mut self, a: f64, x: u64) -> (u64, f64) {
        match self.slots.get((x & MEMO_MASK) as usize) {
            Some(slot) if slot.x == x => (slot.threshold, slot.est),
            _ => self.fill(a, x),
        }
    }

    /// The miss path of [`Self::get`], kept out of the coin-flip loop.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, a: f64, x: u64) -> (u64, f64) {
        if self.slots.is_empty() {
            let empty = MemoSlot {
                x: u64::MAX,
                threshold: 0,
                est: 0.0,
            };
            self.slots = vec![empty; 1 << MEMO_BITS];
        }
        let (threshold, est) = if x < CHAIN_LIMIT {
            let r = self.chain.get_or_insert_with(|| PowerChain::new(a)).pow(x);
            (coin_threshold(1.0 / r), (r - 1.0) / a)
        } else {
            (
                MorrisCounter::threshold_at(a, x),
                MorrisCounter::estimate_at(a, x),
            )
        };
        self.slots[(x & MEMO_MASK) as usize] = MemoSlot { x, threshold, est };
        (threshold, est)
    }
}

/// The largest of `ests`.
fn max_estimate(ests: &[f64]) -> f64 {
    ests.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median of `k` independent Morris counters: amplifies the per-time
/// success probability from `1 − δ'` to `1 − exp(−Ω(k))`, which is how the
/// `log(1/δ)` term in Lemma 2.1 is realized while keeping each counter's
/// base moderate.
#[derive(Debug, Clone)]
pub struct MedianMorris {
    counters: Vec<MorrisCounter>,
    /// Each copy's estimate, refreshed whenever its exponent moves — a
    /// pure function of the copy's `x`, like its cached coin threshold.
    ests: Vec<f64>,
    /// The largest estimate any copy has held since construction or the
    /// last restore: never below the median, so a caller can rule out
    /// `estimate() >= t` from one compare.
    est_bound: f64,
    memo: MorrisMemo,
}

impl MedianMorris {
    /// `k` counters (made odd internally), each a `(1±ε)`-estimator with
    /// constant failure probability.
    pub fn new(eps: f64, k: usize) -> Self {
        let k = if k.is_multiple_of(2) { k + 1 } else { k.max(1) };
        // Each copy: failure probability 1/8 at fixed time.
        let counters: Vec<MorrisCounter> =
            (0..k).map(|_| MorrisCounter::new(eps, 1.0 / 8.0)).collect();
        let ests: Vec<f64> = counters.iter().map(MorrisCounter::estimate).collect();
        MedianMorris {
            counters,
            est_bound: max_estimate(&ests),
            ests,
            memo: MorrisMemo::default(),
        }
    }

    /// Register one event (all copies flip independent coins): draws the
    /// copies' words in copy order and feeds them to the same per-word
    /// path as the batch kernel. Returns whether any exponent moved.
    pub fn increment(&mut self, rng: &mut TranscriptRng) -> bool {
        let mut words = [0u64; MEDIAN_STACK];
        let k = self.counters.len();
        let mut changed = false;
        for first in (0..k).step_by(MEDIAN_STACK) {
            let take = (k - first).min(MEDIAN_STACK);
            rng.next_u64_many(&mut words[..take]);
            changed |= self.step(first, &words[..take]);
        }
        changed
    }

    /// Register one event from `counters().len()` prefetched coin words in
    /// copy order; returns whether any exponent moved (i.e. whether the
    /// median estimate may have changed).
    #[inline]
    pub(crate) fn increment_with_words(&mut self, words: &[u64]) -> bool {
        debug_assert_eq!(words.len(), self.counters.len());
        self.step(0, words)
    }

    /// Flip the coins of copies `first..first + words.len()`, one word
    /// each; a copy that moves takes its new coin threshold and estimate
    /// from the memo. Returns whether any exponent moved.
    #[inline(always)]
    fn step(&mut self, first: usize, words: &[u64]) -> bool {
        let end = first + words.len();
        let copies = self.counters[first..end]
            .iter_mut()
            .zip(&mut self.ests[first..end]);
        let mut changed = false;
        for ((c, est), &w) in copies.zip(words) {
            if w >> 11 < c.threshold {
                c.x += 1;
                (c.threshold, *est) = self.memo.get(c.a, c.x);
                self.est_bound = self.est_bound.max(*est);
                changed = true;
            }
        }
        changed
    }

    /// An upper bound on every copy's estimate, hence on
    /// [`Self::estimate`]: the largest estimate seen since construction or
    /// the last restore.
    pub fn estimate_bound(&self) -> f64 {
        self.est_bound
    }

    /// Median of the copies' estimates.
    pub fn estimate(&self) -> f64 {
        let k = self.ests.len();
        let mut stack = [0.0f64; MEDIAN_STACK];
        let mut heap = Vec::new();
        let ests = if k <= MEDIAN_STACK {
            stack[..k].copy_from_slice(&self.ests);
            &mut stack[..k]
        } else {
            heap.extend_from_slice(&self.ests);
            &mut heap[..]
        };
        let (_, median, _) = ests.select_nth_unstable_by(k / 2, |a, b| {
            a.partial_cmp(b).expect("estimates are finite")
        });
        *median
    }

    /// The individual counters (white-box view).
    pub fn counters(&self) -> &[MorrisCounter] {
        &self.counters
    }
}

impl Snapshot for MedianMorris {
    /// Layout: `len | counters…` — the copy count is a construction
    /// parameter; each copy restores in place.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.counters.len());
        for c in &self.counters {
            c.snap(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.take_usize()?;
        if len != self.counters.len() {
            return Err(SnapError::mismatch(
                format!("MedianMorris({} counters)", self.counters.len()),
                format!("MedianMorris({len} counters)"),
            ));
        }
        for (c, est) in self.counters.iter_mut().zip(&mut self.ests) {
            c.restore(r)?;
            *est = c.estimate();
        }
        self.est_bound = max_estimate(&self.ests);
        Ok(())
    }
}

impl SpaceUsage for MedianMorris {
    fn space_bits(&self) -> u64 {
        self.counters.iter().map(SpaceUsage::space_bits).sum()
    }
}

impl StreamAlg for MedianMorris {
    type Update = InsertOnly;
    type Output = f64;

    fn process(&mut self, _update: &InsertOnly, rng: &mut TranscriptRng) {
        self.increment(rng);
    }

    /// Batched coin flips for all copies: each update consumes
    /// `counters().len()` words in copy order, exactly as the scalar loop
    /// does; words are prefetched a block of whole updates at a time.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        let k = self.counters.len();
        rng.for_each_with_words(updates, k, |_, w| {
            self.increment_with_words(w);
        });
    }

    fn query(&self) -> f64 {
        self.estimate()
    }

    fn name(&self) -> &'static str {
        "MedianMorris"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::game::FnAdversary;
    use wb_core::merge::MergeError;
    use wb_core::referee::ApproxCountReferee;
    use wb_core::rng::RandTranscript;
    use wb_engine::Game;

    #[test]
    fn estimate_zero_initially() {
        let c = MorrisCounter::new(0.5, 0.25);
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.exponent(), 0);
    }

    #[test]
    fn estimate_tracks_count_within_tolerance() {
        let mut rng = TranscriptRng::from_seed(1);
        let n = 100_000u64;
        let mut c = MorrisCounter::with_base(0.01);
        for _ in 0..n {
            c.increment(&mut rng);
        }
        let est = c.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.25, "relative error {rel} too large (est {est})");
    }

    #[test]
    fn estimator_is_unbiased_across_seeds() {
        let n = 2_000u64;
        let trials = 300;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut rng = TranscriptRng::from_seed(seed);
            let mut c = MorrisCounter::with_base(0.5);
            for _ in 0..n {
                c.increment(&mut rng);
            }
            sum += c.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "mean {mean} deviates from {n} by {rel}");
    }

    #[test]
    fn space_is_loglog() {
        let mut rng = TranscriptRng::from_seed(2);
        let mut c = MorrisCounter::with_base(0.5);
        for _ in 0..1_000_000u64 {
            c.increment(&mut rng);
        }
        // X ≈ log_{1.5}(5e5) ≈ 34 → ~6 bits, far below log2(1e6) = 20.
        assert!(
            c.space_bits() <= 8,
            "space {} bits should be ~log log m",
            c.space_bits()
        );
    }

    #[test]
    fn median_morris_concentrates() {
        let mut rng = TranscriptRng::from_seed(3);
        let n = 50_000u64;
        let mut m = MedianMorris::new(0.3, 9);
        for _ in 0..n {
            m.increment(&mut rng);
        }
        let rel = (m.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 0.3, "median relative error {rel}");
        assert_eq!(m.counters().len(), 9);
    }

    #[test]
    fn median_morris_evens_out_k() {
        assert_eq!(MedianMorris::new(0.3, 4).counters().len(), 5);
        assert_eq!(MedianMorris::new(0.3, 0).counters().len(), 1);
    }

    #[test]
    fn survives_white_box_game_against_adaptive_stopper() {
        // Adversary stops the stream the moment the estimate drifts high —
        // the classic "stop at an unlucky time" adaptive strategy. With a
        // generous tolerance and a fine base, the counter must survive.
        let adv = FnAdversary::new(
            |_t: u64, alg: &MedianMorris, _tr: &RandTranscript, _last: Option<&f64>| {
                // White-box: inspect the exponents; stop if estimate looks
                // inflated (tries to lock in an error — it cannot, because
                // the referee checked every prefix anyway).
                if alg.estimate() > 2.0e6 {
                    None
                } else {
                    Some(InsertOnly(0))
                }
            },
        );
        let report = Game::new(MedianMorris::new(0.2, 9))
            .adversary(adv)
            .referee(ApproxCountReferee::new(0.5))
            .max_rounds(200_000)
            .seed(7)
            .run();
        assert!(report.survived(), "failed at {:?}", report.result.failure);
    }

    #[test]
    fn survives_long_scripted_stream_and_reports_small_space() {
        let report = Game::new(MedianMorris::new(0.2, 9))
            .script(vec![InsertOnly(0); 100_000])
            .referee(ApproxCountReferee::new(0.5))
            .max_rounds(100_000)
            .seed(11)
            .run();
        assert!(report.survived(), "failed at {:?}", report.result.failure);
        // 9 counters, each ~7 bits of exponent at m = 1e5 with a = 2·ε²δ.
        assert!(
            report.result.peak_space_bits < 9 * 16,
            "peak space {} bits",
            report.result.peak_space_bits
        );
    }

    #[test]
    fn morris_counters_refuse_to_merge() {
        // No deterministic combination of two exponents preserves the
        // estimator's distribution — the typed error records that.
        let mut a = MorrisCounter::new(0.5, 0.25);
        let b = MorrisCounter::new(0.5, 0.25);
        assert_eq!(
            a.merge_from(&b),
            Err(MergeError::unmergeable("MorrisCounter"))
        );
        let mut ma = MedianMorris::new(0.3, 3);
        let mb = MedianMorris::new(0.3, 3);
        assert_eq!(
            ma.merge_from(&mb),
            Err(MergeError::unmergeable("MedianMorris"))
        );
    }

    /// Every base offset a registry algorithm builds a memo for: the `t̂`
    /// counter `MedianMorris::new(ε/16, 7)` of `robust_hh`, `phi_eps_hh`
    /// and the robust HHH at the registry default ε = 1/8, the HHH
    /// experiment's ε = 0.02 and the registry floor ε = 2^-16; the
    /// `median_morris` and `morris` registry defaults; and a = 0.5, whose
    /// powers overflow to infinity.
    fn chain_bases() -> Vec<f64> {
        let mut bases: Vec<f64> = [0.125, 0.02, 1.0 / 65536.0]
            .iter()
            .map(|&eps| MedianMorris::new(eps / 16.0, 7).counters()[0].base_offset())
            .collect();
        bases.push(MedianMorris::new(0.125, 7).counters()[0].base_offset());
        bases.push(MorrisCounter::new(0.125, 0.01).base_offset());
        bases.push(0.5);
        bases
    }

    #[test]
    fn memo_matches_reference_formulas_bit_for_bit() {
        // Every exponent below 2^21 and a window around 2^31, where the
        // memo switches from the power chain to the reference formulas.
        // x = 2^31 itself is skipped: there `-(x as i32)` overflows in the
        // reference formula (a debug-build panic), on both sides alike.
        let window = 1u64 << 12;
        for a in chain_bases() {
            let mut memo = MorrisMemo::default();
            let xs = (0..1u64 << 21)
                .chain(CHAIN_LIMIT - window..CHAIN_LIMIT)
                .chain(CHAIN_LIMIT + 1..CHAIN_LIMIT + window);
            for x in xs {
                let (threshold, est) = memo.fill(a, x);
                assert_eq!(
                    threshold,
                    MorrisCounter::threshold_at(a, x),
                    "threshold at a = {a}, x = {x}"
                );
                assert_eq!(
                    est.to_bits(),
                    MorrisCounter::estimate_at(a, x).to_bits(),
                    "estimate at a = {a}, x = {x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_bad_eps() {
        MorrisCounter::new(1.5, 0.1);
    }
}
