//! The AMS F2 sketch and its white-box attack.
//!
//! The paper's introduction singles out AMS `[AMS99]` as the canonical
//! randomness-dependent sketch: it maintains `⟨Z, f⟩` for a random sign
//! vector `Z` and outputs `⟨Z, f⟩²`, whose analysis **requires `Z` to be
//! independent of `f`**. A white-box adversary reads the sign seeds the
//! moment the sketch is initialized, can evaluate `Z(i)` for any item, and
//! feeds the stream `f` maximally correlated with `Z` — inflating the
//! estimate by an unbounded factor. This is the operational content of the
//! Ω(n) lower bound for Fp estimation (Theorems 1.9/3.3): *no* o(n)-space
//! sketch of this family survives.
//!
//! [`find_aligned_items`] is the attack; experiment E8 charts the forced
//! error against the number of median copies.

use wb_core::merge::MergeError;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_signed, SpaceUsage};
use wb_core::stream::{RunAggregator, StreamAlg, Turnstile};
use wb_crypto::mersenne::{add61, mul61, reduce64};

/// Mersenne prime `2^61 − 1` for the 4-wise independent sign hash.
const P: u64 = (1 << 61) - 1;

/// One AMS atom: a public 4-wise-independent sign function and the running
/// inner product `⟨Z, f⟩`.
#[derive(Debug, Clone)]
pub struct AmsCopy {
    /// Public cubic hash coefficients (4-wise independence).
    coeffs: [u64; 4],
    /// Running `⟨Z, f⟩`.
    counter: i64,
}

impl AmsCopy {
    fn new(rng: &mut TranscriptRng) -> Self {
        AmsCopy {
            coeffs: [rng.below(P), rng.below(P), rng.below(P), rng.below(P)],
            counter: 0,
        }
    }

    /// The public sign `Z(item) ∈ {−1, +1}`: parity of the Horner cubic
    /// `((a·x + b)·x + c)·x + d mod P`, reduced by Mersenne shift-adds —
    /// bit-identical to the `%` chain it replaces.
    pub fn sign(&self, item: u64) -> i64 {
        sign_of(&self.coeffs, reduce64(item))
    }

    /// Current inner product (white-box view).
    pub fn counter(&self) -> i64 {
        self.counter
    }
}

impl Snapshot for AmsCopy {
    /// Layout: `coeffs[4] | counter`. The public sign coefficients are
    /// serialized and overwritten — restoring them exactly keeps every
    /// post-restore sign evaluation bit-identical.
    fn snap(&self, w: &mut SnapWriter) {
        for &c in &self.coeffs {
            w.put_u64(c);
        }
        w.put_i64(self.counter);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut coeffs = [0u64; 4];
        for c in &mut coeffs {
            *c = r.take_u64()?;
            if *c >= P {
                return Err(SnapError::corrupt(format!(
                    "AmsCopy coefficient {c} exceeds the field"
                )));
            }
        }
        self.coeffs = coeffs;
        self.counter = r.take_i64()?;
        Ok(())
    }
}

/// The sign hash on an already-reduced point `x < P` — the shared core of
/// [`AmsCopy::sign`] and the batched kernel (which reduces each distinct
/// item once and reuses the point across every copy).
#[inline]
fn sign_of(coeffs: &[u64; 4], x: u64) -> i64 {
    debug_assert!(x < P);
    let [a, b, c, d] = *coeffs;
    let mut acc = a;
    for coef in [b, c, d] {
        acc = add61(mul61(acc, x), coef);
    }
    if acc & 1 == 0 {
        1
    } else {
        -1
    }
}

/// Log2 of the sign-cache slot count (a 4096-entry direct-mapped table:
/// 64 KiB — scratch, not sketch state).
const SIGN_CACHE_BITS: u32 = 12;

/// Sentinel for an empty cache slot (reduced points are always `< P`).
const SIGN_CACHE_EMPTY: u64 = u64::MAX;

/// Cross-batch sign cache: a direct-mapped table from a reduced point `x`
/// to the packed signs of **every** copy at `x` (bit `j` set ⇔ copy `j`'s
/// sign is `+1`). The sign functions are fixed at construction, so an
/// entry stays valid for the sketch's lifetime (cleared on restore, where
/// the coefficients are overwritten); a stream that revisits items pays
/// the `copies` Horner evaluations once per distinct point (while it
/// keeps its slot) instead of once per update. Pure scratch: identical
/// signs come out either way, so estimates stay bit-identical, and the
/// table is skipped by snapshots.
#[derive(Debug, Clone, Default)]
struct SignCache {
    keys: Vec<u64>,
    bits: Vec<u64>,
}

impl SignCache {
    /// The packed signs for `x`, computing and caching them on a miss.
    /// Only callable when `copies.len() <= 64` (one bit per copy).
    fn lookup(&mut self, x: u64, copies: &[AmsCopy]) -> u64 {
        if self.keys.is_empty() {
            self.keys = vec![SIGN_CACHE_EMPTY; 1 << SIGN_CACHE_BITS];
            self.bits = vec![0; 1 << SIGN_CACHE_BITS];
        }
        // Fibonacci hashing: the multiplier spreads consecutive item ids
        // across slots; the top bits index the table.
        let slot = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SIGN_CACHE_BITS)) as usize;
        if self.keys[slot] == x {
            return self.bits[slot];
        }
        let mut packed = 0u64;
        for (j, c) in copies.iter().enumerate() {
            if sign_of(&c.coeffs, x) == 1 {
                packed |= 1 << j;
            }
        }
        self.keys[slot] = x;
        self.bits[slot] = packed;
        packed
    }

    /// Drop every entry (the coefficients changed under us — restore).
    fn clear(&mut self) {
        self.keys.clear();
        self.bits.clear();
    }
}

/// AMS F2 estimator: median over `copies` independent atoms of `⟨Z, f⟩²`.
#[derive(Debug, Clone)]
pub struct AmsF2 {
    copies: Vec<AmsCopy>,
    /// Reusable batch scratch for more than 64 copies: distinct-point
    /// delta aggregation table.
    agg: RunAggregator<i64>,
    /// Cross-batch scratch for at most 64 copies: packed signs per reduced
    /// point.
    sign_cache: SignCache,
    /// Per-batch scratch: one packed-sign word per update.
    sign_scratch: Vec<u64>,
}

impl AmsF2 {
    /// Sketch with `copies ≥ 1` independent sign vectors (made odd).
    pub fn new(copies: usize, rng: &mut TranscriptRng) -> Self {
        let copies = if copies.is_multiple_of(2) {
            copies + 1
        } else {
            copies.max(1)
        };
        AmsF2 {
            copies: (0..copies).map(|_| AmsCopy::new(rng)).collect(),
            agg: RunAggregator::new(),
            sign_cache: SignCache::default(),
            sign_scratch: Vec::new(),
        }
    }

    /// Apply a turnstile update.
    pub fn update(&mut self, item: u64, delta: i64) {
        for c in &mut self.copies {
            c.counter += delta * c.sign(item);
        }
    }

    /// Median of the copies' squared counters — the F2 estimate.
    pub fn estimate(&self) -> f64 {
        let mut sq: Vec<f64> = self
            .copies
            .iter()
            .map(|c| (c.counter as f64) * (c.counter as f64))
            .collect();
        sq.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        sq[sq.len() / 2]
    }

    /// The copies (white-box view — the attack reads the sign seeds here).
    pub fn copies(&self) -> &[AmsCopy] {
        &self.copies
    }
}

impl Snapshot for AmsF2 {
    /// Layout: `len | copies…`. The copy count is a construction parameter;
    /// the batch aggregator and sign cache are scratch — skipped.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.copies.len());
        for c in &self.copies {
            c.snap(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.take_usize()?;
        if len != self.copies.len() {
            return Err(SnapError::mismatch(
                format!("AmsF2({} copies)", self.copies.len()),
                format!("AmsF2({len} copies)"),
            ));
        }
        for c in &mut self.copies {
            c.restore(r)?;
        }
        // The restored coefficients need not match the ones the cache was
        // filled under; stale signs would silently corrupt every later
        // batch.
        self.sign_cache.clear();
        Ok(())
    }
}

impl SpaceUsage for AmsF2 {
    fn space_bits(&self) -> u64 {
        self.copies
            .iter()
            .map(|c| bits_for_signed(c.counter) + 4 * 61)
            .sum()
    }
}

impl StreamAlg for AmsF2 {
    type Update = Turnstile;
    type Output = f64;

    fn process(&mut self, update: &Turnstile, _rng: &mut TranscriptRng) {
        self.update(update.item, update.delta);
    }

    /// Batched ingestion. Each counter maintains `⟨Z, f⟩`, which is linear
    /// in the deltas, so summing a copy's `Z(i)·δ` over the batch and
    /// adding once is exactly `counter += Z(i)·δ` update by update: the
    /// final state is bit-identical to sequential processing.
    ///
    /// When the copies fit one packed word (the common case) every update
    /// resolves its packed signs through the cross-batch `SignCache`,
    /// keyed by the reduced point `x = item mod P` (the sign depends only
    /// on `x`): a hit costs no field arithmetic, a miss Horner-evaluates
    /// every copy once. The copy-major loop then adds `±δ` per update
    /// without a branch. The cached signs are the very values `sign_of`
    /// returns.
    ///
    /// With more copies, deltas are first aggregated per reduced point by
    /// the reusable [`RunAggregator`] (O(len), no sort), and each copy
    /// evaluates its sign once per distinct point; items whose deltas
    /// cancel contribute 0 either way.
    fn process_batch(&mut self, updates: &[Turnstile], _rng: &mut TranscriptRng) {
        if self.copies.len() <= 64 {
            let mut signs = std::mem::take(&mut self.sign_scratch);
            signs.clear();
            signs.extend(
                updates
                    .iter()
                    .map(|u| self.sign_cache.lookup(reduce64(u.item), &self.copies)),
            );
            for (j, copy) in self.copies.iter_mut().enumerate() {
                let mut acc = 0i64;
                for (&packed, u) in signs.iter().zip(updates) {
                    // `flip` is −1 where copy j's sign is −1, else 0, and
                    // `(δ ^ flip) − flip` is then `−δ` or `δ`.
                    let flip = ((packed >> j) & 1) as i64 - 1;
                    acc += (u.delta ^ flip) - flip;
                }
                copy.counter += acc;
            }
            self.sign_scratch = signs;
        } else {
            let runs = self.agg.aggregate(
                updates.iter().map(|u| (reduce64(u.item), u.delta)),
                updates.len(),
            );
            // The copy-major loop keeps each copy's coefficients in
            // registers while a local accumulator sums `Z(x)·δ` over the
            // whole batch.
            for copy in &mut self.copies {
                let coeffs = copy.coeffs;
                let mut acc = 0i64;
                for &(x, delta) in runs {
                    if delta != 0 {
                        acc += delta * sign_of(&coeffs, x);
                    }
                }
                copy.counter += acc;
            }
        }
    }

    /// Linear-sketch merge: each copy maintains `⟨Z, f⟩`, which is linear
    /// in `f`, so counters add — **provided both instances use the same
    /// sign functions** (same public coefficients, i.e. constructed from
    /// the same seed). The merged sketch is bit-identical to single-stream
    /// ingestion of the concatenated stream.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.copies.len() != other.copies.len() {
            return Err(MergeError::incompatible(format!(
                "AmsF2 {} vs {} copies",
                self.copies.len(),
                other.copies.len()
            )));
        }
        if self
            .copies
            .iter()
            .zip(&other.copies)
            .any(|(a, b)| a.coeffs != b.coeffs)
        {
            return Err(MergeError::incompatible(
                "AmsF2 sign coefficients differ — shard instances must be \
                 constructed from the same public seed",
            ));
        }
        for (a, b) in self.copies.iter_mut().zip(&other.copies) {
            a.counter += b.counter;
        }
        Ok(())
    }

    fn query(&self) -> f64 {
        self.estimate()
    }

    fn name(&self) -> &'static str {
        "AmsF2"
    }
}

/// White-box attack: scan item ids for items whose sign is `+1` in **every
/// copy**. A `2^{-copies}` fraction of the universe qualifies, so the scan
/// is polynomial for `copies = O(log n)`. Inserting `k` returned items once
/// each drives every counter to `k`, so the median estimate is `k²` while
/// the true `F2` is `k` — a `k`-factor inflation.
pub fn find_aligned_items(ams: &AmsF2, want: usize, budget: u64) -> Vec<u64> {
    let mut found = Vec::with_capacity(want.min(1024));
    for item in 0..budget {
        if ams.copies().iter().all(|c| c.sign(item) == 1) {
            found.push(item);
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
    fn sign_is_deterministic_pm_one() {
        let mut rng = TranscriptRng::from_seed(40);
        let ams = AmsF2::new(3, &mut rng);
        for item in 0..100u64 {
            for c in ams.copies() {
                let s = c.sign(item);
                assert!(s == 1 || s == -1);
                assert_eq!(s, c.sign(item));
            }
        }
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let mut rng = TranscriptRng::from_seed(41);
        let ams = AmsF2::new(1, &mut rng);
        let plus = (0..10_000u64)
            .filter(|&i| ams.copies()[0].sign(i) == 1)
            .count();
        let frac = plus as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "sign bias {frac}");
    }

    #[test]
    fn oblivious_estimate_is_constant_factor() {
        // Uniform stream: 512 items × 8 occurrences → F2 = 512·64 = 32768.
        let mut rng = TranscriptRng::from_seed(42);
        let mut ams = AmsF2::new(15, &mut rng);
        for t in 0..4096u64 {
            ams.update(t % 512, 1);
        }
        let f2 = 512.0 * 64.0;
        let est = ams.estimate();
        assert!(
            est > f2 / 8.0 && est < f2 * 8.0,
            "estimate {est} vs F2 {f2}"
        );
    }

    #[test]
    fn deletions_cancel() {
        let mut rng = TranscriptRng::from_seed(43);
        let mut ams = AmsF2::new(5, &mut rng);
        for i in 0..100u64 {
            ams.update(i, 2);
        }
        for i in 0..100u64 {
            ams.update(i, -2);
        }
        assert_eq!(ams.estimate(), 0.0);
    }

    #[test]
    fn white_box_attack_forces_unbounded_error() {
        let mut rng = TranscriptRng::from_seed(44);
        let mut ams = AmsF2::new(7, &mut rng);
        // ~2^-7 of ids align: a 64k budget yields hundreds.
        let aligned = find_aligned_items(&ams, 200, 1 << 16);
        assert!(
            aligned.len() >= 100,
            "found only {} aligned items",
            aligned.len()
        );
        let k = aligned.len() as f64;
        for &item in &aligned {
            ams.update(item, 1);
        }
        // True F2 = k (distinct items, each once); estimate = k².
        let est = ams.estimate();
        assert_eq!(est, k * k);
        assert!(
            est / k >= 100.0,
            "attack must force ≥100× inflation, got {}×",
            est / k
        );
    }

    #[test]
    fn aligned_fraction_shrinks_with_copies() {
        let mut rng = TranscriptRng::from_seed(45);
        let few = AmsF2::new(3, &mut rng);
        let many = AmsF2::new(11, &mut rng);
        let budget = 1 << 15;
        let n_few = find_aligned_items(&few, usize::MAX, budget).len();
        let n_many = find_aligned_items(&many, usize::MAX, budget).len();
        // Expected ratio 2^8; allow slack.
        assert!(n_few > 16 * n_many.max(1), "few {n_few} vs many {n_many}");
    }

    #[test]
    fn batch_matches_sequential() {
        let mut rng = TranscriptRng::from_seed(49);
        let mut seq = AmsF2::new(7, &mut rng);
        let mut bat = seq.clone();
        // Signed stream with repeats and full cancellations.
        let stream: Vec<Turnstile> = (0..4000u64)
            .map(|t| Turnstile {
                item: t % 97,
                delta: match t % 7 {
                    0 => -2,
                    1..=4 => 1,
                    _ => 3,
                },
            })
            .collect();
        let mut r1 = TranscriptRng::from_seed(50);
        let mut r2 = TranscriptRng::from_seed(50);
        for u in &stream {
            seq.process(u, &mut r1);
        }
        for c in stream.chunks(173) {
            bat.process_batch(c, &mut r2);
        }
        assert_eq!(seq.estimate(), bat.estimate());
        for (a, b) in seq.copies().iter().zip(bat.copies()) {
            assert_eq!(a.counter(), b.counter(), "counters must be bit-identical");
        }
    }

    /// `process_batch` before the per-update sign-cache kernel: deltas
    /// aggregated per reduced point, then one cache lookup and one branch
    /// per run. Frozen as the kernel's oracle.
    fn process_batch_aggregated(ams: &mut AmsF2, updates: &[Turnstile]) {
        let runs = ams.agg.aggregate(
            updates.iter().map(|u| (reduce64(u.item), u.delta)),
            updates.len(),
        );
        if ams.copies.len() <= 64 {
            let mut signs = std::mem::take(&mut ams.sign_scratch);
            signs.clear();
            signs.extend(
                runs.iter()
                    .map(|&(x, _)| ams.sign_cache.lookup(x, &ams.copies)),
            );
            for (j, copy) in ams.copies.iter_mut().enumerate() {
                let mut acc = 0i64;
                for (packed, &(_, delta)) in signs.iter().zip(runs) {
                    if delta != 0 {
                        acc += if (packed >> j) & 1 == 1 {
                            delta
                        } else {
                            -delta
                        };
                    }
                }
                copy.counter += acc;
            }
            ams.sign_scratch = signs;
        } else {
            for copy in &mut ams.copies {
                let coeffs = copy.coeffs;
                let mut acc = 0i64;
                for &(x, delta) in runs {
                    if delta != 0 {
                        acc += delta * sign_of(&coeffs, x);
                    }
                }
                copy.counter += acc;
            }
        }
    }

    fn snap_bytes(ams: &AmsF2) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ams.snap(&mut w);
        w.finish()
    }

    /// The oracle grid's streams: repeats, cancellations to zero (also of
    /// items `x` and `x + P`, which share a reduced point), one item, none,
    /// and deltas of ±2³² (the erased layer's largest turnstile delta).
    fn kernel_streams() -> Vec<(&'static str, Vec<Turnstile>)> {
        let t = |item: u64, delta: i64| Turnstile { item, delta };
        let repeats = (0..3000u64)
            .map(|i| t(i % 97 * 0x1_0000_0001, [1, 3, -2, 1, 5][i as usize % 5]))
            .collect();
        let cancels = (0..600u64)
            .flat_map(|i| {
                let item = if i % 3 == 0 { i + P } else { i };
                [
                    t(item, 4),
                    t(i, -4),
                    t(u64::MAX - i, 1),
                    t(u64::MAX - i, -1),
                ]
            })
            .collect();
        let single = (0..1000).map(|i| t(42, [2, -1, 7][i % 3])).collect();
        let big = 1i64 << 32;
        let extreme = (0..2000u64)
            .map(|i| t(i % 13, if i % 2 == 0 { big } else { -big }))
            .collect();
        vec![
            ("repeats", repeats),
            ("cancellations", cancels),
            ("single item", single),
            ("empty", Vec::new()),
            ("±2^32 deltas", extreme),
        ]
    }

    #[test]
    fn kernel_matches_the_aggregated_oracle_and_per_update_process() {
        // Per (copies, stream, chunk size): the kernel, the frozen
        // aggregated kernel and per-update `process` must agree on every
        // counter and snapshot byte, before a `restore` (with a warm sign
        // cache) and after one, which swaps in other sign coefficients.
        for copies in [1, 7, 63, 64, 65] {
            for (name, stream) in kernel_streams() {
                for chunk in [1, 173, 4096] {
                    let mut rng = TranscriptRng::from_seed(60 + copies as u64);
                    let fresh = AmsF2::new(copies, &mut rng);
                    let mut donor = AmsF2::new(copies, &mut rng);
                    donor.update(5, 3);
                    let donor = snap_bytes(&donor);
                    let mut kernel = fresh.clone();
                    let mut frozen = fresh.clone();
                    let mut single = fresh;
                    let mut r = TranscriptRng::from_seed(0);
                    for phase in ["before restore", "after restore"] {
                        if phase == "after restore" {
                            for ams in [&mut kernel, &mut frozen, &mut single] {
                                let mut reader = SnapReader::new(&donor).unwrap();
                                ams.restore(&mut reader).unwrap();
                                reader.finish().unwrap();
                            }
                        }
                        for c in stream.chunks(chunk) {
                            kernel.process_batch(c, &mut r);
                            process_batch_aggregated(&mut frozen, c);
                        }
                        kernel.process_batch(&[], &mut r);
                        process_batch_aggregated(&mut frozen, &[]);
                        for u in &stream {
                            single.process(u, &mut r);
                        }
                        let at = format!("{copies} copies, {name}, chunk {chunk}, {phase}");
                        let want: Vec<i64> = single.copies().iter().map(|c| c.counter()).collect();
                        for (got, which) in [(&kernel, "kernel"), (&frozen, "oracle")] {
                            let counters: Vec<i64> =
                                got.copies().iter().map(|c| c.counter()).collect();
                            assert_eq!(counters, want, "{which}: {at}");
                            assert_eq!(snap_bytes(got), snap_bytes(&single), "{which}: {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_is_exact_for_same_seed_instances() {
        let mut rng = TranscriptRng::from_seed(47);
        let single = AmsF2::new(7, &mut rng);
        let mut a = single.clone();
        let mut b = single.clone();
        let mut single = single;
        for t in 0..2000u64 {
            let (item, delta) = (t % 97, if t % 5 == 0 { -1 } else { 2 });
            single.update(item, delta);
            if t % 2 == 0 {
                a.update(item, delta);
            } else {
                b.update(item, delta);
            }
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.estimate(), single.estimate());
        for (m, s) in a.copies().iter().zip(single.copies()) {
            assert_eq!(m.counter(), s.counter());
        }
    }

    #[test]
    fn merge_rejects_different_sign_seeds() {
        let mut rng = TranscriptRng::from_seed(48);
        let mut a = AmsF2::new(3, &mut rng);
        let b = AmsF2::new(3, &mut rng);
        assert!(matches!(a.merge_from(&b), Err(MergeError::Incompatible(_))));
        let c = AmsF2::new(5, &mut rng);
        assert!(matches!(a.merge_from(&c), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn space_counts_counters_and_seeds() {
        let mut rng = TranscriptRng::from_seed(46);
        let ams = AmsF2::new(5, &mut rng);
        assert!(ams.space_bits() >= 5 * 4 * 61);
    }
}
