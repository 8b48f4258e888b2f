//! Fully transparent randomness for the white-box model.
//!
//! In the white-box adversarial game the adversary observes *all previous
//! randomness used by the algorithm* (step (1) of the round structure in §1
//! of the paper). We make that literal: algorithms draw randomness only
//! through a [`TranscriptRng`], which
//!
//! * is seeded from a **public** seed (the seed is part of the transcript);
//! * appends every drawn word to a [`RandTranscript`] the adversary reads;
//! * draws *fresh* words per round — the game loop hands the same
//!   `TranscriptRng` to every `process` call, so the stream position of each
//!   draw is well defined and reproducible.
//!
//! The generators themselves (SplitMix64 and xoshiro256\*\*) are implemented
//! here rather than taken from an external crate so that the exact bit
//! stream is pinned by this repository and the adversary-side replay in
//! attacks is byte-for-byte identical.
//!
//! All generator state here implements [`Snapshot`]: the model makes every
//! drawn word public anyway, so a checkpoint of the RNG (xoshiro state,
//! draw count, transcript ring) reveals nothing the adversary did not
//! already have, and a restored generator continues the tape draw for
//! draw.

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Number of most recent draws retained verbatim in the transcript ring
/// buffer. Older draws are still *knowable* by the adversary (the seed is
/// public and the total draw count is recorded) but are not stored, keeping
/// long-game memory bounded.
pub const TRANSCRIPT_RING: usize = 1024;

/// SplitMix64: the standard 64-bit seed expander (Steele, Lea, Flood 2014).
///
/// Used to initialize xoshiro state and as a tiny standalone PRNG in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives an independent seed from a master seed and a list of labels.
///
/// The tournament runner keys every cell's randomness off
/// `(master_seed, algorithm, adversary, workload, role)` through this
/// function, so each cell can be replayed in isolation and results are
/// citable: the derived seed is a pure function of its inputs, stable
/// across runs, platforms, and thread counts. Labels are absorbed into an
/// FNV-1a accumulator with a per-label length separator (so
/// `["ab", "c"]` and `["a", "bc"]` derive different seeds) and finished
/// with one [`SplitMix64`] step for full 64-bit avalanche.
pub fn derive_seed(master: u64, labels: &[&str]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for byte in master.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for label in labels {
        for &byte in label.as_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        h = (h ^ label.len() as u64).wrapping_mul(FNV_PRIME);
    }
    SplitMix64::new(h).next_u64()
}

/// The exact word→`[0, 1)` mapping of [`TranscriptRng::next_f64`] (top 53
/// bits, scaled), exposed so bulk kernels can convert words prefetched via
/// [`TranscriptRng::for_each_with_words`], or drawn from any
/// [`WordSource`], precisely as the scalar draw would.
#[inline]
pub fn f64_from_word(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of the coin `f64_from_word(w) < p`: for every word `w`,
/// `f64_from_word(w) < p` exactly when `w >> 11 < coin_threshold(p)`.
///
/// `f64_from_word(w)` is the integer `w >> 11` times `2^-53`, and scaling
/// by a power of two is exact, so the coin holds iff `w >> 11 < p·2^53`,
/// i.e. iff `w >> 11 < ⌈p·2^53⌉`. A kernel that flips many coins against
/// one probability can then compare integers. `p ≤ 0` and `NaN` give 0
/// (never); `p ≥ 1` gives at least `2^53` (always).
#[inline]
pub fn coin_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// xoshiro256\*\* (Blackman & Vigna 2018): fast, high-quality, 256-bit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// One xoshiro256\*\* step on an explicit state array — shared by the
/// scalar and bulk paths so both walk the identical tape.
#[inline(always)]
fn xoshiro_step(s: &mut [u64; 4]) -> u64 {
    let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

impl Xoshiro256StarStar {
    /// Seeds the generator by expanding `seed` with SplitMix64, per the
    /// reference implementation's recommendation.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_step(&mut self.s)
    }

    /// Fills `out` with the next `out.len()` words of the tape — exactly
    /// the words `out.len()` calls to [`Xoshiro256StarStar::next_u64`]
    /// would return, produced by an unrolled loop that keeps the state in
    /// registers for the whole batch instead of loading and storing it per
    /// word.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let mut s = self.s;
        let mut chunks = out.chunks_exact_mut(4);
        for quad in &mut chunks {
            quad[0] = xoshiro_step(&mut s);
            quad[1] = xoshiro_step(&mut s);
            quad[2] = xoshiro_step(&mut s);
            quad[3] = xoshiro_step(&mut s);
        }
        for w in chunks.into_remainder() {
            *w = xoshiro_step(&mut s);
        }
        self.s = s;
    }
}

impl Snapshot for Xoshiro256StarStar {
    fn snap(&self, w: &mut SnapWriter) {
        for &word in &self.s {
            w.put_u64(word);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for word in &mut self.s {
            *word = r.take_u64()?;
        }
        Ok(())
    }
}

/// The public record of all randomness drawn by a streaming algorithm.
///
/// Adversaries receive a `&RandTranscript` each round. The seed is public,
/// the total number of draws is exact, and the most recent
/// [`TRANSCRIPT_RING`] words are available verbatim; together these determine
/// the entire random tape (an adversary can replay the generator from the
/// seed), so nothing is hidden — the ring buffer is purely a memory bound on
/// the harness, not a secrecy mechanism.
#[derive(Debug, Clone)]
pub struct RandTranscript {
    seed: u64,
    draws: u64,
    ring: Vec<u64>,
    ring_next: usize,
}

impl RandTranscript {
    fn new(seed: u64) -> Self {
        RandTranscript {
            seed,
            draws: 0,
            ring: Vec::with_capacity(TRANSCRIPT_RING.min(64)),
            ring_next: 0,
        }
    }

    fn record(&mut self, word: u64) {
        self.draws += 1;
        if self.ring.len() < TRANSCRIPT_RING {
            self.ring.push(word);
        } else {
            self.ring[self.ring_next] = word;
            // Conditional reset instead of `% TRANSCRIPT_RING`: this is the
            // per-draw hot path, and the wrap happens once per ring lap.
            self.ring_next += 1;
            if self.ring_next == TRANSCRIPT_RING {
                self.ring_next = 0;
            }
        }
    }

    /// Records a whole batch of drawn words with amortized accounting:
    /// `draws` is bumped once, and only the words that survive into the
    /// ring are written — ending in **exactly** the state `words.len()`
    /// calls to `record` would produce (same ring contents, same
    /// `ring_next`, same `draws`).
    fn record_many(&mut self, words: &[u64]) {
        self.draws += words.len() as u64;
        let mut rest = words;
        if self.ring.len() < TRANSCRIPT_RING {
            let take = (TRANSCRIPT_RING - self.ring.len()).min(rest.len());
            self.ring.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
        if rest.is_empty() {
            return;
        }
        // The ring is full. Only the last TRANSCRIPT_RING words survive;
        // place them at the positions per-word recording would have used,
        // and advance `ring_next` by the full (possibly larger) count.
        let skip = rest.len() - rest.len().min(TRANSCRIPT_RING);
        let survivors = &rest[skip..];
        let start = (self.ring_next + skip % TRANSCRIPT_RING) % TRANSCRIPT_RING;
        let first = survivors.len().min(TRANSCRIPT_RING - start);
        self.ring[start..start + first].copy_from_slice(&survivors[..first]);
        let wrapped = &survivors[first..];
        self.ring[..wrapped.len()].copy_from_slice(wrapped);
        self.ring_next = if wrapped.is_empty() {
            let end = start + first;
            if end == TRANSCRIPT_RING {
                0
            } else {
                end
            }
        } else {
            wrapped.len()
        };
    }

    /// The public seed of the algorithm's random tape.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of 64-bit words the algorithm has drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The most recent draws, oldest first (up to [`TRANSCRIPT_RING`] words).
    pub fn recent(&self) -> Vec<u64> {
        if self.ring.len() < TRANSCRIPT_RING {
            self.ring.clone()
        } else {
            let mut v = Vec::with_capacity(TRANSCRIPT_RING);
            v.extend_from_slice(&self.ring[self.ring_next..]);
            v.extend_from_slice(&self.ring[..self.ring_next]);
            v
        }
    }

    /// The most recent draw, if any.
    pub fn last(&self) -> Option<u64> {
        if self.draws == 0 {
            return None;
        }
        if self.ring.len() < TRANSCRIPT_RING {
            self.ring.last().copied()
        } else {
            let idx = if self.ring_next == 0 {
                TRANSCRIPT_RING - 1
            } else {
                self.ring_next - 1
            };
            Some(self.ring[idx])
        }
    }

    /// Replays the full random tape from the public seed, returning the
    /// first `n` words. This is the adversary's "I saw all previous
    /// randomness" primitive for draws that have scrolled out of the ring.
    pub fn replay(&self, n: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::from_seed(self.seed);
        (0..n.min(self.draws)).map(|_| rng.next_u64()).collect()
    }
}

impl Snapshot for RandTranscript {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.seed);
        w.put_u64(self.draws);
        w.put_u64_seq(&self.ring);
        w.put_usize(self.ring_next);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let seed = r.take_u64()?;
        let draws = r.take_u64()?;
        let ring = r.take_u64_seq()?;
        let ring_next = r.take_usize()?;
        if ring.len() > TRANSCRIPT_RING {
            return Err(SnapError::corrupt(format!(
                "transcript ring of {} words exceeds capacity {TRANSCRIPT_RING}",
                ring.len()
            )));
        }
        // `ring_next` only steers writes once the ring is full; a partially
        // filled ring always appends at the end (ring_next stays 0).
        if ring.len() == TRANSCRIPT_RING {
            if ring_next >= TRANSCRIPT_RING {
                return Err(SnapError::corrupt(format!(
                    "ring_next {ring_next} out of range for a full ring"
                )));
            }
        } else if ring_next != 0 {
            return Err(SnapError::corrupt(format!(
                "ring_next {ring_next} nonzero on a partially filled ring"
            )));
        }
        self.seed = seed;
        self.draws = draws;
        self.ring = ring;
        self.ring_next = ring_next;
        Ok(())
    }
}

/// A source of raw tape words: what the shared draw rules [`below`] and
/// [`fill_below`] consume.
///
/// Every word is public in the white-box model, so the order in which
/// words are drawn and converted is part of the output contract. Writing
/// the rules once over this trait keeps that order identical for every
/// tape: [`TranscriptRng`] (recorded in the public transcript) and the
/// buffered environment tape under the engine's workload generators.
pub trait WordSource {
    /// The next word of the tape.
    fn next_u64(&mut self) -> u64;

    /// The next `out.len()` words of the tape, in tape order.
    fn next_u64_many(&mut self, out: &mut [u64]);
}

/// The acceptance zone of the uniform-draw rule for a modulus `n` that is
/// not a power of two: the largest multiple of `n` in `u64` range. [`below`]
/// accepts a word `v` exactly when `v < rejection_zone(n)`. Panics if
/// `n == 0`.
#[inline]
pub fn rejection_zone(n: u64) -> u64 {
    u64::MAX - u64::MAX % n
}

/// The uniform-draw rule: a uniform integer in `[0, n)` from `src`'s tape.
/// Panics if `n == 0`.
///
/// A power-of-two `n` masks one word. Any other `n` rejection-samples for
/// exact uniformity: words at or above the [`rejection_zone`] are skipped,
/// and the first accepted word `v` gives `v % n`.
#[inline]
pub fn below<S: WordSource + ?Sized>(src: &mut S, n: u64) -> u64 {
    assert!(n > 0, "below(0) is undefined");
    if n.is_power_of_two() {
        return src.next_u64() & (n - 1);
    }
    let zone = rejection_zone(n);
    loop {
        let v = src.next_u64();
        if v < zone {
            return v % n;
        }
    }
}

/// The bulk form of [`below`]: fills `out` with the values of `out.len()`
/// calls to it, consuming exactly the same words (rejections included),
/// with the words drawn through [`WordSource::next_u64_many`]. Panics if
/// `n == 0`.
pub fn fill_below<S: WordSource + ?Sized>(src: &mut S, n: u64, out: &mut [u64]) {
    assert!(n > 0, "below(0) is undefined");
    if n.is_power_of_two() {
        let mask = n - 1;
        src.next_u64_many(out);
        for v in out.iter_mut() {
            *v &= mask;
        }
        return;
    }
    let zone = rejection_zone(n);
    // Optimistic pass: one word per output. Rejected words are skipped
    // (in tape order, exactly like the scalar rejection loop) and the
    // shortfall redrawn in small rounds — each round draws exactly the
    // number of outputs still missing, so the total word count matches
    // the scalar loop draw for draw.
    src.next_u64_many(out);
    let mut filled = 0;
    for i in 0..out.len() {
        let v = out[i];
        if v < zone {
            out[filled] = v % n;
            filled += 1;
        }
    }
    let mut spare = [0u64; 32];
    while filled < out.len() {
        let need = (out.len() - filled).min(spare.len());
        src.next_u64_many(&mut spare[..need]);
        for &v in &spare[..need] {
            if v < zone {
                out[filled] = v % n;
                filled += 1;
            }
        }
    }
}

/// Tape words per block of [`TranscriptRng::for_each_with_words`] — sized
/// so a block stays L1-resident.
const WORD_BLOCK: usize = 512;

/// The only randomness source handed to streaming algorithms.
///
/// Every draw is recorded in the public [`RandTranscript`]. All helpers are
/// built on [`TranscriptRng::next_u64`] so that the transcript captures the
/// complete tape.
#[derive(Debug, Clone)]
pub struct TranscriptRng {
    rng: Xoshiro256StarStar,
    transcript: RandTranscript,
}

impl TranscriptRng {
    /// Creates a transparent RNG from a public seed.
    pub fn from_seed(seed: u64) -> Self {
        TranscriptRng {
            rng: Xoshiro256StarStar::from_seed(seed),
            transcript: RandTranscript::new(seed),
        }
    }

    /// Next 64-bit word; recorded in the transcript.
    pub fn next_u64(&mut self) -> u64 {
        let w = self.rng.next_u64();
        self.transcript.record(w);
        w
    }

    /// Fills `out` with the next `out.len()` words of the tape, all
    /// recorded: the same words, transcript draw count, and ring state as
    /// `out.len()` calls to [`TranscriptRng::next_u64`], with the tape
    /// generated by the unrolled bulk fill and the transcript updated once
    /// per batch.
    pub fn next_u64_many(&mut self, out: &mut [u64]) {
        self.rng.fill_u64(out);
        self.transcript.record_many(out);
    }

    /// Hands each item of `items` its `per` fresh tape words, in item
    /// order: `f(item, words)` sees exactly the words `per` calls to
    /// [`TranscriptRng::next_u64`] per item would draw, and the transcript
    /// ends in the same state. The words are drawn through
    /// [`TranscriptRng::next_u64_many`] in blocks of whole items of up to
    /// 512 words, from a stack buffer (a heap buffer of one item when
    /// `per > 512`). This is the prefetch loop of every batch kernel that
    /// spends a fixed number of coin words per update. Panics if
    /// `per == 0`.
    #[inline]
    pub fn for_each_with_words<T>(
        &mut self,
        items: &[T],
        per: usize,
        mut f: impl FnMut(&T, &[u64]),
    ) {
        assert!(per > 0, "for_each_with_words needs per >= 1");
        let mut stack = [0u64; WORD_BLOCK];
        let mut heap = Vec::new();
        let buf: &mut [u64] = if per <= WORD_BLOCK {
            &mut stack
        } else {
            heap.resize(per, 0);
            &mut heap
        };
        for block in items.chunks((WORD_BLOCK / per).max(1)) {
            let words = &mut buf[..block.len() * per];
            self.next_u64_many(words);
            for (item, w) in block.iter().zip(words.chunks_exact(per)) {
                f(item, w);
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` using 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        f64_from_word(self.next_u64())
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, n)` by the shared uniform-draw rule
    /// [`below`]. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        below(self, n)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// The public transcript (seed, draw count, recent draws).
    pub fn transcript(&self) -> &RandTranscript {
        &self.transcript
    }
}

impl WordSource for TranscriptRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        TranscriptRng::next_u64(self)
    }

    #[inline]
    fn next_u64_many(&mut self, out: &mut [u64]) {
        TranscriptRng::next_u64_many(self, out)
    }
}

impl Snapshot for TranscriptRng {
    fn snap(&self, w: &mut SnapWriter) {
        self.rng.snap(w);
        self.transcript.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng.restore(r)?;
        self.transcript.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same tape.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        let a = derive_seed(42, &["misra_gries", "zipf", "uniform", "game"]);
        // Pure function: identical inputs, identical seed — forever.
        assert_eq!(
            a,
            derive_seed(42, &["misra_gries", "zipf", "uniform", "game"])
        );
        // Every input perturbs the output.
        assert_ne!(
            a,
            derive_seed(43, &["misra_gries", "zipf", "uniform", "game"])
        );
        assert_ne!(
            a,
            derive_seed(42, &["misra_gries", "zipf", "uniform", "ctor"])
        );
        // Label boundaries matter: "ab","c" and "a","bc" must not collide.
        assert_ne!(derive_seed(1, &["ab", "c"]), derive_seed(1, &["a", "bc"]));
        assert_ne!(derive_seed(1, &[]), derive_seed(1, &[""]));
    }

    #[test]
    fn derive_seed_spreads_over_cells() {
        // All 12 x 5 x 5 tournament cells get distinct seeds.
        let algs = [
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12",
        ];
        let advs = ["zipf", "ddos", "uniform", "cycle", "hh_evader"];
        let wls = ["zipf", "ddos", "churn", "uniform", "cycle"];
        let mut seen = std::collections::HashSet::new();
        for a in algs {
            for d in advs {
                for w in wls {
                    assert!(seen.insert(derive_seed(7, &[a, d, w, "game"])));
                }
            }
        }
        assert_eq!(seen.len(), 12 * 5 * 5);
    }

    #[test]
    fn xoshiro_deterministic_and_nondegenerate() {
        let mut r1 = Xoshiro256StarStar::from_seed(42);
        let mut r2 = Xoshiro256StarStar::from_seed(42);
        let tape1: Vec<u64> = (0..64).map(|_| r1.next_u64()).collect();
        let tape2: Vec<u64> = (0..64).map(|_| r2.next_u64()).collect();
        assert_eq!(tape1, tape2);
        // Distinct seeds should diverge immediately with overwhelming prob.
        let mut r3 = Xoshiro256StarStar::from_seed(43);
        let tape3: Vec<u64> = (0..64).map(|_| r3.next_u64()).collect();
        assert_ne!(tape1, tape3);
    }

    #[test]
    fn transcript_records_all_draws() {
        let mut rng = TranscriptRng::from_seed(9);
        let drawn: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
        let t = rng.transcript();
        assert_eq!(t.draws(), 10);
        assert_eq!(t.recent(), drawn);
        assert_eq!(t.last(), drawn.last().copied());
        assert_eq!(t.seed(), 9);
    }

    #[test]
    fn transcript_replay_matches_tape() {
        let mut rng = TranscriptRng::from_seed(77);
        let drawn: Vec<u64> = (0..500).map(|_| rng.next_u64()).collect();
        assert_eq!(rng.transcript().replay(500), drawn);
        // Replay is capped at the number of draws actually made.
        assert_eq!(rng.transcript().replay(10_000).len(), 500);
    }

    #[test]
    fn transcript_ring_wraps_keeping_most_recent() {
        let mut rng = TranscriptRng::from_seed(5);
        let n = TRANSCRIPT_RING as u64 + 37;
        let all: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let recent = rng.transcript().recent();
        assert_eq!(recent.len(), TRANSCRIPT_RING);
        assert_eq!(&recent[..], &all[37..]);
        assert_eq!(rng.transcript().draws(), n);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = TranscriptRng::from_seed(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
        // Power-of-two fast path.
        for _ in 0..100 {
            assert!(rng.below(8) < 8);
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = TranscriptRng::from_seed(11);
        for _ in 0..1000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = TranscriptRng::from_seed(13);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 1/2");
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut rng = TranscriptRng::from_seed(17);
        let p = 0.3;
        let hits = (0..20_000).filter(|_| rng.bernoulli(p)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - p).abs() < 0.02, "freq {freq} far from {p}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let mut rng = TranscriptRng::from_seed(1);
        rng.below(0);
    }

    const P_TEST: u64 = (1 << 61) - 1;

    #[test]
    fn fill_u64_matches_scalar_tape() {
        for len in [0usize, 1, 3, 4, 5, 8, 63, 64, 65, 1000] {
            let mut scalar = Xoshiro256StarStar::from_seed(7);
            let mut bulk = scalar.clone();
            let want: Vec<u64> = (0..len).map(|_| scalar.next_u64()).collect();
            let mut got = vec![0u64; len];
            bulk.fill_u64(&mut got);
            assert_eq!(got, want, "len {len}");
            // Post-state agrees: the next word continues the same tape.
            assert_eq!(bulk.next_u64(), scalar.next_u64(), "len {len}");
        }
    }

    #[test]
    fn next_u64_many_matches_scalar_transcript_across_ring_wrap() {
        let mut scalar = TranscriptRng::from_seed(21);
        let mut bulk = TranscriptRng::from_seed(21);
        // Batch sizes chosen to land before, straddle, and lap the ring.
        for batch in [
            1usize,
            7,
            TRANSCRIPT_RING - 3,
            10,
            TRANSCRIPT_RING,
            2 * TRANSCRIPT_RING + 13,
        ] {
            let want: Vec<u64> = (0..batch).map(|_| scalar.next_u64()).collect();
            let mut got = vec![0u64; batch];
            bulk.next_u64_many(&mut got);
            assert_eq!(got, want, "batch {batch}");
            assert_eq!(bulk.transcript().draws(), scalar.transcript().draws());
            assert_eq!(bulk.transcript().recent(), scalar.transcript().recent());
            assert_eq!(bulk.transcript().last(), scalar.transcript().last());
        }
    }

    #[test]
    fn snapshot_resumes_tape_draw_for_draw() {
        use crate::snap;
        // Before, straddling, and after a full ring lap: the restored
        // generator must continue word-for-word and keep an identical
        // transcript (draws, ring contents, ring cursor).
        for warmup in [
            0u64,
            17,
            TRANSCRIPT_RING as u64,
            3 * TRANSCRIPT_RING as u64 + 5,
        ] {
            let mut rng = TranscriptRng::from_seed(123);
            for _ in 0..warmup {
                rng.next_u64();
            }
            let bytes = snap::to_bytes(&rng);
            let mut restored = TranscriptRng::from_seed(0);
            snap::from_bytes(&mut restored, &bytes).unwrap();
            assert_eq!(restored.transcript().seed(), 123, "warmup {warmup}");
            assert_eq!(restored.transcript().draws(), warmup);
            assert_eq!(restored.transcript().recent(), rng.transcript().recent());
            for i in 0..2 * TRANSCRIPT_RING {
                assert_eq!(restored.next_u64(), rng.next_u64(), "warmup {warmup} +{i}");
            }
            assert_eq!(restored.transcript().recent(), rng.transcript().recent());
            // Mixed draw kinds (rejection sampling included) also agree.
            assert_eq!(restored.below(1000), rng.below(1000));
            assert_eq!(restored.next_f64(), rng.next_f64());
        }
    }

    #[test]
    fn snapshot_rejects_corrupt_transcripts() {
        use crate::snap;
        let mut rng = TranscriptRng::from_seed(5);
        for _ in 0..10 {
            rng.next_u64();
        }
        // A partially filled ring must carry ring_next == 0.
        let mut w = crate::snap::SnapWriter::new();
        rng.snap(&mut w);
        let mut bytes = w.finish();
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&3u64.to_le_bytes());
        let mut victim = TranscriptRng::from_seed(0);
        assert!(matches!(
            snap::from_bytes(&mut victim, &bytes),
            Err(crate::snap::SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn fill_below_matches_scalar_draw_for_draw() {
        for n in [3u64, 7, 8, 100, (1 << 32) - 5, P_TEST] {
            let mut scalar = TranscriptRng::from_seed(31);
            let mut bulk = TranscriptRng::from_seed(31);
            let want: Vec<u64> = (0..2000).map(|_| scalar.below(n)).collect();
            let mut got = vec![0u64; 2000];
            fill_below(&mut bulk, n, &mut got);
            assert_eq!(got, want, "n {n}");
            assert_eq!(
                bulk.transcript().draws(),
                scalar.transcript().draws(),
                "n {n}: rejection redraw counts must match"
            );
            assert_eq!(bulk.transcript().recent(), scalar.transcript().recent());
            // Both continue on the same tape afterwards.
            assert_eq!(bulk.below(n), scalar.below(n));
        }
    }

    #[test]
    fn for_each_with_words_matches_scalar_draw_for_draw() {
        // 512 words per block: per = 1 and 9 pack 512 and 56 items a
        // block, 512 exactly one, and 513 takes the heap buffer. The item
        // counts land one short of, on, and one past a block boundary.
        for per in [1usize, 9, 512, 513] {
            let per_block = (WORD_BLOCK / per).max(1);
            for items in [
                0usize,
                1,
                per_block - 1,
                per_block,
                per_block + 1,
                3 * per_block + 1,
            ] {
                let mut scalar = TranscriptRng::from_seed(41);
                let mut bulk = TranscriptRng::from_seed(41);
                let want: Vec<Vec<u64>> = (0..items)
                    .map(|_| (0..per).map(|_| scalar.next_u64()).collect())
                    .collect();
                let ids: Vec<usize> = (0..items).collect();
                let mut got = Vec::new();
                bulk.for_each_with_words(&ids, per, |&i, w| {
                    assert_eq!(i, got.len(), "items arrive in order");
                    got.push(w.to_vec());
                });
                assert_eq!(got, want, "per {per}, {items} items");
                assert_eq!(bulk.transcript().draws(), scalar.transcript().draws());
                assert_eq!(bulk.transcript().recent(), scalar.transcript().recent());
                assert_eq!(
                    bulk.next_u64(),
                    scalar.next_u64(),
                    "per {per}, {items} items"
                );
            }
        }
    }
}
