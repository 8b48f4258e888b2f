//! Algorithm 1 of the paper: `BernMG(n, m, ε, δ)` — Bernoulli sampling in
//! front of a Misra–Gries summary.
//!
//! Each update is forwarded to a Misra–Gries instance (threshold `ε/2` on
//! the *sampled* stream) with probability `p = Θ(log(n/δ) / (ε²·m))`, where
//! `m` is an upper bound on the stream length. Estimates are rescaled by
//! `1/p`. Because the counters count *samples*, their magnitude is
//! `O(log(n/δ)/ε²)` — independent of `m` — which is where the `log m` of
//! plain Misra–Gries disappears. White-box robustness is inherited from
//! Theorem 2.3 (no private randomness survives a round).

use crate::misra_gries::MisraGries;
use crate::sampling::bernoulli_rate;
use wb_core::rng::{f64_from_word, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, SpaceUsage};
use wb_core::stream::{InsertOnly, StreamAlg};

/// Algorithm 1: Bernoulli-sampled Misra–Gries.
#[derive(Debug, Clone)]
pub struct BernMG {
    mg: MisraGries,
    /// Public sampling probability.
    p: f64,
    /// Upper bound on the stream length this instance is provisioned for.
    m_guess: u64,
    sampled: u64,
}

impl BernMG {
    /// Sampling constant used in `p = C·ln(n/δ)/((ε/4)²·m)`; generous so
    /// that estimates concentrate well before the referee's tolerance.
    pub const C: f64 = 8.0;

    /// New instance for universe `[n]`, stream-length upper bound
    /// `m_guess`, accuracy `ε` and failure probability `δ`.
    pub fn new(n: u64, m_guess: u64, eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        assert!(m_guess > 0, "m_guess must be positive");
        // Sample at the rate for accuracy ε/4, run MG at threshold ε/2:
        // total additive error on rescaled estimates stays below ε·m.
        let p = bernoulli_rate(n, m_guess, eps / 4.0, delta, Self::C);
        BernMG {
            mg: MisraGries::new(eps / 2.0, n),
            p,
            m_guess,
            sampled: 0,
        }
    }

    /// Process one update.
    pub fn insert(&mut self, item: u64, rng: &mut TranscriptRng) {
        if rng.bernoulli(self.p) {
            self.mg.insert(item);
            self.sampled += 1;
        }
    }

    /// Process one update whose sampling coin word was already drawn (by a
    /// bulk prefetch).
    #[inline]
    pub(crate) fn insert_with_word(&mut self, item: u64, word: u64) {
        if f64_from_word(word) < self.p {
            self.mg.insert(item);
            self.sampled += 1;
        }
    }

    /// Rescaled estimate of `item`'s frequency in the full stream.
    pub fn estimate(&self, item: u64) -> f64 {
        self.mg.estimate(item) as f64 / self.p
    }

    /// All retained items with rescaled estimates, item-ascending.
    pub fn estimates(&self) -> Vec<(u64, f64)> {
        self.mg
            .entries()
            .into_iter()
            .map(|(i, c)| (i, c as f64 / self.p))
            .collect()
    }

    /// Public sampling probability.
    pub fn rate(&self) -> f64 {
        self.p
    }

    /// Samples taken so far.
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// The stream-length upper bound this instance was provisioned for.
    pub fn m_guess(&self) -> u64 {
        self.m_guess
    }

    /// The inner Misra–Gries summary (white-box view).
    pub fn inner(&self) -> &MisraGries {
        &self.mg
    }
}

impl Snapshot for BernMG {
    /// Layout: `p | m_guess | sampled | mg`. `p` and `m_guess` are derived
    /// from construction parameters — validated bit-for-bit, which is also
    /// what lets [`crate::epochs::GuessLadder`] verify a factory-rebuilt
    /// instance matches the snapshot epoch.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.p);
        w.put_u64(self.m_guess);
        w.put_u64(self.sampled);
        self.mg.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let p = r.take_f64()?;
        let m_guess = r.take_u64()?;
        if p.to_bits() != self.p.to_bits() || m_guess != self.m_guess {
            return Err(SnapError::mismatch(
                format!("BernMG(p={}, m_guess={})", self.p, self.m_guess),
                format!("BernMG(p={p}, m_guess={m_guess})"),
            ));
        }
        self.sampled = r.take_u64()?;
        self.mg.restore(r)
    }
}

impl SpaceUsage for BernMG {
    /// MG over sampled counts plus the sample counter. The guess `m` is
    /// represented by its epoch index upstream (Algorithm 2), so it is not
    /// charged here; `p` is derived from public parameters.
    fn space_bits(&self) -> u64 {
        self.mg.space_bits() + bits_for_count(self.sampled)
    }
}

impl StreamAlg for BernMG {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, rng: &mut TranscriptRng) {
        self.insert(update.0, rng);
    }

    /// Batched sampling: coin words are prefetched block-wise (identical
    /// words, identical transcript), and consecutive *sampled* occurrences
    /// of the same item collapse into one weighted Misra–Gries run —
    /// `MisraGries::insert_run` is defined as exactly that many repeated
    /// inserts, so the summary state is bit-identical to the scalar loop.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        let mut run: Option<(u64, u64)> = None;
        rng.for_each_with_words(updates, 1, |u, w| {
            if f64_from_word(w[0]) < self.p {
                self.sampled += 1;
                match &mut run {
                    Some((item, weight)) if *item == u.0 => *weight += 1,
                    _ => {
                        if let Some((item, weight)) = run.take() {
                            self.mg.insert_run(item, weight);
                        }
                        run = Some((u.0, 1));
                    }
                }
            }
        });
        if let Some((item, weight)) = run {
            self.mg.insert_run(item, weight);
        }
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_rate_saturates_for_short_guess() {
        let b = BernMG::new(1 << 10, 10, 0.125, 0.05);
        assert_eq!(b.rate(), 1.0, "tiny guess: sample everything");
    }

    #[test]
    fn estimates_concentrate_for_heavy_items() {
        let mut rng = TranscriptRng::from_seed(10);
        let m = 1 << 17;
        let eps = 0.125;
        let mut b = BernMG::new(1 << 16, m, eps, 0.05);
        // item 1: 40%, item 2: 15%, noise: rest.
        for t in 0..m {
            let item = match t % 20 {
                0..=7 => 1,
                8..=10 => 2,
                _ => 1000 + (t * 31) % 4096,
            };
            b.insert(item, &mut rng);
        }
        let e1 = b.estimate(1);
        let e2 = b.estimate(2);
        let m_f = m as f64;
        assert!(
            (e1 - 0.4 * m_f).abs() < eps * m_f,
            "e1 = {e1}, want ~{}",
            0.4 * m_f
        );
        assert!(
            (e2 - 0.15 * m_f).abs() < eps * m_f,
            "e2 = {e2}, want ~{}",
            0.15 * m_f
        );
    }

    #[test]
    fn counters_stay_small_regardless_of_stream_length() {
        // The whole point of Algorithm 1: counter magnitudes are
        // O(log(n/δ)/ε²) samples, not O(m).
        let mut rng = TranscriptRng::from_seed(11);
        let m = 1 << 18;
        let mut b = BernMG::new(1 << 12, m, 0.25, 0.1);
        for _ in 0..m {
            b.insert(7, &mut rng);
        }
        let sampled = b.sampled();
        let expect = b.rate() * m as f64;
        assert!(
            (sampled as f64 - expect).abs() < 6.0 * expect.sqrt() + 8.0,
            "sampled {sampled}, expected ~{expect}"
        );
        // Counter bits ≪ log2(m) = 18 bits would be needed by plain MG...
        // here the count is about `sampled`, which is ~ C·ln(n/δ)·16/ε².
        assert!(b.inner().estimate(7) <= sampled);
    }

    #[test]
    fn space_tracks_samples_not_stream() {
        let mut rng = TranscriptRng::from_seed(12);
        let mut short = BernMG::new(1 << 12, 1 << 20, 0.25, 0.1);
        let mut long = short.clone();
        for _ in 0..(1 << 10) {
            short.insert(3, &mut rng);
        }
        for _ in 0..(1 << 16) {
            long.insert(3, &mut rng);
        }
        // Both well under the guess; space within a few bits of each other
        // (sample counts differ by the rate × length factor only).
        let s1 = short.space_bits();
        let s2 = long.space_bits();
        assert!(
            s2 <= s1 + 24,
            "space should grow ~log(samples): {s1} → {s2}"
        );
    }

    #[test]
    fn query_rescales() {
        let mut rng = TranscriptRng::from_seed(13);
        let mut b = BernMG::new(64, 1 << 14, 0.25, 0.1);
        for _ in 0..4096u64 {
            b.insert(5, &mut rng);
        }
        let out = b.estimates();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 5);
        assert!((out[0].1 - 4096.0).abs() < 1024.0);
    }

    #[test]
    #[should_panic(expected = "m_guess must be positive")]
    fn rejects_zero_guess() {
        BernMG::new(10, 0, 0.1, 0.1);
    }
}
