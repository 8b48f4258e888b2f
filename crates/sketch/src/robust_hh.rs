//! Algorithm 2 / Theorem 1.1: white-box-robust `ε`-L1-heavy hitters in
//! `O(ε⁻¹(log n + log ε⁻¹) + log log m)` bits.
//!
//! Composition (exactly the paper's):
//!
//! * a [`MedianMorris`] counter supplies a `(1 + O(ε))`-approximation `t̂`
//!   of the stream length at all times in `O(log log m)` bits;
//! * a [`GuessLadder`] keeps two live [`BernMG`] instances provisioned for
//!   stream-length guesses `(16/ε)^{c+1}` and `(16/ε)^{c+2}`; when `t̂`
//!   crosses the answering guess, the warming instance takes over having
//!   missed at most an `ε/16`-fraction prefix, so every `ε`-heavy hitter of
//!   the full stream is still `Ω(ε)`-heavy in the instance's substream;
//! * queries are answered by the instance covering the current epoch.
//!
//! Robustness: Morris counters are white-box robust (Lemma 2.1) and
//! Bernoulli sampling is white-box robust (Theorem 2.3) because no private
//! randomness outlives the round in which it is drawn; Misra–Gries is
//! deterministic. The adversary sees every coin — and none of them help it
//! bias *future* coins.

use crate::bern_mg::BernMG;
use crate::epochs::GuessLadder;
use crate::morris::MedianMorris;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::SpaceUsage;
use wb_core::stream::{InsertOnly, StreamAlg};

type Factory = Box<dyn Fn(u64) -> BernMG + Send + Sync>;

/// Algorithm 2: robust `ε`-L1-heavy hitters without knowing `m`.
pub struct RobustL1HeavyHitters {
    eps: f64,
    n: u64,
    morris: MedianMorris,
    ladder: GuessLadder<BernMG, Factory>,
}

impl std::fmt::Debug for RobustL1HeavyHitters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustL1HeavyHitters")
            .field("eps", &self.eps)
            .field("n", &self.n)
            .field("epoch", &self.ladder.epoch())
            .field("t_hat", &self.morris.estimate())
            .finish()
    }
}

impl RobustL1HeavyHitters {
    /// New instance for universe `[n]` and accuracy `ε ∈ (0, 1/2)`.
    ///
    /// The per-instance failure probability is `δ = ε/64` (the paper's
    /// `δ = O(ε / log m)`; the `log m` refinement only matters for
    /// union-bounding over astronomically many epochs).
    pub fn new(n: u64, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 1/2)");
        assert!(n > 0);
        let delta = eps / 64.0;
        let ratio = 16.0 / eps;
        let factory: Factory = Box::new(move |guess| BernMG::new(n, guess, eps / 2.0, delta));
        RobustL1HeavyHitters {
            eps,
            n,
            morris: MedianMorris::new(eps / 16.0, 7),
            ladder: GuessLadder::new(ratio, factory),
        }
    }

    /// Promote epochs if `t̂` crossed the answering guess. Only needed
    /// after a Morris exponent moved: `advance(t̂)` with an unchanged `t̂`
    /// is a no-op (the previous call already looped until
    /// `t̂ < answering_guess`). The median itself is computed only once the
    /// copies' estimate bound reaches the guess.
    fn advance_ladder(&mut self) {
        let morris = &self.morris;
        self.ladder
            .advance_bounded(morris.estimate_bound(), || morris.estimate());
    }

    /// Process one item occurrence.
    pub fn insert(&mut self, item: u64, rng: &mut TranscriptRng) {
        let changed = self.morris.increment(rng);
        for inst in self.ladder.live_mut() {
            inst.insert(item, rng);
        }
        if changed {
            self.advance_ladder();
        }
    }

    /// Estimated frequency of `item` from the answering instance.
    pub fn estimate(&self, item: u64) -> f64 {
        self.ladder.answering().estimate(item)
    }

    /// The heavy-hitter list: `O(1/ε)` items with rescaled estimates.
    pub fn heavy_hitters(&self) -> Vec<(u64, f64)> {
        self.ladder.answering().estimates()
    }

    /// Morris estimate `t̂` of the stream length (white-box view).
    pub fn t_hat(&self) -> f64 {
        self.morris.estimate()
    }

    /// Current epoch of the guess ladder (white-box view).
    pub fn epoch(&self) -> u32 {
        self.ladder.epoch()
    }

    /// Accuracy parameter.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The answering [`BernMG`] instance (white-box view).
    pub fn answering(&self) -> &BernMG {
        self.ladder.answering()
    }
}

impl Snapshot for RobustL1HeavyHitters {
    /// Layout: `eps | n | morris | ladder`. The ladder carries its epoch
    /// and both live [`BernMG`] instances; the factory in the restoring
    /// twin rebuilds instances at the snapshot epoch's guesses.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.eps);
        w.put_u64(self.n);
        self.morris.snap(w);
        self.ladder.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let eps = r.take_f64()?;
        let n = r.take_u64()?;
        if eps.to_bits() != self.eps.to_bits() || n != self.n {
            return Err(SnapError::mismatch(
                format!("RobustL1HeavyHitters(eps={}, n={})", self.eps, self.n),
                format!("RobustL1HeavyHitters(eps={eps}, n={n})"),
            ));
        }
        self.morris.restore(r)?;
        self.ladder.restore(r)
    }
}

impl SpaceUsage for RobustL1HeavyHitters {
    fn space_bits(&self) -> u64 {
        self.morris.space_bits() + self.ladder.space_bits()
    }
}

impl StreamAlg for RobustL1HeavyHitters {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, rng: &mut TranscriptRng) {
        self.insert(update.0, rng);
    }

    /// Batched insert. Each update consumes exactly `k + 2` words (`k`
    /// Morris coins in copy order, then the answering and warming sampling
    /// coins), so whole blocks are prefetched by
    /// [`TranscriptRng::for_each_with_words`] and fed to the per-word paths
    /// in scalar order. The ladder is consulted only when a Morris exponent
    /// moved, exactly as in [`Self::insert`]; the copies take their new
    /// coin thresholds and estimates from the [`MedianMorris`] memo instead
    /// of recomputing `powi`.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        let k = self.morris.counters().len();
        rng.for_each_with_words(updates, k + 2, |u, words| {
            let changed = self.morris.increment_with_words(&words[..k]);
            for (inst, &w) in self.ladder.live_mut().into_iter().zip(&words[k..]) {
                inst.insert_with_word(u.0, w);
            }
            if changed {
                self.advance_ladder();
            }
        });
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.heavy_hitters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misra_gries::MisraGries;
    use wb_core::game::FnAdversary;
    use wb_core::referee::HeavyHitterReferee;
    use wb_core::rng::RandTranscript;
    use wb_engine::Game;

    /// Zipf-flavoured script: item 1 at 40%, item 2 at 15%, item 3 at 8%,
    /// uniform noise elsewhere.
    fn zipf_script(m: u64, n: u64) -> Vec<InsertOnly> {
        (0..m)
            .map(|t| {
                let item = match t % 100 {
                    0..=39 => 1,
                    40..=54 => 2,
                    55..=62 => 3,
                    _ => 100 + (t.wrapping_mul(2654435761)) % (n - 100),
                };
                InsertOnly(item)
            })
            .collect()
    }

    #[test]
    fn survives_long_zipf_stream() {
        let n = 1 << 14;
        let m = 1 << 16;
        let report = Game::new(RobustL1HeavyHitters::new(n, 0.125))
            .script(zipf_script(m, n))
            .referee(HeavyHitterReferee::new(0.125, 0.125).with_grace(64))
            .max_rounds(m)
            .seed(21)
            .run();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
        assert_eq!(report.result.rounds, m);
    }

    #[test]
    fn survives_white_box_mg_evasion_adversary() {
        // Classic anti-Misra-Gries strategy, upgraded with white-box access:
        // the adversary inspects the answering instance's retained items and
        // sends items *not* currently monitored, interleaved with a heavy
        // item. Deterministic MG alone tolerates this; the point is that
        // sampling+Morris do not open a new attack surface.
        let n = 1 << 14;
        let m = 1 << 15;
        let mut next_evader = 500u64;
        let adv = FnAdversary::new(
            move |t: u64,
                  alg: &RobustL1HeavyHitters,
                  _tr: &RandTranscript,
                  _last: Option<&Vec<(u64, f64)>>| {
                if t >= m {
                    return None;
                }
                if t.is_multiple_of(3) {
                    Some(InsertOnly(1)) // keep one genuinely heavy item
                } else {
                    // Scan for an item id the summary is not tracking.
                    let tracked: Vec<u64> = alg
                        .answering()
                        .inner()
                        .entries()
                        .iter()
                        .map(|&(i, _)| i)
                        .collect();
                    while tracked.contains(&next_evader) {
                        next_evader = 500 + (next_evader + 1) % (n - 500);
                    }
                    let item = next_evader;
                    next_evader = 500 + (next_evader + 1) % (n - 500);
                    Some(InsertOnly(item))
                }
            },
        );
        let (report, alg) = Game::new(RobustL1HeavyHitters::new(n, 0.125))
            .adversary(adv)
            .referee(HeavyHitterReferee::new(0.125, 0.125).with_grace(64))
            .max_rounds(m)
            .seed(22)
            .play();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
        // The heavy item must be reported with a sane estimate.
        let hh = alg.heavy_hitters();
        let est1 = hh.iter().find(|&&(i, _)| i == 1).map(|&(_, e)| e);
        let est1 = est1.expect("item 1 is 1/3 of the stream — must be reported");
        let truth = m as f64 / 3.0;
        assert!(
            (est1 - truth).abs() < 0.125 * m as f64,
            "estimate {est1} vs truth {truth}"
        );
    }

    #[test]
    fn epochs_advance_with_stream_length() {
        let mut rng = TranscriptRng::from_seed(23);
        let mut alg = RobustL1HeavyHitters::new(1 << 10, 0.25);
        assert_eq!(alg.epoch(), 0);
        for _ in 0..(1 << 15) {
            alg.insert(1, &mut rng);
        }
        // ratio = 64; t = 32768 = 64^2.5 → epoch should be ≥ 2.
        assert!(alg.epoch() >= 2, "epoch {}", alg.epoch());
        // Morris estimate should be in the right ballpark.
        let t_hat = alg.t_hat();
        assert!((t_hat - 32768.0).abs() < 0.5 * 32768.0, "t_hat {t_hat}");
    }

    #[test]
    fn space_beats_misra_gries_on_long_streams() {
        // E1's shape at test scale: per-counter bits of the robust algorithm
        // saturate (counters count samples), while MG counter bits track
        // log m. Compare total bits on a single-hot-item stream.
        let mut rng = TranscriptRng::from_seed(24);
        let n = 1 << 16;
        let eps = 0.25;
        let m = 1 << 20;
        let mut robust = RobustL1HeavyHitters::new(n, eps);
        let mut mg = MisraGries::new(eps, n);
        for t in 0..m {
            let item = if t % 2 == 0 { 1 } else { 2 };
            robust.insert(item, &mut rng);
            mg.insert(item);
        }
        // MG stores two counters of ~log2(m/2) = 19 bits each, growing with
        // log m forever. The robust algorithm's counters count *samples*,
        // which are capped at ~C·ln(n/δ)/(ε/8)² per instance regardless of
        // m, so its total space sits under a fixed cap (two BernMG
        // instances with ≤2 entries each + Morris + epoch index).
        let cap = 2 * 2 * (16 + 20 + 20) + 64;
        assert!(
            robust.space_bits() < cap,
            "robust space {} exceeds cap {cap} at m",
            robust.space_bits()
        );
        let mg_bits_1 = mg.space_bits();
        for t in 0..(3 * m) {
            let item = if t % 2 == 0 { 1 } else { 2 };
            robust.insert(item, &mut rng);
            mg.insert(item);
        }
        let mg_growth = mg.space_bits() as i64 - mg_bits_1 as i64;
        assert!(mg_growth >= 4, "MG grows with log m: {mg_growth}");
        assert!(
            robust.space_bits() < cap,
            "robust space {} exceeds cap {cap} at 4m",
            robust.space_bits()
        );
    }

    #[test]
    fn estimates_have_no_phantom_heavy_items() {
        let mut rng = TranscriptRng::from_seed(25);
        let n = 1 << 12;
        let mut alg = RobustL1HeavyHitters::new(n, 0.125);
        let m = 1 << 14;
        for t in 0..m {
            alg.insert(t % 64, &mut rng); // uniform over 64 items
        }
        // No item holds more than 1/64 ≈ 1.6% of the stream; nothing should
        // be estimated above eps·m with eps = 12.5%.
        for (item, est) in alg.heavy_hitters() {
            assert!(
                est < 0.125 * m as f64,
                "phantom heavy item {item} with estimate {est}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "eps must be in (0, 1/2)")]
    fn rejects_bad_eps() {
        RobustL1HeavyHitters::new(10, 0.75);
    }
}
