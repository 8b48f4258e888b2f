//! Theorem 1.2: `(φ, ε)`-L1-heavy hitters against `T`-time-bounded
//! white-box adversaries, using collision-resistant hashing to shrink the
//! per-counter identifier cost from `log n` to `O(min(log n, log T))`.
//!
//! The structure follows Algorithm 2, with two changes driven by the CRHF:
//!
//! * the Misra–Gries dictionary is keyed by a **truncated CRHF digest** of
//!   the item (`hash_bits ≈ 2·log₂ T` bits: a `T`-time adversary cannot
//!   find a colliding pair by birthday search, and random collisions among
//!   the `poly(log n, 1/ε)` sampled items are negligible);
//! * full `log n`-bit identifiers are retained only for the `O(1/φ)` items
//!   currently above the reporting threshold — the `(1/φ)·log n` term of
//!   the theorem — since only reported items ever need their names.
//!
//! The `(φ, ε)` guarantee: every item with `f ≥ φ‖f‖₁` is reported, and no
//! item with `f < (φ−ε)‖f‖₁` is reported.

use crate::epochs::GuessLadder;
use crate::misra_gries::MisraGries;
use crate::morris::MedianMorris;
use crate::sampling::bernoulli_rate;
use std::collections::HashMap;
use std::sync::Arc;
use wb_core::rng::{f64_from_word, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, bits_for_universe, SpaceUsage};
use wb_core::stream::{InsertOnly, StreamAlg};
use wb_crypto::crhf::{PedersenMd, PedersenTables};

/// Log2 of the [`DigestMemo`] slot count (1024 slots, 16 KiB).
const DIGEST_MEMO_BITS: u32 = 10;

/// Marks an empty [`DigestMemo`] slot: truncated digests are below
/// `2^40`, so no real digest equals it.
const DIGEST_MEMO_EMPTY: u64 = u64::MAX;

/// Direct-mapped memo from an item to its truncated digest, in the style of
/// the AMS sign cache, shared by the epoch instances of one
/// [`PhiEpsHeavyHitters`]. The digest is a pure function of the public
/// CRHF, the digest width and the item, so a sampled repeat of a recent
/// item skips the Pedersen chain and gets the identical value. Scratch,
/// not state: snapshots and space accounting skip it.
#[derive(Clone, Default)]
struct DigestMemo {
    items: Vec<u64>,
    digests: Vec<u64>,
}

impl std::fmt::Debug for DigestMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestMemo")
            .field("slots", &self.items.len())
            .finish()
    }
}

impl DigestMemo {
    /// The memoized digest of `item`, computing and storing it on a miss.
    #[inline]
    fn get(&mut self, item: u64, digest: impl FnOnce(u64) -> u64) -> u64 {
        if self.items.is_empty() {
            self.items = vec![0; 1 << DIGEST_MEMO_BITS];
            self.digests = vec![DIGEST_MEMO_EMPTY; 1 << DIGEST_MEMO_BITS];
        }
        // Fibonacci hashing spreads consecutive item ids across slots.
        let slot = (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DIGEST_MEMO_BITS)) as usize;
        if self.items[slot] != item || self.digests[slot] == DIGEST_MEMO_EMPTY {
            self.items[slot] = item;
            self.digests[slot] = digest(item);
        }
        self.digests[slot]
    }
}

/// One epoch instance: Bernoulli sampling into an MG dictionary keyed by
/// truncated CRHF digests, with a bounded name table.
#[derive(Debug, Clone)]
pub struct HashedBernMG {
    /// The public CRHF's fixed-base tables, shared with the other epoch
    /// instances.
    crhf: Arc<PedersenTables>,
    hash_mask: u64,
    hash_bits: u32,
    p: f64,
    mg: MisraGries,
    names: HashMap<u64, u64>,
    names_cap: usize,
    n: u64,
    sampled: u64,
}

impl HashedBernMG {
    fn new(
        n: u64,
        m_guess: u64,
        eps: f64,
        delta: f64,
        crhf: Arc<PedersenTables>,
        hash_bits: u32,
        names_cap: usize,
    ) -> Self {
        let p = bernoulli_rate(n, m_guess, eps / 4.0, delta, 8.0);
        HashedBernMG {
            crhf,
            hash_mask: if hash_bits >= 64 {
                u64::MAX
            } else {
                (1 << hash_bits) - 1
            },
            hash_bits,
            p,
            mg: MisraGries::new(eps / 2.0, 1u64 << hash_bits.min(62)),
            names: HashMap::new(),
            names_cap,
            n,
            sampled: 0,
        }
    }

    /// Truncated CRHF digest of an item.
    pub fn digest(&self, item: u64) -> u64 {
        self.crhf.hash_u64(item) & self.hash_mask
    }

    fn insert(&mut self, item: u64, rng: &mut TranscriptRng, memo: &mut DigestMemo) {
        // `bernoulli` consumes exactly the one word the batched path
        // prefetches, so delegating keeps the transcript identical.
        let word = rng.next_u64();
        self.insert_with_word(item, word, memo);
    }

    /// [`Self::insert`] with the sampling coin word already drawn by a bulk
    /// prefetch. The early return keeps the (expensive) Pedersen digest off
    /// the unsampled path, exactly as the scalar `bernoulli` gate does.
    #[inline]
    fn insert_with_word(&mut self, item: u64, word: u64, memo: &mut DigestMemo) {
        if f64_from_word(word) >= self.p {
            return;
        }
        self.sampled += 1;
        let h = memo.get(item, |x| self.digest(x));
        self.mg.insert(h);
        // Maintain names for the largest counters only.
        self.names.entry(h).or_insert(item);
        if self.names.len() > self.names_cap {
            // Evict the name whose digest currently has the smallest count;
            // ties break on the smaller digest so the choice is
            // deterministic across instances.
            let (&evict, _) = self
                .names
                .iter()
                .min_by_key(|(&h, _)| (self.mg.estimate(h), h))
                .expect("non-empty");
            self.names.remove(&evict);
        }
    }

    /// Rescaled estimate for a digest.
    fn estimate_digest(&self, h: u64) -> f64 {
        self.mg.estimate(h) as f64 / self.p
    }

    /// Named entries above `threshold` (absolute frequency scale).
    fn report(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .names
            .iter()
            .filter_map(|(&h, &item)| {
                let est = self.estimate_digest(h);
                (est >= threshold).then_some((item, est))
            })
            .collect();
        out.sort_unstable_by_key(|&(i, _)| i);
        out
    }
}

impl Snapshot for HashedBernMG {
    /// Layout: `hash_bits | p | n | names_cap | sampled | mg | names`.
    /// The CRHF itself is not serialized — it is drawn from the public
    /// construction RNG, so the restoring twin already holds it (the
    /// enclosing [`PhiEpsHeavyHitters`] snapshot fingerprints it).
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.hash_bits);
        w.put_f64(self.p);
        w.put_u64(self.n);
        w.put_usize(self.names_cap);
        w.put_u64(self.sampled);
        self.mg.snap(w);
        w.put_map_u64_u64(&self.names);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let hash_bits = r.take_u32()?;
        let p = r.take_f64()?;
        let n = r.take_u64()?;
        let names_cap = r.take_usize()?;
        if hash_bits != self.hash_bits
            || p.to_bits() != self.p.to_bits()
            || n != self.n
            || names_cap != self.names_cap
        {
            return Err(SnapError::mismatch(
                format!(
                    "HashedBernMG(hash_bits={}, p={}, n={}, names_cap={})",
                    self.hash_bits, self.p, self.n, self.names_cap
                ),
                format!("HashedBernMG(hash_bits={hash_bits}, p={p}, n={n}, names_cap={names_cap})"),
            ));
        }
        self.sampled = r.take_u64()?;
        self.mg.restore(r)?;
        let names = r.take_map_u64_u64()?;
        if names.len() > names_cap {
            return Err(SnapError::corrupt(format!(
                "HashedBernMG snapshot holds {} names for cap {names_cap}",
                names.len()
            )));
        }
        self.names = names;
        Ok(())
    }
}

impl SpaceUsage for HashedBernMG {
    /// MG keyed by `hash_bits`-bit digests (this is where `log n` becomes
    /// `min(log n, log T)`), plus `names_cap` full identifiers.
    fn space_bits(&self) -> u64 {
        let counter_bits: u64 = self
            .mg
            .entries()
            .iter()
            .map(|&(_, c)| u64::from(self.hash_bits) + bits_for_count(c))
            .sum();
        counter_bits
            + self.names.len() as u64 * bits_for_universe(self.n)
            + bits_for_count(self.sampled)
    }
}

type Factory = Box<dyn Fn(u64) -> HashedBernMG + Send + Sync>;

/// Theorem 1.2: `(φ, ε)`-heavy hitters with CRHF-compressed identifiers.
pub struct PhiEpsHeavyHitters {
    phi: f64,
    eps: f64,
    morris: MedianMorris,
    ladder: GuessLadder<HashedBernMG, Factory>,
    crhf: Arc<PedersenTables>,
    /// Digests of recent items, shared by both live epoch instances.
    digests: DigestMemo,
    hash_bits: u32,
}

impl std::fmt::Debug for PhiEpsHeavyHitters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhiEpsHeavyHitters")
            .field("phi", &self.phi)
            .field("eps", &self.eps)
            .field("hash_bits", &self.hash_bits)
            .field("epoch", &self.ladder.epoch())
            .finish()
    }
}

impl PhiEpsHeavyHitters {
    /// New instance for universe `[n]`, report threshold `φ`, accuracy
    /// `ε < φ`, against adversaries with time budget `t_budget`.
    ///
    /// `hash_bits = max(2·⌈log₂ T⌉, collision floor)` capped at 40: a
    /// birthday search over `2^{hash_bits/2} ≥ T` digests exceeds the
    /// adversary's budget, and random collisions among the sampled items
    /// are negligible.
    pub fn new(n: u64, phi: f64, eps: f64, t_budget: u64, rng: &mut TranscriptRng) -> Self {
        assert!(eps > 0.0 && eps < phi && phi < 1.0, "need 0 < ε < φ < 1");
        let delta = eps / 64.0;
        let ratio = 16.0 / eps;
        // Collision floor: a sampled item colliding with one of the
        // O(1/ε) digests co-resident in the dictionary is the harmful
        // event; with ~S = C·ln(n/δ)/(ε/8)² samples over the stream the
        // union bound needs log₂(S) + log₂(1/ε) + O(1) digest bits — the
        // paper's poly(log n, 1/ε, T) universe.
        let samples_cap = 8.0 * (n as f64 / delta).ln() / ((eps / 8.0) * (eps / 8.0));
        let floor = samples_cap.log2().ceil() as u32 + (4.0 / eps).log2().ceil() as u32 + 4;
        let t_bits = 2 * (64 - t_budget.leading_zeros()).max(1);
        let hash_bits = floor.max(t_bits).clamp(16, 40);
        // One set of fixed-base tables, shared by every epoch instance.
        let crhf = Arc::new(PedersenMd::generate(40, rng).tables());
        let names_cap = (4.0 / phi).ceil() as usize;
        let shared = Arc::clone(&crhf);
        let factory: Factory = Box::new(move |guess| {
            let crhf = Arc::clone(&shared);
            HashedBernMG::new(n, guess, eps / 2.0, delta, crhf, hash_bits, names_cap)
        });
        PhiEpsHeavyHitters {
            phi,
            eps,
            morris: MedianMorris::new(eps / 16.0, 7),
            ladder: GuessLadder::new(ratio, factory),
            crhf,
            digests: DigestMemo::default(),
            hash_bits,
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
            inst.insert(item, rng, &mut self.digests);
        }
        if changed {
            self.advance_ladder();
        }
    }

    /// Reported `(item, estimate)` pairs: everything estimated at or above
    /// `(φ − ε/2)·t̂`.
    pub fn report(&self) -> Vec<(u64, f64)> {
        let threshold = (self.phi - self.eps / 2.0) * self.morris.estimate();
        self.ladder.answering().report(threshold)
    }

    /// Digest width in bits (the `min(log n, log T)` term).
    pub fn hash_bits(&self) -> u32 {
        self.hash_bits
    }

    /// The public CRHF (white-box view).
    pub fn crhf(&self) -> &PedersenMd {
        self.crhf.md()
    }

    /// Morris estimate of the stream length.
    pub fn t_hat(&self) -> f64 {
        self.morris.estimate()
    }
}

impl Snapshot for PhiEpsHeavyHitters {
    /// Layout: `phi | eps | hash_bits | crhf fingerprint | morris | ladder`.
    /// The CRHF key is a large public immutable drawn at construction; a
    /// digest of a fixed probe input stands in for it, so restoring into a
    /// twin built from a different seed fails loudly instead of silently
    /// diverging.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(self.phi);
        w.put_f64(self.eps);
        w.put_u32(self.hash_bits);
        w.put_u64(self.crhf().hash_bytes(b"wbsn-crhf"));
        self.morris.snap(w);
        self.ladder.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let phi = r.take_f64()?;
        let eps = r.take_f64()?;
        let hash_bits = r.take_u32()?;
        let fp = r.take_u64()?;
        let own_fp = self.crhf().hash_bytes(b"wbsn-crhf");
        if phi.to_bits() != self.phi.to_bits()
            || eps.to_bits() != self.eps.to_bits()
            || hash_bits != self.hash_bits
            || fp != own_fp
        {
            return Err(SnapError::mismatch(
                format!(
                    "PhiEpsHeavyHitters(phi={}, eps={}, hash_bits={}, crhf={own_fp:#x})",
                    self.phi, self.eps, self.hash_bits
                ),
                format!(
                    "PhiEpsHeavyHitters(phi={phi}, eps={eps}, hash_bits={hash_bits}, crhf={fp:#x})"
                ),
            ));
        }
        self.morris.restore(r)?;
        self.ladder.restore(r)
    }
}

impl SpaceUsage for PhiEpsHeavyHitters {
    fn space_bits(&self) -> u64 {
        self.morris.space_bits() + self.ladder.space_bits() + self.crhf().space_bits()
    }
}

impl StreamAlg for PhiEpsHeavyHitters {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, rng: &mut TranscriptRng) {
        self.insert(update.0, rng);
    }

    /// Batched insert; same shape as
    /// [`RobustL1HeavyHitters`](crate::robust_hh::RobustL1HeavyHitters):
    /// `k + 2` prefetched words per update in scalar draw order, and the
    /// ladder consulted only when a Morris exponent moved, exactly as in
    /// [`Self::insert`]. A sampled item's digest comes from the shared
    /// memo, or from the fixed-base tables on a miss.
    fn process_batch(&mut self, updates: &[InsertOnly], rng: &mut TranscriptRng) {
        let k = self.morris.counters().len();
        rng.for_each_with_words(updates, k + 2, |u, words| {
            let changed = self.morris.increment_with_words(&words[..k]);
            for (inst, &w) in self.ladder.live_mut().into_iter().zip(&words[k..]) {
                inst.insert_with_word(u.0, w, &mut self.digests);
            }
            if changed {
                self.advance_ladder();
            }
        });
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.report()
    }

    fn name(&self) -> &'static str {
        "PhiEpsHeavyHitters"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::referee::HeavyHitterReferee;
    use wb_engine::Game;

    fn script(m: u64, n: u64) -> Vec<InsertOnly> {
        (0..m)
            .map(|t| {
                let item = match t % 100 {
                    0..=44 => 7,                                        // 45%
                    45..=69 => 1_000_000_007,                           // 25%
                    _ => 1000 + (t.wrapping_mul(2654435761)) % (n / 2), // noise
                };
                InsertOnly(item)
            })
            .collect()
    }

    #[test]
    fn reports_phi_heavy_and_only_them() {
        let mut rng = TranscriptRng::from_seed(50);
        let n = 1u64 << 40;
        let m = 1 << 14;
        let mut alg = PhiEpsHeavyHitters::new(n, 0.20, 0.05, 1 << 16, &mut rng);
        for u in script(m, n) {
            alg.insert(u.0, &mut rng);
        }
        let report = alg.report();
        let items: Vec<u64> = report.iter().map(|&(i, _)| i).collect();
        assert!(items.contains(&7), "45% item must be reported: {items:?}");
        assert!(
            items.contains(&1_000_000_007),
            "25% item must be reported: {items:?}"
        );
        // Nothing below (φ−ε)·m = 15% may appear; noise items are ≤1% each.
        assert_eq!(items.len(), 2, "no false positives: {items:?}");
        // Estimates within ε·m of truth.
        for (item, est) in report {
            let truth = if item == 7 {
                0.45 * m as f64
            } else {
                0.25 * m as f64
            };
            assert!(
                (est - truth).abs() < 0.08 * m as f64,
                "item {item}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn game_with_phi_referee() {
        let mut seed_rng = TranscriptRng::from_seed(51);
        let n = 1u64 << 40;
        let m = 1 << 14;
        let alg = PhiEpsHeavyHitters::new(n, 0.20, 0.05, 1 << 16, &mut seed_rng);
        let referee = HeavyHitterReferee::new(0.20, 0.08)
            .with_phi(0.20)
            .with_grace(256);
        let report = Game::new(alg)
            .script(script(m, n))
            .referee(referee)
            .max_rounds(m)
            .seed(52)
            .run();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
    }

    #[test]
    fn digest_width_tracks_adversary_budget() {
        let mut rng = TranscriptRng::from_seed(53);
        let weak = PhiEpsHeavyHitters::new(1 << 40, 0.2, 0.1, 1 << 8, &mut rng);
        let strong = PhiEpsHeavyHitters::new(1 << 40, 0.2, 0.1, 1 << 19, &mut rng);
        assert!(weak.hash_bits() <= strong.hash_bits());
        assert!(strong.hash_bits() >= 38, "2·log T = 38");
    }

    #[test]
    fn name_table_stays_bounded() {
        let mut rng = TranscriptRng::from_seed(54);
        let n = 1u64 << 40;
        let mut alg = PhiEpsHeavyHitters::new(n, 0.25, 0.1, 1 << 12, &mut rng);
        // All-distinct stream: names would explode without the cap.
        for t in 0..20_000u64 {
            alg.insert(t * 1_000_003, &mut rng);
        }
        let cap = (4.0f64 / 0.25).ceil() as usize;
        assert!(alg.ladder.answering().names.len() <= cap);
        assert!(alg.ladder.warming().names.len() <= cap);
    }

    #[test]
    fn digests_are_stable_and_truncated() {
        let mut rng = TranscriptRng::from_seed(55);
        let alg = PhiEpsHeavyHitters::new(1 << 40, 0.2, 0.1, 1 << 10, &mut rng);
        let inst = alg.ladder.answering();
        let d1 = inst.digest(12345);
        assert_eq!(d1, inst.digest(12345));
        assert!(d1 < (1u64 << alg.hash_bits()));
        assert_ne!(inst.digest(1), inst.digest(2));
    }

    #[test]
    #[should_panic(expected = "need 0 < ε < φ < 1")]
    fn rejects_eps_above_phi() {
        let mut rng = TranscriptRng::from_seed(56);
        PhiEpsHeavyHitters::new(100, 0.1, 0.2, 1000, &mut rng);
    }
}
