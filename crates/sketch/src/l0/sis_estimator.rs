//! Algorithm 5 / Theorem 1.5: `n^ε`-multiplicative L0 estimation on
//! turnstile streams against computationally bounded white-box adversaries.
//!
//! The universe `[n]` is cut into `n^{1−ε}` chunks of `n^ε` consecutive
//! coordinates. One SIS matrix `A ∈ Z_q^{n^{cε} × n^ε}` is shared by all
//! chunks; each chunk keeps the sketch `A·f_chunk mod q`. The answer is the
//! number of nonzero sketches `N`:
//!
//! * a nonzero sketch certifies a live coordinate **unconditionally**
//!   (`A·0 = 0`);
//! * a zero sketch certifies an empty chunk **unless the adversary found a
//!   nonzero `f_chunk` with `A·f_chunk ≡ 0` and `‖f_chunk‖_∞ ≤ poly(n)` —
//!   a SIS solution** (Theorem 2.16 / Assumption 2.17).
//!
//! Hence `N ≤ L0 ≤ N·n^ε` at every point of the stream. With the matrix
//! regenerated from the random oracle the space is `Õ(n^{1−ε+cε})`;
//! storing `A` explicitly adds the `Õ(n^{(1+c)ε})` term.

use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, bits_for_universe, SpaceUsage};
use wb_core::stream::{RunAggregator, StreamAlg, Turnstile};
use wb_crypto::prime::is_prime;
use wb_crypto::sis::{SisMatrix, SisParams};

/// How the SIS matrix is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixMode {
    /// Store `A` explicitly (adds `Õ(n^{(1+c)ε})` bits).
    Explicit,
    /// Regenerate columns from the public random oracle (§2.3).
    RandomOracle,
}

/// Algorithm 5: the chunked SIS sketch for L0.
#[derive(Debug, Clone)]
pub struct SisL0Estimator {
    n: u64,
    chunk_w: usize,
    num_chunks: usize,
    matrix: SisMatrix,
    /// `num_chunks × d` sketch entries, chunk-major.
    sketches: Vec<u64>,
    /// Per-chunk count of nonzero sketch entries.
    nonzero_entries: Vec<u32>,
    /// Number of chunks with a nonzero sketch.
    nonzero_chunks: u64,
    /// Batch scratch (see [`StreamAlg::process_batch`]); not part of the
    /// observable state, skipped by snapshots. Deltas aggregate in `i128`
    /// so no sum of `i64` updates can overflow before the mod-`q` reduce.
    agg: RunAggregator<i128>,
    /// Batch scratch: chunks whose sketch changed this batch.
    dirty: Vec<usize>,
    /// Batch scratch: the nonzero aggregated runs as `(k, chunk, coeff)`,
    /// grouped by column `k`.
    runs_by_col: Vec<(usize, usize, i64)>,
    /// Batch scratch: one regenerated oracle column.
    col: Vec<u64>,
}

impl SisL0Estimator {
    /// Build with explicit exponents: chunk width `n^ε` and sketch rows
    /// `n^{cε}` are passed directly as `chunk_w` and `d` so tests and
    /// benches can sweep them. `q` is chosen as a prime `≥ max(n³, 2^20)`
    /// (the paper's `q = poly(n)`), and the promise bound is
    /// `β_∞ = n²` (`‖f‖_∞ ≤ poly(n)`).
    pub fn with_dimensions(
        n: u64,
        chunk_w: usize,
        d: usize,
        mode: MatrixMode,
        rng: &mut TranscriptRng,
    ) -> Self {
        assert!(n >= 1 && chunk_w >= 1 && d >= 1);
        let num_chunks = n.div_ceil(chunk_w as u64) as usize;
        let beta_inf = (n * n).max(16);
        let q = next_prime_at_least((n * n * n).max(1 << 20).max(4 * beta_inf));
        let params = SisParams {
            d,
            w: chunk_w,
            q,
            beta_inf,
        };
        let matrix = match mode {
            MatrixMode::Explicit => SisMatrix::random_explicit(params, rng),
            MatrixMode::RandomOracle => {
                // The tag is drawn from public randomness — everything is
                // visible to the adversary; security rests on SIS, not
                // secrecy.
                let tag = rng.next_u64().to_be_bytes();
                SisMatrix::from_oracle(params, &tag)
            }
        };
        SisL0Estimator {
            n,
            chunk_w,
            num_chunks,
            matrix,
            sketches: vec![0; num_chunks * d],
            nonzero_entries: vec![0; num_chunks],
            nonzero_chunks: 0,
            agg: RunAggregator::new(),
            dirty: Vec::new(),
            runs_by_col: Vec::new(),
            col: vec![0; d],
        }
    }

    /// Build around an externally supplied matrix (used by the
    /// failure-injection experiments, which plant a known short kernel via
    /// [`SisMatrix::planted`] to verify the security argument is
    /// load-bearing).
    pub fn from_matrix(n: u64, matrix: SisMatrix) -> Self {
        let params = *matrix.params();
        let chunk_w = params.w;
        let num_chunks = n.div_ceil(chunk_w as u64) as usize;
        SisL0Estimator {
            n,
            chunk_w,
            num_chunks,
            sketches: vec![0; num_chunks * params.d],
            nonzero_entries: vec![0; num_chunks],
            nonzero_chunks: 0,
            agg: RunAggregator::new(),
            dirty: Vec::new(),
            runs_by_col: Vec::new(),
            col: vec![0; params.d],
            matrix,
        }
    }

    /// Build from the paper's exponents: `ε` (chunk exponent) and `c`
    /// (sketch-row exponent, `0 < c < 1/2`).
    pub fn new(n: u64, eps: f64, c: f64, mode: MatrixMode, rng: &mut TranscriptRng) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0,1]");
        assert!(c > 0.0 && c < 0.5, "c must be in (0, 1/2)");
        let chunk_w = (n as f64).powf(eps).ceil().max(1.0) as usize;
        let d = (chunk_w as f64).powf(c).ceil().max(1.0) as usize;
        Self::with_dimensions(n, chunk_w, d, mode, rng)
    }

    /// Apply a turnstile update to coordinate `item`.
    pub fn update(&mut self, item: u64, delta: i64) {
        assert!(item < self.n, "item out of universe");
        if delta == 0 {
            return;
        }
        let d = self.matrix.params().d;
        let chunk = (item / self.chunk_w as u64) as usize;
        let k = (item % self.chunk_w as u64) as usize;
        let slice = &mut self.sketches[chunk * d..(chunk + 1) * d];
        let before = self.nonzero_entries[chunk];
        self.matrix.add_scaled_column(k, delta, slice);
        let after = slice.iter().filter(|&&v| v != 0).count() as u32;
        self.nonzero_entries[chunk] = after;
        match (before, after) {
            (0, a) if a > 0 => self.nonzero_chunks += 1,
            (b, 0) if b > 0 => self.nonzero_chunks -= 1,
            _ => {}
        }
    }

    /// The answer `N`: number of nonzero chunk sketches.
    /// Guarantee: `N ≤ L0 ≤ N·chunk_w` under Assumption 2.17.
    pub fn answer(&self) -> u64 {
        self.nonzero_chunks
    }

    /// The sandwich `[N, N·n^ε]` containing the true L0.
    pub fn answer_range(&self) -> (u64, u64) {
        (
            self.nonzero_chunks,
            self.nonzero_chunks * self.chunk_w as u64,
        )
    }

    /// The multiplicative gap `n^ε` (chunk width).
    pub fn approximation_factor(&self) -> u64 {
        self.chunk_w as u64
    }

    /// The public SIS matrix (white-box view; also the attack surface).
    pub fn matrix(&self) -> &SisMatrix {
        &self.matrix
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }
}

/// Smallest prime `≥ x`.
fn next_prime_at_least(mut x: u64) -> u64 {
    if x <= 2 {
        return 2;
    }
    if x.is_multiple_of(2) {
        x += 1;
    }
    while !is_prime(x) {
        x += 2;
    }
    x
}

impl Snapshot for SisL0Estimator {
    /// Layout: `n | chunk_w | d | q | beta_inf | sketches | nonzero_entries
    /// | nonzero_chunks`. The SIS matrix is a large public immutable —
    /// regenerated by the twin's constructor, validated here through its
    /// parameters; sketch contents and the nonzero bookkeeping are
    /// cross-checked so a corrupt snapshot cannot smuggle in an
    /// inconsistent answer.
    fn snap(&self, w: &mut SnapWriter) {
        let p = self.matrix.params();
        w.put_u64(self.n);
        w.put_usize(self.chunk_w);
        w.put_usize(p.d);
        w.put_u64(p.q);
        w.put_u64(p.beta_inf);
        w.put_u64_seq(&self.sketches);
        w.put_u32_seq(&self.nonzero_entries);
        w.put_u64(self.nonzero_chunks);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_u64()?;
        let chunk_w = r.take_usize()?;
        let d = r.take_usize()?;
        let q = r.take_u64()?;
        let beta_inf = r.take_u64()?;
        let p = *self.matrix.params();
        if n != self.n || chunk_w != self.chunk_w || d != p.d || q != p.q || beta_inf != p.beta_inf
        {
            return Err(SnapError::mismatch(
                format!(
                    "SisL0Estimator(n={}, chunk_w={}, d={}, q={}, beta_inf={})",
                    self.n, self.chunk_w, p.d, p.q, p.beta_inf
                ),
                format!(
                    "SisL0Estimator(n={n}, chunk_w={chunk_w}, d={d}, q={q}, beta_inf={beta_inf})"
                ),
            ));
        }
        let sketches = r.take_u64_seq()?;
        let nonzero_entries = r.take_u32_seq()?;
        let nonzero_chunks = r.take_u64()?;
        if sketches.len() != self.num_chunks * d || nonzero_entries.len() != self.num_chunks {
            return Err(SnapError::corrupt(format!(
                "SisL0Estimator sketch sizes {}x{} do not match {} chunks",
                sketches.len(),
                nonzero_entries.len(),
                self.num_chunks
            )));
        }
        if sketches.iter().any(|&v| v >= q) {
            return Err(SnapError::corrupt("SisL0Estimator sketch entry ≥ q"));
        }
        for (chunk, &nz) in nonzero_entries.iter().enumerate() {
            let recount = sketches[chunk * d..(chunk + 1) * d]
                .iter()
                .filter(|&&v| v != 0)
                .count() as u32;
            if recount != nz {
                return Err(SnapError::corrupt(format!(
                    "SisL0Estimator chunk {chunk}: {nz} recorded nonzeros, {recount} present"
                )));
            }
        }
        if nonzero_entries.iter().filter(|&&nz| nz > 0).count() as u64 != nonzero_chunks {
            return Err(SnapError::corrupt(
                "SisL0Estimator nonzero-chunk total inconsistent",
            ));
        }
        self.sketches = sketches;
        self.nonzero_entries = nonzero_entries;
        self.nonzero_chunks = nonzero_chunks;
        Ok(())
    }
}

impl SpaceUsage for SisL0Estimator {
    /// Sketch storage (`n^{1−ε}·n^{cε}·log q`) plus matrix storage
    /// (zero in random-oracle mode) plus the nonzero bookkeeping.
    fn space_bits(&self) -> u64 {
        let q_bits = bits_for_universe(self.matrix.params().q);
        self.sketches.len() as u64 * q_bits
            + self.matrix.space_bits()
            + bits_for_count(self.nonzero_chunks)
    }
}

impl StreamAlg for SisL0Estimator {
    type Update = Turnstile;
    type Output = u64;

    fn process(&mut self, update: &Turnstile, _rng: &mut TranscriptRng) {
        self.update(update.item, update.delta);
    }

    /// Batched turnstile ingestion. The sketch is `Z_q`-linear in the
    /// frequency vector, so per-item deltas may be summed before touching
    /// `A` — one scaled column per distinct item — and the nonzero
    /// bookkeeping recounted once per *dirty chunk* instead of once per
    /// update. Every chunk shares `A`, so the distinct items are grouped by
    /// column index and each column is regenerated once per batch (at most
    /// `w·d` oracle queries) and added into every chunk that needs it;
    /// sums mod `q` are exact, so the order of additions cannot matter.
    /// All of these are pure functions of the final sketch values, so the
    /// end state is bit-identical to the scalar loop (which draws no
    /// randomness, making the transcript trivially identical too).
    fn process_batch(&mut self, updates: &[Turnstile], _rng: &mut TranscriptRng) {
        let d = self.matrix.params().d;
        let q = self.matrix.params().q;
        let mut agg = std::mem::take(&mut self.agg);
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut runs = std::mem::take(&mut self.runs_by_col);
        let mut col = std::mem::take(&mut self.col);
        // Segmented to respect the aggregator's 2^24-pair batch cap.
        for part in updates.chunks(1 << 20) {
            agg.begin(part.len());
            for u in part {
                // The scalar path validates every update, including ones
                // whose deltas later cancel.
                assert!(u.item < self.n, "item out of universe");
                agg.add(u.item, i128::from(u.delta));
            }
            dirty.clear();
            runs.clear();
            runs.reserve(agg.runs().len());
            for &(item, delta) in agg.runs() {
                let coeff = (delta % i128::from(q)) as i64;
                if coeff == 0 {
                    continue;
                }
                let chunk = (item / self.chunk_w as u64) as usize;
                let k = (item % self.chunk_w as u64) as usize;
                runs.push((k, chunk, coeff));
            }
            runs.sort_unstable_by_key(|&(k, _, _)| k);
            for group in runs.chunk_by(|a, b| a.0 == b.0) {
                let column = self.matrix.column_in(group[0].0, &mut col);
                for &(_, chunk, coeff) in group {
                    let sketch = &mut self.sketches[chunk * d..(chunk + 1) * d];
                    self.matrix.add_scaled(column, coeff, sketch);
                    dirty.push(chunk);
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            for &chunk in &dirty {
                let before = self.nonzero_entries[chunk];
                let after = self.sketches[chunk * d..(chunk + 1) * d]
                    .iter()
                    .filter(|&&v| v != 0)
                    .count() as u32;
                self.nonzero_entries[chunk] = after;
                match (before, after) {
                    (0, a) if a > 0 => self.nonzero_chunks += 1,
                    (b, 0) if b > 0 => self.nonzero_chunks -= 1,
                    _ => {}
                }
            }
        }
        self.agg = agg;
        self.dirty = dirty;
        self.runs_by_col = runs;
        self.col = col;
    }

    fn query(&self) -> u64 {
        self.answer()
    }

    fn universe(&self) -> Option<u64> {
        Some(self.n)
    }

    fn name(&self) -> &'static str {
        "SisL0Estimator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::referee::L0SandwichReferee;
    use wb_engine::Game;

    #[test]
    fn sandwich_holds_on_insertions() {
        let mut rng = TranscriptRng::from_seed(70);
        let n = 1 << 12;
        let mut est = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
        for item in (0..500u64).map(|i| i * 7 % n) {
            est.update(item, 1);
        }
        let (lo, hi) = est.answer_range();
        let l0 = 500u64; // i*7 mod 4096 distinct for i<500 (gcd(7,4096)=1)
        assert!(lo <= l0 && l0 <= hi, "sandwich [{lo},{hi}] misses {l0}");
    }

    #[test]
    fn deletions_empty_the_sketch() {
        let mut rng = TranscriptRng::from_seed(71);
        let n = 1 << 10;
        let mut est = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::Explicit, &mut rng);
        for item in 0..64u64 {
            est.update(item, 3);
        }
        assert!(est.answer() > 0);
        for item in 0..64u64 {
            est.update(item, -3);
        }
        assert_eq!(est.answer(), 0, "full cancellation must zero the answer");
    }

    #[test]
    fn answer_counts_chunks_not_items() {
        let mut rng = TranscriptRng::from_seed(72);
        let n = 1024u64;
        // chunk_w = 32 (ε=1/2): all items in one chunk → answer 1.
        let mut est = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
        for item in 0..32u64 {
            est.update(item, 1);
        }
        assert_eq!(est.answer(), 1);
        let (lo, hi) = est.answer_range();
        assert_eq!((lo, hi), (1, 32));
        // One item in a second chunk → answer 2.
        est.update(100, 1);
        assert_eq!(est.answer(), 2);
    }

    #[test]
    fn survives_adaptive_turnstile_game() {
        let mut rng = TranscriptRng::from_seed(73);
        let n = 1 << 10;
        let est = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
        let factor = est.approximation_factor() as f64;
        // Delete-heavy script: insert a block, delete half, re-insert…
        let mut script = Vec::new();
        for round in 0..6u64 {
            for i in 0..128u64 {
                script.push(Turnstile::insert((round * 37 + i * 5) % n));
            }
            for i in 0..64u64 {
                script.push(Turnstile::delete((round * 37 + i * 5) % n));
            }
        }
        let len = script.len() as u64;
        let report = Game::new(est)
            .script(script)
            .referee(L0SandwichReferee::new(factor))
            .max_rounds(len)
            .seed(74)
            .run();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
    }

    #[test]
    fn oracle_mode_uses_less_space_than_explicit() {
        let mut rng = TranscriptRng::from_seed(75);
        let n = 1 << 12;
        let explicit = SisL0Estimator::new(n, 0.5, 0.4, MatrixMode::Explicit, &mut rng);
        let oracle = SisL0Estimator::new(n, 0.5, 0.4, MatrixMode::RandomOracle, &mut rng);
        assert!(
            oracle.space_bits() < explicit.space_bits(),
            "oracle {} ≥ explicit {}",
            oracle.space_bits(),
            explicit.space_bits()
        );
        // The difference is exactly the explicit matrix storage.
        let diff = explicit.space_bits() - oracle.space_bits();
        assert!(diff >= explicit.matrix().space_bits() - oracle.matrix().space_bits());
    }

    #[test]
    fn space_grows_slower_than_exact_for_small_eps() {
        // At ε = 1/2 the sketch stores n^{1/2+c/2} log q bits versus the
        // exact baseline's L0·log n when the stream fills the universe.
        let mut rng = TranscriptRng::from_seed(76);
        let n = 1 << 14;
        let mut sis = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
        let mut exact = super::super::exact::ExactL0::new(n);
        for item in 0..n {
            sis.update(item, 1);
            exact.update(item, 1);
        }
        assert!(
            sis.space_bits() < exact.space_bits() / 4,
            "sis {} vs exact {}",
            sis.space_bits(),
            exact.space_bits()
        );
    }

    #[test]
    fn next_prime_helper() {
        assert_eq!(next_prime_at_least(2), 2);
        assert_eq!(next_prime_at_least(14), 17);
        assert_eq!(next_prime_at_least(17), 17);
        assert!(is_prime(next_prime_at_least(1 << 30)));
    }

    #[test]
    #[should_panic(expected = "item out of universe")]
    fn rejects_out_of_universe() {
        let mut rng = TranscriptRng::from_seed(77);
        let mut est = SisL0Estimator::new(64, 0.5, 0.25, MatrixMode::Explicit, &mut rng);
        est.update(64, 1);
    }
}
