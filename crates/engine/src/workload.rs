//! Named workload generators, the declarative [`WorkloadSpec`] used by the
//! experiment runner, and the pull-based streaming layer ([`UpdateSource`])
//! every ingestion path in the engine is built on.
//!
//! Each workload has exactly one generator, [`WorkloadSpec::stream`], so
//! every consumer — binaries, tests, the `bench_pipeline` bench and the
//! `wbbench` benchmark, the registry's scripted adversaries — draws from
//! one set of streams. The per-draw `TranscriptRng` generators these
//! streams replaced survive only as frozen oracles in the tests.
//!
//! # Streaming vs materializing
//!
//! The paper's guarantees (and the lower bounds they are contrasted
//! against) are asymptotic in the stream length `m`; a harness that
//! materializes the whole stream as a `Vec<Update>` before ingesting caps
//! `m` at available RAM and spends most of its wall-clock on allocation.
//! [`WorkloadSpec::stream`] therefore produces a [`WorkloadStream`] — a
//! lazy generator that fills a caller-owned, reused chunk buffer — and
//! [`WorkloadSpec::generate`] is a thin collect over it for callers that
//! need the whole stream (ground truth, tests). The two are
//! **byte-identical**: concatenating chunks of any size reproduces
//! `generate()` exactly (asserted by the `streaming_pipeline` proptest
//! suite for every variant and chunk size).
//!
//! Every spec is a generator. A stream that is already materialized — a
//! literal script, a test fixture — reaches the ingestion paths through
//! [`SliceSource`], the one slice-shaped [`UpdateSource`].

use crate::erased::Update;
use wb_core::rng::{
    below, f64_from_word, fill_below, rejection_zone, WordSource, Xoshiro256StarStar,
};

/// Default chunk size of the streaming pipeline: the buffer length
/// [`UpdateSource::next_chunk`] falls back to when the caller's buffer has
/// no capacity, and the default of the tournament's `--chunk` flag.
pub const DEFAULT_CHUNK: usize = 4096;

/// A pull-based source of erased updates — the streaming replacement for
/// materialized `Vec<Update>` preludes.
///
/// Callers own the chunk buffer and reuse it across pulls, so a whole
/// ingestion run allocates O(chunk) memory regardless of the stream length:
///
/// ```
/// use wb_engine::workload::{UpdateSource, WorkloadSpec};
///
/// let spec = WorkloadSpec::Uniform { n: 1 << 10, m: 100_000, seed: 7 };
/// let mut source = spec.stream();
/// let mut buf = Vec::with_capacity(4096); // the chunk size
/// let mut total = 0;
/// while source.next_chunk(&mut buf) > 0 {
///     total += buf.len(); // ingest the chunk...
/// }
/// assert_eq!(total, 100_000);
/// ```
pub trait UpdateSource {
    /// Clear `buf` and refill it with the next chunk of the stream: up to
    /// `buf.capacity()` updates (or [`DEFAULT_CHUNK`] if the buffer has no
    /// capacity yet). Returns the number of updates written; `0` means the
    /// source is exhausted (and stays exhausted).
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize;
}

/// Chunk budget for one [`UpdateSource::next_chunk`] call.
fn chunk_cap(buf: &Vec<Update>) -> usize {
    if buf.capacity() == 0 {
        DEFAULT_CHUNK
    } else {
        buf.capacity()
    }
}

/// An [`UpdateSource`] over a borrowed, already-materialized slice — the
/// one way a slice (a literal script, a test fixture) enters the
/// streaming ingestion paths ([`run_source_erased`],
/// [`ingest_sharded_source`]).
///
/// [`run_source_erased`]: crate::erased::run_source_erased
/// [`ingest_sharded_source`]: crate::shard::ingest_sharded_source
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [Update],
}

impl<'a> SliceSource<'a> {
    /// Stream `updates` in order, chunk by chunk.
    pub fn new(updates: &'a [Update]) -> Self {
        SliceSource { rest: updates }
    }
}

impl UpdateSource for SliceSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        buf.clear();
        let take = chunk_cap(buf).min(self.rest.len());
        buf.extend_from_slice(&self.rest[..take]);
        self.rest = &self.rest[take..];
        take
    }
}

/// An [`UpdateSource`] adapter folding every item into the universe
/// `[0, n)` by `item % n` (see [`Update::fold_into`]) — the rule the
/// tournament and the registry's scripted adversaries apply so
/// universe-bounded algorithms can ingest raw-address generators like
/// `ddos`.
#[derive(Debug, Clone)]
pub struct FoldSource<S> {
    inner: S,
    n: u64,
}

impl<S: UpdateSource> FoldSource<S> {
    /// Fold `inner`'s items into `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (see [`Update::fold_into`]).
    pub fn new(inner: S, n: u64) -> Self {
        assert!(n > 0, "FoldSource requires a nonempty universe (n >= 1)");
        FoldSource { inner, n }
    }
}

impl<S: UpdateSource> UpdateSource for FoldSource<S> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        let wrote = self.inner.next_chunk(buf);
        for u in buf.iter_mut() {
            *u = u.fold_into(self.n);
        }
        wrote
    }
}

/// An [`UpdateSource`] adapter invoking a callback on every chunk before
/// handing it on — how the tournament's sharded path lets the referee
/// observe the stream in original order while the shard pipeline consumes
/// it, without a second pass or a materialized copy.
pub struct InspectSource<S, F> {
    inner: S,
    inspect: F,
}

impl<S: UpdateSource, F: FnMut(&[Update])> InspectSource<S, F> {
    /// Call `inspect` on each non-empty chunk pulled from `inner`.
    pub fn new(inner: S, inspect: F) -> Self {
        InspectSource { inner, inspect }
    }
}

impl<S: UpdateSource, F: FnMut(&[Update])> UpdateSource for InspectSource<S, F> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        let wrote = self.inner.next_chunk(buf);
        if wrote > 0 {
            (self.inspect)(buf);
        }
        wrote
    }
}

/// Words fetched per refill of a [`WordTape`] — one bulk
/// [`Xoshiro256StarStar::fill_u64`] call amortized over this many scalar
/// consumptions.
const WORD_TAPE_BUF: usize = 1024;

/// The refillable word-buffer layer under [`WorkloadStream`]: a xoshiro
/// generator whose raw 64-bit words are produced in bulk (the unrolled
/// [`Xoshiro256StarStar::fill_u64`]) and consumed one at a time — or a
/// chunk at a time by the vectorized kernels — in **exactly the order** the
/// historical per-draw `TranscriptRng` consumed them. It is a
/// [`WordSource`] seeded like `TranscriptRng`, so the shared draw rules
/// ([`below`], [`fill_below`], [`f64_from_word`]) give each workload
/// variant a draw-for-draw identical stream by construction. Workload
/// generators are *environment* randomness — the white-box transcript of
/// the algorithm under test is a separate `TranscriptRng` and is untouched
/// — so the tape keeps no transcript and pays no per-draw accounting.
#[derive(Debug, Clone)]
struct WordTape {
    rng: Xoshiro256StarStar,
    buf: Vec<u64>,
    pos: usize,
    scratch: Vec<u64>,
}

impl WordTape {
    /// Seeded exactly like `TranscriptRng::from_seed`, so the raw word
    /// tape is identical.
    fn from_seed(seed: u64) -> Self {
        WordTape {
            rng: Xoshiro256StarStar::from_seed(seed),
            buf: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
        }
    }

    /// The reused scratch slice, `k` long, filled by `fill` — raw words
    /// for the ddos address mixer, uniform draws for the uniform kernel.
    fn scratch_chunk(&mut self, k: usize, fill: impl FnOnce(&mut Self, &mut [u64])) -> &[u64] {
        let mut s = std::mem::take(&mut self.scratch);
        s.resize(k, 0);
        fill(self, &mut s);
        self.scratch = s;
        &self.scratch
    }
}

impl WordSource for WordTape {
    /// Next raw tape word (buffered; refilled in bulk).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.buf.len() {
            self.buf.resize(WORD_TAPE_BUF, 0);
            self.rng.fill_u64(&mut self.buf);
            self.pos = 0;
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// Buffered words first (they are earlier tape positions), then one
    /// direct bulk fill.
    fn next_u64_many(&mut self, out: &mut [u64]) {
        let buffered = self.buf.len() - self.pos;
        let take = buffered.min(out.len());
        out[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
        self.pos += take;
        if take < out.len() {
            self.rng.fill_u64(&mut out[take..]);
        }
    }
}

/// One Zipf draw by the per-draw linear CDF walk: the only path for heads
/// too large to tabulate, and the reference the precomputed
/// [`ZipfSampler`] table is pinned against.
fn zipf_next(tape: &mut WordTape, n: u64, heavy_items: u64, weights: &[f64], total: f64) -> u64 {
    if f64_from_word(tape.next_u64()) < 0.7 {
        zipf_head_walk(f64_from_word(tape.next_u64()) * total, heavy_items, weights)
    } else {
        heavy_items + below(tape, n - heavy_items)
    }
}

/// The sequential head walk: subtract weights until the residual drops
/// below the next weight. Every `u -= w` rounds, so the walk's item is a
/// function of the *floating-point* trajectory, not the real-valued CDF —
/// any replacement structure must reproduce these exact roundings.
fn zipf_head_walk(mut u: f64, heavy_items: u64, weights: &[f64]) -> u64 {
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i as u64;
        }
        u -= w;
    }
    heavy_items - 1
}

/// Largest Zipf head for which the exact threshold table is precomputed;
/// construction is O(heavy²) ulp-refined float inversions, so oversized
/// heads keep the linear walk instead.
const ZIPF_TABLE_MAX_HEAVY: u64 = 2048;
/// First-level bucket count of the threshold lookup (indexed by the top
/// bits of the 53-bit draw), a power of two.
const ZIPF_BUCKETS: usize = 1024;
/// Bits to shift a 53-bit draw right to get its bucket index.
const ZIPF_BUCKET_SHIFT: u32 = 53 - ZIPF_BUCKETS.trailing_zeros();
/// The draw grid: `f64_from_word` yields `k / 2^53` for a 53-bit integer `k`.
const ZIPF_GRID: f64 = (1u64 << 53) as f64;
/// The Bernoulli(0.7) coin cutoff on the draw grid: `fl(0.7)·2^53` is
/// exact (same binade, power-of-two scale), so `(word >> 11) < CUT` is
/// bit-identical to `f64_from_word(word) < 0.7`.
const ZIPF_COIN_CUT: u64 = (0.7 * ZIPF_GRID) as u64;

/// Precomputed inverse CDF of the Zipf head walk, mapping each
/// `TranscriptRng` draw to the **identical** item the linear walk returns.
///
/// Why draw-identity constrains the structure: the walk's comparisons run
/// on rounded partial sums (`u -= w` after every miss), so item boundaries
/// sit on floating-point values that differ from the real-valued CDF by
/// accumulated rounding. The table therefore stores, per head item `i`,
/// the *exact* smallest draw whose walk survives stages `0..=i` — computed
/// by inverting each `fl(x − w)` step backward with ulp refinement, taking
/// the running max across stages (the walk is monotone in its start
/// value), and snapping the result onto the 53-bit draw grid. A draw's
/// item is then the number of thresholds ≤ it: one bucket lookup (top 10
/// draw bits) plus a binary search over the rare bucket straddling more
/// than one item — O(1) typical, O(log heavy) worst case, byte-identical
/// to the walk by construction.
///
/// Building the table costs O(heavy²) float subtractions, two per
/// inversion step (the answer is `fl(t + w)` or one ulp either side): the
/// heavy − 1 inversion chains are independent, so they advance side by
/// side (one stage across all chains at a time) and the CPU overlaps them,
/// and the 1024 bucket ranges come from one merge walk over the sorted
/// thresholds.
///
/// The head must be non-empty and leave a non-empty noise tail:
/// construction panics unless `1 <= heavy < n`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: u64,
    heavy: u64,
    weights: Vec<f64>,
    total: f64,
    /// `thresholds[i]` = smallest grid draw (as its 53-bit integer `k`,
    /// the draw being `k·2⁻⁵³`) with `item(k) > i`, non-decreasing;
    /// entries of `u64::MAX` mark unreachable stages. Storing the grid
    /// *integer* rather than the float keeps the per-draw lookup in pure
    /// integer compares (a draw word maps to its grid point by one shift).
    thresholds: Vec<u64>,
    /// Per-bucket `[start, end)` index range into `thresholds` that can
    /// still straddle the bucket; empty when the table is not built.
    buckets: Vec<(u32, u32)>,
    /// The tail width's [`rejection_zone`] for the table kernel's tail
    /// draws. A power-of-two tail never reads it.
    tail_zone: u64,
}

/// Next representable `f64` above positive finite `x`.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Next representable `f64` below positive finite `x`.
fn ulp_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Smallest `x` with `fl(x − w) ≥ t`, for positive finite `t`, `w` with a
/// finite sum: `fl(t + w)` or one ulp either side of it.
///
/// Why one ulp suffices: let `s = t + w` exactly and `F` the least float
/// `≥ s`. Rounding is monotone and `t` is a float, so every float `≥ s`
/// qualifies and the answer is at most `F`. A float `x < s` qualifies only
/// if `x − w` rounds up to `t`, so `x` lies within `ulp(t)/2 ≤ ulp(s)/2`
/// below `s`; floats there are at least `ulp(s)/2` apart, so only the
/// float just below `F` can. And `fl(s)` is `F` or the float just below
/// it. Hence: if `fl(s)` fails, the answer is the next float up; otherwise
/// it is the float just below `fl(s)` if that one qualifies too, else
/// `fl(s)`.
fn min_x_sub_ge(t: f64, w: f64) -> f64 {
    let x = t + w;
    if x - w < t {
        ulp_up(x)
    } else if ulp_down(x) - w >= t {
        ulp_down(x)
    } else {
        x
    }
}

impl ZipfSampler {
    fn new(n: u64, heavy: u64) -> Self {
        assert!(
            1 <= heavy && heavy < n,
            "zipf needs 1 <= heavy < n (a head and a noise tail), got heavy = {heavy}, n = {n}"
        );
        let weights: Vec<f64> = (0..heavy).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut sampler = ZipfSampler {
            n,
            heavy,
            weights,
            total,
            thresholds: Vec::new(),
            buckets: Vec::new(),
            tail_zone: rejection_zone(n - heavy),
        };
        if heavy <= ZIPF_TABLE_MAX_HEAVY {
            sampler.build_table();
        }
        sampler
    }

    /// Precompute the stop thresholds and the bucket index (see the type
    /// docs for the invariants).
    fn build_table(&mut self) {
        let k = self.weights.len();
        // `chains[j]` ends as the smallest start value u whose walk
        // survives stage j (`u_j ≥ w_j`): start at `w_j` and invert stages
        // j−1..0 backward. The chains are independent, so they advance
        // side by side — stage m is inverted in every chain j > m at once —
        // and each chain still sees the same steps in the same order.
        let mut chains = self.weights[..k - 1].to_vec();
        for m in (0..k.saturating_sub(2)).rev() {
            let w = self.weights[m];
            for t in &mut chains[m + 1..] {
                *t = min_x_sub_ge(*t, w);
            }
        }
        // The walk survives stages 0..=j iff it survives each; the binding
        // constraint is the running max.
        let mut running = 0.0f64;
        let thresholds: Vec<u64> = chains
            .iter()
            .map(|&t| {
                running = running.max(t);
                Self::min_grid_draw(running, self.total)
            })
            .collect();
        // Bucket b covers the grid draws `[b·2⁴³, (b+1)·2⁴³)` (boundaries
        // are grid-aligned: `b/1024 = (b·2⁴³)·2⁻⁵³`); its range starts at
        // the first threshold ≥ its left edge. The thresholds are sorted,
        // so one walk finds every range.
        let mut end = 0usize;
        self.buckets = (1..=ZIPF_BUCKETS as u64)
            .map(|b| {
                let start = end;
                while end < thresholds.len() && thresholds[end] < b << ZIPF_BUCKET_SHIFT {
                    end += 1;
                }
                (start as u32, end as u32)
            })
            .collect();
        self.thresholds = thresholds;
    }

    /// Smallest grid draw `k` (the draw being `k·2⁻⁵³`) with
    /// `fl(k·2⁻⁵³ · total) ≥ rec`, or the sentinel `u64::MAX` when no
    /// draw reaches `rec`.
    fn min_grid_draw(rec: f64, total: f64) -> u64 {
        let grid = |k: u64| k as f64 * (1.0 / ZIPF_GRID);
        let cond = |k: u64| grid(k) * total >= rec;
        let max_k = 1u64 << 53;
        let mut k = ((rec / total) * ZIPF_GRID).min(max_k as f64).max(0.0) as u64;
        let mut steps = 0u32;
        while k < max_k && !cond(k) {
            k += 1;
            steps += 1;
            assert!(steps < 1024, "min_grid_draw: guess too far below");
        }
        while k > 0 && cond(k - 1) {
            k -= 1;
            steps += 1;
            assert!(steps < 1024, "min_grid_draw: guess too far above");
        }
        if k >= max_k {
            // Unreachable even at f = 1.0⁻: never counted (draws are < 1).
            return u64::MAX;
        }
        k
    }

    /// Head item for the grid draw `k` (i.e. raw word `>> 11`): the number
    /// of thresholds ≤ `k` — one bucket lookup plus a binary search over
    /// the rare bucket straddling more than one item, all in integers.
    #[inline]
    fn head_item_bits(&self, k: u64) -> u64 {
        let (s, e) = self.buckets[(k >> ZIPF_BUCKET_SHIFT) as usize];
        let (s, e) = (s as usize, e as usize);
        (s + self.thresholds[s..e].partition_point(|&t| t <= k)) as u64
    }

    /// The vectorized chunk kernel: `k` draws appended to `buf`, consuming
    /// the exact word tape of `k` [`zipf_next`] walks and returning the
    /// same items.
    ///
    /// Every Zipf draw consumes at least two words — the Bernoulli coin
    /// plus either the head draw or the first tail candidate — so the
    /// kernel prefetches exactly `2k` words in one bulk fill, never
    /// reaching past what these draws will consume, and tops up word by
    /// word only on the (vanishingly rare) tail rejection. Word order is
    /// the scalar order by construction: the prefetched slice *is* the
    /// next stretch of tape, read left to right.
    fn next_chunk_into(&self, tape: &mut WordTape, k: usize, buf: &mut Vec<Update>) {
        if self.buckets.is_empty() {
            for _ in 0..k {
                buf.push(Update::Insert(zipf_next(
                    tape,
                    self.n,
                    self.heavy,
                    &self.weights,
                    self.total,
                )));
            }
            return;
        }
        let mut words = std::mem::take(&mut tape.scratch);
        words.resize(2 * k, 0);
        tape.next_u64_many(&mut words);
        let tail = self.n - self.heavy;
        let pow2 = tail.is_power_of_two();
        let mask = tail.wrapping_sub(1);
        let zone = self.tail_zone;
        let mut wi = 0usize;
        for _ in 0..k {
            // Head and tail consume the same value word, so a draw is a
            // fixed (coin, value) pair unless a non-pow2 tail rejects.
            let coin = take_word(&words, &mut wi, tape);
            let mut v = take_word(&words, &mut wi, tape);
            let item = if (coin >> 11) < ZIPF_COIN_CUT {
                self.head_item_bits(v >> 11)
            } else if pow2 {
                self.heavy + (v & mask)
            } else {
                // Rare tail rejection: keep drawing, exactly like `below`.
                while v >= zone {
                    v = take_word(&words, &mut wi, tape);
                }
                self.heavy + v % tail
            };
            buf.push(Update::Insert(item));
        }
        tape.scratch = words;
    }
}

/// Next word for the zipf chunk kernel: the prefetched slice first (it is
/// the next stretch of raw tape), then — only when rejections pushed the
/// cursor past the prefetch — fresh words straight off the tape.
#[inline]
fn take_word(words: &[u64], wi: &mut usize, tape: &mut WordTape) -> u64 {
    if *wi < words.len() {
        *wi += 1;
        words[*wi - 1]
    } else {
        tape.next_u64()
    }
}

/// Declarative workload for registry-driven experiment rows.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Zipf-flavoured insertions: head item `i < heavy` receives a
    /// `~1/(i+1)`-proportional share of 70% of the mass; the rest is
    /// uniform noise over `[heavy, n)`.
    Zipf {
        /// Universe size.
        n: u64,
        /// Stream length.
        m: u64,
        /// Size of the Zipf head; needs `1 <= heavy < n`, or generating
        /// the stream panics.
        heavy: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Synthetic IPv4 DDoS insertions (raw 32-bit addresses): one hot
    /// /24 prefix (25%), one hot host (15%), uniform noise elsewhere.
    Ddos {
        /// Stream length.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Turnstile churn: waves of insertions at `(base + 7i) % n` from a
    /// uniform `base`, each followed by deletions of its first half.
    Churn {
        /// Universe size.
        n: u64,
        /// Number of insert/delete waves.
        waves: u64,
        /// Insertions per wave.
        wave: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Uniform insertions over `[n]`.
    Uniform {
        /// Universe size.
        n: u64,
        /// Stream length.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Deterministic round-robin insertions `t % items` — the
    /// few-distinct-items worst case for `log m`-bit counters.
    Cycle {
        /// Number of distinct items.
        items: u64,
        /// Stream length.
        m: u64,
    },
}

impl WorkloadSpec {
    /// The lazy, chunk-at-a-time generator for this workload, seeded from
    /// the spec's own embedded seed — the RNG derivation is exactly the one
    /// [`WorkloadSpec::generate`] uses, so concatenating the chunks (of any
    /// size) reproduces the materialized stream byte for byte.
    ///
    /// Memory is O(1) in the stream length for every variant.
    pub fn stream(&self) -> WorkloadStream {
        let state = match self {
            WorkloadSpec::Zipf { n, m, heavy, seed } => StreamState::Zipf {
                tape: WordTape::from_seed(*seed),
                sampler: ZipfSampler::new(*n, *heavy),
                remaining: *m,
            },
            WorkloadSpec::Ddos { m, seed } => StreamState::Ddos {
                tape: WordTape::from_seed(*seed),
                t: 0,
                m: *m,
            },
            WorkloadSpec::Churn {
                n,
                waves,
                wave,
                seed,
            } => StreamState::Churn {
                tape: WordTape::from_seed(*seed),
                n: *n,
                step7: if *n == 0 { 0 } else { 7 % *n },
                wave: *wave,
                waves_left: *waves,
                base: 0,
                phase: ChurnPhase::NextWave,
            },
            WorkloadSpec::Uniform { n, m, seed } => StreamState::Uniform {
                tape: WordTape::from_seed(*seed),
                n: *n,
                remaining: *m,
            },
            WorkloadSpec::Cycle { items, m } => StreamState::Cycle {
                items: (*items).max(1),
                t: 0,
                m: *m,
                cur: 0,
            },
        };
        WorkloadStream { state }
    }

    /// Materialize the update stream — a thin collect over
    /// [`WorkloadSpec::stream`], for ground truth and tests that need the
    /// whole stream at once. Large-`m` callers should pull chunks from the
    /// stream instead.
    pub fn generate(&self) -> Vec<Update> {
        let mut source = self.stream();
        let mut out = Vec::with_capacity(self.len().min(1 << 20) as usize);
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
        while source.next_chunk(&mut buf) > 0 {
            out.extend_from_slice(&buf);
        }
        out
    }

    /// Nominal stream length before generation.
    pub fn len(&self) -> u64 {
        match self {
            WorkloadSpec::Zipf { m, .. }
            | WorkloadSpec::Ddos { m, .. }
            | WorkloadSpec::Uniform { m, .. }
            | WorkloadSpec::Cycle { m, .. } => *m,
            WorkloadSpec::Churn { waves, wave, .. } => waves * (wave + wave / 2),
        }
    }

    /// `true` iff the workload has no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same workload capped at roughly `cap` updates — the `--quick`
    /// smoke mode of the experiment runner.
    pub fn capped(&self, cap: u64) -> WorkloadSpec {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::Zipf { m, .. }
            | WorkloadSpec::Ddos { m, .. }
            | WorkloadSpec::Uniform { m, .. }
            | WorkloadSpec::Cycle { m, .. } => *m = (*m).min(cap),
            WorkloadSpec::Churn { waves, wave, .. } => {
                while *waves > 1 && *waves * (*wave + *wave / 2) > cap {
                    *waves /= 2;
                }
                while *wave > 1 && *waves * (*wave + *wave / 2) > cap {
                    *wave /= 2;
                }
            }
        }
        w
    }

    /// Short name for report lines.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::Zipf { .. } => "zipf",
            WorkloadSpec::Ddos { .. } => "ddos",
            WorkloadSpec::Churn { .. } => "churn",
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Cycle { .. } => "cycle",
        }
    }
}

/// Where a churn stream is inside its wave state machine. `Insert` and
/// `Delete` carry the position `i` and the precomputed item
/// `(base + 7·i) % n`, maintained incrementally (add the precomputed
/// `7 % n`, conditional wrap) so the per-update modulo of the historical
/// implementation disappears while the emitted walk stays identical.
#[derive(Debug, Clone, Copy)]
enum ChurnPhase {
    /// Draw the next wave's base (or finish if no waves remain).
    NextWave,
    /// Emitting insertion `i` of the current wave, at item `cur`.
    Insert(u64, u64),
    /// Emitting deletion `i` of the current wave, at item `cur`.
    Delete(u64, u64),
}

#[derive(Debug, Clone)]
enum StreamState {
    Zipf {
        tape: WordTape,
        sampler: ZipfSampler,
        remaining: u64,
    },
    Ddos {
        tape: WordTape,
        t: u64,
        m: u64,
    },
    Churn {
        tape: WordTape,
        n: u64,
        /// Precomputed `7 % n`: the stride of the wave walk.
        step7: u64,
        wave: u64,
        waves_left: u64,
        base: u64,
        phase: ChurnPhase,
    },
    Uniform {
        tape: WordTape,
        n: u64,
        remaining: u64,
    },
    Cycle {
        items: u64,
        t: u64,
        m: u64,
        /// Running `t % items` wrap counter (no division per update).
        cur: u64,
    },
}

/// The lazy generator behind [`WorkloadSpec::stream`]: an [`UpdateSource`]
/// holding only the generator's RNG/position state, never the stream.
///
/// Every variant consumes pre-filled raw words from a `WordTape` in the
/// same order as the historical per-draw `TranscriptRng` generators.
/// Every variant but zipf fills its chunk by `extend` over an exact-size
/// range, so no update pays a capacity check: uniform, ddos and cycle in
/// one run per chunk, churn in one run per stretch of a wave's inserts or
/// deletes.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    state: StreamState,
}

/// Chunk budget left for a generator with `left` updates remaining.
#[inline]
fn take_of(cap: usize, len: usize, left: u64) -> usize {
    debug_assert!(len <= cap);
    usize::try_from(left).unwrap_or(usize::MAX).min(cap - len)
}

/// Append `run` turnstile updates of `delta` to `buf`, walking the churn
/// wave from item `cur` by `step7` modulo `n`; returns the item after the
/// run.
#[inline]
fn churn_run(
    buf: &mut Vec<Update>,
    run: usize,
    mut cur: u64,
    step7: u64,
    n: u64,
    delta: i64,
) -> u64 {
    buf.extend((0..run).map(|_| {
        let item = cur;
        cur += step7;
        if cur >= n {
            cur -= n;
        }
        Update::Turnstile { item, delta }
    }));
    cur
}

impl UpdateSource for WorkloadStream {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        buf.clear();
        let cap = chunk_cap(buf);
        // Reserve the whole chunk up front: the arms fill `buf` by
        // `extend`, and its capacity sets the next call's chunk size, so
        // it must not depend on how many runs a chunk was filled in.
        buf.reserve(cap);
        match &mut self.state {
            StreamState::Zipf {
                tape,
                sampler,
                remaining,
            } => {
                let k = take_of(cap, 0, *remaining);
                sampler.next_chunk_into(tape, k, buf);
                *remaining -= k as u64;
            }
            StreamState::Ddos { tape, t, m } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                // Phases 5..=7 of the 20-step pattern draw no word. Count
                // the words this chunk needs, bulk-fill exactly that many,
                // then mix addresses — one word per drawing position, in
                // tape order, exactly as the per-draw generator consumed
                // them (both its `below` calls are power-of-two masks).
                let mut phase = (*t % 20) as u32;
                let mut draws = 0usize;
                let mut ph = phase;
                for _ in 0..k {
                    if !(5..=7).contains(&ph) {
                        draws += 1;
                    }
                    ph += 1;
                    if ph == 20 {
                        ph = 0;
                    }
                }
                let words = tape.scratch_chunk(draws, |t, s| t.next_u64_many(s));
                let mut wi = 0;
                buf.extend((0..k).map(|_| {
                    let item = match phase {
                        0..=4 => {
                            let w = words[wi];
                            wi += 1;
                            (10 << 24) | (1 << 16) | (7 << 8) | (w & 255)
                        }
                        5..=7 => (203 << 24) | (113 << 8) | 5,
                        _ => {
                            let w = words[wi];
                            wi += 1;
                            w & 0xFFFF_FFFF
                        }
                    };
                    phase += 1;
                    if phase == 20 {
                        phase = 0;
                    }
                    Update::Insert(item)
                }));
                *t += k as u64;
            }
            StreamState::Churn {
                tape,
                n,
                step7,
                wave,
                waves_left,
                base,
                phase,
            } => loop {
                if buf.len() == cap {
                    break;
                }
                match *phase {
                    ChurnPhase::NextWave => {
                        if *waves_left == 0 {
                            break;
                        }
                        *waves_left -= 1;
                        *base = below(tape, *n);
                        *phase = ChurnPhase::Insert(0, *base);
                    }
                    ChurnPhase::Insert(i, cur) => {
                        if i < *wave {
                            let run = take_of(cap, buf.len(), *wave - i);
                            let cur = churn_run(buf, run, cur, *step7, *n, 1);
                            *phase = ChurnPhase::Insert(i + run as u64, cur);
                        } else {
                            *phase = ChurnPhase::Delete(0, *base);
                        }
                    }
                    ChurnPhase::Delete(i, cur) => {
                        if i < *wave / 2 {
                            let run = take_of(cap, buf.len(), *wave / 2 - i);
                            let cur = churn_run(buf, run, cur, *step7, *n, -1);
                            *phase = ChurnPhase::Delete(i + run as u64, cur);
                        } else {
                            *phase = ChurnPhase::NextWave;
                        }
                    }
                }
            },
            StreamState::Uniform { tape, n, remaining } => {
                let (k, n) = (take_of(cap, 0, *remaining), *n);
                let items = tape.scratch_chunk(k, |t, s| fill_below(t, n, s));
                buf.extend(items.iter().map(|&v| Update::Insert(v)));
                *remaining -= k as u64;
            }
            StreamState::Cycle { items, t, m, cur } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                let (mut c, items) = (*cur, *items);
                buf.extend((0..k).map(|_| {
                    let item = c;
                    c += 1;
                    if c == items {
                        c = 0;
                    }
                    Update::Insert(item)
                }));
                *cur = c;
                *t += k as u64;
            }
        }
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::rng::TranscriptRng;
    use wb_core::stream::Turnstile;

    /// The items of `spec`'s stream, for shape checks.
    fn items(spec: &WorkloadSpec) -> Vec<u64> {
        spec.generate().iter().map(Update::item).collect()
    }

    #[test]
    fn zipf_stream_has_heavy_head() {
        let s = items(&WorkloadSpec::Zipf {
            n: 1 << 16,
            m: 20_000,
            heavy: 8,
            seed: 1,
        });
        let head = s.iter().filter(|&&i| i == 0).count();
        // Item 0 carries ~0.7/H(8) ≈ 25% of the stream.
        assert!(head > 3_000, "head count {head}");
        assert_eq!(s.len(), 20_000);
    }

    #[test]
    fn zipf_sampler_matches_cdf_walk_draw_for_draw() {
        // The inverse-CDF chunk kernel must map every draw to the item the
        // linear walk would have produced, consuming the same words.
        for &(n, heavy, seed) in &[
            (1u64 << 16, 64u64, 1u64),
            (1 << 16, 64, 97),
            (1 << 12, 1, 5),
            (1 << 10, 16, 7),
            (257, 8, 11),
            (1 << 10, 512, 3),
            // A tail just above 2^63 rejects about half its words.
            ((1 << 63) + 100, 64, 13),
        ] {
            let sampler = ZipfSampler::new(n, heavy);
            assert!(!sampler.buckets.is_empty(), "table expected for {heavy}");
            let mut fast = WordTape::from_seed(seed);
            let mut slow = WordTape::from_seed(seed);
            let mut got = Vec::new();
            sampler.next_chunk_into(&mut fast, 20_000, &mut got);
            for (t, u) in got.iter().enumerate() {
                let walked = zipf_next(&mut slow, n, heavy, &sampler.weights, sampler.total);
                assert_eq!(u.item(), walked, "n={n} heavy={heavy} seed={seed} draw {t}");
            }
            // Equal word consumption ⇒ the tapes are still in lock-step.
            assert_eq!(fast.next_u64(), slow.next_u64());
        }
    }

    #[test]
    fn zipf_sampler_head_exact_on_grid() {
        // `next_f64` only ever produces k/2^53; the table must agree with
        // the walk at every stored threshold, one grid step below it, and
        // on a pseudorandom sample of grid points.
        let sampler = ZipfSampler::new(1 << 12, 64);
        let check = |k: u64| {
            let f = k as f64 * (1.0 / ZIPF_GRID);
            let walked = zipf_head_walk(f * sampler.total, sampler.heavy, &sampler.weights);
            assert_eq!(sampler.head_item_bits(k), walked, "f = {f}");
        };
        for &t in &sampler.thresholds {
            if t == u64::MAX {
                continue; // sentinel: unreachable within [0, 1)
            }
            check(t);
            if t > 0 {
                check(t - 1);
            }
        }
        let mut x = 0x243F_6A88_85A3_08D3u64; // pseudorandom grid probes
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check(x >> 11);
        }
    }

    #[test]
    fn zipf_sampler_falls_back_for_oversized_head() {
        // Above the table cap construction would be quadratic in `heavy`,
        // so the sampler keeps the linear walk (its stream is pinned
        // against the frozen oracle in the byte-for-byte test below).
        let sampler = ZipfSampler::new(1 << 14, ZIPF_TABLE_MAX_HEAVY + 1);
        assert!(sampler.buckets.is_empty());
        assert!(!ZipfSampler::new(1 << 14, ZIPF_TABLE_MAX_HEAVY)
            .buckets
            .is_empty());
    }

    /// `min_x_sub_ge` as it was before the one-ulp closed form, frozen as
    /// the oracle: step up from `fl(t + w)` until `x` qualifies, then down
    /// while the float below still does.
    fn min_x_sub_ge_stepping(t: f64, w: f64) -> f64 {
        let mut x = t + w;
        let mut steps = 0u32;
        while x - w < t {
            x = ulp_up(x);
            steps += 1;
            assert!(steps < 1024, "min_x_sub_ge: candidate too far below");
        }
        while x > w && ulp_down(x) - w >= t {
            x = ulp_down(x);
            steps += 1;
            assert!(steps < 1024, "min_x_sub_ge: candidate too far above");
        }
        x
    }

    /// `build_table` as it was before the chains ran side by side, frozen
    /// as the oracle: each threshold's inversion chain runs to completion
    /// before the next starts, each step is the stepping refinement, and
    /// each bucket range is two binary searches. Returns
    /// `(thresholds, buckets)`.
    fn build_table_oracle(weights: &[f64], total: f64) -> (Vec<u64>, Vec<(u32, u32)>) {
        let k = weights.len();
        let mut running = 0.0f64;
        let mut thresholds = Vec::with_capacity(k - 1);
        for j in 0..k - 1 {
            let mut t = weights[j];
            for m in (0..j).rev() {
                t = min_x_sub_ge_stepping(t, weights[m]);
            }
            running = running.max(t);
            thresholds.push(ZipfSampler::min_grid_draw(running, total));
        }
        let mut buckets = Vec::with_capacity(ZIPF_BUCKETS);
        for b in 0..ZIPF_BUCKETS {
            let left = (b as u64) << ZIPF_BUCKET_SHIFT;
            let right = (b as u64 + 1) << ZIPF_BUCKET_SHIFT;
            let s = thresholds.partition_point(|&t| t < left);
            let e = thresholds.partition_point(|&t| t < right);
            buckets.push((s as u32, e as u32));
        }
        (thresholds, buckets)
    }

    #[test]
    fn zipf_table_matches_row_by_row_oracle() {
        for heavy in [1u64, 2, 3, 8, 64, 255, 1024, 2048] {
            let sampler = ZipfSampler::new(heavy + 1, heavy);
            let (thresholds, buckets) = build_table_oracle(&sampler.weights, sampler.total);
            assert_eq!(sampler.thresholds, thresholds, "heavy={heavy}");
            assert_eq!(sampler.buckets, buckets, "heavy={heavy}");
        }
    }

    #[test]
    fn min_x_sub_ge_is_the_least_solution() {
        // The one-ulp closed form must return the least x with
        // fl(x − w) ≥ t, exactly what stepping returns, over weights and
        // targets of every magnitude the table's chains reach.
        let grid = (1..200u64).flat_map(|i| {
            let w = 1.0 / i as f64;
            [w, 1e-300, 1e-17, 0.3, 1.0 / 3.0, 7.5, 1e3, 2.0f64.powi(60)].map(|t| (t, w))
        });
        // Pairs whose answer is one ulp above and one ulp below `fl(t + w)`.
        let edges = [
            (5.684341886080802e-14, 3552688734475.1826),
            (9.11877062114595e-13, 5.6222989872678674e-14),
            (536870912.0000005, 68636.7670442462),
        ];
        // Random mantissas at random exponents, near-equal and far-apart
        // magnitudes alike, plus targets a few ulps either side of
        // `2^e − w`, so that `t + w` straddles a binade edge.
        let mut rng = TranscriptRng::from_seed(0x5eed);
        let mut random_float = || {
            let mantissa = 1.0 + (rng.next_u64() >> 12) as f64 / (1u64 << 52) as f64;
            mantissa * 2.0f64.powi(rng.below(120) as i32 - 60)
        };
        let mut random = Vec::new();
        for _ in 0..50_000 {
            let t = random_float();
            let w = random_float();
            random.push((t, w));
            let edge = 2.0f64.powi(w.log2().ceil() as i32 + 1) - w;
            random.extend((0..5).map(|j| (f64::from_bits(edge.to_bits() + j - 2), w)));
        }
        for (t, w) in grid.chain(edges).chain(random) {
            let x = min_x_sub_ge(t, w);
            assert!(x - w >= t, "t={t} w={w}");
            assert!(ulp_down(x) - w < t, "t={t} w={w}");
            assert_eq!(x, min_x_sub_ge_stepping(t, w), "t={t} w={w}");
        }
        assert_eq!(
            min_x_sub_ge(edges[0].0, edges[0].1),
            ulp_up(edges[0].0 + edges[0].1)
        );
        assert_eq!(
            min_x_sub_ge(edges[1].0, edges[1].1),
            ulp_down(edges[1].0 + edges[1].1)
        );
    }

    #[test]
    #[should_panic(
        expected = "zipf needs 1 <= heavy < n (a head and a noise tail), got heavy = 8, n = 7"
    )]
    fn zipf_rejects_head_wider_than_universe() {
        ZipfSampler::new(7, 8);
    }

    #[test]
    #[should_panic(
        expected = "zipf needs 1 <= heavy < n (a head and a noise tail), got heavy = 8, n = 8"
    )]
    fn zipf_rejects_head_filling_universe() {
        ZipfSampler::new(8, 8);
    }

    #[test]
    #[should_panic(
        expected = "zipf needs 1 <= heavy < n (a head and a noise tail), got heavy = 0, n = 16"
    )]
    fn zipf_rejects_empty_head() {
        WorkloadSpec::Zipf {
            n: 16,
            m: 10,
            heavy: 0,
            seed: 1,
        }
        .stream();
    }

    #[test]
    fn ddos_stream_shares() {
        let s = items(&WorkloadSpec::Ddos { m: 20_000, seed: 2 });
        let subnet = s
            .iter()
            .filter(|&&ip| ip >> 8 == (10 << 16) | (1 << 8) | 7)
            .count();
        assert!((4000..6000).contains(&subnet), "subnet share {subnet}");
    }

    #[test]
    fn churn_stream_shape() {
        let s = WorkloadSpec::Churn {
            n: 1 << 10,
            waves: 4,
            wave: 100,
            seed: 3,
        }
        .generate();
        assert_eq!(s.len(), 4 * 150);
        assert!(s.iter().any(|u| u.delta() < 0));
    }

    #[test]
    fn specs_generate_and_cap() {
        let spec = WorkloadSpec::Zipf {
            n: 1 << 12,
            m: 4096,
            heavy: 4,
            seed: 9,
        };
        assert_eq!(spec.generate().len(), 4096);
        assert_eq!(spec.capped(100).generate().len(), 100);
        assert_eq!(spec.label(), "zipf");

        let churn = WorkloadSpec::Churn {
            n: 256,
            waves: 8,
            wave: 64,
            seed: 1,
        };
        assert_eq!(churn.len(), 8 * 96);
        assert!(churn.capped(100).len() <= 100 + 96);
        assert!(churn
            .generate()
            .iter()
            .any(|u| matches!(u, Update::Turnstile { delta, .. } if *delta < 0)));

        let cyc = WorkloadSpec::Cycle { items: 3, m: 9 };
        assert_eq!(cyc.generate()[4], Update::Insert(1));
        assert!(!cyc.is_empty());
    }

    #[test]
    fn stream_matches_raw_generators_byte_for_byte() {
        // The per-draw `TranscriptRng` generators the streams replaced,
        // frozen as oracles: the streaming path must reproduce them exactly
        // — same RNG, same order — for every variant.
        fn zipf(n: u64, m: u64, heavy: u64, seed: u64) -> Vec<Update> {
            let mut rng = TranscriptRng::from_seed(seed);
            let weights: Vec<f64> = (0..heavy).map(|i| 1.0 / (i + 1) as f64).collect();
            let total: f64 = weights.iter().sum();
            (0..m)
                .map(|_| {
                    Update::Insert(if rng.bernoulli(0.7) {
                        let mut u = rng.next_f64() * total;
                        let mut item = heavy - 1;
                        for (i, w) in weights.iter().enumerate() {
                            if u < *w {
                                item = i as u64;
                                break;
                            }
                            u -= w;
                        }
                        item
                    } else {
                        heavy + rng.below(n - heavy)
                    })
                })
                .collect()
        }
        fn ddos(m: u64, seed: u64) -> Vec<Update> {
            let mut rng = TranscriptRng::from_seed(seed);
            (0..m)
                .map(|t| {
                    Update::Insert(match t % 20 {
                        0..=4 => (10 << 24) | (1 << 16) | (7 << 8) | rng.below(256),
                        5..=7 => (203 << 24) | (113 << 8) | 5,
                        _ => rng.below(1 << 32),
                    })
                })
                .collect()
        }
        fn churn(n: u64, waves: u64, wave: u64, seed: u64) -> Vec<Update> {
            let mut rng = TranscriptRng::from_seed(seed);
            let mut out = Vec::new();
            for _ in 0..waves {
                let base = rng.below(n);
                for i in 0..wave {
                    out.push(Update::from(Turnstile::insert((base + i * 7) % n)));
                }
                for i in 0..wave / 2 {
                    out.push(Update::from(Turnstile::delete((base + i * 7) % n)));
                }
            }
            out
        }
        fn uniform(n: u64, m: u64, seed: u64) -> Vec<Update> {
            let mut rng = TranscriptRng::from_seed(seed);
            (0..m).map(|_| Update::Insert(rng.below(n))).collect()
        }
        fn cycle(items: u64, m: u64) -> Vec<Update> {
            (0..m).map(|t| Update::Insert(t % items)).collect()
        }

        let (n, m, seed) = (1 << 10, 1000, 17);
        let oversized = ZIPF_TABLE_MAX_HEAVY + 1;
        let cases: Vec<(WorkloadSpec, Vec<Update>)> = vec![
            (
                WorkloadSpec::Zipf {
                    n,
                    m,
                    heavy: 8,
                    seed,
                },
                zipf(n, m, 8, seed),
            ),
            (
                // Past the table cap: the linear-walk fallback.
                WorkloadSpec::Zipf {
                    n: 1 << 14,
                    m,
                    heavy: oversized,
                    seed,
                },
                zipf(1 << 14, m, oversized, seed),
            ),
            (WorkloadSpec::Ddos { m, seed }, ddos(m, seed)),
            (
                WorkloadSpec::Churn {
                    n,
                    waves: 7,
                    wave: 64,
                    seed,
                },
                churn(n, 7, 64, seed),
            ),
            (WorkloadSpec::Uniform { n, m, seed }, uniform(n, m, seed)),
            (
                // A non-power-of-two universe exercises rejection sampling.
                WorkloadSpec::Uniform { n: 1000, m, seed },
                uniform(1000, m, seed),
            ),
            (WorkloadSpec::Cycle { items: 5, m }, cycle(5, m)),
        ];
        for (spec, reference) in cases {
            assert_eq!(spec.generate(), reference, "{}", spec.label());
            // Chunked pulls concatenate to the same stream.
            assert_eq!(spec.len(), reference.len() as u64, "{} len", spec.label());
            let mut source = spec.stream();
            let mut got = Vec::new();
            let mut buf = Vec::with_capacity(7);
            while source.next_chunk(&mut buf) > 0 {
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, reference, "{} chunked", spec.label());
            assert_eq!(
                source.next_chunk(&mut buf),
                0,
                "{} stays exhausted",
                spec.label()
            );
        }
    }

    /// The per-element `Ddos`, `Churn` and `Cycle` chunk loops that the
    /// `extend` runs replaced, frozen as the oracle those arms are checked
    /// against chunk by chunk. Other variants are not covered.
    fn frozen_next_chunk(state: &mut StreamState, buf: &mut Vec<Update>) -> usize {
        buf.clear();
        let cap = chunk_cap(buf);
        match state {
            StreamState::Ddos { tape, t, m } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                let mut phase = (*t % 20) as u32;
                let mut draws = 0usize;
                let mut ph = phase;
                for _ in 0..k {
                    if !(5..=7).contains(&ph) {
                        draws += 1;
                    }
                    ph += 1;
                    if ph == 20 {
                        ph = 0;
                    }
                }
                let words = tape.scratch_chunk(draws, |t, s| t.next_u64_many(s));
                let mut wi = 0;
                for _ in 0..k {
                    let item = match phase {
                        0..=4 => {
                            let w = words[wi];
                            wi += 1;
                            (10 << 24) | (1 << 16) | (7 << 8) | (w & 255)
                        }
                        5..=7 => (203 << 24) | (113 << 8) | 5,
                        _ => {
                            let w = words[wi];
                            wi += 1;
                            w & 0xFFFF_FFFF
                        }
                    };
                    buf.push(Update::Insert(item));
                    phase += 1;
                    if phase == 20 {
                        phase = 0;
                    }
                }
                *t += k as u64;
            }
            StreamState::Churn {
                tape,
                n,
                step7,
                wave,
                waves_left,
                base,
                phase,
            } => loop {
                if buf.len() == cap {
                    break;
                }
                match *phase {
                    ChurnPhase::NextWave => {
                        if *waves_left == 0 {
                            break;
                        }
                        *waves_left -= 1;
                        *base = below(tape, *n);
                        *phase = ChurnPhase::Insert(0, *base);
                    }
                    ChurnPhase::Insert(i, cur) => {
                        if i < *wave {
                            let mut next = cur + *step7;
                            if next >= *n {
                                next -= *n;
                            }
                            *phase = ChurnPhase::Insert(i + 1, next);
                            buf.push(Update::from(Turnstile::insert(cur)));
                        } else {
                            *phase = ChurnPhase::Delete(0, *base);
                        }
                    }
                    ChurnPhase::Delete(i, cur) => {
                        if i < *wave / 2 {
                            let mut next = cur + *step7;
                            if next >= *n {
                                next -= *n;
                            }
                            *phase = ChurnPhase::Delete(i + 1, next);
                            buf.push(Update::from(Turnstile::delete(cur)));
                        } else {
                            *phase = ChurnPhase::NextWave;
                        }
                    }
                }
            },
            StreamState::Cycle { items, t, m, cur } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                let mut c = *cur;
                for _ in 0..k {
                    buf.push(Update::Insert(c));
                    c += 1;
                    if c == *items {
                        c = 0;
                    }
                }
                *cur = c;
                *t += k as u64;
            }
            StreamState::Zipf { .. } | StreamState::Uniform { .. } => {
                unreachable!("no frozen loop for this variant")
            }
        }
        buf.len()
    }

    #[test]
    fn extend_generators_match_frozen_per_element_loops() {
        // Capacity 0 is a buffer that starts empty: the first call sizes
        // it, and every later chunk takes its size from that capacity.
        for cap in [0usize, 1, 7, 19, 20, 2047, 4096, 6145] {
            let c = if cap == 0 { DEFAULT_CHUNK } else { cap } as u64;
            let specs = [
                // 20c + 13 updates: at capacities prime to 20 (1, 7, 19,
                // 2047) and at 4096 and 6145, chunk edges fall inside and
                // right after the draw-free phases 5..=7.
                WorkloadSpec::Ddos {
                    m: 20 * c + 13,
                    seed: 31,
                },
                // A wave of 2c inserts and c deletes: every wave's insert
                // run and half-wave delete run ends on a chunk edge.
                WorkloadSpec::Churn {
                    n: 1000,
                    waves: 3,
                    wave: 2 * c,
                    seed: 32,
                },
                // Odd waves, waves that end mid-chunk, and waves shorter
                // than a chunk.
                WorkloadSpec::Churn {
                    n: 97,
                    waves: 4,
                    wave: 2 * c + 1,
                    seed: 33,
                },
                WorkloadSpec::Churn {
                    n: 1000,
                    waves: 3,
                    wave: 3 * c / 4 + 1,
                    seed: 35,
                },
                WorkloadSpec::Churn {
                    n: 5,
                    waves: 9,
                    wave: 5,
                    seed: 34,
                },
                // The cycle wraps on a chunk edge, and inside each chunk.
                WorkloadSpec::Cycle {
                    items: c,
                    m: 3 * c + 5,
                },
                WorkloadSpec::Cycle {
                    items: 3,
                    m: 3 * c + 5,
                },
            ];
            for spec in specs {
                let mut frozen = spec.stream().state;
                let mut source = spec.stream();
                let mut want = Vec::with_capacity(cap);
                let mut got = Vec::with_capacity(cap);
                let mut chunks = 0;
                loop {
                    let k = frozen_next_chunk(&mut frozen, &mut want);
                    assert_eq!(
                        source.next_chunk(&mut got),
                        k,
                        "{spec:?} chunk {chunks} at capacity {cap}"
                    );
                    assert_eq!(got, want, "{spec:?} chunk {chunks} at capacity {cap}");
                    if k == 0 {
                        break;
                    }
                    chunks += 1;
                }
                assert_eq!(chunks, spec.len().div_ceil(c), "{spec:?}");
            }
        }
    }

    #[test]
    fn slice_and_fold_and_inspect_sources() {
        let updates: Vec<Update> = (0..10).map(Update::Insert).collect();
        let mut buf = Vec::with_capacity(4);
        let mut source = SliceSource::new(&updates);
        assert_eq!(source.next_chunk(&mut buf), 4);
        assert_eq!(buf, updates[..4]);
        assert_eq!(source.next_chunk(&mut buf), 4);
        assert_eq!(source.next_chunk(&mut buf), 2);
        assert_eq!(buf, updates[8..]);
        assert_eq!(source.next_chunk(&mut buf), 0);

        let mut folded = FoldSource::new(SliceSource::new(&updates), 3);
        folded.next_chunk(&mut buf);
        assert_eq!(buf[..4], [0, 1, 2, 0].map(Update::Insert));

        let mut seen = 0usize;
        let mut inspected = InspectSource::new(SliceSource::new(&updates), |chunk: &[Update]| {
            seen += chunk.len();
        });
        while inspected.next_chunk(&mut buf) > 0 {}
        assert_eq!(seen, 10);
    }

    #[test]
    fn zero_capacity_buffer_falls_back_to_default_chunk() {
        let spec = WorkloadSpec::Cycle {
            items: 3,
            m: DEFAULT_CHUNK as u64 + 10,
        };
        let mut source = spec.stream();
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(&mut buf), DEFAULT_CHUNK);
        assert_eq!(source.next_chunk(&mut buf), 10);
        assert_eq!(source.next_chunk(&mut buf), 0);
    }

    /// All workload variants at a small, draw-heavy size, for cross-variant
    /// snapshot and length sweeps.
    fn all_specs() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Zipf {
                n: 1 << 10,
                m: 500,
                heavy: 8,
                seed: 21,
            },
            WorkloadSpec::Ddos { m: 500, seed: 22 },
            WorkloadSpec::Churn {
                n: 300,
                waves: 5,
                wave: 64,
                seed: 23,
            },
            WorkloadSpec::Uniform {
                n: 1000,
                m: 500,
                seed: 24,
            },
            WorkloadSpec::Cycle { items: 7, m: 500 },
        ]
    }

    /// Updates `spec`'s stream emits, pulled in chunks of `chunk`.
    fn emitted(spec: &WorkloadSpec, chunk: usize) -> u64 {
        let mut source = spec.stream();
        let mut buf = Vec::with_capacity(chunk);
        let mut count = 0u64;
        while source.next_chunk(&mut buf) > 0 {
            count += buf.len() as u64;
        }
        count
    }

    #[test]
    fn streams_emit_exactly_spec_len() {
        // `WorkloadSpec::len` is what each stream emits, churn included,
        // for the spec as built and after `capped` — the count callers
        // (the pipeline bench's Mups) take a stream's length from.
        for spec in all_specs() {
            for sized in [spec.clone(), spec.capped(1000), spec.capped(37)] {
                for chunk in [1, 64, 4096] {
                    assert_eq!(
                        emitted(&sized, chunk),
                        sized.len(),
                        "{} (len {}) in chunks of {chunk}",
                        sized.label(),
                        sized.len()
                    );
                }
            }
        }
    }
}
