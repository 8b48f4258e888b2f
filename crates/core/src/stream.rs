//! Stream and update types, the streaming-algorithm trait, and the exact
//! frequency vector used as referee ground truth.

use crate::merge::MergeError;
use crate::rng::TranscriptRng;
use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use std::collections::HashMap;

/// An insertion-only update: one occurrence of item `0` (an element of the
/// universe `[n]`, 0-indexed here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InsertOnly(pub u64);

/// A turnstile update: `delta` (possibly negative) added to the frequency of
/// `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Turnstile {
    /// Universe element, 0-indexed.
    pub item: u64,
    /// Signed change to the item's frequency.
    pub delta: i64,
}

impl Turnstile {
    /// An insertion of one unit.
    pub fn insert(item: u64) -> Self {
        Turnstile { item, delta: 1 }
    }

    /// A deletion of one unit.
    pub fn delete(item: u64) -> Self {
        Turnstile { item, delta: -1 }
    }
}

impl From<InsertOnly> for Turnstile {
    fn from(u: InsertOnly) -> Self {
        Turnstile::insert(u.0)
    }
}

/// Trims a `std::any::type_name` path to the bare type name: the module
/// path and any generic arguments are dropped, so
/// `wb_sketch::robust_hh::RobustL1HeavyHitters` becomes
/// `RobustL1HeavyHitters` and `a::B<c::D>` becomes `B`. Used by the default
/// [`StreamAlg::name`] so experiment tables and registry keys stay readable.
pub fn trim_type_name(full: &str) -> &str {
    let base = full.split('<').next().unwrap_or(full);
    base.rsplit("::").next().unwrap_or(base)
}

/// Calls `f(key, run_length)` for each maximal run of consecutive equal
/// keys produced by `iter` — the shared grouping step of the batched
/// ingestion overrides (feed a sorted sequence to aggregate per key, an
/// unsorted one to collapse bursts while preserving order).
pub fn for_each_run<K, I, F>(iter: I, mut f: F)
where
    K: PartialEq + Copy,
    I: IntoIterator<Item = K>,
    F: FnMut(K, u64),
{
    let mut current: Option<(K, u64)> = None;
    for key in iter {
        match &mut current {
            Some((k, count)) if *k == key => *count += 1,
            _ => {
                if let Some((k, count)) = current.take() {
                    f(k, count);
                }
                current = Some((key, 1));
            }
        }
    }
    if let Some((k, count)) = current {
        f(k, count);
    }
}

/// Reusable open-addressed scratch that aggregates a batch of
/// `(item, weight)` pairs by distinct item — the O(len) replacement for
/// the sort-based grouping in the commutative batched-ingestion kernels
/// (CountMin, AMS), where only per-item totals matter, not order.
///
/// One table is kept alive across batches (stored inside the sketch), so
/// the per-batch cost is a handful of words per update: a multiplicative
/// hash, a short linear probe of a packed `u32` slot array (epoch stamp in
/// the high byte, run index in the low 24 bits — sized so a chunk's table
/// stays L1-resident), and an add. Occupancy is tracked by the epoch stamp
/// instead of clearing slots; the table is sized to ≤ 50% load from the
/// caller-declared batch length. Runs come back in first-occurrence order
/// — deterministic for a given batch; consumers must be order-insensitive
/// (commutative additions), which is exactly the property that makes
/// batching bit-identical in the first place.
///
/// Callers either use the one-shot [`RunAggregator::aggregate`] or the
/// incremental [`RunAggregator::begin`] / [`RunAggregator::add`] /
/// [`RunAggregator::runs`] triple — the latter lets a kernel sample a
/// batch prefix and abandon aggregation when the batch looks
/// high-distinct (aggregation only pays when duplicates abound).
#[derive(Debug, Clone, Default)]
pub struct RunAggregator<W> {
    /// Packed per-slot `(epoch << 24) | run_index`; a slot is live iff its
    /// epoch byte matches the current batch epoch (0 = never used).
    slots: Vec<u32>,
    mask: usize,
    epoch: u32,
    runs: Vec<(u64, W)>,
}

/// Run indices occupy the low 24 bits of a slot.
const RUN_IDX_BITS: u32 = 24;

impl<W: Copy + core::ops::AddAssign> RunAggregator<W> {
    /// An empty aggregator; the slot table is sized lazily per batch.
    pub fn new() -> Self {
        RunAggregator {
            slots: Vec::new(),
            mask: 0,
            epoch: 0,
            runs: Vec::new(),
        }
    }

    /// Starts a new batch of at most `len` pairs: bumps the epoch and
    /// (re)sizes the slot table to keep load ≤ 50%.
    pub fn begin(&mut self, len: usize) {
        assert!(
            len < (1 << RUN_IDX_BITS),
            "RunAggregator batches are capped at 2^24 pairs"
        );
        let want = (len.max(4) * 2).next_power_of_two();
        if self.slots.len() < want {
            self.slots = vec![0; want];
            self.mask = want - 1;
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.epoch == (1 << (32 - RUN_IDX_BITS)) {
            // Epoch byte wrap-around: stale stamps could alias, clear once.
            self.slots.fill(0);
            self.epoch = 1;
        }
        self.runs.clear();
    }

    /// Folds one pair into the current batch's runs.
    #[inline]
    pub fn add(&mut self, item: u64, w: W) {
        // Fibonacci hash to a starting slot, then linear probing; the
        // ≤ 50% load factor keeps probe chains short.
        let mut idx = (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        let stamp = self.epoch << RUN_IDX_BITS;
        loop {
            let slot = self.slots[idx];
            if slot >> RUN_IDX_BITS != self.epoch {
                debug_assert!(self.runs.len() < (1 << RUN_IDX_BITS));
                self.slots[idx] = stamp | self.runs.len() as u32;
                self.runs.push((item, w));
                return;
            }
            let run = &mut self.runs[(slot & ((1 << RUN_IDX_BITS) - 1)) as usize];
            if run.0 == item {
                run.1 += w;
                return;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// The current batch's `(item, total)` runs, in first-occurrence order.
    pub fn runs(&self) -> &[(u64, W)] {
        &self.runs
    }

    /// One-shot [`RunAggregator::begin`] + [`RunAggregator::add`] over
    /// `pairs` (at most `len` of them), returning the aggregated runs.
    pub fn aggregate(&mut self, pairs: impl Iterator<Item = (u64, W)>, len: usize) -> &[(u64, W)] {
        self.begin(len);
        let mut seen = 0usize;
        for (item, w) in pairs {
            seen += 1;
            assert!(seen <= len, "aggregate: more pairs than declared len");
            self.add(item, w);
        }
        &self.runs
    }
}

/// A single-pass streaming algorithm in the white-box model.
///
/// `process` receives the only randomness source the algorithm may use; all
/// draws are publicly transcribed (see [`crate::rng`]). `query` must be
/// answerable at **every** time step — the white-box game checks the answer
/// after every update.
pub trait StreamAlg {
    /// Stream update type (e.g. [`InsertOnly`], [`Turnstile`], or a
    /// domain-specific arrival type).
    type Update;
    /// Query answer type.
    type Output;

    /// Ingest one update, drawing any fresh randomness from `rng`.
    fn process(&mut self, update: &Self::Update, rng: &mut TranscriptRng);

    /// Ingest a batch of updates known in advance (an *oblivious* stream
    /// segment — e.g. a replayed workload, or the prefix before an adaptive
    /// adversary takes over).
    ///
    /// The default forwards to [`StreamAlg::process`] one update at a time.
    /// Implementations may override it with a faster path, but every
    /// override **must** leave the algorithm in a state bit-identical to the
    /// sequential fallback, with an identical randomness transcript — the
    /// workspace property suite checks this for every registry-listed
    /// algorithm.
    fn process_batch(&mut self, updates: &[Self::Update], rng: &mut TranscriptRng) {
        for update in updates {
            self.process(update, rng);
        }
    }

    /// Human-readable name used in experiment tables and registry keys:
    /// the bare type name, without module path or generic arguments.
    fn name(&self) -> &'static str {
        trim_type_name(std::any::type_name::<Self>())
    }

    /// Fold the state of `other` — a sibling instance that ingested a
    /// different slice of the same logical stream — into `self`, or explain
    /// why that is unsound.
    ///
    /// Contract: if `a` ingested stream `A` and `b` ingested stream `B`
    /// (both starting from identically-constructed empty instances), then
    /// after `a.merge_from(&b)` the instance `a` must answer its query for
    /// the concatenated stream `A ∘ B` within the **same guarantee** the
    /// algorithm claims for single-stream ingestion of `A ∘ B`. Linear
    /// sketches (`CountMin`, `AmsF2`, exact frequency state) merge exactly;
    /// counter summaries (`MisraGries`, `SpaceSaving`) merge with the
    /// classic mergeable-summaries error bounds, which stay inside the
    /// referee tolerance used throughout this workspace.
    ///
    /// Implementations must be deterministic — the sharded reduction tree
    /// in `wb_engine::shard` relies on merges being pure functions of the
    /// two operand states so that reports stay byte-identical across
    /// thread counts.
    ///
    /// This is the method the erased layer (`DynStreamAlg::merge_dyn` in
    /// `wb-engine`) calls after downcast-checking type equality. The
    /// default declares the algorithm unmergeable
    /// ([`MergeError::Unmergeable`]); algorithms with a sound merge
    /// override it.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError>
    where
        Self: Sized,
    {
        let _ = other;
        Err(MergeError::unmergeable(self.name()))
    }

    /// Answer the fixed query for the stream seen so far.
    fn query(&self) -> Self::Output;

    /// The universe bound `n` when the algorithm requires every update's
    /// item to lie in `[0, n)` (and panics otherwise); `None` when any
    /// item is accepted. Lets a server reject an out-of-universe update at
    /// admission instead of inside the algorithm.
    fn universe(&self) -> Option<u64> {
        None
    }
}

/// Exact frequency vector over a `u64` universe, maintained incrementally.
///
/// This is the referee's ground truth: it is deliberately space-unbounded
/// (the referee is the experimenter, not a player in the game). Tracks the
/// L1 norm `‖f‖₁ = Σ|f_k|`, the L0 norm (number of nonzero coordinates) and
/// the total number of updates exactly.
#[derive(Debug, Clone, Default)]
pub struct FrequencyVector {
    freqs: HashMap<u64, i64>,
    l1: u64,
    updates: u64,
    /// Batch scratch (see [`FrequencyVector::update_batch`]); not part of
    /// the observable state, skipped by snapshots.
    agg: RunAggregator<i64>,
}

impl FrequencyVector {
    /// Empty frequency vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a signed update to `item`.
    pub fn update(&mut self, item: u64, delta: i64) {
        self.updates += 1;
        self.apply(item, delta);
    }

    /// Apply an insertion-only update.
    pub fn insert(&mut self, item: u64) {
        self.update(item, 1);
    }

    /// Apply a batch of signed updates at once.
    ///
    /// Equivalent to calling [`FrequencyVector::update`] per element, but
    /// deltas are pre-aggregated per item through the resident
    /// [`RunAggregator`] scratch (O(len), no allocation or sort once the
    /// scratch is warm) so each touched coordinate is looked up once — the
    /// fast path the engine's batched ingestion uses for referee ground
    /// truth. Coordinate addition commutes, so the final state is
    /// bit-identical to per-element updates.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        self.updates += updates.len() as u64;
        let mut agg = std::mem::take(&mut self.agg);
        // Segmented to respect the aggregator's 2^24-pair batch cap.
        for part in updates.chunks(1 << 20) {
            agg.begin(part.len());
            for &(item, delta) in part {
                agg.add(item, delta);
            }
            for &(item, delta) in agg.runs() {
                if delta != 0 {
                    self.apply(item, delta);
                }
            }
        }
        self.agg = agg;
    }

    /// Apply a batch of insertions at once (see [`FrequencyVector::update_batch`]).
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.updates += items.len() as u64;
        let mut agg = std::mem::take(&mut self.agg);
        for part in items.chunks(1 << 20) {
            agg.begin(part.len());
            for &item in part {
                agg.add(item, 1i64);
            }
            for &(item, count) in agg.runs() {
                self.apply(item, count);
            }
        }
        self.agg = agg;
    }

    /// Core coordinate update, without touching the stream-length counter.
    fn apply(&mut self, item: u64, delta: i64) {
        let entry = self.freqs.entry(item).or_insert(0);
        let before = entry.unsigned_abs();
        *entry += delta;
        let after = entry.unsigned_abs();
        self.l1 = self.l1 - before + after;
        if *entry == 0 {
            self.freqs.remove(&item);
        }
    }

    /// Exact frequency of `item` (0 if never seen or cancelled out).
    pub fn get(&self, item: u64) -> i64 {
        self.freqs.get(&item).copied().unwrap_or(0)
    }

    /// `‖f‖₁ = Σ_k |f_k|`.
    pub fn l1(&self) -> u64 {
        self.l1
    }

    /// `‖f‖₀ = |{k : f_k ≠ 0}|` — the number of distinct live elements.
    pub fn l0(&self) -> u64 {
        self.freqs.len() as u64
    }

    /// `F_p = Σ_k |f_k|^p` for integer `p ≥ 1` (saturating).
    pub fn fp_moment(&self, p: u32) -> u128 {
        self.freqs
            .values()
            .map(|&v| (v.unsigned_abs() as u128).saturating_pow(p))
            .fold(0u128, u128::saturating_add)
    }

    /// Number of updates applied so far (the stream length `m`).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// All items with `f_k > threshold`, ascending by item id.
    pub fn items_above(&self, threshold: f64) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .freqs
            .iter()
            .filter(|&(_, &f)| (f as f64) > threshold)
            .map(|(&k, _)| k)
            .collect();
        v.sort_unstable();
        v
    }

    /// Iterate over `(item, frequency)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.freqs.iter().map(|(&k, &v)| (k, v))
    }

    /// Exact merge: coordinates add, so the merged vector equals the one
    /// obtained by ingesting the concatenation of both update streams.
    pub fn merge(&mut self, other: &Self) {
        for (item, f) in other.iter() {
            self.apply(item, f);
        }
        self.updates += other.updates;
    }
}

impl Snapshot for FrequencyVector {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_map_u64_i64(&self.freqs);
        w.put_u64(self.l1);
        w.put_u64(self.updates);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let freqs = r.take_map_u64_i64()?;
        let l1 = r.take_u64()?;
        let updates = r.take_u64()?;
        if freqs.values().any(|&f| f == 0) {
            return Err(SnapError::corrupt(
                "frequency vector stores a zero coordinate",
            ));
        }
        let want_l1: u64 = freqs.values().map(|&f| f.unsigned_abs()).sum();
        if want_l1 != l1 {
            return Err(SnapError::corrupt(format!(
                "frequency vector L1 {l1} does not match coordinates ({want_l1})"
            )));
        }
        self.freqs = freqs;
        self.l1 = l1;
        self.updates = updates;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_only_tracks_l1_and_l0() {
        let mut f = FrequencyVector::new();
        for _ in 0..5 {
            f.insert(3);
        }
        f.insert(7);
        assert_eq!(f.get(3), 5);
        assert_eq!(f.get(7), 1);
        assert_eq!(f.get(0), 0);
        assert_eq!(f.l1(), 6);
        assert_eq!(f.l0(), 2);
        assert_eq!(f.updates(), 6);
    }

    #[test]
    fn turnstile_cancellation_updates_l0() {
        let mut f = FrequencyVector::new();
        f.update(1, 4);
        f.update(1, -4);
        assert_eq!(f.l0(), 0);
        assert_eq!(f.l1(), 0);
        assert_eq!(f.get(1), 0);
        f.update(2, -3);
        assert_eq!(f.l1(), 3, "L1 counts |f_k| for negative coordinates");
        assert_eq!(f.l0(), 1);
    }

    #[test]
    fn l1_with_sign_crossing() {
        let mut f = FrequencyVector::new();
        f.update(5, 2);
        assert_eq!(f.l1(), 2);
        f.update(5, -5); // 2 -> -3
        assert_eq!(f.get(5), -3);
        assert_eq!(f.l1(), 3);
    }

    #[test]
    fn fp_moments() {
        let mut f = FrequencyVector::new();
        f.update(1, 3);
        f.update(2, -2);
        // F1 = 5, F2 = 13, F0 via l0 = 2.
        assert_eq!(f.fp_moment(1), 5);
        assert_eq!(f.fp_moment(2), 13);
        assert_eq!(f.l0(), 2);
    }

    #[test]
    fn items_above_sorted() {
        let mut f = FrequencyVector::new();
        for (item, times) in [(9u64, 10), (2, 5), (4, 10), (8, 1)] {
            for _ in 0..times {
                f.insert(item);
            }
        }
        assert_eq!(f.items_above(5.0), vec![4, 9]);
        assert_eq!(f.items_above(0.5), vec![2, 4, 8, 9]);
        assert_eq!(f.items_above(100.0), Vec::<u64>::new());
    }

    #[test]
    fn for_each_run_groups_consecutive_keys() {
        let mut runs = Vec::new();
        for_each_run([3u64, 3, 1, 1, 1, 3, 7], |k, c| runs.push((k, c)));
        assert_eq!(runs, vec![(3, 2), (1, 3), (3, 1), (7, 1)]);
        let mut empty = Vec::new();
        for_each_run(std::iter::empty::<u64>(), |k, c| empty.push((k, c)));
        assert!(empty.is_empty());
    }

    #[test]
    fn update_batch_matches_sequential() {
        let updates: Vec<(u64, i64)> = vec![(1, 3), (2, -2), (1, -3), (9, 5), (2, 2), (9, -1)];
        let mut seq = FrequencyVector::new();
        for &(i, d) in &updates {
            seq.update(i, d);
        }
        let mut batched = FrequencyVector::new();
        batched.update_batch(&updates);
        assert_eq!(seq.l0(), batched.l0());
        assert_eq!(seq.l1(), batched.l1());
        assert_eq!(seq.updates(), batched.updates());
        for item in [1u64, 2, 9, 100] {
            assert_eq!(seq.get(item), batched.get(item));
        }
    }

    #[test]
    fn insert_batch_matches_sequential() {
        let items = [4u64, 4, 7, 4, 9, 7];
        let mut seq = FrequencyVector::new();
        for &i in &items {
            seq.insert(i);
        }
        let mut batched = FrequencyVector::new();
        batched.insert_batch(&items);
        assert_eq!(seq.l1(), batched.l1());
        assert_eq!(seq.updates(), batched.updates());
        assert_eq!(seq.get(4), batched.get(4));
    }

    #[test]
    fn frequency_vector_merge_is_exact() {
        let left: Vec<(u64, i64)> = vec![(1, 3), (2, -2), (9, 5)];
        let right: Vec<(u64, i64)> = vec![(1, -3), (2, 2), (4, 1), (9, -1)];
        let mut merged = FrequencyVector::new();
        for &(i, d) in &left {
            merged.update(i, d);
        }
        let mut other = FrequencyVector::new();
        for &(i, d) in &right {
            other.update(i, d);
        }
        merged.merge(&other);
        let mut single = FrequencyVector::new();
        for &(i, d) in left.iter().chain(&right) {
            single.update(i, d);
        }
        assert_eq!(merged.l0(), single.l0());
        assert_eq!(merged.l1(), single.l1());
        assert_eq!(merged.updates(), single.updates());
        for item in [1u64, 2, 4, 9, 77] {
            assert_eq!(merged.get(item), single.get(item));
        }
    }

    #[test]
    fn default_merge_from_is_unmergeable() {
        struct Opaque;
        impl StreamAlg for Opaque {
            type Update = InsertOnly;
            type Output = u64;
            fn process(&mut self, _u: &InsertOnly, _rng: &mut TranscriptRng) {}
            fn query(&self) -> u64 {
                0
            }
        }
        let mut a = Opaque;
        assert_eq!(
            a.merge_from(&Opaque),
            Err(MergeError::unmergeable("Opaque"))
        );
    }

    #[test]
    fn frequency_vector_snapshot_roundtrip() {
        let mut f = FrequencyVector::new();
        for &(i, d) in &[(1u64, 3i64), (2, -2), (9, 5), (1, -3)] {
            f.update(i, d);
        }
        let bytes = crate::snap::to_bytes(&f);
        let mut g = FrequencyVector::new();
        crate::snap::from_bytes(&mut g, &bytes).unwrap();
        assert_eq!(g.l0(), f.l0());
        assert_eq!(g.l1(), f.l1());
        assert_eq!(g.updates(), f.updates());
        for item in [1u64, 2, 9, 77] {
            assert_eq!(g.get(item), f.get(item));
        }
        // Restored vectors keep evolving identically.
        f.update(2, 7);
        g.update(2, 7);
        assert_eq!(g.l1(), f.l1());
    }

    #[test]
    fn type_names_are_trimmed() {
        assert_eq!(
            trim_type_name("wb_sketch::robust_hh::RobustL1HeavyHitters"),
            "RobustL1HeavyHitters"
        );
        assert_eq!(trim_type_name("a::b::C<d::e::F>"), "C");
        assert_eq!(trim_type_name("Plain"), "Plain");

        struct Local;
        impl StreamAlg for Local {
            type Update = InsertOnly;
            type Output = u64;
            fn process(&mut self, _u: &InsertOnly, _rng: &mut TranscriptRng) {}
            fn query(&self) -> u64 {
                0
            }
        }
        assert_eq!(Local.name(), "Local");
    }

    #[test]
    fn default_process_batch_is_sequential() {
        struct Summer(u64);
        impl StreamAlg for Summer {
            type Update = InsertOnly;
            type Output = u64;
            fn process(&mut self, u: &InsertOnly, _rng: &mut TranscriptRng) {
                self.0 += u.0;
            }
            fn query(&self) -> u64 {
                self.0
            }
        }
        let mut s = Summer(0);
        let mut rng = TranscriptRng::from_seed(1);
        s.process_batch(&[InsertOnly(2), InsertOnly(5)], &mut rng);
        assert_eq!(s.query(), 7);
    }

    #[test]
    fn turnstile_constructors() {
        assert_eq!(Turnstile::insert(4), Turnstile { item: 4, delta: 1 });
        assert_eq!(Turnstile::delete(4), Turnstile { item: 4, delta: -1 });
        let t: Turnstile = InsertOnly(6).into();
        assert_eq!(t, Turnstile::insert(6));
    }
}
