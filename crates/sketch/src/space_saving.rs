//! The SpaceSaving summary (Metwally–Agrawal–El Abbadi), the building block
//! of the TMS12 hierarchical heavy hitters algorithm (Theorem 2.11).
//!
//! SpaceSaving with `k` counters maintains, for each monitored item, a
//! count `c_i` and an *adoption error* `e_i` such that
//! `f_i ≤ c_i ≤ f_i + e_i` and `e_i ≤ m/k`. The pair lets callers derive
//! both over-estimates (`c_i`) and under-estimates (`c_i − e_i`), which the
//! HHH accuracy condition of Definition 2.10 needs. Deterministic, hence
//! white-box robust.

use wb_core::merge::MergeError;
use wb_core::rng::TranscriptRng;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::{bits_for_count, bits_for_universe, SpaceUsage};
use wb_core::stream::{for_each_run, InsertOnly, StreamAlg};

/// One monitored entry: over-estimate `count` and adoption error `err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsEntry {
    /// Over-estimate of the item's frequency (`f ≤ count`).
    pub count: u64,
    /// Upper bound on the over-estimation (`count − f ≤ err`).
    pub err: u64,
}

/// SpaceSaving summary with `k` counters over universe `[n]`.
///
/// Stored struct-of-arrays (like [`crate::misra_gries::MisraGries`]): the
/// hot membership probe scans a dense `keys` array, which vectorizes —
/// `k` is small (`⌈2/ε⌉`), so a linear probe beats hashing. The arrays are
/// kept in binary min-heap order on `(count, key)`, so the entry a miss
/// evicts (the smallest count, ties to the smaller item id) is always the
/// root: a miss replaces the root and sifts it down, a hit sifts its entry
/// down, and a fill sifts up — `O(log k)` moves instead of a scan of all
/// `k` counters. Keys are unique, so the `(count, key)` minimum is unique
/// and the heap evicts exactly the entry a full scan would pick; positions
/// are never observable (entries, snapshots and answers are item-sorted).
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    /// Monitored item ids; parallel to `counts` and `errs`, all three in
    /// heap order.
    keys: Vec<u64>,
    counts: Vec<u64>,
    errs: Vec<u64>,
    k: usize,
    n: u64,
    processed: u64,
}

impl SpaceSaving {
    /// Summary with `k ≥ 1` counters.
    pub fn with_counters(k: usize, n: u64) -> Self {
        assert!(k >= 1, "need at least one counter");
        SpaceSaving {
            keys: Vec::with_capacity(k),
            counts: Vec::with_capacity(k),
            errs: Vec::with_capacity(k),
            k,
            n,
            processed: 0,
        }
    }

    /// Summary with additive error `(ε/2)·m`, i.e. `k = ⌈2/ε⌉`.
    pub fn new(eps: f64, n: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        Self::with_counters((2.0 / eps).ceil() as usize, n)
    }

    /// Process one occurrence of `item`.
    pub fn insert(&mut self, item: u64) {
        self.insert_weighted(item, 1);
    }

    /// Position of `item` among the monitored keys — the per-update probe.
    /// Four keys are compared per step with one combined any-match test
    /// (fusable into a single vector compare), one well-predicted branch
    /// per four keys instead of one per key.
    #[inline]
    fn find(&self, item: u64) -> Option<usize> {
        let mut chunks = self.keys.chunks_exact(4);
        let mut base = 0usize;
        for c in chunks.by_ref() {
            let m = [c[0] == item, c[1] == item, c[2] == item, c[3] == item];
            if m[0] | m[1] | m[2] | m[3] {
                let off = if m[0] {
                    0
                } else if m[1] {
                    1
                } else if m[2] {
                    2
                } else {
                    3
                };
                return Some(base + off);
            }
            base += 4;
        }
        chunks
            .remainder()
            .iter()
            .position(|&key| key == item)
            .map(|i| base + i)
    }

    /// Process `w ≥ 1` occurrences of `item` at once.
    pub fn insert_weighted(&mut self, item: u64, w: u64) {
        self.processed += w;
        if let Some(pos) = self.find(item) {
            let count = self.counts[pos] + w;
            self.sift_down(pos, item, count, self.errs[pos]);
            return;
        }
        if self.keys.len() < self.k {
            self.keys.push(item);
            self.counts.push(w);
            self.errs.push(0);
            self.sift_up(self.keys.len() - 1);
            return;
        }
        // Evict the root, the lexicographic (count, key) minimum: the item
        // adopts its count as both base and adoption error.
        let min_count = self.counts[0];
        self.sift_down(0, item, min_count + w, min_count);
    }

    /// The heap key `(count, key)` of the entry at `pos`.
    #[inline]
    fn rank(&self, pos: usize) -> (u64, u64) {
        (self.counts[pos], self.keys[pos])
    }

    /// Store entry `(key, count, err)` at `pos` and move it down until no
    /// child is `(count, key)`-smaller. The subtrees below `pos` must be
    /// heaps; the result is one if `(count, key)` is not smaller than
    /// `pos`'s parent.
    #[inline]
    fn sift_down(&mut self, mut pos: usize, key: u64, count: u64, err: u64) {
        let len = self.keys.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            let right = child + 1;
            if right < len && self.rank(right) < self.rank(child) {
                child = right;
            }
            if (count, key) < self.rank(child) {
                break;
            }
            self.keys[pos] = self.keys[child];
            self.counts[pos] = self.counts[child];
            self.errs[pos] = self.errs[child];
            pos = child;
        }
        self.keys[pos] = key;
        self.counts[pos] = count;
        self.errs[pos] = err;
    }

    /// Move the entry at `pos` up until its parent is `(count, key)`-smaller.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.rank(parent) < self.rank(pos) {
                break;
            }
            self.keys.swap(pos, parent);
            self.counts.swap(pos, parent);
            self.errs.swap(pos, parent);
            pos = parent;
        }
    }

    fn get(&self, item: u64) -> Option<SsEntry> {
        self.find(item).map(|pos| SsEntry {
            count: self.counts[pos],
            err: self.errs[pos],
        })
    }

    /// Over-estimate of `item`'s frequency (`0` if not monitored).
    pub fn over_estimate(&self, item: u64) -> u64 {
        self.get(item).map_or(0, |e| e.count)
    }

    /// Under-estimate `count − err` of `item`'s frequency.
    pub fn under_estimate(&self, item: u64) -> u64 {
        self.get(item).map_or(0, |e| e.count - e.err)
    }

    /// The monitored entries, item-ascending.
    pub fn entries(&self) -> Vec<(u64, SsEntry)> {
        let mut v: Vec<(u64, SsEntry)> = self
            .keys
            .iter()
            .zip(&self.counts)
            .zip(&self.errs)
            .map(|((&i, &count), &err)| (i, SsEntry { count, err }))
            .collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v
    }

    /// Updates processed (total weight).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of counters configured.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Smallest monitored count if the summary is full, else 0. Any item
    /// *not* monitored by a full summary has true frequency at most this
    /// value (an unmonitored item was either never seen or evicted at a
    /// count it had not exceeded), which is what makes the merge sound.
    fn floor(&self) -> u64 {
        if self.keys.len() == self.k {
            self.counts[0]
        } else {
            0
        }
    }

    /// Replace the stored entries wholesale (merge/restore rebuilds) and
    /// put them in heap order. Keys must be unique.
    fn set_entries(&mut self, entries: impl IntoIterator<Item = (u64, SsEntry)>) {
        self.keys.clear();
        self.counts.clear();
        self.errs.clear();
        for (item, e) in entries {
            self.keys.push(item);
            self.counts.push(e.count);
            self.errs.push(e.err);
        }
        for pos in (0..self.keys.len() / 2).rev() {
            self.sift_down(pos, self.keys[pos], self.counts[pos], self.errs[pos]);
        }
    }
}

impl Snapshot for SpaceSaving {
    /// Layout: `k | n | processed | len | (item, count, err)…` with entries
    /// item-ascending for deterministic bytes.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.k);
        w.put_u64(self.n);
        w.put_u64(self.processed);
        let entries = self.entries();
        w.put_u64(entries.len() as u64);
        for (item, e) in entries {
            w.put_u64(item);
            w.put_u64(e.count);
            w.put_u64(e.err);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let k = r.take_usize()?;
        let n = r.take_u64()?;
        if k != self.k || n != self.n {
            return Err(SnapError::mismatch(
                format!("SpaceSaving(k={}, n={})", self.k, self.n),
                format!("SpaceSaving(k={k}, n={n})"),
            ));
        }
        let processed = r.take_u64()?;
        let len = r.take_usize()?;
        if len > k {
            return Err(SnapError::corrupt(format!(
                "SpaceSaving snapshot holds {len} entries for k={k}"
            )));
        }
        let mut entries: Vec<(u64, SsEntry)> = Vec::with_capacity(len);
        for _ in 0..len {
            let item = r.take_u64()?;
            let count = r.take_u64()?;
            let err = r.take_u64()?;
            // count ≥ 1 always holds; err ≤ count keeps under_estimate sound.
            if count == 0 || err > count {
                return Err(SnapError::corrupt(format!(
                    "SpaceSaving entry {item}: count {count}, err {err}"
                )));
            }
            if entries.iter().any(|&(i, _)| i == item) {
                return Err(SnapError::corrupt(format!(
                    "SpaceSaving duplicate entry {item}"
                )));
            }
            entries.push((item, SsEntry { count, err }));
        }
        self.set_entries(entries);
        self.processed = processed;
        Ok(())
    }
}

impl SpaceUsage for SpaceSaving {
    fn space_bits(&self) -> u64 {
        let id_bits = bits_for_universe(self.n);
        self.counts
            .iter()
            .zip(&self.errs)
            .map(|(&count, &err)| id_bits + bits_for_count(count) + bits_for_count(err))
            .sum()
    }
}

impl StreamAlg for SpaceSaving {
    type Update = InsertOnly;
    type Output = Vec<(u64, f64)>;

    fn process(&mut self, update: &InsertOnly, _rng: &mut TranscriptRng) {
        self.insert(update.0);
    }

    /// Batched ingestion: consecutive equal items collapse into one
    /// [`SpaceSaving::insert_weighted`] call. A weighted insert is exactly
    /// equivalent to repeated unit inserts (once an item is monitored —
    /// whether pre-existing, slotted into spare capacity, or adopted from
    /// the evicted minimum — the remaining units are plain counter
    /// additions), so state is bit-identical to sequential processing.
    fn process_batch(&mut self, updates: &[InsertOnly], _rng: &mut TranscriptRng) {
        for_each_run(updates.iter().map(|u| u.0), |item, w| {
            self.insert_weighted(item, w)
        });
    }

    /// Mergeable-summaries combine (Agarwal et al.): for every item in
    /// either summary, counts and errors add; an item absent from a *full*
    /// sibling contributes that sibling's minimum count to both fields (its
    /// unseen frequency there is at most that minimum — the over-estimate
    /// invariant survives). The `k` largest merged counts are kept, ties
    /// broken toward the smaller item id like the eviction rule. Kept items
    /// keep `f ≤ count ≤ f + err` with `err ≤ (m₁+m₂)·2/k`, inside the
    /// `ε`-heavy-hitters tolerance for `k = ⌈2/ε⌉`.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.k != other.k || self.n != other.n {
            return Err(MergeError::incompatible(format!(
                "SpaceSaving (k={}, n={}) vs (k={}, n={})",
                self.k, self.n, other.k, other.n
            )));
        }
        let floor_self = self.floor();
        let floor_other = other.floor();
        let mut merged: Vec<(u64, SsEntry)> =
            Vec::with_capacity(self.keys.len() + other.keys.len());
        for (item, e) in self.entries() {
            let (count, err) = other
                .get(item)
                .map_or((floor_other, floor_other), |o| (o.count, o.err));
            merged.push((
                item,
                SsEntry {
                    count: e.count + count,
                    err: e.err + err,
                },
            ));
        }
        for (item, e) in other.entries() {
            if self.get(item).is_none() {
                merged.push((
                    item,
                    SsEntry {
                        count: e.count + floor_self,
                        err: e.err + floor_self,
                    },
                ));
            }
        }
        merged.sort_unstable_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        merged.truncate(self.k);
        self.set_entries(merged);
        self.processed += other.processed;
        Ok(())
    }

    fn query(&self) -> Vec<(u64, f64)> {
        self.entries()
            .into_iter()
            .map(|(i, e)| (i, e.count as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn exact_with_spare_capacity() {
        let mut ss = SpaceSaving::with_counters(8, 100);
        for _ in 0..5 {
            ss.insert(1);
        }
        for _ in 0..3 {
            ss.insert(2);
        }
        assert_eq!(ss.over_estimate(1), 5);
        assert_eq!(ss.under_estimate(1), 5);
        assert_eq!(ss.over_estimate(2), 3);
        assert_eq!(ss.over_estimate(9), 0);
    }

    #[test]
    fn sandwich_invariant_holds() {
        let mut ss = SpaceSaving::with_counters(10, 10_000);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for t in 0..5000u64 {
            let item = if t % 4 == 0 { 3 } else { 10 + (t * 7) % 200 };
            ss.insert(item);
            *truth.entry(item).or_insert(0) += 1;
        }
        let m = ss.processed();
        for (item, e) in ss.entries() {
            let f = truth.get(&item).copied().unwrap_or(0);
            assert!(e.count >= f, "count {} < f {f} for {item}", e.count);
            assert!(
                e.count - e.err <= f,
                "under-estimate {} > f {f} for {item}",
                e.count - e.err
            );
            assert!(e.err <= m / 10 + 1, "err {} exceeds m/k", e.err);
        }
    }

    #[test]
    fn heavy_item_retained() {
        let mut ss = SpaceSaving::with_counters(4, 10_000);
        for t in 0..4000u64 {
            ss.insert(if t % 3 != 2 { 42 } else { 100 + t });
        }
        // f_42 ≈ 2667 > m/4: must be monitored with a large count.
        assert!(ss.over_estimate(42) >= 2000);
    }

    #[test]
    fn weighted_inserts_match_repeated() {
        let mut a = SpaceSaving::with_counters(3, 100);
        let mut b = SpaceSaving::with_counters(3, 100);
        for _ in 0..7 {
            a.insert(5);
        }
        b.insert_weighted(5, 7);
        assert_eq!(a.over_estimate(5), b.over_estimate(5));
        assert_eq!(a.processed(), b.processed());
    }

    #[test]
    fn batch_matches_sequential() {
        let stream: Vec<InsertOnly> = (0..6000u64)
            .map(|t| InsertOnly(if t % 4 == 0 { 3 } else { 10 + (t * 7) % 200 }))
            .collect();
        for chunk in [1usize, 17, 500] {
            let mut seq = SpaceSaving::with_counters(10, 1 << 12);
            let mut bat = SpaceSaving::with_counters(10, 1 << 12);
            let mut r1 = TranscriptRng::from_seed(1);
            let mut r2 = TranscriptRng::from_seed(1);
            for u in &stream {
                seq.process(u, &mut r1);
            }
            for c in stream.chunks(chunk) {
                bat.process_batch(c, &mut r2);
            }
            assert_eq!(seq.entries(), bat.entries(), "chunk {chunk}");
            assert_eq!(seq.processed(), bat.processed(), "chunk {chunk}");
        }
    }

    #[test]
    fn merge_keeps_sandwich_invariant() {
        // Item-hash sharding across 3 instances, then a tree merge; the
        // merged summary must keep f ≤ count and count − err ≤ f for every
        // kept item, with err within the combined 2m/k budget.
        let stream: Vec<u64> = (0..4500u64)
            .map(|t| if t % 4 == 0 { 3 } else { 10 + (t * 7) % 60 })
            .collect();
        let k = 12;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut shards: Vec<SpaceSaving> = (0..3)
            .map(|_| SpaceSaving::with_counters(k, 1 << 12))
            .collect();
        for &item in &stream {
            *truth.entry(item).or_insert(0) += 1;
            shards[(item % 3) as usize].insert(item);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge_from(s).unwrap();
        }
        let m = stream.len() as u64;
        assert_eq!(merged.processed(), m);
        assert!(merged.entries().len() <= k);
        for (item, e) in merged.entries() {
            let f = truth.get(&item).copied().unwrap_or(0);
            assert!(e.count >= f, "merged count {} < f {f} for {item}", e.count);
            assert!(
                e.count - e.err <= f,
                "merged under-estimate {} > f {f} for {item}",
                e.count - e.err
            );
            assert!(e.err <= 2 * m / k as u64, "merged err {} too large", e.err);
        }
        // The 25% item must be monitored with a near-true count.
        assert!(merged.over_estimate(3) >= truth[&3]);
    }

    #[test]
    fn merge_rejects_mismatched_budgets() {
        let mut a = SpaceSaving::with_counters(4, 100);
        let b = SpaceSaving::with_counters(5, 100);
        assert!(matches!(a.merge_from(&b), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut ss = SpaceSaving::with_counters(6, 1 << 20);
        for i in 0..10_000u64 {
            ss.insert(i);
        }
        assert!(ss.entries().len() <= 6);
        assert_eq!(ss.capacity(), 6);
    }

    #[test]
    fn space_accounting_nonzero() {
        let mut ss = SpaceSaving::new(0.25, 1 << 10);
        ss.insert(1);
        assert!(ss.space_bits() >= 10);
    }

    /// The eviction rule the heap replaced, kept as the reference: entries
    /// in arrival order, and a miss evicts the lexicographic `(count, key)`
    /// minimum found by three unconditional passes over all `k` counters.
    struct ScanOracle {
        keys: Vec<u64>,
        counts: Vec<u64>,
        errs: Vec<u64>,
        k: usize,
        n: u64,
        processed: u64,
    }

    impl ScanOracle {
        fn new(k: usize, n: u64) -> Self {
            ScanOracle {
                keys: Vec::new(),
                counts: Vec::new(),
                errs: Vec::new(),
                k,
                n,
                processed: 0,
            }
        }

        fn insert_weighted(&mut self, item: u64, w: u64) {
            self.processed += w;
            if let Some(pos) = self.keys.iter().position(|&key| key == item) {
                self.counts[pos] += w;
                return;
            }
            if self.keys.len() < self.k {
                self.keys.push(item);
                self.counts.push(w);
                self.errs.push(0);
                return;
            }
            let mut min_count = u64::MAX;
            for &c in &self.counts {
                min_count = min_count.min(c);
            }
            let mut min_key = u64::MAX;
            for (&c, &key) in self.counts.iter().zip(&self.keys) {
                let cand = if c == min_count { key } else { u64::MAX };
                min_key = min_key.min(cand);
            }
            let mut hit = 0usize;
            for (i, (&c, &key)) in self.counts.iter().zip(&self.keys).enumerate() {
                hit |= (usize::from(c == min_count && key == min_key)) * (i + 1);
            }
            let min_pos = hit - 1;
            self.keys[min_pos] = item;
            self.counts[min_pos] = min_count + w;
            self.errs[min_pos] = min_count;
        }

        fn entries(&self) -> Vec<(u64, SsEntry)> {
            let mut v: Vec<(u64, SsEntry)> = (0..self.keys.len())
                .map(|i| {
                    let (count, err) = (self.counts[i], self.errs[i]);
                    (self.keys[i], SsEntry { count, err })
                })
                .collect();
            v.sort_unstable_by_key(|&(i, _)| i);
            v
        }

        fn floor(&self) -> u64 {
            if self.keys.len() == self.k {
                self.counts.iter().copied().min().unwrap_or(0)
            } else {
                0
            }
        }

        /// The mergeable-summaries combine of [`SpaceSaving::merge`].
        fn merge(&mut self, other: &Self) {
            let (floor_self, floor_other) = (self.floor(), other.floor());
            let (mine, theirs) = (self.entries(), other.entries());
            let find = |v: &[(u64, SsEntry)], item| v.iter().find(|e| e.0 == item).map(|e| e.1);
            let mut merged = Vec::new();
            for &(item, e) in &mine {
                let o = find(&theirs, item).unwrap_or(SsEntry {
                    count: floor_other,
                    err: floor_other,
                });
                let (count, err) = (e.count + o.count, e.err + o.err);
                merged.push((item, SsEntry { count, err }));
            }
            for &(item, e) in &theirs {
                if find(&mine, item).is_none() {
                    let (count, err) = (e.count + floor_self, e.err + floor_self);
                    merged.push((item, SsEntry { count, err }));
                }
            }
            merged.sort_unstable_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
            merged.truncate(self.k);
            self.keys = merged.iter().map(|e| e.0).collect();
            self.counts = merged.iter().map(|e| e.1.count).collect();
            self.errs = merged.iter().map(|e| e.1.err).collect();
            self.processed += other.processed;
        }

        /// The [`SpaceSaving`] snapshot layout.
        fn snap_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.put_usize(self.k);
            w.put_u64(self.n);
            w.put_u64(self.processed);
            let entries = self.entries();
            w.put_u64(entries.len() as u64);
            for (item, e) in entries {
                w.put_u64(item);
                w.put_u64(e.count);
                w.put_u64(e.err);
            }
            w.finish()
        }
    }

    fn snap_bytes(ss: &SpaceSaving) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ss.snap(&mut w);
        w.finish()
    }

    /// The SoA arrays are in `(count, key)` min-heap order.
    fn assert_heap_order(ss: &SpaceSaving) {
        for pos in 1..ss.keys.len() {
            let parent = (pos - 1) / 2;
            assert!(ss.rank(parent) < ss.rank(pos), "heap order broken at {pos}");
        }
    }

    /// The heap and the oracle agree on everything observable.
    fn assert_agree(ss: &SpaceSaving, oracle: &ScanOracle) {
        assert_heap_order(ss);
        assert_eq!(ss.entries(), oracle.entries());
        assert_eq!(snap_bytes(ss), oracle.snap_bytes());
        let answer: Vec<(u64, f64)> = oracle
            .entries()
            .into_iter()
            .map(|(i, e)| (i, e.count as f64))
            .collect();
        assert_eq!(ss.query(), answer);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn heap_matches_three_pass_oracle(
            k_index in 0usize..5,
            ops in proptest::collection::vec((0u8..16, 0u64..96, 1u64..6), 1..400),
        ) {
            let k = [1, 2, 3, 16, 64][k_index];
            let n = 96;
            let mut ss = SpaceSaving::with_counters(k, n);
            let mut oracle = ScanOracle::new(k, n);
            // A sibling pair fed its own stream and merged in on demand.
            let mut side = (SpaceSaving::with_counters(k, n), ScanOracle::new(k, n));
            for (op, x, w) in ops {
                // Skewed toward small ids, so hits and evictions both occur.
                let item = x * x / 96;
                match op {
                    0 => {
                        ss.merge_from(&side.0).unwrap();
                        oracle.merge(&side.1);
                        assert_agree(&side.0, &side.1);
                        side = (SpaceSaving::with_counters(k, n), ScanOracle::new(k, n));
                    }
                    1 => {
                        let bytes = snap_bytes(&ss);
                        let mut restored = SpaceSaving::with_counters(k, n);
                        let mut r = SnapReader::new(&bytes).unwrap();
                        restored.restore(&mut r).unwrap();
                        r.finish().unwrap();
                        ss = restored;
                    }
                    2..=5 => {
                        side.0.insert_weighted(item, w);
                        side.1.insert_weighted(item, w);
                    }
                    _ => {
                        ss.insert_weighted(item, w);
                        oracle.insert_weighted(item, w);
                    }
                }
                assert_agree(&ss, &oracle);
            }
        }
    }
}
