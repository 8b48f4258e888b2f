//! Sharded ingestion: one logical stream, `S` shard instances, one merged
//! answer — the first end-to-end scale-out path in the workspace.
//!
//! The pipeline is **streaming** and runs on the caller's thread:
//! [`ingest_sharded_source`] pulls chunks from an [`UpdateSource`], routes
//! each update to its shard's staging buffer, and hands every full
//! `batch`-sized buffer to its shard, so the whole run keeps
//! O(S × batch) updates in memory regardless of the stream length — there
//! are no materialized per-shard buckets. Each shard ingests its chunks
//! through the batched [`DynStreamAlg::process_batch_dyn`] path, and the
//! shard states then fold together with [`DynStreamAlg::merge_dyn`] in a
//! **deterministic reduction tree**: level by level, shard `2i+1` merges
//! into shard `2i`. Each shard's update subsequence and chunk boundaries
//! are pure functions of the stream and the config, shard seeds derive
//! from the master seed via [`derive_seed`]`(master, ["shard", i])`, and
//! merges happen in fixed tree order — so the merged instance is a pure
//! function of `(stream, algorithm, S, partition, batch, master_seed)`,
//! identical to the materialized-bucket dataflow (asserted by the
//! `streaming_pipeline` test suite).
//!
//! [`ShardPipeline`] is the one ingestion core: a per-shard ingest step
//! (the shard's instance, tape, and first-failure bookkeeping) and one
//! route-and-stage step (routing, load counting, chunk staging). The
//! one-shot path pulls a source through it; the daemon's tenants keep one
//! alive and push requests into it. Parallelism lives a level up: the
//! tournament runs whole cells on the engine [pool](crate::pool), and
//! `wbd` applies tenants on its worker pool.
//!
//! **White-box caveat.** Sharding never weakens the paper's adversary — it
//! strengthens it: the adversary observes *every* shard's internal state
//! and every word each shard's randomness tape has drawn (the tapes' seeds
//! derive from the master seed). Only algorithms whose robustness argument
//! tolerates full state exposure merge soundly; see
//! [`wb_core::stream::StreamAlg::merge_from`] for the contract and
//! [`MergeError::Unmergeable`] for the refusals.

use crate::erased::{DynStreamAlg, Update};
use crate::workload::UpdateSource;
use wb_core::merge::MergeError;
use wb_core::rng::{derive_seed, SplitMix64, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::WbError;

/// How updates are routed to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// By item hash: every occurrence of an item lands on the same shard
    /// (SplitMix64 of the item id, mod `S`). The right choice for counter
    /// summaries — each shard sees a disjoint sub-universe, so per-item
    /// mass is never split across summaries.
    Hash,
    /// By position: update `j` goes to shard `j mod S`. Spreads load
    /// perfectly evenly; items smear across shards, which linear sketches
    /// absorb exactly and counter summaries absorb within their merge
    /// error.
    RoundRobin,
}

impl Partition {
    /// Stable lowercase label for reports and flags.
    pub fn label(&self) -> &'static str {
        match self {
            Partition::Hash => "hash",
            Partition::RoundRobin => "round_robin",
        }
    }

    /// The partition's byte in checkpoint frames.
    fn tag(self) -> u8 {
        match self {
            Partition::Hash => 0,
            Partition::RoundRobin => 1,
        }
    }
}

/// Most shards a count taken from outside may ask for: `wbd`'s `--shards`
/// and `hello.shards`, and the tournament's `--shards`. A
/// [`ShardPipeline`] builds every shard up front, so an unbounded count
/// would be an allocation the caller picks; no in-repo caller uses more
/// than 8.
pub const MAX_SHARDS: usize = 64;

/// Largest [`ShardConfig::batch`] taken from outside: `wbd`'s `--chunk`
/// and a restored snapshot's `batch`, and the tournament's `--chunk`.
/// Every shard preallocates a staging buffer of this many updates, so an
/// unbounded chunk would be an allocation its author picks; no in-repo
/// caller uses more than 16384.
pub const MAX_CHUNK: usize = 1 << 16;

/// Configuration of one sharded ingestion run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard instances `S ≥ 1`.
    pub shards: usize,
    /// Routing rule.
    pub partition: Partition,
    /// Inert: nothing reads it. Ingestion always runs on the caller's
    /// thread, and the shard states never depended on the thread count.
    /// The field remains only so struct-literal constructions keep
    /// compiling.
    pub threads: usize,
    /// Chunk size for each shard's batched ingestion.
    pub batch: usize,
    /// Master seed; shard `i`'s random tape is seeded with
    /// `derive_seed(master_seed, ["shard", i])`.
    pub master_seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            partition: Partition::Hash,
            threads: 0,
            batch: 256,
            master_seed: 42,
        }
    }
}

impl ShardConfig {
    /// The derived seed of shard `i`'s random tape.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        derive_seed(self.master_seed, &["shard", &shard.to_string()])
    }
}

/// The shard index of `item` under hash partitioning:
/// `SplitMix64::new(item).next_u64() % shards`.
#[inline]
pub fn hash_shard(item: u64, shards: usize) -> usize {
    (SplitMix64::new(item).next_u64() % shards as u64) as usize
}

/// Fold `instances` into one by a deterministic reduction tree: at every
/// level, instance `2i+1` merges into instance `2i`; survivors repeat until
/// one remains. Equivalent to a left fold in outcome for associative
/// merges, but the tree shape is part of the contract: it depends on `S`
/// alone, so reports stay byte-identical.
pub fn merge_reduce(
    mut instances: Vec<Box<dyn DynStreamAlg>>,
) -> Result<Box<dyn DynStreamAlg>, MergeError> {
    assert!(!instances.is_empty(), "nothing to reduce");
    while instances.len() > 1 {
        let mut next = Vec::with_capacity(instances.len().div_ceil(2));
        let mut iter = instances.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                left.merge_dyn(right.as_ref())?;
            }
            next.push(left);
        }
        instances = next;
    }
    Ok(instances.pop().expect("one instance remains"))
}

/// Per-shard ingestion statistics: routed-item counts, exported so callers
/// (the daemon's metrics layer, `exp_sharded`) can see how the stream was
/// spread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Updates routed to each shard; sums to the stream length.
    pub loads: Vec<usize>,
}

impl ShardStats {
    /// Total updates routed across all shards.
    pub fn total(&self) -> u64 {
        self.loads.iter().map(|&l| l as u64).sum()
    }

    /// Largest per-shard load.
    pub fn max_load(&self) -> usize {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Load skew: the largest shard's load divided by the mean load
    /// (`1.0` = perfectly even; `S` = everything on one shard). `1.0` for
    /// an empty stream.
    pub fn skew(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.loads.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.loads.len() as f64;
        self.max_load() as f64 / mean
    }
}

/// Outcome of [`ingest_sharded_source`]: the merged instance plus how the
/// stream was spread.
pub struct ShardedIngest {
    /// The merged algorithm holding the whole stream's summary.
    pub merged: Box<dyn DynStreamAlg>,
    /// How the stream was spread.
    pub stats: ShardStats,
}

/// After a chunk-level ingest error, locate the offset (relative to the
/// start of this ingester's subsequence; `base` updates were accepted
/// before this chunk) of the first update that fails on its own. Probing
/// mutates the algorithm, which is fine — the caller is about to discard
/// it; the point is a **chunk-size-independent** offset in the error
/// report without retaining the stream. Every batch-level error has a
/// per-update witness (the erased layer's only rejection rule is
/// per-update), so the probe always finds one; `base` alone is a
/// defensive fallback.
pub(crate) fn locate_failure(
    alg: &mut dyn DynStreamAlg,
    chunk: &[Update],
    rng: &mut TranscriptRng,
    base: u64,
) -> u64 {
    for (k, u) in chunk.iter().enumerate() {
        if alg.process_dyn(u, rng).is_err() {
            return base + k as u64;
        }
    }
    base
}

/// One shard: its instance, its public random tape, and its failure
/// bookkeeping. [`ShardPipeline`] owns every shard.
struct Shard {
    index: usize,
    alg: Box<dyn DynStreamAlg>,
    rng: TranscriptRng,
    /// The shard's first failure; chunks delivered after it are counted,
    /// never processed.
    failure: Option<WbError>,
    /// Updates delivered so far, processed or not.
    processed: u64,
}

impl Shard {
    fn new(index: usize, alg: Box<dyn DynStreamAlg>, cfg: &ShardConfig) -> Self {
        Shard {
            index,
            alg,
            rng: TranscriptRng::from_seed(cfg.shard_seed(index)),
            failure: None,
            processed: 0,
        }
    }

    /// Ingest one delivered chunk through the batched kernel. The first
    /// failure wins: it is annotated with the shard index and the failing
    /// offset within the shard's subsequence, and later chunks only
    /// advance the offset. Returns `true` iff this chunk recorded the
    /// shard's first failure.
    fn ingest(&mut self, chunk: &[Update]) -> bool {
        let mut failed_now = false;
        if self.failure.is_none() {
            if let Err(e) = self.alg.process_batch_dyn(chunk, &mut self.rng) {
                let off = locate_failure(self.alg.as_mut(), chunk, &mut self.rng, self.processed);
                self.failure = Some(WbError::invalid(format!(
                    "shard {}: {e} (first offending update at shard offset {off})",
                    self.index
                )));
                failed_now = true;
            }
        }
        self.processed += chunk.len() as u64;
        failed_now
    }

    /// The shard's outcome: its state, or its first failure.
    fn into_result(self) -> Result<Box<dyn DynStreamAlg>, WbError> {
        match self.failure {
            Some(e) => Err(e),
            None => Ok(self.alg),
        }
    }
}

/// The route-and-stage step: assign each update its shard, count the
/// shard's load, and stage the update until the shard's chunk is full.
struct Router {
    partition: Partition,
    shards: usize,
    batch: usize,
    /// Global stream position (drives round-robin routing).
    pos: u64,
    loads: Vec<usize>,
    staging: Vec<Vec<Update>>,
}

impl Router {
    fn new(shards: usize, cfg: &ShardConfig) -> Self {
        let batch = cfg.batch.max(1);
        Router {
            partition: cfg.partition,
            shards,
            batch,
            pos: 0,
            loads: vec![0; shards],
            staging: (0..shards).map(|_| Vec::with_capacity(batch)).collect(),
        }
    }

    /// Stage `u` in its shard's buffer; returns the shard whose buffer
    /// just reached the chunk size and must be delivered.
    #[inline]
    fn stage(&mut self, u: &Update) -> Option<usize> {
        let s = match self.partition {
            Partition::Hash => hash_shard(u.item(), self.shards),
            Partition::RoundRobin => (self.pos % self.shards as u64) as usize,
        };
        self.pos += 1;
        self.loads[s] += 1;
        self.staging[s].push(*u);
        (self.staging[s].len() >= self.batch).then_some(s)
    }
}

/// Ingest a pull-based stream across `cfg.shards` instances built by
/// `ctor` and return the merged result, holding only O(shards × batch)
/// updates in memory at any moment: a pull loop over a [`ShardPipeline`]
/// on the caller's thread.
///
/// `ctor(i)` must build shard `i`'s instance; for seeded sketches
/// (CountMin, AmsF2) every shard must be constructed from the **same**
/// public seed or the merge will report
/// [`MergeError::Incompatible`]. Model mismatches during ingestion (e.g. a
/// deletion offered to an insertion-only sketch) surface as the underlying
/// [`WbError`], annotated with the shard and the failing offset; when
/// several shards fail, the error of the lowest-numbered shard is
/// reported. Each shard reports its **first** failure and counts (without
/// processing) what it is handed after it; pulling stops early once
/// *every* shard has failed, by which point all reports are fixed. Merge
/// refusals are mapped into
/// [`WbError::InvalidParameter`] with the typed error's message (probe
/// with [`probe_mergeable`] first to branch on mergeability without paying
/// for ingestion).
pub fn ingest_sharded_source(
    ctor: &dyn Fn(usize) -> Result<Box<dyn DynStreamAlg>, WbError>,
    source: &mut dyn UpdateSource,
    cfg: &ShardConfig,
) -> Result<ShardedIngest, WbError> {
    let mut pipeline = ShardPipeline::new(ctor, cfg)?;
    let mut buf: Vec<Update> = Vec::with_capacity(pipeline.router.batch);
    while source.next_chunk(&mut buf) > 0 {
        pipeline.push(&buf);
        // Once every shard has recorded its failure nothing that follows
        // can change the outcome — stop generating.
        if pipeline.all_failed() {
            break;
        }
    }
    pipeline.finish()
}

/// A long-lived inline sharded ingestion pipeline: the incremental form of
/// [`ingest_sharded_source`] for callers that receive the stream in pieces
/// over time instead of holding an [`UpdateSource`] — the daemon's tenant
/// sessions push ingest batches as they arrive over the wire and query the
/// merged answer whenever a client asks.
///
/// The one-shot path is a pull loop over this type, so a pipeline fed the
/// same updates in any request sizes ends in shard states byte-identical
/// to an offline [`ingest_sharded_source`] run of the concatenated stream
/// — chunk boundaries are pure transport by the batching contract.
pub struct ShardPipeline {
    shards: Vec<Shard>,
    router: Router,
    /// Cached "every shard has failed" flag: once set, pushes are no-ops
    /// (each shard's *first* failure wins and is already fixed).
    dead: bool,
}

impl ShardPipeline {
    /// Build `cfg.shards` instances with `ctor` and an empty pipeline. The
    /// same constructor contract as [`ingest_sharded_source`] applies:
    /// seeded sketches must share their public seed across shards or the
    /// eventual merge reports an incompatibility.
    pub fn new(
        ctor: &dyn Fn(usize) -> Result<Box<dyn DynStreamAlg>, WbError>,
        cfg: &ShardConfig,
    ) -> Result<Self, WbError> {
        let shards = (0..cfg.shards.max(1))
            .map(|i| Ok(Shard::new(i, ctor(i)?, cfg)))
            .collect::<Result<Vec<Shard>, WbError>>()?;
        Ok(ShardPipeline {
            router: Router::new(shards.len(), cfg),
            shards,
            dead: false,
        })
    }

    /// Updates routed so far (including ones staged but not yet delivered).
    pub fn routed(&self) -> u64 {
        self.router.pos
    }

    /// Current routed-load statistics.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            loads: self.router.loads.clone(),
        }
    }

    /// Total space held by the live shard states, in bits — what a node
    /// running this pipeline actually pays.
    pub fn space_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.alg.space_bits_dyn()).sum()
    }

    /// The lowest-numbered shard's failure, if any shard has failed.
    pub fn first_failure(&self) -> Option<&WbError> {
        self.shards.iter().find_map(|s| s.failure.as_ref())
    }

    /// `true` once every shard has recorded a failure — nothing pushed
    /// after this can change the outcome.
    pub fn all_failed(&self) -> bool {
        self.dead
    }

    /// Hand shard `s`'s staged chunk to the shard and empty the buffer.
    fn deliver(&mut self, s: usize) {
        if self.shards[s].ingest(&self.router.staging[s]) {
            self.dead = self.shards.iter().all(|sh| sh.failure.is_some());
        }
        self.router.staging[s].clear();
    }

    /// Route a chunk of updates into their shards' staging buffers,
    /// delivering each buffer when it reaches the chunk size. Stops early
    /// once every shard has failed; only a delivery can fail a shard, so
    /// that is tested after each.
    pub fn push(&mut self, chunk: &[Update]) {
        if self.dead {
            return;
        }
        for u in chunk {
            if let Some(s) = self.router.stage(u) {
                self.deliver(s);
                if self.dead {
                    return;
                }
            }
        }
    }

    /// Deliver every non-empty staging buffer to its shard. The one-shot
    /// path calls this exactly once, at end of stream; a long-lived caller
    /// calls it before each query so answers reflect every pushed update
    /// (chunk boundaries never change the eventual state, so flushing
    /// early costs nothing but the smaller batch).
    pub fn flush(&mut self) {
        for s in 0..self.shards.len() {
            if !self.router.staging[s].is_empty() {
                self.deliver(s);
            }
        }
    }

    /// Flush and merge the shard states **without consuming them**: each
    /// reduction-tree node is a fresh `ctor` instance the children are
    /// folded into (merging into an empty sibling reproduces the child's
    /// state by the [`wb_core::stream::StreamAlg::merge_from`] contract — an empty
    /// instance summarizes the empty stream). The shard states stay live,
    /// so a long-running tenant can answer queries mid-stream and keep
    /// ingesting; [`ShardPipeline::finish`] remains the end-of-stream
    /// destructive form and the two agree on every answer.
    pub fn snapshot_merged(
        &mut self,
        ctor: &dyn Fn(usize) -> Result<Box<dyn DynStreamAlg>, WbError>,
    ) -> Result<Box<dyn DynStreamAlg>, WbError> {
        self.flush();
        if let Some(e) = self.first_failure() {
            return Err(e.clone());
        }
        let snap = |shard: &dyn DynStreamAlg| -> Result<Box<dyn DynStreamAlg>, WbError> {
            let mut fresh = ctor(0)?;
            fresh
                .merge_dyn(shard)
                .map_err(|e| WbError::invalid(format!("sharded merge: {e}")))?;
            Ok(fresh)
        };
        // First level pairs the live shard states into owned copies; the
        // remaining levels reduce the owned copies exactly like
        // merge_reduce (left.merge(right), level by level).
        let mut level: Vec<Box<dyn DynStreamAlg>> = Vec::new();
        for pair in self.shards.chunks(2) {
            let mut left = snap(pair[0].alg.as_ref())?;
            if let Some(right) = pair.get(1) {
                left.merge_dyn(right.alg.as_ref())
                    .map_err(|e| WbError::invalid(format!("sharded merge: {e}")))?;
            }
            level.push(left);
        }
        merge_reduce(level).map_err(|e| WbError::invalid(format!("sharded merge: {e}")))
    }

    /// Serialize the whole pipeline — every shard's algorithm state,
    /// random tape, and the routing bookkeeping — into one checkpoint
    /// frame, so warm sketch state can migrate to another pipeline (or
    /// survive a process kill) and resume ingestion mid-stream.
    ///
    /// Staged updates are flushed first: chunk boundaries are pure
    /// transport by the batching contract, so the early delivery changes
    /// nothing, and the frame then captures a state where
    /// `processed == loads` shard by shard (validated on
    /// [`ShardPipeline::resume`]). A pipeline with failed shards refuses to
    /// checkpoint — a failure is terminal for its run and carries a
    /// non-serializable error chain; callers surface the failure instead.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, SnapError> {
        self.flush();
        if self.first_failure().is_some() {
            return Err(SnapError::unsupported(
                "ShardPipeline with failed shards (surface the failure instead)",
            ));
        }
        let mut w = SnapWriter::new();
        w.put_usize(self.shards.len());
        w.put_u8(self.router.partition.tag());
        w.put_usize(self.router.batch);
        w.put_u64(self.router.pos);
        let loads: Vec<u64> = self.router.loads.iter().map(|&l| l as u64).collect();
        w.put_u64_seq(&loads);
        let processed: Vec<u64> = self.shards.iter().map(|s| s.processed).collect();
        w.put_u64_seq(&processed);
        for shard in &self.shards {
            shard.rng.snap(&mut w);
        }
        for shard in &self.shards {
            w.put_bytes(&shard.alg.snapshot_dyn()?);
        }
        Ok(w.finish())
    }

    /// Restore a [`ShardPipeline::checkpoint`] frame into this pipeline,
    /// which must be a twin: built by [`ShardPipeline::new`] with the same
    /// constructor and the same [`ShardConfig`] (shard count, partition,
    /// batch, master seed). Configuration mismatches are rejected before
    /// any state is touched; a frame whose bookkeeping is internally
    /// inconsistent (loads that don't sum to the stream position, staged
    /// updates that were never delivered) is [`SnapError::Corrupt`].
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let shards = r.take_usize()?;
        if shards != self.shards.len() {
            return Err(SnapError::mismatch(
                format!("{} shards", self.shards.len()),
                format!("{shards} shards"),
            ));
        }
        let partition = r.take_u8()?;
        if partition != self.router.partition.tag() {
            return Err(SnapError::mismatch(
                self.router.partition.label(),
                format!("partition tag {partition}"),
            ));
        }
        let batch = r.take_usize()?;
        if batch != self.router.batch {
            return Err(SnapError::mismatch(
                format!("batch {}", self.router.batch),
                format!("batch {batch}"),
            ));
        }
        let pos = r.take_u64()?;
        let loads = r.take_u64_seq()?;
        let processed = r.take_u64_seq()?;
        if loads.len() != shards || processed.len() != shards {
            return Err(SnapError::corrupt(format!(
                "per-shard bookkeeping for {} shards in a {shards}-shard frame",
                loads.len().max(processed.len())
            )));
        }
        if loads.iter().sum::<u64>() != pos {
            return Err(SnapError::corrupt(format!(
                "shard loads sum to {}, stream position is {pos}",
                loads.iter().sum::<u64>()
            )));
        }
        // checkpoint() flushes, so every routed update was delivered.
        if loads != processed {
            return Err(SnapError::corrupt(
                "checkpoint holds undelivered staged updates",
            ));
        }
        for shard in &mut self.shards {
            shard.rng.restore(&mut r)?;
        }
        for shard in &mut self.shards {
            let frame = r.take_bytes()?;
            shard.alg.restore_dyn(&frame)?;
        }
        r.finish()?;
        self.router.pos = pos;
        self.router.loads = loads
            .into_iter()
            .map(|l| usize::try_from(l).expect("load fits usize: it was a usize when captured"))
            .collect();
        for (shard, processed) in self.shards.iter_mut().zip(processed) {
            shard.processed = processed;
            shard.failure = None;
        }
        for s in &mut self.router.staging {
            s.clear();
        }
        self.dead = false;
        Ok(())
    }

    /// Flush, then fold the shard states into one with the deterministic
    /// reduction tree — the end-of-stream form ([`ingest_sharded_source`]'s
    /// epilogue). The first failure in shard order wins.
    pub fn finish(mut self) -> Result<ShardedIngest, WbError> {
        self.flush();
        let stats = self.stats();
        let ingested = self
            .shards
            .into_iter()
            .map(Shard::into_result)
            .collect::<Result<Vec<_>, WbError>>()?;
        let merged =
            merge_reduce(ingested).map_err(|e| WbError::invalid(format!("sharded merge: {e}")))?;
        Ok(ShardedIngest { merged, stats })
    }
}

/// `true` iff instances built by `ctor` can merge: constructs two fresh
/// instances and trial-merges them empty. Unmergeable algorithms and
/// parameter-incompatible constructions both return `false`; construction
/// failures propagate.
pub fn probe_mergeable(
    ctor: &dyn Fn(usize) -> Result<Box<dyn DynStreamAlg>, WbError>,
) -> Result<bool, WbError> {
    let mut a = ctor(0)?;
    let b = ctor(0)?;
    Ok(a.merge_dyn(b.as_ref()).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, Params};
    use crate::workload::{InspectSource, SliceSource};

    fn registry_ctor(
        name: &'static str,
        params: Params,
    ) -> impl Fn(usize) -> Result<Box<dyn DynStreamAlg>, WbError> {
        move |_shard| registry::get(name, &params)
    }

    fn zipfish(m: u64, n: u64) -> Vec<Update> {
        (0..m)
            .map(|t| {
                Update::Insert(match t % 10 {
                    0..=4 => 1,
                    5..=7 => 2,
                    _ => (t.wrapping_mul(2654435761)) % n,
                })
            })
            .collect()
    }

    #[test]
    fn sharded_linear_sketch_equals_single_stream_exactly() {
        // CountMin is linear: the merged table must be bit-identical to
        // single-stream ingestion, for both partitions.
        let params = Params::default().with_n(1 << 10);
        let updates = zipfish(4000, 1 << 10);
        let mut single = registry::get("count_min", &params).unwrap();
        let mut rng = TranscriptRng::from_seed(1);
        single.process_batch_dyn(&updates, &mut rng).unwrap();
        for partition in [Partition::Hash, Partition::RoundRobin] {
            let cfg = ShardConfig {
                shards: 4,
                partition,
                threads: 1,
                batch: 128,
                master_seed: 7,
            };
            let out = ingest_sharded_source(
                &registry_ctor("count_min", params.clone()),
                &mut SliceSource::new(&updates),
                &cfg,
            )
            .unwrap();
            assert_eq!(out.merged.query_dyn(), single.query_dyn(), "{partition:?}");
            assert_eq!(out.merged.space_bits_dyn(), single.space_bits_dyn());
            assert_eq!(out.stats.total(), 4000);
        }
    }

    #[test]
    fn sharded_counter_summary_is_deterministic_and_within_guarantee() {
        let params = Params::default().with_n(1 << 10);
        let updates = zipfish(6000, 1 << 10);
        let cfg = ShardConfig {
            shards: 8,
            partition: Partition::Hash,
            threads: 1,
            batch: 256,
            master_seed: 3,
        };
        let run = || {
            ingest_sharded_source(
                &registry_ctor("misra_gries", params.clone()),
                &mut SliceSource::new(&updates),
                &cfg,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.merged.query_dyn(), b.merged.query_dyn());
        // Items 1 (50%) and 2 (30%) are heavy and must be reported.
        let items = a.merged.query_dyn();
        let reported: Vec<u64> = items.as_items().unwrap().iter().map(|&(i, _)| i).collect();
        assert!(
            reported.contains(&1) && reported.contains(&2),
            "{reported:?}"
        );
    }

    #[test]
    fn unmergeable_algorithms_probe_false_and_error_on_ingest() {
        let params = Params::default().with_n(1 << 10);
        let ctor = registry_ctor("morris", params);
        assert!(!probe_mergeable(&ctor).unwrap());
        let cfg = ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        };
        let err = match ingest_sharded_source(
            &ctor,
            &mut SliceSource::new(&zipfish(64, 1 << 10)),
            &cfg,
        ) {
            Ok(_) => panic!("unmergeable multi-shard ingest must error"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("no sound merge"), "{err}");
    }

    #[test]
    fn mergeable_probe_accepts_the_mergeable_registry_subset() {
        let params = Params::default().with_n(1 << 10);
        for name in [
            "misra_gries",
            "space_saving",
            "count_min",
            "ams_f2",
            "exact_l0",
        ] {
            assert!(
                probe_mergeable(&registry_ctor(name, params.clone())).unwrap(),
                "{name} should merge"
            );
        }
        for name in ["morris", "median_morris", "robust_hh", "sis_l0"] {
            assert!(
                !probe_mergeable(&registry_ctor(name, params.clone())).unwrap(),
                "{name} should refuse to merge"
            );
        }
    }

    #[test]
    fn single_shard_is_a_plain_pass_through() {
        let params = Params::default().with_n(256);
        let updates = zipfish(512, 256);
        let cfg = ShardConfig::default();
        let out = ingest_sharded_source(
            &registry_ctor("space_saving", params.clone()),
            &mut SliceSource::new(&updates),
            &cfg,
        )
        .unwrap();
        let mut single = registry::get("space_saving", &params).unwrap();
        let mut rng = TranscriptRng::from_seed(cfg.shard_seed(0));
        for chunk in updates.chunks(cfg.batch) {
            single.process_batch_dyn(chunk, &mut rng).unwrap();
        }
        assert_eq!(out.merged.query_dyn(), single.query_dyn());
        assert_eq!(out.stats.loads, vec![512]);
        assert_eq!(out.stats.skew(), 1.0);
    }

    #[test]
    fn pipeline_matches_one_shot_ingest_across_push_granularities() {
        // Feeding the same stream through a long-lived ShardPipeline in
        // arbitrary request sizes must end in exactly the one-shot state:
        // chunk boundaries are pure transport.
        let params = Params::default().with_n(1 << 10);
        let updates = zipfish(3000, 1 << 10);
        let cfg = ShardConfig {
            shards: 4,
            partition: Partition::Hash,
            threads: 1,
            batch: 128,
            master_seed: 11,
        };
        let ctor = registry_ctor("misra_gries", params.clone());
        let offline = ingest_sharded_source(&ctor, &mut SliceSource::new(&updates), &cfg).unwrap();
        for granularity in [1usize, 7, 128, 1000] {
            let mut p = ShardPipeline::new(&ctor, &cfg).unwrap();
            for piece in updates.chunks(granularity) {
                p.push(piece);
            }
            assert_eq!(p.routed(), 3000);
            let out = p.finish().unwrap();
            assert_eq!(
                out.merged.query_dyn(),
                offline.merged.query_dyn(),
                "granularity {granularity}"
            );
            assert_eq!(out.stats, offline.stats, "granularity {granularity}");
        }
    }

    #[test]
    fn pipeline_snapshot_is_non_destructive_and_matches_finish() {
        let params = Params::default().with_n(1 << 10);
        let updates = zipfish(2000, 1 << 10);
        let cfg = ShardConfig {
            shards: 4,
            partition: Partition::Hash,
            threads: 1,
            batch: 64,
            master_seed: 5,
        };
        for name in ["misra_gries", "count_min", "exact_l0"] {
            let ctor = registry_ctor(name, params.clone());
            let mut p = ShardPipeline::new(&ctor, &cfg).unwrap();
            p.push(&updates[..1000]);
            // A mid-stream snapshot answers like an offline run of the
            // prefix...
            let mid = p.snapshot_merged(&ctor).unwrap();
            let mid_offline =
                ingest_sharded_source(&ctor, &mut SliceSource::new(&updates[..1000]), &cfg)
                    .unwrap();
            assert_eq!(mid.query_dyn(), mid_offline.merged.query_dyn(), "{name}");
            // ...and never perturbs the live shard states: keep ingesting
            // and both the next snapshot and the destructive finish agree
            // with the full offline run.
            p.push(&updates[1000..]);
            let full = p.snapshot_merged(&ctor).unwrap();
            let offline =
                ingest_sharded_source(&ctor, &mut SliceSource::new(&updates), &cfg).unwrap();
            assert_eq!(full.query_dyn(), offline.merged.query_dyn(), "{name}");
            let out = p.finish().unwrap();
            assert_eq!(out.merged.query_dyn(), offline.merged.query_dyn(), "{name}");
        }
    }

    #[test]
    fn pipeline_checkpoint_resume_matches_uninterrupted() {
        // Kill-and-resume fidelity: checkpoint mid-stream at an offset that
        // is not batch-aligned, restore into a twin, continue with the rest
        // of the stream, and the final merged answer (and stats) must be
        // identical to the uninterrupted pipeline.
        let params = Params::default().with_n(1 << 10);
        let updates = zipfish(3000, 1 << 10);
        let cfg = ShardConfig {
            shards: 4,
            partition: Partition::Hash,
            threads: 1,
            batch: 128,
            master_seed: 13,
        };
        for name in ["misra_gries", "count_min", "exact_l0", "ams_f2"] {
            let ctor = registry_ctor(name, params.clone());
            let mut uninterrupted = ShardPipeline::new(&ctor, &cfg).unwrap();
            uninterrupted.push(&updates);
            let expected = uninterrupted.finish().unwrap();

            let mut first = ShardPipeline::new(&ctor, &cfg).unwrap();
            first.push(&updates[..1357]);
            let frame = first.checkpoint().unwrap();
            drop(first); // the "killed" process

            let mut resumed = ShardPipeline::new(&ctor, &cfg).unwrap();
            resumed.resume(&frame).unwrap();
            assert_eq!(resumed.routed(), 1357, "{name}");
            resumed.push(&updates[1357..]);
            let out = resumed.finish().unwrap();
            assert_eq!(
                out.merged.query_dyn(),
                expected.merged.query_dyn(),
                "{name}"
            );
            assert_eq!(out.stats, expected.stats, "{name}");
        }
    }

    #[test]
    fn pipeline_resume_rejects_config_mismatches() {
        let params = Params::default().with_n(1 << 10);
        let ctor = registry_ctor("count_min", params);
        let cfg = ShardConfig {
            shards: 4,
            partition: Partition::Hash,
            threads: 1,
            batch: 128,
            master_seed: 13,
        };
        let mut p = ShardPipeline::new(&ctor, &cfg).unwrap();
        p.push(&zipfish(500, 1 << 10));
        let frame = p.checkpoint().unwrap();
        for wrong in [
            ShardConfig {
                shards: 2,
                ..cfg.clone()
            },
            ShardConfig {
                partition: Partition::RoundRobin,
                ..cfg.clone()
            },
            ShardConfig {
                batch: 64,
                ..cfg.clone()
            },
        ] {
            let mut twin = ShardPipeline::new(&ctor, &wrong).unwrap();
            assert!(
                matches!(twin.resume(&frame), Err(SnapError::Mismatch { .. })),
                "shards={} partition={} batch={}",
                wrong.shards,
                wrong.partition.label(),
                wrong.batch
            );
        }
        // Truncated frames are Truncated, not panics.
        let mut twin = ShardPipeline::new(&ctor, &cfg).unwrap();
        assert!(twin.resume(&frame[..frame.len() / 2]).is_err());
    }

    #[test]
    fn routing_hash_shard_is_splitmix_mod_s() {
        let mut g = SplitMix64::new(0x5eed);
        let items: Vec<u64> = [0, 1, u64::MAX]
            .into_iter()
            .chain((0..10_000).map(|_| g.next_u64()))
            .collect();
        for shards in (1..=64).chain([100, 1000, 65537]) {
            for &item in &items {
                assert_eq!(
                    hash_shard(item, shards),
                    (SplitMix64::new(item).next_u64() % shards as u64) as usize,
                    "item {item}, {shards} shards"
                );
            }
        }
    }

    /// `ShardPipeline::push` as a per-update loop: every update routed by
    /// `%` on its own, with `dead` tested before each. Frozen as the
    /// router's oracle; it drives the pipeline's own shards.
    fn push_per_update_oracle(p: &mut ShardPipeline, chunk: &[Update]) {
        let shards = p.shards.len() as u64;
        for u in chunk {
            if p.dead {
                return;
            }
            let s = match p.router.partition {
                Partition::Hash => (SplitMix64::new(u.item()).next_u64() % shards) as usize,
                Partition::RoundRobin => (p.router.pos % shards) as usize,
            };
            p.router.pos += 1;
            p.router.loads[s] += 1;
            p.router.staging[s].push(*u);
            if p.router.staging[s].len() >= p.router.batch {
                p.deliver(s);
            }
        }
    }

    #[test]
    fn routing_chunked_push_matches_the_per_update_router() {
        let params = Params::default().with_n(1 << 12);
        let mut g = SplitMix64::new(29);
        let turnstile: Vec<Update> = (0..3000)
            .map(|_| {
                let r = g.next_u64();
                let delta = if r & 3 == 0 { -1 } else { 2 };
                Update::Turnstile {
                    item: r >> 20,
                    delta,
                }
            })
            .collect();
        // Inserts, then deletions from position 1200 on: every shard of an
        // insert-only summary fails at its first chunk holding one.
        let failing: Vec<Update> = (0..3000u64)
            .map(|t| match t {
                0..=1199 => Update::Insert(t.wrapping_mul(2654435761) % 4096),
                _ => Update::Turnstile { item: t, delta: -1 },
            })
            .collect();
        let mut stopped_early = 0;
        for shards in [1, 2, 3, 4, 5, 7, 8] {
            for partition in [Partition::Hash, Partition::RoundRobin] {
                for batch in [1, 7, 64, 1024] {
                    let cfg = ShardConfig {
                        shards,
                        partition,
                        threads: 1,
                        batch,
                        master_seed: 21,
                    };
                    let at = format!("{shards} shards, {}, batch {batch}", partition.label());
                    let ctor = registry_ctor("ams_f2", params.clone());
                    let mut got = ShardPipeline::new(&ctor, &cfg).unwrap();
                    let mut want = ShardPipeline::new(&ctor, &cfg).unwrap();
                    for piece in turnstile.chunks(333) {
                        got.push(piece);
                        push_per_update_oracle(&mut want, piece);
                    }
                    assert_eq!(got.routed(), want.routed(), "{at}");
                    assert_eq!(got.stats(), want.stats(), "{at}");
                    assert_eq!(got.checkpoint(), want.checkpoint(), "{at}");

                    let ctor = registry_ctor("misra_gries", params.clone());
                    let mut got = ShardPipeline::new(&ctor, &cfg).unwrap();
                    let mut want = ShardPipeline::new(&ctor, &cfg).unwrap();
                    for piece in failing.chunks(333) {
                        got.push(piece);
                        push_per_update_oracle(&mut want, piece);
                    }
                    assert_eq!(got.routed(), want.routed(), "{at}");
                    assert_eq!(got.stats(), want.stats(), "{at}");
                    assert_eq!(got.all_failed(), want.all_failed(), "{at}");
                    assert_eq!(
                        got.first_failure().map(WbError::to_string),
                        want.first_failure().map(WbError::to_string),
                        "{at}"
                    );
                    stopped_early += usize::from(got.routed() < failing.len() as u64);
                }
            }
        }
        assert!(stopped_early > 0, "no configuration reached the stop point");
    }

    #[test]
    fn pipeline_reports_shard_annotated_failures() {
        // Deletions offered to an insertion-only summary must surface the
        // lowest shard's first failure, annotated with shard and offset —
        // exactly as the one-shot path reports it — and pushes after every
        // shard has failed must be harmless no-ops.
        let params = Params::default().with_n(1 << 10);
        let ctor = registry_ctor("misra_gries", params);
        let cfg = ShardConfig {
            shards: 2,
            partition: Partition::RoundRobin,
            threads: 1,
            batch: 4,
            master_seed: 9,
        };
        let mut p = ShardPipeline::new(&ctor, &cfg).unwrap();
        let deletions: Vec<Update> = (0..32)
            .map(|i| Update::Turnstile { item: i, delta: -1 })
            .collect();
        p.push(&deletions);
        assert!(p.all_failed());
        assert!(p.first_failure().is_some());
        let routed = p.routed();
        assert!(routed < 32, "routing must stop once every shard failed");
        p.push(&deletions); // no-op past the point of total failure
        assert_eq!(p.routed(), routed);
        let err = match p.finish() {
            Ok(_) => panic!("finish must report the failure"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    #[test]
    fn one_shot_ingest_stops_pulling_once_every_shard_failed() {
        // An all-deletion stream fails both shards of an insertion-only
        // summary at their first chunk; the pull loop must stop there
        // instead of draining the source.
        let params = Params::default().with_n(1 << 10);
        let cfg = ShardConfig {
            shards: 2,
            partition: Partition::RoundRobin,
            threads: 1,
            batch: 64,
            master_seed: 9,
        };
        let deletions: Vec<Update> = (0..1u64 << 16)
            .map(|i| Update::Turnstile {
                item: i % 1024,
                delta: -1,
            })
            .collect();
        let mut pulled = 0usize;
        let mut source = InspectSource::new(SliceSource::new(&deletions), |chunk: &[Update]| {
            pulled += chunk.len();
        });
        let err =
            match ingest_sharded_source(&registry_ctor("misra_gries", params), &mut source, &cfg) {
                Ok(_) => panic!("deletions must fail misra_gries"),
                Err(e) => e,
            };
        assert!(err.to_string().contains("shard 0:"), "{err}");
        assert!(
            pulled <= 4 * cfg.batch,
            "pulled {pulled} of {} updates after every shard failed",
            deletions.len()
        );
    }
}
