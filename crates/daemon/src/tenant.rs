//! Per-tenant state: one erased algorithm instance (sharded through a
//! [`ShardPipeline`] when the algorithm merges), its derived random tape,
//! a bounded ingest inbox, and the tenant-level counters the metrics layer
//! exports.
//!
//! **Determinism.** A tenant's final state is a pure function of its own
//! update sequence: ingest chunks are applied in arrival order by exactly
//! one worker at a time (the `scheduled` flag hands the tenant to a single
//! pool job; the inbox is FIFO), and all engine randomness derives from the
//! tenant seed — `derive_seed(base, ["tenant", id])`, then `["ctor"]` for
//! constructor randomness and `["game"]` for the ingest tape (the sharded
//! path feeds `["game"]` to [`ShardConfig::master_seed`], which derives the
//! per-shard tapes exactly as an offline run would). Chunk boundaries are
//! pure transport by the engine's batching contract, so the daemon's state
//! after any interleaving of sessions is byte-identical to an offline run
//! of the concatenated per-tenant stream — the white-box model's adversary
//! loses nothing by the engine being behind a socket.
//!
//! **Backpressure.** The inbox holds at most [`INBOX_CHUNKS`] chunks from
//! live sessions; a session pushing faster than the pool drains parks as
//! a [`Waiter`] (counted in `inbox_stalls`) and stops reading its socket,
//! so memory stays bounded per tenant and pressure propagates to the
//! client instead of the heap. The one exception is
//! [`TenantSlot::hand_off`]: a parked ingest whose client vanished queues
//! its already-allocated remainder past the bound rather than wait.

use crate::proto::{ErrorKind, HelloParams, ProtoError};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;
use wb_core::rng::{derive_seed, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::WbError;
use wb_engine::registry::{self, Params};
use wb_engine::shard::{
    probe_mergeable, Partition, ShardConfig, ShardPipeline, ShardStats, MAX_CHUNK, MAX_SHARDS,
};
use wb_engine::{Answer, DynStreamAlg, StreamModel, Update};

/// Bounded inbox depth, in chunks. Small on purpose: the pool, not the
/// inbox, is where throughput comes from; the inbox only decouples socket
/// reads from sketch updates.
pub const INBOX_CHUNKS: usize = 8;

/// The engine half of a tenant.
enum TenantEngine {
    /// One flat instance — the only mode for unmergeable algorithms.
    Flat {
        alg: Box<dyn DynStreamAlg>,
        rng: TranscriptRng,
    },
    /// A live sharded pipeline (mergeable algorithms, shards >= 2).
    Sharded { pipeline: ShardPipeline },
    /// The algorithm failed mid-stream (budget exhausted, …); the error is
    /// replayed to every later request.
    Failed { error: WbError },
}

/// A tenant: engine + identity + counters. Lives inside a
/// [`TenantSlot`]'s mutex.
pub struct Tenant {
    /// Tenant id (protocol string).
    pub id: String,
    /// Registry algorithm name.
    pub alg_name: String,
    /// The seed base `hello` declared (daemon master if omitted), kept so
    /// a repeated `hello` for this id can be checked against it.
    pub seed_base: u64,
    /// `derive_seed(seed_base, ["tenant", id])`.
    pub tenant_seed: u64,
    /// The algorithm's stream model, checked per update **before** a batch
    /// is accepted (so an accepted batch can never fail on model grounds
    /// inside the asynchronous ingest path).
    pub model: StreamModel,
    /// The universe bound of an algorithm that requires `item < n`
    /// ([`DynStreamAlg::universe_dyn`]), checked beside the model so an
    /// out-of-universe item is refused at admission, never applied.
    pub universe: Option<u64>,
    /// Constructor parameters (with the derived ctor seed) — kept so the
    /// sharded query path can build fresh merge targets.
    params: Params,
    /// Shard count (1 = flat).
    pub shards: usize,
    /// Ingest chunk size the engine was built with (the sharded pipeline's
    /// staging unit) — recorded in snapshots so a restored twin rebuilds
    /// the identical pipeline even under a different daemon `--chunk`.
    batch: usize,
    engine: TenantEngine,
    /// Updates accepted (whole batches; all-or-nothing).
    pub accepted: u64,
    /// Updates actually applied to the engine by workers. After a drain,
    /// `applied == accepted` for every tenant — the no-loss guarantee.
    pub applied: u64,
    /// Updates rejected at the protocol layer (model/shape), summed over
    /// rejected batches.
    pub rejected: u64,
    /// Accepted ingest batches.
    pub batches: u64,
    /// Queries answered.
    pub queries: u64,
    /// Creation time, for the cumulative ingest rate.
    pub created: Instant,
}

impl Tenant {
    /// Build a tenant: construct the algorithm from the registry (typed
    /// `invalid_parameter` errors for unknown names, `n == 0`, bad ε, …),
    /// probe mergeability, and set up the sharded pipeline when it applies.
    pub fn create(
        id: &str,
        alg_name: &str,
        seed_base: u64,
        hello: &HelloParams,
        default_shards: usize,
        batch: usize,
    ) -> Result<Tenant, ProtoError> {
        let tenant_seed = derive_seed(seed_base, &["tenant", id]);
        let mut params = Params::default().with_seed(derive_seed(tenant_seed, &["ctor"]));
        if let Some(n) = hello.n {
            params = params.with_n(n);
        }
        if let Some(eps) = hello.eps {
            params = params.with_eps(eps);
        }
        let invalid = |e: &WbError| ProtoError::new(ErrorKind::InvalidParameter, e.to_string());
        // Construct once up front so every parameter error surfaces here,
        // synchronously, as a typed reply — never inside the ingest path.
        let flat = registry::get(alg_name, &params).map_err(|e| invalid(&e))?;
        let model = flat.model_dyn();
        let universe = flat.universe_dyn();
        let wanted_shards = hello.shards.unwrap_or(default_shards).max(1);
        if wanted_shards > MAX_SHARDS {
            return Err(ProtoError::new(
                ErrorKind::InvalidParameter,
                format!("shards must be in [1, {MAX_SHARDS}], got {wanted_shards}"),
            ));
        }
        if batch > MAX_CHUNK {
            return Err(ProtoError::new(
                ErrorKind::InvalidParameter,
                format!("chunk must be at most {MAX_CHUNK}, got {batch}"),
            ));
        }
        let ctor = |_: usize| registry::get(alg_name, &params);
        let mergeable = wanted_shards > 1 && probe_mergeable(&ctor).map_err(|e| invalid(&e))?;
        let shards = if mergeable { wanted_shards } else { 1 };
        let game_seed = derive_seed(tenant_seed, &["game"]);
        let engine = if shards > 1 {
            let cfg = ShardConfig {
                shards,
                partition: Partition::Hash,
                threads: 1,
                batch,
                master_seed: game_seed,
            };
            TenantEngine::Sharded {
                pipeline: ShardPipeline::new(&ctor, &cfg).map_err(|e| invalid(&e))?,
            }
        } else {
            TenantEngine::Flat {
                alg: flat,
                rng: TranscriptRng::from_seed(game_seed),
            }
        };
        Ok(Tenant {
            id: id.to_string(),
            alg_name: alg_name.to_string(),
            seed_base,
            tenant_seed,
            model,
            universe,
            params,
            shards,
            batch,
            engine,
            accepted: 0,
            applied: 0,
            rejected: 0,
            batches: 0,
            queries: 0,
            created: Instant::now(),
        })
    }

    /// `hello` to an existing tenant must re-declare the same algorithm
    /// and seed base — a mismatch is a typed refusal, never a silent
    /// re-seed. The refusal names both algorithms but no seed: a base
    /// defaulted from the daemon's `--seed` is secret.
    pub fn check_hello_matches(&self, alg_name: &str, seed_base: u64) -> Result<(), ProtoError> {
        if self.alg_name != alg_name || self.seed_base != seed_base {
            let seed = if self.seed_base == seed_base {
                "the same seed"
            } else {
                "a different seed"
            };
            return Err(ProtoError::new(
                ErrorKind::TenantMismatch,
                format!(
                    "tenant '{}' exists with alg '{}' (got alg '{}' and {seed})",
                    self.id, self.alg_name, alg_name
                ),
            ));
        }
        Ok(())
    }

    /// Validate a batch against the tenant's stream model and universe
    /// *before* accepting it (all-or-nothing): the typed rejection carries
    /// the first offending index, reusing the engine's per-update rule
    /// ([`StreamModel::accepts`] mirrors `from_update_weighted`). An item
    /// at or above the universe bound of an algorithm that requires
    /// `item < n` is a `bad_request`.
    pub fn validate_batch(&self, updates: &[Update]) -> Result<(), ProtoError> {
        if let TenantEngine::Failed { error } = &self.engine {
            return Err(ProtoError::new(ErrorKind::TenantFailed, error.to_string()));
        }
        for (i, u) in updates.iter().enumerate() {
            if !self.model.accepts(u) {
                return Err(ProtoError::new(
                    ErrorKind::WrongModel,
                    format!(
                        "updates[{i}] {u:?} is outside {}'s {} model",
                        self.alg_name,
                        self.model.label()
                    ),
                ));
            }
            if let Some(n) = self.universe.filter(|&n| u.item() >= n) {
                return Err(ProtoError::new(
                    ErrorKind::BadRequest,
                    format!(
                        "updates[{i}] item {} is outside {}'s universe [0, {n})",
                        u.item(),
                        self.alg_name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Apply one accepted chunk (called by pool workers, in arrival
    /// order). Unexpected mid-stream failures (budget exhaustion — model
    /// errors were excluded at accept time) poison the tenant; the error
    /// replays on every later request. A panicking kernel poisons it the
    /// same way: the panic is caught here, so it never unwinds through the
    /// slot lock the worker holds, and its message becomes the error.
    pub fn apply_chunk(&mut self, chunk: &[Update]) {
        self.applied += chunk.len() as u64;
        let engine = &mut self.engine;
        let applied = panic::catch_unwind(AssertUnwindSafe(|| match engine {
            TenantEngine::Flat { alg, rng } => alg.process_batch_dyn(chunk, rng),
            TenantEngine::Sharded { pipeline } => {
                pipeline.push(chunk);
                if !pipeline.all_failed() {
                    return Ok(());
                }
                Err(pipeline
                    .first_failure()
                    .cloned()
                    .unwrap_or_else(|| WbError::invalid("sharded pipeline failed")))
            }
            TenantEngine::Failed { .. } => Ok(()),
        }));
        let error = match applied {
            Ok(Ok(())) => return,
            Ok(Err(error)) => error,
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("a non-string payload");
                WbError::Internal(format!(
                    "{} panicked while applying a chunk: {what}",
                    self.alg_name
                ))
            }
        };
        self.engine = TenantEngine::Failed { error };
    }

    /// Answer the tenant's fixed query. The sharded path flushes staging
    /// and merges into fresh instances without consuming shard state, so
    /// ingestion can continue afterwards.
    pub fn query(&mut self) -> Result<Answer, ProtoError> {
        self.queries += 1;
        match &mut self.engine {
            TenantEngine::Flat { alg, .. } => Ok(alg.query_dyn()),
            TenantEngine::Sharded { pipeline } => {
                let (alg_name, params) = (&self.alg_name, &self.params);
                let ctor = |_: usize| registry::get(alg_name, params);
                match pipeline.snapshot_merged(&ctor) {
                    Ok(merged) => Ok(merged.query_dyn()),
                    Err(error) => {
                        let reply = ProtoError::new(ErrorKind::TenantFailed, error.to_string());
                        self.engine = TenantEngine::Failed { error };
                        Err(reply)
                    }
                }
            }
            TenantEngine::Failed { error } => {
                Err(ProtoError::new(ErrorKind::TenantFailed, error.to_string()))
            }
        }
    }

    /// The failure poisoning this tenant, if any.
    pub fn failure(&self) -> Option<&WbError> {
        match &self.engine {
            TenantEngine::Failed { error } => Some(error),
            _ => None,
        }
    }

    /// Current space usage in bits (merged cost for sharded tenants is the
    /// sum of shard costs — that is what the node actually holds).
    pub fn space_bits(&self) -> u64 {
        match &self.engine {
            TenantEngine::Flat { alg, .. } => alg.space_bits_dyn(),
            TenantEngine::Sharded { pipeline } => pipeline.space_bits(),
            TenantEngine::Failed { .. } => 0,
        }
    }

    /// Per-shard routing stats (routed loads).
    /// `None` for flat tenants.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        match &self.engine {
            TenantEngine::Sharded { pipeline } => Some(pipeline.stats()),
            _ => None,
        }
    }

    /// Serialize this tenant's full state — identity, counters, and the
    /// live engine (sketch + transcript RNG, or the sharded pipeline) —
    /// into one `wb_core::snap` frame. Callers must quiesce first (empty
    /// inbox), so `applied == accepted` holds inside every frame. Failed
    /// tenants refuse: their error chains are not serializable and a
    /// restored twin could not honour the replay contract.
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        if self.failure().is_some() {
            return Err(SnapError::unsupported(format!(
                "tenant '{}' has failed and cannot be snapshotted",
                self.id
            )));
        }
        let mut w = SnapWriter::new();
        w.put_str("wbd-tenant");
        w.put_str(&self.id);
        w.put_str(&self.alg_name);
        w.put_u64(self.seed_base);
        w.put_u64(self.tenant_seed);
        w.put_u64(self.params.n);
        w.put_f64(self.params.eps);
        w.put_usize(self.shards);
        w.put_usize(self.batch);
        w.put_u64(self.accepted);
        w.put_u64(self.applied);
        w.put_u64(self.rejected);
        w.put_u64(self.batches);
        w.put_u64(self.queries);
        match &mut self.engine {
            TenantEngine::Flat { alg, rng } => {
                w.put_bool(false);
                w.put_bytes(&alg.snapshot_dyn()?);
                rng.snap(&mut w);
            }
            TenantEngine::Sharded { pipeline } => {
                w.put_bool(true);
                w.put_bytes(&pipeline.checkpoint()?);
            }
            TenantEngine::Failed { .. } => unreachable!("checked above"),
        }
        Ok(w.finish())
    }

    /// Rebuild a tenant from a [`Self::snapshot_bytes`] frame: construct a
    /// twin through the normal [`Self::create`] path (same derived seeds,
    /// same shard routing), then overwrite its mutable engine state and
    /// counters. The embedded `tenant_seed` and shard count cross-validate
    /// the reconstruction — a registry or seed-derivation drift surfaces as
    /// a typed error instead of a silently different tenant.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Tenant, SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let label = r.take_str()?;
        if label != "wbd-tenant" {
            return Err(SnapError::mismatch("wbd-tenant", label));
        }
        let id = r.take_str()?;
        let alg_name = r.take_str()?;
        let seed_base = r.take_u64()?;
        let tenant_seed = r.take_u64()?;
        let n = r.take_u64()?;
        let eps = r.take_f64()?;
        let shards = r.take_usize()?;
        let batch = r.take_usize()?;
        let accepted = r.take_u64()?;
        let applied = r.take_u64()?;
        let rejected = r.take_u64()?;
        let batches = r.take_u64()?;
        let queries = r.take_u64()?;
        if applied != accepted {
            return Err(SnapError::corrupt(format!(
                "tenant snapshot holds {applied} applied of {accepted} accepted updates; \
                 snapshots are only taken at quiescence"
            )));
        }
        let hello = HelloParams {
            n: Some(n),
            eps: Some(eps),
            shards: Some(shards.max(1)),
        };
        let mut t = Tenant::create(
            &id,
            &alg_name,
            seed_base,
            &hello,
            shards.max(1),
            batch.max(1),
        )
        .map_err(|e| SnapError::corrupt(format!("cannot rebuild tenant '{id}': {}", e.message)))?;
        if t.tenant_seed != tenant_seed {
            return Err(SnapError::corrupt(format!(
                "tenant '{id}' derives seed {} but the snapshot recorded {tenant_seed}",
                t.tenant_seed
            )));
        }
        if t.shards != shards {
            return Err(SnapError::corrupt(format!(
                "tenant '{id}' rebuilds with {} shards but the snapshot recorded {shards}",
                t.shards
            )));
        }
        let sharded = r.take_bool()?;
        let engine_bytes = r.take_bytes()?;
        match (&mut t.engine, sharded) {
            (TenantEngine::Flat { alg, rng }, false) => {
                alg.restore_dyn(&engine_bytes)?;
                rng.restore(&mut r)?;
            }
            (TenantEngine::Sharded { pipeline }, true) => pipeline.resume(&engine_bytes)?,
            _ => {
                return Err(SnapError::corrupt(format!(
                    "tenant '{id}' snapshot engine mode disagrees with its shard count"
                )))
            }
        }
        r.finish()?;
        t.accepted = accepted;
        t.applied = applied;
        t.rejected = rejected;
        t.batches = batches;
        t.queries = queries;
        Ok(t)
    }

    /// Cumulative ingest rate in updates/second since creation.
    pub fn ingest_rate(&self) -> f64 {
        let secs = self.created.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.accepted as f64 / secs
        } else {
            0.0
        }
    }
}

/// Where a parked session asks to be poked when a tenant's inbox makes
/// progress. The trait keeps `tenant.rs` free of the event loop: the
/// reactor implements it over its wakeup pipe.
pub trait WakeSink: Send + Sync {
    /// Record `token` as runnable and wake the event loop that owns it.
    fn wake(&self, token: u64);
}

/// A token no session carries: waking it only rouses the event loop (a
/// drain notification) and resumes nothing.
pub const WAKE_ONLY: u64 = 0;

/// One parked session: its token and the sink that reaches its reactor.
/// Registered under the slot lock while the blocking condition holds,
/// drained (woken) by the worker that changes the condition — the
/// classic no-lost-wakeup shape, with re-registration on spurious wakes.
pub struct Waiter {
    /// The session token the reactor resolves back to a pending op.
    pub token: u64,
    /// The owning reactor's wakeup sink.
    pub sink: std::sync::Arc<dyn WakeSink>,
}

/// What a session observes about a tenant while holding the slot lock.
pub struct TenantState {
    /// The tenant itself.
    pub tenant: Tenant,
    /// FIFO of accepted-but-unapplied chunks.
    pub inbox: VecDeque<Vec<Update>>,
    /// Whether a pool job currently owns this tenant's inbox.
    pub scheduled: bool,
    /// How often a session found the inbox full and had to park.
    pub inbox_stalls: u64,
    /// Sessions parked on this tenant (inbox space or quiescence). Every
    /// applied chunk and every worker hand-back drains the list;
    /// still-blocked sessions re-register after re-checking.
    pub waiters: Vec<Waiter>,
}

/// A registered tenant behind its lock.
pub struct TenantSlot {
    /// The guarded state.
    pub state: Mutex<TenantState>,
}

impl TenantSlot {
    /// Wrap a fresh tenant.
    pub fn new(tenant: Tenant) -> Self {
        TenantSlot {
            state: Mutex::new(TenantState {
                tenant,
                inbox: VecDeque::new(),
                scheduled: false,
                inbox_stalls: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Run the worker half: apply inbox chunks in FIFO order until the
    /// inbox is empty, then hand the tenant back (clear `scheduled`)
    /// atomically with the emptiness check, so no chunk is ever left
    /// behind without a worker owning it. Registered [`Waiter`]s are woken
    /// at every progress point.
    pub fn drain_inbox(&self) {
        let mut st = crate::lock(&self.state);
        loop {
            match st.inbox.pop_front() {
                Some(chunk) => {
                    // Applied under the lock: per-tenant serialization is
                    // what makes the daemon deterministic, and observers
                    // (queries) must never see a popped-but-unapplied
                    // chunk.
                    st.tenant.apply_chunk(&chunk);
                    wake_waiters(&mut st);
                }
                None => {
                    st.scheduled = false;
                    wake_waiters(&mut st);
                    return;
                }
            }
        }
    }

    /// Take over the rest of an admitted ingest whose session went away:
    /// its chunks are owed to the tenant (`accepted` already counts them),
    /// but nobody will resume the op. Appends them to the inbox in order —
    /// past [`INBOX_CHUNKS`], since they are already allocated and waiting
    /// for space would stall the caller's event loop — and claims the
    /// tenant if no worker owns it. Returns `true` when the caller must
    /// schedule a [`Self::drain_inbox`] job.
    pub fn hand_off(&self, chunks: VecDeque<Vec<Update>>) -> bool {
        let mut st = crate::lock(&self.state);
        st.inbox.extend(chunks);
        let claim = !st.scheduled && !st.inbox.is_empty();
        st.scheduled |= claim;
        claim
    }
}

/// Drain the waiter list, poking each sink. Spurious wakes are fine — the
/// reactor re-checks its pending condition and re-registers — so a single
/// list serves both "inbox space" and "quiescence" waiters without the
/// worker distinguishing them.
fn wake_waiters(st: &mut TenantState) {
    for w in st.waiters.drain(..) {
        w.sink.wake(w.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello_defaults() -> HelloParams {
        HelloParams {
            n: Some(1 << 10),
            eps: None,
            shards: None,
        }
    }

    #[test]
    fn create_routes_mergeable_algs_to_shards() {
        let t = Tenant::create("a", "misra_gries", 42, &hello_defaults(), 4, 64).unwrap();
        assert_eq!(t.shards, 4);
        assert!(t.shard_stats().is_some());
        let t = Tenant::create("a", "morris", 42, &hello_defaults(), 4, 64).unwrap();
        assert_eq!(t.shards, 1, "unmergeable algorithms stay flat");
        assert!(t.shard_stats().is_none());
    }

    #[test]
    fn create_rejects_bad_parameters_with_typed_errors() {
        let err = match Tenant::create("a", "no_such_alg", 42, &hello_defaults(), 1, 64) {
            Ok(_) => panic!("unknown algorithm must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        let zero_n = HelloParams {
            n: Some(0),
            eps: None,
            shards: None,
        };
        let err = match Tenant::create("a", "misra_gries", 42, &zero_n, 1, 64) {
            Ok(_) => panic!("n == 0 must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        assert!(err.message.contains("n"), "{}", err.message);
    }

    #[test]
    fn model_validation_rejects_before_accepting() {
        let t = Tenant::create("a", "misra_gries", 42, &hello_defaults(), 1, 64).unwrap();
        let bad = vec![Update::Insert(1), Update::Turnstile { item: 2, delta: -1 }];
        let err = t.validate_batch(&bad).unwrap_err();
        assert_eq!(err.kind, ErrorKind::WrongModel);
        assert!(err.message.contains("updates[1]"), "{}", err.message);
        // Turnstile tenants take everything.
        let t = Tenant::create("a", "exact_l0", 42, &hello_defaults(), 1, 64).unwrap();
        assert!(t.validate_batch(&bad).is_ok());
    }

    #[test]
    fn universe_validation_rejects_items_the_kernel_would_refuse() {
        let small = HelloParams {
            n: Some(16),
            eps: None,
            shards: None,
        };
        let t = Tenant::create("a", "sis_l0", 42, &small, 1, 64).unwrap();
        assert_eq!(t.universe, Some(16));
        let ok = vec![
            Update::Insert(0),
            Update::Turnstile {
                item: 15,
                delta: -2,
            },
        ];
        assert!(t.validate_batch(&ok).is_ok());
        let bad = vec![
            Update::Insert(3),
            Update::Turnstile {
                item: 100,
                delta: 1,
            },
        ];
        let err = t.validate_batch(&bad).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("updates[1]"), "{}", err.message);
        // Algorithms that take any item declare no bound.
        let t = Tenant::create("a", "exact_l0", 42, &small, 1, 64).unwrap();
        assert_eq!(t.universe, None);
        assert!(t.validate_batch(&bad).is_ok());
    }

    #[test]
    fn tenant_state_matches_offline_run_flat_and_sharded() {
        let updates: Vec<Update> = (0..500u64).map(|i| Update::Insert(i % 17)).collect();
        for default_shards in [1usize, 4] {
            let mut t = Tenant::create(
                "tenant-x",
                "misra_gries",
                99,
                &hello_defaults(),
                default_shards,
                64,
            )
            .unwrap();
            for chunk in updates.chunks(33) {
                t.apply_chunk(chunk);
            }
            let answer = t.query().unwrap();

            // Offline replica with the same derived seeds.
            let tenant_seed = derive_seed(99, &["tenant", "tenant-x"]);
            let params = Params::default()
                .with_seed(derive_seed(tenant_seed, &["ctor"]))
                .with_n(1 << 10);
            let game_seed = derive_seed(tenant_seed, &["game"]);
            let offline = if default_shards > 1 {
                let cfg = ShardConfig {
                    shards: default_shards,
                    partition: Partition::Hash,
                    threads: 1,
                    batch: 64,
                    master_seed: game_seed,
                };
                wb_engine::shard::ingest_sharded_source(
                    &|_| registry::get("misra_gries", &params),
                    &mut wb_engine::SliceSource::new(&updates),
                    &cfg,
                )
                .unwrap()
                .merged
                .query_dyn()
            } else {
                let mut alg = registry::get("misra_gries", &params).unwrap();
                let mut rng = TranscriptRng::from_seed(game_seed);
                alg.process_batch_dyn(&updates, &mut rng).unwrap();
                alg.query_dyn()
            };
            assert_eq!(answer, offline, "shards = {default_shards}");
        }
    }

    #[test]
    fn tenant_snapshot_restore_continues_draw_for_draw() {
        // Flat (morris: unmergeable, RNG-hungry) and sharded (misra_gries)
        // tenants, snapshotted mid-stream: the restored twin must end in
        // exactly the state of an uninterrupted tenant fed the same stream.
        let updates: Vec<Update> = (0..900u64).map(|i| Update::Insert(i % 23)).collect();
        for (alg, default_shards) in [("morris", 1usize), ("misra_gries", 4)] {
            let mut reference = Tenant::create("t", alg, 7, &hello_defaults(), default_shards, 64)
                .expect("reference tenant");
            for chunk in updates.chunks(50) {
                reference.apply_chunk(chunk);
            }
            let want = reference.query().unwrap();

            let mut live = Tenant::create("t", alg, 7, &hello_defaults(), default_shards, 64)
                .expect("live tenant");
            for chunk in updates[..450].chunks(50) {
                live.apply_chunk(chunk);
            }
            // `apply_chunk` is the worker half; the session half counts
            // acceptance. Mirror it so the quiescence invariant holds.
            live.accepted = live.applied;
            let frame = live.snapshot_bytes().expect("snapshot");
            let mut resumed = Tenant::restore_bytes(&frame).expect("restore");
            assert_eq!(resumed.accepted, live.accepted);
            assert_eq!(resumed.applied, live.applied);
            assert_eq!(resumed.shards, live.shards);
            for chunk in updates[450..].chunks(50) {
                resumed.apply_chunk(chunk);
            }
            assert_eq!(resumed.query().unwrap(), want, "alg = {alg}");
        }
    }

    #[test]
    fn tenant_restore_rejects_tampered_frames() {
        let mut t = Tenant::create("t", "count_min", 3, &hello_defaults(), 1, 64).unwrap();
        t.apply_chunk(&[Update::Insert(5); 20]);
        t.accepted = t.applied;
        let frame = t.snapshot_bytes().unwrap();
        // Truncation and bit-flips both surface as typed errors, never as a
        // silently different tenant.
        assert!(Tenant::restore_bytes(&frame[..frame.len() - 3]).is_err());
        let mut flipped = frame.clone();
        flipped[0] ^= 0xff; // magic
        assert!(Tenant::restore_bytes(&flipped).is_err());
        // The untampered frame still restores.
        assert!(Tenant::restore_bytes(&frame).is_ok());
    }

    /// Rewrite a tenant frame with a different `batch` field, every other
    /// field and the engine bytes kept.
    fn with_batch(frame: &[u8], batch: usize) -> Vec<u8> {
        let mut r = SnapReader::new(frame).unwrap();
        let mut w = SnapWriter::new();
        for _ in 0..3 {
            w.put_str(&r.take_str().unwrap()); // label, id, alg
        }
        for _ in 0..3 {
            w.put_u64(r.take_u64().unwrap()); // seed_base, tenant_seed, n
        }
        w.put_f64(r.take_f64().unwrap());
        w.put_usize(r.take_usize().unwrap()); // shards
        r.take_usize().unwrap();
        w.put_usize(batch);
        for _ in 0..5 {
            w.put_u64(r.take_u64().unwrap()); // counters
        }
        w.put_bool(r.take_bool().unwrap());
        w.put_bytes(&r.take_bytes().unwrap());
        r.finish().unwrap();
        w.finish()
    }

    #[test]
    fn restore_refuses_an_oversized_chunk_instead_of_allocating_it() {
        let mut t = Tenant::create("t", "misra_gries", 3, &hello_defaults(), 4, 64).unwrap();
        assert_eq!(t.shards, 4);
        t.apply_chunk(&[Update::Insert(5); 20]);
        t.accepted = t.applied;
        let frame = t.snapshot_bytes().unwrap();
        assert_eq!(with_batch(&frame, 64), frame, "the rewrite is faithful");
        assert!(Tenant::restore_bytes(&frame).is_ok());
        // Each shard would preallocate `batch` updates: 2^32 aborts the
        // process on allocation, 2^60 overflows the capacity computation.
        for batch in [MAX_CHUNK + 1, 1 << 32, 1 << 60] {
            let err = match Tenant::restore_bytes(&with_batch(&frame, batch)) {
                Ok(_) => panic!("batch {batch} must be refused"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains("chunk must be at most"), "{err}");
        }
        let err = match Tenant::create("t", "misra_gries", 3, &hello_defaults(), 4, 1 << 32) {
            Ok(_) => panic!("an oversized chunk must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
    }

    #[test]
    fn slot_drains_fifo_and_quiesces() {
        let t = Tenant::create("a", "count_min", 1, &hello_defaults(), 1, 64).unwrap();
        let slot = TenantSlot::new(t);
        {
            let mut st = slot.state.lock().unwrap();
            st.inbox.push_back(vec![Update::Insert(1); 10]);
            st.inbox.push_back(vec![Update::Insert(2); 5]);
            st.scheduled = true;
        }
        slot.drain_inbox();
        let st = slot.state.lock().unwrap();
        assert!(st.inbox.is_empty());
        assert!(!st.scheduled);
        assert_eq!(st.tenant.applied, 15);
    }

    /// A test-only kernel with a bug: every batch panics.
    struct Panicking;

    impl DynStreamAlg for Panicking {
        fn process_dyn(&mut self, _: &Update, _: &mut TranscriptRng) -> Result<(), WbError> {
            panic!("kernel bug: index out of range")
        }
        fn process_batch_dyn(
            &mut self,
            _: &[Update],
            _: &mut TranscriptRng,
        ) -> Result<(), WbError> {
            panic!("kernel bug: index out of range")
        }
        fn query_dyn(&self) -> Answer {
            Answer::Count(0)
        }
        fn space_bits_dyn(&self) -> u64 {
            0
        }
        fn name_dyn(&self) -> &'static str {
            "Panicking"
        }
        fn model_dyn(&self) -> StreamModel {
            StreamModel::InsertOnly
        }
        fn merge_dyn(&mut self, _: &dyn DynStreamAlg) -> Result<(), wb_core::MergeError> {
            Err(wb_core::MergeError::Unmergeable { alg: "Panicking" })
        }
        fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
            Ok(Vec::new())
        }
        fn restore_dyn(&mut self, _: &[u8]) -> Result<(), SnapError> {
            Ok(())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Records the tokens it is asked to wake.
    #[derive(Default)]
    struct Woken(Mutex<Vec<u64>>);

    impl WakeSink for Woken {
        fn wake(&self, token: u64) {
            self.0.lock().unwrap().push(token);
        }
    }

    #[test]
    fn a_panicking_kernel_fails_its_tenant_without_poisoning_a_lock() {
        // The panic message below is expected on stderr: the default hook
        // prints it before `apply_chunk` catches the unwind.
        let mut broken = Tenant::create("bad", "count_min", 1, &hello_defaults(), 1, 64).unwrap();
        broken.engine = TenantEngine::Flat {
            alg: Box::new(Panicking),
            rng: TranscriptRng::from_seed(1),
        };
        let bad = TenantSlot::new(broken);
        let good = TenantSlot::new(
            Tenant::create("ok", "count_min", 1, &hello_defaults(), 1, 64).unwrap(),
        );
        let sink = std::sync::Arc::new(Woken::default());
        for (slot, token) in [(&bad, 7), (&good, 8)] {
            let mut st = slot.state.lock().unwrap();
            st.tenant.accepted = 30;
            st.inbox.push_back(vec![Update::Insert(1); 10]);
            st.inbox.push_back(vec![Update::Insert(2); 20]);
            st.scheduled = true;
            st.waiters.push(Waiter {
                token,
                sink: sink.clone(),
            });
        }
        bad.drain_inbox();
        good.drain_inbox();

        assert!(!bad.state.is_poisoned() && !good.state.is_poisoned());
        assert_eq!(*sink.0.lock().unwrap(), [7, 8], "both waiters woken");
        let mut st = bad.state.lock().unwrap();
        assert!(st.inbox.is_empty() && !st.scheduled);
        assert_eq!(st.tenant.applied, st.tenant.accepted, "owed chunks counted");
        let ingest = st.tenant.validate_batch(&[Update::Insert(3)]).unwrap_err();
        assert_eq!(ingest.kind, ErrorKind::TenantFailed);
        assert!(
            ingest.message.contains("count_min panicked")
                && ingest.message.contains("kernel bug: index out of range"),
            "{}",
            ingest.message
        );
        assert_eq!(st.tenant.query().unwrap_err(), ingest);
        drop(st);

        let mut st = good.state.lock().unwrap();
        assert!(st.inbox.is_empty() && !st.scheduled);
        assert_eq!((st.tenant.applied, st.tenant.accepted), (30, 30));
        assert!(st.tenant.validate_batch(&[Update::Insert(3)]).is_ok());
        assert!(st.tenant.query().is_ok());
    }

    #[test]
    fn abandoned_ingest_hands_off_without_waiting_and_applies_in_order() {
        // A 28-chunk batch was admitted; its first INBOX_CHUNKS chunks filled
        // the inbox and its session parked on the other 20, then vanished.
        // The drain job owning the tenant is queued but no worker runs it.
        let updates: Vec<Update> = (0..28 * 16u64)
            .map(|i| Update::Insert(i * 7 % 97))
            .collect();
        let mut chunks: VecDeque<Vec<Update>> = updates.chunks(16).map(|c| c.to_vec()).collect();
        let t = Tenant::create("h", "misra_gries", 5, &hello_defaults(), 4, 16).unwrap();
        let slot = TenantSlot::new(t);
        {
            let mut st = slot.state.lock().unwrap();
            st.tenant.accepted = updates.len() as u64;
            st.inbox.extend(chunks.drain(..INBOX_CHUNKS));
            st.scheduled = true;
        }
        assert_eq!(chunks.len(), 20);
        assert!(!slot.hand_off(chunks), "an owned tenant needs no new job");
        assert_eq!(slot.state.lock().unwrap().inbox.len(), 28);
        slot.drain_inbox();

        let mut offline = Tenant::create("h", "misra_gries", 5, &hello_defaults(), 4, 16).unwrap();
        offline.apply_chunk(&updates);
        let mut st = slot.state.lock().unwrap();
        assert!(st.inbox.is_empty() && !st.scheduled);
        assert_eq!(st.tenant.applied, st.tenant.accepted);
        assert_eq!(st.tenant.query().unwrap(), offline.query().unwrap());
        drop(st);

        // An unowned tenant is claimed for the caller to schedule.
        assert!(slot.hand_off(VecDeque::from([vec![Update::Insert(1)]])));
        assert!(slot.state.lock().unwrap().scheduled);
        assert!(!slot.hand_off(VecDeque::new()));
    }
}
