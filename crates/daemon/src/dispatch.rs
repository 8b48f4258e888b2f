//! Re-entrant request dispatch for the reactor's sessions.
//!
//! A handler never blocks the event loop. When a request hits inbox
//! backpressure or needs quiescence, it registers the session's
//! [`Waiter`] under the slot lock and returns a [`PendingOp`], which the
//! reactor resumes once a pool worker wakes it. Pool submissions go through
//! `WorkerPool::try_submit`; a full queue defers the drain job to the
//! reactor's retry list. Everything else — admission checks, typed errors,
//! reply shapes, counter updates — is plain request/reply.
//!
//! A session has at most one [`PendingOp`] in flight: requests behind it
//! stay unread in the session buffer, which preserves per-session reply
//! order without any reply-slot bookkeeping (pipelined clients still get
//! their replies in request order).

use crate::json::{obj, Json};
use crate::metrics;
use crate::proto::{self, ErrorKind, ProtoError, Request};
use crate::server::{hex_id, write_atomic, Refusal, Shared};
use crate::tenant::{Tenant, TenantSlot, TenantState, Waiter, WakeSink, INBOX_CHUNKS};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wb_engine::Update;

/// The session a request runs for: where it parks when it blocks, and
/// where drain jobs the bounded pool queue refuses wait for a retry.
pub struct SessionCtx<'a> {
    /// Wakes the event loop that owns the session.
    pub sink: &'a Arc<dyn WakeSink>,
    /// The session's token.
    pub token: u64,
    /// The reactor's list of refused drain jobs.
    pub deferred: &'a mut VecDeque<Arc<TenantSlot>>,
}

impl SessionCtx<'_> {
    fn waiter(&self) -> Waiter {
        Waiter {
            token: self.token,
            sink: Arc::clone(self.sink),
        }
    }
}

/// Hand `slot`'s freshly-claimed inbox to a pool worker, or to `deferred`
/// when the bounded queue is full. Called with the slot lock released and
/// `scheduled` already set.
fn schedule(shared: &Shared, deferred: &mut VecDeque<Arc<TenantSlot>>, slot: &Arc<TenantSlot>) {
    let job = Arc::clone(slot);
    if shared
        .pool
        .try_submit(Box::new(move || job.drain_inbox()))
        .is_err()
    {
        shared
            .reactor
            .deferred_submits
            .fetch_add(1, Ordering::Relaxed);
        deferred.push_back(Arc::clone(slot));
    }
}

/// One dispatched request: either a finished reply or a parked operation.
pub enum Outcome {
    /// The reply is ready; `end` closes the session after it is sent.
    Reply {
        /// The reply line object.
        reply: Json,
        /// `true` for `bye`: flush the reply, then close.
        end: bool,
    },
    /// The request blocked with a waiter registered; the owning reactor
    /// resumes it on wakeup.
    Pending(PendingOp),
}

impl Outcome {
    fn reply(reply: Json) -> Outcome {
        Outcome::Reply { reply, end: false }
    }
}

/// A request parked on a tenant, waiting for inbox space or quiescence.
pub struct PendingOp {
    /// The tenant the op is parked on.
    pub slot: Arc<TenantSlot>,
    /// What remains to be done.
    pub kind: PendingKind,
}

/// The resumable half of each blocking request.
pub enum PendingKind {
    /// An admitted ingest with chunks still to enqueue. The whole batch
    /// was counted `accepted` at admission — these chunks are owed to the
    /// tenant even if the client disconnects (see [`abandon`]).
    Ingest {
        /// The admitted batch size, echoed in the reply.
        accepted: u64,
        /// Chunks not yet in the inbox.
        remaining: VecDeque<Vec<Update>>,
    },
    /// A `query` waiting for read-your-writes quiescence.
    Query,
    /// A `snapshot-stats` waiting for quiescence.
    SnapshotStats,
    /// A `snapshot` waiting for quiescence; the destination was resolved
    /// at dispatch time.
    Snapshot {
        /// Resolved destination file.
        path: String,
    },
}

/// A [`resume`] outcome.
pub enum Resumed {
    /// The op completed; here is its reply.
    Done(Json),
    /// Still blocked; a fresh waiter was registered.
    Still(PendingOp),
}

/// Dispatch one request line.
pub fn handle_line(shared: &Arc<Shared>, ctx: &mut SessionCtx<'_>, line: &str) -> Outcome {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err(e) => return Outcome::reply(e.to_json()),
    };
    match request {
        Request::Hello {
            tenant,
            alg,
            seed,
            params,
        } => Outcome::reply(
            handle_hello(shared, &tenant, &alg, seed, &params).unwrap_or_else(|e| e.to_json()),
        ),
        Request::Ingest { tenant, updates } => handle_ingest(shared, ctx, &tenant, updates)
            .unwrap_or_else(|e| Outcome::reply(e.to_json())),
        Request::Query { tenant } => handle_quiescent(shared, ctx, &tenant, PendingKind::Query),
        Request::SnapshotStats { tenant } => {
            handle_quiescent(shared, ctx, &tenant, PendingKind::SnapshotStats)
        }
        Request::Snapshot { tenant, path } => match snapshot_path(shared, &tenant, path.as_deref())
        {
            Ok(path) => handle_quiescent(shared, ctx, &tenant, PendingKind::Snapshot { path }),
            Err(e) => Outcome::reply(e.to_json()),
        },
        Request::Restore { path } => {
            Outcome::reply(handle_restore(shared, &path).unwrap_or_else(|e| e.to_json()))
        }
        Request::Metrics => Outcome::reply(obj(vec![
            ("ok", Json::Bool(true)),
            ("metrics", metrics::snapshot(shared)),
        ])),
        Request::Top => Outcome::reply(obj(vec![
            ("ok", Json::Bool(true)),
            ("text", Json::from(metrics::top_text(shared).as_str())),
        ])),
        Request::Bye => Outcome::Reply {
            reply: obj(vec![("ok", Json::Bool(true))]),
            end: true,
        },
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            Outcome::reply(obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ]))
        }
    }
}

/// Retry a parked op after a tenant wakeup. Spurious wakes re-register:
/// the op either completes now or parks again with a fresh waiter.
pub fn resume(shared: &Arc<Shared>, ctx: &mut SessionCtx<'_>, op: PendingOp) -> Resumed {
    let PendingOp { slot, kind } = op;
    match kind {
        PendingKind::Ingest {
            accepted,
            mut remaining,
        } => match push_chunks(shared, ctx, &slot, &mut remaining) {
            Pushed::Complete { pending } => Resumed::Done(ingest_reply(accepted, pending)),
            Pushed::Blocked => Resumed::Still(PendingOp {
                slot,
                kind: PendingKind::Ingest {
                    accepted,
                    remaining,
                },
            }),
        },
        kind => {
            let mut st = slot.state.lock().unwrap();
            if st.inbox.is_empty() && !st.scheduled {
                let reply = finish_quiescent(&mut st, &kind).unwrap_or_else(|e| e.to_json());
                drop(st);
                Resumed::Done(reply)
            } else {
                st.waiters.push(ctx.waiter());
                drop(st);
                Resumed::Still(PendingOp { slot, kind })
            }
        }
    }
}

/// Hand a parked op's owed work to its tenant when its session goes
/// away. An ingest was admitted (`accepted` counted), so its remaining
/// chunks still reach the inbox — the no-loss drain invariant
/// (`applied == accepted`) does not care who was listening — through
/// [`TenantSlot::hand_off`], which never waits. Parked reads are dropped.
pub fn abandon(shared: &Shared, deferred: &mut VecDeque<Arc<TenantSlot>>, op: PendingOp) {
    if let PendingKind::Ingest { remaining, .. } = op.kind {
        if op.slot.hand_off(remaining) {
            schedule(shared, deferred, &op.slot);
        }
    }
}

fn handle_hello(
    shared: &Arc<Shared>,
    tenant: &str,
    alg: &str,
    seed: Option<u64>,
    params: &proto::HelloParams,
) -> Result<Json, ProtoError> {
    let seed_base = seed.unwrap_or(shared.cfg.seed);
    // A `hello` for a registered tenant adopts it if the algorithm and
    // seed match.
    let adopt = |slot: &TenantSlot| -> Result<Json, ProtoError> {
        let st = slot.state.lock().unwrap();
        st.tenant.check_hello_matches(alg, seed_base)?;
        Ok(hello_reply(&st.tenant))
    };
    match shared.check_admission(tenant) {
        Ok(()) => {}
        Err(Refusal::Exists(slot)) => return adopt(&slot),
        Err(Refusal::Closed(e)) => return Err(e),
    }
    // Construct outside the tenants lock: building an algorithm (ctor +
    // probe_mergeable + shard instances) can be slow, and holding the map
    // mutex would stall every request that needs a tenant lookup across
    // all tenants for the duration. (On the reactor this construction
    // happens on the event-loop thread — a deliberate tradeoff: `hello`
    // is rare next to ingest, and a CPU-bound ctor delays other sessions
    // by the construction time but never deadlocks them.)
    let created = Tenant::create(
        tenant,
        alg,
        seed_base,
        params,
        shared.cfg.shards,
        shared.cfg.chunk,
    )?;
    let reply = hello_reply(&created);
    match shared.register(created) {
        Ok(()) => Ok(reply),
        // Lost a create race with another session. Both constructions are
        // byte-identical (the same derived seeds), so adopt the winner.
        Err(Refusal::Exists(slot)) => adopt(&slot),
        Err(Refusal::Closed(e)) => Err(e),
    }
}

fn handle_ingest(
    shared: &Arc<Shared>,
    ctx: &mut SessionCtx<'_>,
    tenant: &str,
    updates: Vec<Update>,
) -> Result<Outcome, ProtoError> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(ProtoError::new(
            ErrorKind::Draining,
            "daemon is draining; ingest refused",
        ));
    }
    let slot = lookup(shared, tenant)?;
    let accepted = updates.len() as u64;
    {
        let mut st = slot.state.lock().unwrap();
        if let Err(e) = st.tenant.validate_batch(&updates) {
            st.tenant.rejected += accepted;
            return Err(e);
        }
        let quota = shared.cfg.max_updates_per_tenant;
        if quota > 0 && st.tenant.accepted.saturating_add(accepted) > quota {
            st.tenant.rejected += accepted;
            return Err(ProtoError::new(
                ErrorKind::QuotaExceeded,
                format!(
                    "tenant '{tenant}' has accepted {} of its {quota}-update quota; \
                     a batch of {accepted} does not fit",
                    st.tenant.accepted
                ),
            ));
        }
        // Accepted: all-or-nothing, counted before queueing so a drain
        // that starts right now still applies every one of these updates.
        st.tenant.accepted += accepted;
        st.tenant.batches += 1;
    }
    // A batch that fits in one chunk is queued as it was parsed; a longer
    // one is cut into `chunk`-sized pieces.
    let chunk = shared.cfg.chunk.max(1);
    let mut remaining: VecDeque<Vec<Update>> = if updates.len() > chunk {
        updates.chunks(chunk).map(<[Update]>::to_vec).collect()
    } else if updates.is_empty() {
        VecDeque::new()
    } else {
        VecDeque::from([updates])
    };
    match push_chunks(shared, ctx, &slot, &mut remaining) {
        Pushed::Complete { pending } => Ok(Outcome::reply(ingest_reply(accepted, pending))),
        Pushed::Blocked => Ok(Outcome::Pending(PendingOp {
            slot,
            kind: PendingKind::Ingest {
                accepted,
                remaining,
            },
        })),
    }
}

/// A [`push_chunks`] outcome.
enum Pushed {
    /// Every chunk reached the inbox; `pending` is the inbox depth at
    /// completion (the reply's `pending_chunks`).
    Complete {
        /// Inbox depth when the last chunk landed.
        pending: u64,
    },
    /// The inbox filled; a waiter was registered.
    Blocked,
}

/// Move chunks from `remaining` into the slot inbox, scheduling a drain
/// job the moment the inbox goes from unowned to owned (before any later
/// chunk can hit a full inbox — the drain job is the only thing that
/// frees space, so a batch longer than `INBOX_CHUNKS` chunks would
/// otherwise wait on a job never submitted).
fn push_chunks(
    shared: &Arc<Shared>,
    ctx: &mut SessionCtx<'_>,
    slot: &Arc<TenantSlot>,
    remaining: &mut VecDeque<Vec<Update>>,
) -> Pushed {
    let mut st = slot.state.lock().unwrap();
    loop {
        if remaining.is_empty() {
            return Pushed::Complete {
                pending: st.inbox.len() as u64,
            };
        }
        if st.inbox.len() >= INBOX_CHUNKS {
            st.inbox_stalls += 1;
            st.waiters.push(ctx.waiter());
            return Pushed::Blocked;
        }
        let piece = remaining.pop_front().expect("checked non-empty");
        st.inbox.push_back(piece);
        if !st.scheduled {
            // Submit outside the slot lock, so a pool worker never finds
            // the tenant locked by the event loop.
            st.scheduled = true;
            drop(st);
            schedule(shared, ctx.deferred, slot);
            st = slot.state.lock().unwrap();
        }
    }
}

fn ingest_reply(accepted: u64, pending: u64) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("accepted", Json::from(accepted)),
        ("pending_chunks", Json::from(pending)),
    ])
}

/// Serve a read op that needs quiescence (`query`, `snapshot-stats`,
/// `snapshot`): answer now if the tenant is quiescent, park otherwise.
fn handle_quiescent(
    shared: &Arc<Shared>,
    ctx: &mut SessionCtx<'_>,
    tenant: &str,
    kind: PendingKind,
) -> Outcome {
    let slot = match lookup(shared, tenant) {
        Ok(slot) => slot,
        Err(e) => return Outcome::reply(e.to_json()),
    };
    let mut st = slot.state.lock().unwrap();
    if !st.inbox.is_empty() || st.scheduled {
        st.waiters.push(ctx.waiter());
        drop(st);
        return Outcome::Pending(PendingOp { slot, kind });
    }
    let reply = finish_quiescent(&mut st, &kind).unwrap_or_else(|e| e.to_json());
    Outcome::reply(reply)
}

/// Complete a quiescent read op under the slot lock (inbox empty, no
/// worker owns the tenant).
fn finish_quiescent(st: &mut TenantState, kind: &PendingKind) -> Result<Json, ProtoError> {
    match kind {
        PendingKind::Query => {
            let answer = st.tenant.query()?;
            Ok(obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", Json::from(st.tenant.id.as_str())),
                ("answer", proto::answer_to_json(&answer)),
                ("space_bits", Json::from(st.tenant.space_bits())),
                ("processed", Json::from(st.tenant.applied)),
            ]))
        }
        PendingKind::SnapshotStats => Ok(obj(vec![
            ("ok", Json::Bool(true)),
            ("stats", metrics::tenant_json(st)),
        ])),
        PendingKind::Snapshot { path } => {
            let frame = st
                .tenant
                .snapshot_bytes()
                .map_err(|e| ProtoError::new(ErrorKind::SnapshotFailed, e.to_string()))?;
            write_atomic(std::path::Path::new(path), &frame).map_err(|e| {
                ProtoError::new(
                    ErrorKind::SnapshotFailed,
                    format!("could not write {path}: {e}"),
                )
            })?;
            Ok(obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", Json::from(st.tenant.id.as_str())),
                ("path", Json::from(path.as_str())),
                ("bytes", Json::from(frame.len() as u64)),
                ("applied", Json::from(st.tenant.applied)),
            ]))
        }
        PendingKind::Ingest { .. } => unreachable!("ingest resumes through push_chunks"),
    }
}

/// Resolve where a `snapshot` writes: the request's explicit path, else
/// the daemon's `--state-dir` (with the tenant id hex-encoded so arbitrary
/// id strings stay filesystem-safe).
fn snapshot_path(shared: &Shared, tenant: &str, path: Option<&str>) -> Result<String, ProtoError> {
    match (path, &shared.cfg.state_dir) {
        (Some(p), _) => Ok(p.to_string()),
        (None, Some(dir)) => Ok(format!("{dir}/{}.wbsnap", hex_id(tenant))),
        (None, None) => Err(ProtoError::new(
            ErrorKind::BadRequest,
            "snapshot needs a 'path' (or start wbd with --state-dir)",
        )),
    }
}

fn handle_restore(shared: &Arc<Shared>, path: &str) -> Result<Json, ProtoError> {
    let bytes = std::fs::read(path).map_err(|e| {
        ProtoError::new(
            ErrorKind::SnapshotFailed,
            format!("could not read {path}: {e}"),
        )
    })?;
    let restored = Tenant::restore_bytes(&bytes).map_err(|e| {
        ProtoError::new(
            ErrorKind::SnapshotFailed,
            format!("could not restore {path}: {e}"),
        )
    })?;
    let mut reply = hello_reply(&restored);
    if let Json::Obj(members) = &mut reply {
        members.push(("applied".to_string(), Json::from(restored.applied)));
    }
    let id = restored.id.clone();
    match shared.register(restored) {
        Ok(()) => Ok(reply),
        Err(Refusal::Exists(_)) => Err(ProtoError::new(
            ErrorKind::TenantMismatch,
            format!("tenant '{id}' already exists; restore refuses to replace live state"),
        )),
        Err(Refusal::Closed(e)) => Err(e),
    }
}

/// Look up `tenant`, typed-erroring when it has not said `hello`.
fn lookup(shared: &Arc<Shared>, tenant: &str) -> Result<Arc<TenantSlot>, ProtoError> {
    shared
        .tenants
        .lock()
        .unwrap()
        .get(tenant)
        .cloned()
        .ok_or_else(|| {
            ProtoError::new(
                ErrorKind::UnknownTenant,
                format!("tenant '{tenant}' has not said hello"),
            )
        })
}

pub(crate) fn hello_reply(t: &Tenant) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("tenant", Json::from(t.id.as_str())),
        ("alg", Json::from(t.alg_name.as_str())),
        ("model", Json::from(t.model.label())),
        ("shards", Json::from(t.shards as u64)),
        ("tenant_seed", Json::from(t.tenant_seed)),
    ])
}
