//! Metrics snapshots: the `metrics` JSON object and the `top` text view.
//!
//! Everything here is a *read*: snapshots lock each tenant slot briefly but
//! never wait for quiescence, so metrics stay responsive while ingestion
//! is saturated. Counter sources:
//!
//! | counter | source |
//! |---|---|
//! | per-tenant accepted/applied/rejected, rate | tenant counters |
//! | per-tenant pending chunks, inbox stalls | the bounded inbox |
//! | per-shard loads, skew | `wb_engine::shard::ShardStats` |
//! | pool depth, peak, submit stalls | `wb_engine::pool::PoolStats` |
//! | session lifecycle, request/error counts | server atomics |

use crate::json::{obj, Json};
use crate::server::Shared;
use crate::tenant::TenantState;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// Read the session lifecycle counters: `(opened, closed, active)`. The
/// active gauge is its own transition-tracked counter, not
/// `opened - closed` — deriving it by subtraction would mask lifecycle
/// drift (a double-close pushes the difference silently toward zero). The
/// debug assertion catches that drift at the source in test builds.
fn session_gauges(shared: &Shared) -> (u64, u64, u64) {
    let opened = shared.sessions_opened.load(Ordering::Relaxed);
    let closed = shared.sessions_closed.load(Ordering::Relaxed);
    let active = shared.sessions_active.load(Ordering::Relaxed);
    debug_assert!(
        closed <= opened,
        "session lifecycle drift: {closed} closed but only {opened} opened"
    );
    (opened, closed, active)
}

/// The per-tenant stats object (also the `snapshot-stats` payload).
pub fn tenant_json(st: &TenantState) -> Json {
    let t = &st.tenant;
    let mut members = vec![
        ("id", Json::from(t.id.as_str())),
        ("alg", Json::from(t.alg_name.as_str())),
        ("model", Json::from(t.model.label())),
        ("shards", Json::from(t.shards as u64)),
        ("accepted", Json::from(t.accepted)),
        ("applied", Json::from(t.applied)),
        ("rejected", Json::from(t.rejected)),
        ("batches", Json::from(t.batches)),
        ("queries", Json::from(t.queries)),
        ("ingest_rate_ups", Json::from(t.ingest_rate())),
        ("pending_chunks", Json::from(st.inbox.len() as u64)),
        ("inbox_stalls", Json::from(st.inbox_stalls)),
        ("space_bits", Json::from(t.space_bits())),
        ("failed", Json::Bool(t.failure().is_some())),
    ];
    if let Some(stats) = t.shard_stats() {
        members.push((
            "shard_loads",
            Json::Arr(stats.loads.iter().map(|&l| Json::from(l as u64)).collect()),
        ));
        members.push(("shard_skew", Json::from(stats.skew())));
    }
    obj(members)
}

/// The whole-daemon metrics object (the `metrics` payload and the final
/// drain snapshot).
pub fn snapshot(shared: &Shared) -> Json {
    let pool = shared.pool.stats();
    let (opened, closed, active) = session_gauges(shared);
    let tenants = crate::lock(&shared.tenants);
    let mut per_tenant = Vec::with_capacity(tenants.len());
    let (mut accepted, mut applied, mut rejected, mut inbox_stalls) = (0u64, 0u64, 0u64, 0u64);
    for slot in tenants.values() {
        let st = crate::lock(&slot.state);
        accepted += st.tenant.accepted;
        applied += st.tenant.applied;
        rejected += st.tenant.rejected;
        inbox_stalls += st.inbox_stalls;
        per_tenant.push(tenant_json(&st));
    }
    let reactor = &shared.reactor;
    obj(vec![
        (
            "uptime_ms",
            Json::from(shared.start.elapsed().as_millis() as u64),
        ),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
        (
            "sessions",
            obj(vec![
                ("opened", Json::from(opened)),
                ("closed", Json::from(closed)),
                ("active", Json::from(active)),
                (
                    "requests",
                    Json::from(shared.requests.load(Ordering::Relaxed)),
                ),
                (
                    "protocol_errors",
                    Json::from(shared.protocol_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "pool",
            obj(vec![
                ("workers", Json::from(shared.pool.workers() as u64)),
                ("submitted", Json::from(pool.submitted)),
                ("completed", Json::from(pool.completed)),
                ("depth", Json::from(pool.depth)),
                ("peak_depth", Json::from(pool.peak_depth)),
                ("submit_stalls", Json::from(pool.submit_stalls)),
                ("panicked", Json::from(pool.panicked)),
            ]),
        ),
        (
            "reactor",
            obj(vec![
                (
                    "registered",
                    Json::from(reactor.registered.load(Ordering::Relaxed)),
                ),
                (
                    "sessions_peak",
                    Json::from(reactor.sessions_peak.load(Ordering::Relaxed)),
                ),
                (
                    "ready_events",
                    Json::from(reactor.ready_events.load(Ordering::Relaxed)),
                ),
                (
                    "wakeups",
                    Json::from(reactor.wakeups.load(Ordering::Relaxed)),
                ),
                (
                    "pending_ops",
                    Json::from(reactor.pending_ops.load(Ordering::Relaxed)),
                ),
                (
                    "deferred_submits",
                    Json::from(reactor.deferred_submits.load(Ordering::Relaxed)),
                ),
                (
                    "write_queue_bytes",
                    Json::from(reactor.write_queue_bytes.load(Ordering::Relaxed)),
                ),
                (
                    "write_stalls",
                    Json::from(reactor.write_stalls.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "tenants",
            obj(vec![
                ("count", Json::from(tenants.len() as u64)),
                ("accepted", Json::from(accepted)),
                ("applied", Json::from(applied)),
                ("rejected", Json::from(rejected)),
                ("inbox_stalls", Json::from(inbox_stalls)),
            ]),
        ),
        ("per_tenant", Json::Arr(per_tenant)),
    ])
}

/// How many tenants the `top` view lists (heaviest first).
const TOP_ROWS: usize = 32;

/// Render the `wbd-top`-style text view: a header line plus the heaviest
/// tenants by accepted updates.
pub fn top_text(shared: &Shared) -> String {
    let pool = shared.pool.stats();
    let (opened, _closed, active) = session_gauges(shared);
    let tenants = crate::lock(&shared.tenants);
    let mut rows: Vec<(u64, String)> = Vec::with_capacity(tenants.len());
    for slot in tenants.values() {
        let st = crate::lock(&slot.state);
        let t = &st.tenant;
        let skew = t
            .shard_stats()
            .map_or("-".to_string(), |s| format!("{:.2}", s.skew()));
        rows.push((
            t.accepted,
            format!(
                "{:<16} {:<13} {:>6} {:>10} {:>8} {:>12.1} {:>6} {:>7} {:>11}{}",
                t.id,
                t.alg_name,
                t.shards,
                t.accepted,
                t.rejected,
                t.ingest_rate(),
                skew,
                st.inbox.len(),
                t.space_bits(),
                if t.failure().is_some() {
                    "  FAILED"
                } else {
                    ""
                },
            ),
        ));
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.0));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wbd  uptime {:.1}s  tenants {}  sessions {} active / {} total  \
         pool {} workers depth {} peak {} stalls {}",
        shared.start.elapsed().as_secs_f64(),
        tenants.len(),
        active,
        opened,
        shared.pool.workers(),
        pool.depth,
        pool.peak_depth,
        pool.submit_stalls,
    );
    let _ = writeln!(
        out,
        "{:<16} {:<13} {:>6} {:>10} {:>8} {:>12} {:>6} {:>7} {:>11}",
        "TENANT",
        "ALG",
        "SHARDS",
        "ACCEPTED",
        "REJECTED",
        "RATE(upd/s)",
        "SKEW",
        "PENDING",
        "SPACE(bits)",
    );
    for (_, row) in rows.into_iter().take(TOP_ROWS) {
        let _ = writeln!(out, "{row}");
    }
    out
}
