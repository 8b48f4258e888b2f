//! # wb-daemon — `wbd`, the multi-tenant white-box streaming daemon
//!
//! The engine's binaries play one game and exit; `wbd` is the
//! long-running form the paper's model actually describes — a shared
//! service whose co-tenants are the adversary. A single node accepts
//! newline-delimited JSON over TCP, multiplexes thousands of tenants onto
//! the [`wb_engine::pool`] work queue, shards mergeable tenants through
//! [`wb_engine::shard::ShardPipeline`]s, and answers sketch queries
//! online, with every backpressure point (tenant inboxes, pool queue)
//! bounded and counted.
//!
//! **Determinism contract.** A tenant's state is a pure function of its
//! own update sequence and its derived seeds
//! (`derive_seed(base, ["tenant", id])`, then `["ctor"]` / `["game"]`):
//! final answers are byte-identical to an offline engine run of the same
//! stream, for any session interleaving, `--threads` count, or ingest
//! batch sizes. The root `daemon_loopback` / `daemon_determinism` tests
//! assert exactly this.
//!
//! **White-box caveat.** Serving sketches over a socket does not hide
//! them: in this model every tenant's internal state and every random
//! word it has drawn are public by definition. `wbd` never pretends
//! otherwise — `snapshot-stats` and `metrics` expose state cheerfully;
//! only algorithms that are robust under full exposure should be deployed
//! multi-tenant. What stays secret is the *future* of each tape: the
//! tenant seed, which no reply carries (a `tenant_mismatch` reply names
//! both algorithms but says only whether the seed differs), and snapshot
//! frames, which hold the tape's generator state (README *Snapshot &
//! resume*).
//!
//! Modules: [`json`] (hand-rolled reader/writer), [`proto`] (wire types +
//! typed errors), [`tenant`] (per-tenant engine + inbox), [`dispatch`]
//! (re-entrant request handling), [`reactor`] (the epoll session loop,
//! Linux only), [`server`] (listener, tenant registry, graceful drain),
//! [`metrics`] (snapshots and the `top` view), [`client`] (the scripting
//! client). Off Linux the library builds, but [`Server::start`] refuses.

pub mod client;
pub mod dispatch;
pub mod json;
pub mod metrics;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod tenant;

pub use json::Json;
pub use proto::{ErrorKind, ProtoError, Request};
pub use server::{DaemonConfig, Server};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, taking the guard out of a [`PoisonError`] if a thread
/// panicked while holding it. Kernel panics are already caught inside
/// `Tenant::apply_chunk`; any other panic under a daemon lock is a bug,
/// but the counters and queues it guards stay readable, and one poisoned
/// tenant slot must not take metrics, the reactor or the other tenants
/// down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
