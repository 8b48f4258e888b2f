//! The `wbd` server: listener setup, tenant registry, and graceful drain.
//!
//! Every session is served by the epoll reactor ([`crate::reactor`]): one
//! event-loop thread multiplexes all sessions as nonblocking state
//! machines, and requests that block park as pending ops resumed by
//! pool-worker wakeups. The reactor is Linux-only, so off Linux
//! [`Server::start`] refuses with [`std::io::ErrorKind::Unsupported`].
//!
//! Sessions are stateless beyond their socket: every request names its
//! tenant, so one connection can drive many tenants and many connections
//! can drive one (ingest batches for a tenant are serialized through its
//! inbox wherever they arrive from). Ingestion runs on the shared
//! [`WorkerPool`].
//!
//! **Graceful drain.** A `shutdown` request (or [`Server::begin_drain`])
//! flips the draining flag: accepting stops, new `hello`/`ingest`
//! requests get a typed `draining` refusal, in-flight queries still answer,
//! idle sessions close, the pool finishes every accepted chunk, and the
//! final metrics snapshot is returned from [`Server::wait`] — no accepted
//! update is ever dropped.

use crate::json::Json;
use crate::metrics;
use crate::proto::{ErrorKind, ProtoError};
use crate::tenant::{Tenant, TenantSlot, WakeSink, WAKE_ONLY};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use wb_core::snap::write_atomic;
use wb_engine::pool::WorkerPool;

/// Upper bound on `--threads`: the ingest pool spawns one OS thread per
/// worker, so the flag is refused above this instead of spawning as many
/// threads as it names.
pub const MAX_THREADS: usize = 256;

/// Server configuration — the `wbd` flags.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`--listen`), e.g. `127.0.0.1:7070`; port `0` binds
    /// an ephemeral port (the loopback tests use this).
    pub listen: String,
    /// Ingest pool workers (`--threads`, at most [`MAX_THREADS`]; `0` =
    /// one per core).
    pub threads: usize,
    /// Default per-tenant shard count (`--shards`); unmergeable algorithms
    /// fall back to one flat instance regardless.
    pub shards: usize,
    /// Tenant cap (`--max-tenants`).
    pub max_tenants: usize,
    /// Per-tenant admission quota (`--max-updates-per-tenant`): an ingest
    /// batch that would push a tenant's lifetime `accepted` past this is
    /// refused whole with a typed `quota_exceeded` reply. `0` disables the
    /// quota.
    pub max_updates_per_tenant: u64,
    /// Ingest chunk size (`--chunk`, at most
    /// [`MAX_CHUNK`](wb_engine::shard::MAX_CHUNK)): the unit of inbox queueing
    /// and of the sharded pipelines' staging buffers.
    pub chunk: usize,
    /// Master seed (`--seed`); tenant seeds derive from it unless `hello`
    /// carries its own.
    pub seed: u64,
    /// Tenant persistence directory (`--state-dir`). When set, every
    /// tenant is snapshotted here after the graceful drain, every
    /// `*.wbsnap` file found here is restored at startup, and `snapshot`
    /// requests may omit their `path`. `None` disables persistence.
    pub state_dir: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:7070".to_string(),
            threads: 0,
            shards: 4,
            max_tenants: 4096,
            max_updates_per_tenant: 0,
            chunk: 1024,
            seed: 42,
            state_dir: None,
        }
    }
}

/// Reactor counters and gauges. Cheap relaxed atomics — the reactor
/// thread is the only writer for most of them.
#[derive(Default)]
pub struct ReactorStats {
    /// Session fds currently registered in epoll.
    pub registered: AtomicU64,
    /// Peak concurrently registered sessions.
    pub sessions_peak: AtomicU64,
    /// Ready events delivered by `epoll_wait`, cumulative.
    pub ready_events: AtomicU64,
    /// Wakeup tokens delivered through the hub, cumulative.
    pub wakeups: AtomicU64,
    /// Requests that parked as pending ops, cumulative.
    pub pending_ops: AtomicU64,
    /// Pool submissions refused by the bounded queue and deferred to the
    /// reactor's retry list, cumulative.
    pub deferred_submits: AtomicU64,
    /// Bytes currently queued in session write buffers.
    pub write_queue_bytes: AtomicU64,
    /// Socket writes that hit `WouldBlock` (client slow to read),
    /// cumulative.
    pub write_stalls: AtomicU64,
}

/// Shared daemon state: config, tenant registry, ingest pool, counters.
pub struct Shared {
    /// The launch configuration.
    pub cfg: DaemonConfig,
    /// Registered tenants (BTreeMap so metrics iterate deterministically).
    pub tenants: Mutex<BTreeMap<String, Arc<TenantSlot>>>,
    /// The ingest worker pool.
    pub pool: WorkerPool,
    /// Set once a drain begins; never cleared.
    pub draining: AtomicBool,
    /// Sessions ever opened.
    pub sessions_opened: AtomicU64,
    /// Sessions closed.
    pub sessions_closed: AtomicU64,
    /// Sessions currently live — maintained by explicit open/close
    /// transitions, not derived by subtracting the two counters above (a
    /// derived gauge masks lifecycle bugs: a double-close would push the
    /// subtraction silently toward zero instead of tripping the
    /// `closed <= opened` debug assertion).
    pub sessions_active: AtomicU64,
    /// Requests served (including error replies).
    pub requests: AtomicU64,
    /// Requests answered with a typed error.
    pub protocol_errors: AtomicU64,
    /// Reactor gauges.
    pub reactor: ReactorStats,
    /// Server start time.
    pub start: Instant,
}

/// Why [`Shared::register`] turned a tenant away.
pub enum Refusal {
    /// A tenant with this id is already registered: its live slot.
    Exists(Arc<TenantSlot>),
    /// The daemon is draining, or the `--max-tenants` cap is reached.
    Closed(ProtoError),
}

impl Shared {
    /// The admission rule for a new tenant `id` over the registry
    /// `tenants`: refused while draining, reported if the id is taken, and
    /// refused at the `--max-tenants` cap.
    fn admit(&self, tenants: &BTreeMap<String, Arc<TenantSlot>>, id: &str) -> Result<(), Refusal> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(Refusal::Closed(ProtoError::new(
                ErrorKind::Draining,
                "daemon is draining; no new tenants",
            )));
        }
        if let Some(slot) = tenants.get(id) {
            return Err(Refusal::Exists(Arc::clone(slot)));
        }
        if tenants.len() >= self.cfg.max_tenants {
            return Err(Refusal::Closed(ProtoError::new(
                ErrorKind::MaxTenants,
                format!("tenant cap {} reached", self.cfg.max_tenants),
            )));
        }
        Ok(())
    }

    /// Whether a tenant `id` would be admitted right now — a pre-check,
    /// so `hello` builds no algorithm it would have to throw away.
    pub fn check_admission(&self, id: &str) -> Result<(), Refusal> {
        self.admit(&crate::lock(&self.tenants), id)
    }

    /// The one way a tenant enters the registry (`hello`, `restore` and
    /// the `--state-dir` load at start-up). The admission rule and the
    /// insert run under one registry lock, so a drain that begins while a
    /// tenant is being built cannot gain a tenant it will never flush, and
    /// a registered tenant is never replaced.
    pub fn register(&self, tenant: Tenant) -> Result<(), Refusal> {
        let mut tenants = crate::lock(&self.tenants);
        self.admit(&tenants, &tenant.id)?;
        tenants.insert(tenant.id.clone(), Arc::new(TenantSlot::new(tenant)));
        Ok(())
    }
}

/// A running server over a [`Shared`].
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    /// The reactor's event-loop thread.
    reactor: JoinHandle<()>,
    /// Wakes the reactor out of `epoll_wait`.
    hub: Arc<dyn WakeSink>,
}

impl Server {
    /// Bind `cfg.listen` and start accepting. Returns once the listener is
    /// live (so callers can read [`Server::addr`] immediately).
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] if `cfg.threads` exceeds
    /// [`MAX_THREADS`]; binding or reactor set-up failures; off Linux,
    /// always [`std::io::ErrorKind::Unsupported`].
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Server> {
        if cfg.threads > MAX_THREADS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("threads must be at most {MAX_THREADS}, got {}", cfg.threads),
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = wb_engine::pool::effective_threads(cfg.threads);
        let pool = WorkerPool::new(cfg.threads, (workers * 4).max(16));
        let shared = Arc::new(Shared {
            cfg,
            tenants: Mutex::new(BTreeMap::new()),
            pool,
            draining: AtomicBool::new(false),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            reactor: ReactorStats::default(),
            start: Instant::now(),
        });
        if let Err(e) = load_state_dir(&shared) {
            eprintln!("wbd: state-dir restore failed: {e}");
        }
        let (reactor, hub) = spawn_reactor(&shared, listener)?;
        Ok(Server {
            shared,
            addr,
            reactor,
            hub,
        })
    }

    /// The bound address (resolves `--listen` port `0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (metrics snapshots, tests).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Flip the draining flag from outside a session (signal handlers,
    /// tests). Equivalent to a `shutdown` request.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.hub.wake(WAKE_ONLY);
    }

    /// Block until the server has fully drained: accepting stopped, every
    /// session closed, every accepted chunk applied. Returns the final
    /// metrics snapshot.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the reactor thread once the pool has drained
    /// and `--state-dir` has been persisted, so a daemon that lost its
    /// event loop exits non-zero instead of reporting a clean drain.
    pub fn wait(self) -> Json {
        // Poke the loop so it notices the drain flag without waiting out
        // its poll timeout.
        self.hub.wake(WAKE_ONLY);
        let reactor = self.reactor.join();
        // No producers remain: flush every queued chunk, then snapshot.
        self.shared.pool.drain();
        if let Err(e) = persist_state_dir(&self.shared) {
            eprintln!("wbd: state-dir persist failed: {e}");
        }
        if let Err(panic) = reactor {
            std::panic::resume_unwind(panic);
        }
        metrics::snapshot(&self.shared)
    }
}

/// Start the reactor thread over `listener`; returns its handle and its
/// wakeup hub.
#[cfg(target_os = "linux")]
fn spawn_reactor(
    shared: &Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<(JoinHandle<()>, Arc<dyn WakeSink>)> {
    let (poller, hub) = crate::reactor::init()?;
    let run_shared = Arc::clone(shared);
    let run_hub = Arc::clone(&hub);
    let handle = std::thread::spawn(move || {
        crate::reactor::run(run_shared, listener, poller, run_hub);
    });
    Ok((handle, hub))
}

/// The reactor is built on epoll, so `wbd` serves on Linux only.
#[cfg(not(target_os = "linux"))]
fn spawn_reactor(
    _shared: &Arc<Shared>,
    _listener: TcpListener,
) -> std::io::Result<(JoinHandle<()>, Arc<dyn WakeSink>)> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the epoll session reactor runs on Linux only",
    ))
}

/// Hex-encode a tenant id so arbitrary id strings stay filesystem-safe.
pub(crate) fn hex_id(id: &str) -> String {
    id.bytes().fold(String::new(), |mut s, b| {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
        s
    })
}

/// Startup half of `--state-dir`: restore every `*.wbsnap` file present,
/// in sorted file-name order. A corrupt file, or one the registry refuses
/// (the `--max-tenants` cap is reached, or an earlier file already
/// registered its tenant id), is reported and skipped — one bad snapshot
/// must not keep the daemon from serving the rest.
fn load_state_dir(shared: &Arc<Shared>) -> std::io::Result<()> {
    let Some(dir) = shared.cfg.state_dir.clone() else {
        return Ok(());
    };
    std::fs::create_dir_all(&dir)?;
    let mut paths: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wbsnap"))
        .collect();
    paths.sort();
    for p in paths {
        let loaded = std::fs::read(&p)
            .map_err(|e| e.to_string())
            .and_then(|b| Tenant::restore_bytes(&b).map_err(|e| e.to_string()))
            .and_then(|t| {
                let id = t.id.clone();
                shared.register(t).map_err(|refusal| match refusal {
                    Refusal::Exists(_) => format!("tenant '{id}' is already registered"),
                    Refusal::Closed(e) => e.message,
                })
            });
        if let Err(e) = loaded {
            eprintln!("wbd: skipping {}: {e}", p.display());
        }
    }
    Ok(())
}

/// Drain half of `--state-dir`: snapshot every live tenant. Failed tenants
/// cannot snapshot; they are reported and skipped.
fn persist_state_dir(shared: &Arc<Shared>) -> std::io::Result<()> {
    let Some(dir) = shared.cfg.state_dir.clone() else {
        return Ok(());
    };
    std::fs::create_dir_all(&dir)?;
    let tenants = crate::lock(&shared.tenants);
    for (id, slot) in tenants.iter() {
        let mut st = crate::lock(&slot.state);
        debug_assert!(st.inbox.is_empty(), "persist ran before the pool drained");
        match st.tenant.snapshot_bytes() {
            Ok(frame) => {
                let path = format!("{dir}/{}.wbsnap", hex_id(id));
                if let Err(e) = write_atomic(std::path::Path::new(&path), &frame) {
                    eprintln!("wbd: could not persist tenant '{id}': {e}");
                }
            }
            Err(e) => eprintln!("wbd: could not persist tenant '{id}': {e}"),
        }
    }
    Ok(())
}
