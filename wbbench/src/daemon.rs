//! `daemon_mixed`: a separately spawned `wbd` driven over loopback.
//!
//! `wbd --threads 1 --listen 127.0.0.1:0` runs its epoll reactor plus one
//! pool worker. The load generator is this process with two connections,
//! one thread each — sized for a two-core machine. The loop is closed:
//! each connection keeps a fixed window of pipelined requests in flight
//! and sends the next only when a reply frees a slot, so a slower daemon
//! receives less load and latency includes queueing behind the window.
//!
//! Traffic: eight tenants (four per connection), all with n = 4096 so
//! every generated item stays inside each tenant's universe. Fast
//! sharded tenants (`count_min`, `misra_gries`, `ams_f2` turnstile; the
//! daemon's default four shards) carry most updates; a small share goes
//! to slow flat ones (`robust_hh`, `sis_l0`). Ingest batches hold 1024
//! updates, and every tenant asks a read-your-writes `query` after each
//! sixteenth of its ingests. Request lines are generated from the seed
//! before the daemon starts and cycled; `wbd` receives only those lines.
//!
//! Measurement: throughput and per-ingest cost are `wbd`'s own CPU time
//! (its per-process CPU clock, all threads), sampled over every
//! [`INGESTS_PER_SAMPLE`] acknowledged ingests while the connections run.
//! The daemon hands every request between three threads on two CPUs, so
//! its wall-clock rate follows how quickly the host lets a sleeping vCPU
//! run again: the same build measured 2.2 to 7.1 M updates/s of wall time
//! from one quarter of an hour to the next.
//! The wall-clock rate and request latencies are printed in the report and
//! are per-layer metrics of the traced run.
//!
//! Correctness: after the run every tenant's final answer must equal an
//! in-process `Tenant::create`/`apply_chunk`/`query` replay of the same
//! acknowledged batches, and the daemon's own `metrics` must show
//! `applied == accepted`. A daemon that exits or stops replying ends the
//! run within [`REPLY_TIMEOUT`], with every unanswered request failed.

use crate::stats::{median, median_of, peak_rss_mb, process_cpu_s, quantile, tail_q, thread_cpu_s};
use crate::trace::Tracer;
use crate::{E2e, Layers, Pass};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wb_core::rng::{derive_seed, SplitMix64};
use wb_daemon::json::Json;
use wb_daemon::proto::{self, HelloParams};
use wb_daemon::tenant::Tenant;
use wb_engine::registry::{self, Params};
use wb_engine::shard::{Partition, ShardConfig, ShardPipeline};
use wb_engine::Update;

/// Every tenant's universe.
const N: u64 = 4096;
/// Updates per ingest request.
const BATCH: usize = 1024;
/// Distinct pre-generated ingest lines per tenant, cycled.
const POOL_LINES: usize = 64;
/// A tenant queries after this many of its own ingests.
const QUERY_EVERY: u32 = 16;
/// Pipelined requests in flight per connection.
const WINDOW: usize = 4;
/// The daemon's shard count and ingest chunk (its defaults).
const SHARDS: usize = 4;
const DAEMON_CHUNK: usize = 1024;
/// How long any single reply may take before the daemon counts as
/// stalled.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Daemon start-ups timed per run; set-up reports their median.
const SETUP_REPS: usize = 15;
/// `wbd`'s CPU clock is read once at least this many ingests were
/// acknowledged since the last read, so that a sample holds the same
/// amount of work however fast the host lets the run go (samples of fixed
/// time hold fewer ingests when it is slow, and their tail then spreads
/// further).
const INGESTS_PER_SAMPLE: u64 = 128;
/// How often the acknowledged-ingest count is polled.
const POLL: Duration = Duration::from_millis(5);
/// The per-ingest cost's tail quantile, fixed so that it does not move
/// with the sample count (a run yields several hundred samples, so at
/// least ten lie beyond it; fewer than 200 fall back to [`tail_q`]).
const SAMPLE_TAIL: f64 = 0.95;
/// The attribution check's accepted range for the share of `wbd`'s CPU
/// time per update that the in-process layer costs explain. Seen: 64–91%;
/// the run and the in-process replay happen at different moments of a
/// shared host whose speed moves by up to ±25%, hence the wide floor.
const EXPLAINED: (f64, f64) = (0.4, 1.1);

/// (algorithm, turnstile, shards override, weight) per connection slot;
/// connection 0 gets `robust_hh` and connection 1 `sis_l0` in the slow
/// slot.
const FAST: &[(&str, bool)] = &[
    ("count_min", false),
    ("misra_gries", false),
    ("ams_f2", true),
];
const SLOW: &[(&str, bool)] = &[("robust_hh", false), ("sis_l0", true)];
const FAST_WEIGHT: u64 = 30;
const SLOW_WEIGHT: u64 = 3;

/// One tenant's identity and its generated traffic.
struct TenantPlan {
    id: String,
    alg: &'static str,
    /// `Some(1)` keeps slow tenants flat; `None` takes the daemon default.
    shards: Option<usize>,
    weight: u64,
    hello: String,
    /// Ingest request lines, newline-terminated.
    lines: Vec<String>,
    /// The same batches as parsed updates, for the replay.
    batches: Vec<Vec<Update>>,
}

struct Plan {
    /// Tenant seed base, declared in every `hello`.
    tenant_seed: u64,
    daemon_seed: u64,
    tenants: Vec<TenantPlan>,
    /// Tenant indices per connection.
    conns: Vec<Vec<usize>>,
    conn_seeds: Vec<u64>,
}

fn gen_batch(rng: &mut SplitMix64, turnstile: bool) -> Vec<Update> {
    (0..BATCH)
        .map(|_| {
            let r = rng.next_u64();
            if turnstile {
                let item = (r >> 8) % N;
                let delta = if r & 3 == 0 {
                    -1
                } else {
                    1 + ((r >> 4) & 1) as i64
                };
                Update::Turnstile { item, delta }
            } else if r & 3 == 0 {
                // A quarter of the traffic on 32 heavy items.
                Update::Insert((r >> 8) % 32)
            } else {
                Update::Insert((r >> 8) % N)
            }
        })
        .collect()
}

fn ingest_line(tenant: &str, batch: &[Update]) -> String {
    let mut s = String::with_capacity(40 + batch.len() * 8);
    s.push_str(r#"{"cmd":"ingest","tenant":""#);
    s.push_str(tenant);
    s.push_str(r#"","updates":["#);
    for (i, u) in batch.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match *u {
            Update::Insert(item) => s.push_str(&item.to_string()),
            Update::Turnstile { item, delta } => s.push_str(&format!("[{item},{delta}]")),
        }
    }
    s.push_str("]}\n");
    s
}

fn plan(seed: u64) -> Plan {
    let tenant_seed = derive_seed(seed, &["daemon", "tenants"]);
    let mut tenants = Vec::new();
    let mut conns = Vec::new();
    for (c, &(slow_alg, slow_turnstile)) in SLOW.iter().enumerate() {
        let mut members = Vec::new();
        let slots = FAST
            .iter()
            .map(|&(alg, t)| (alg, t, None, FAST_WEIGHT))
            .chain([(slow_alg, slow_turnstile, Some(1), SLOW_WEIGHT)]);
        for (alg, turnstile, shards, weight) in slots {
            let id = format!("c{c}-{alg}");
            let mut rng = SplitMix64::new(derive_seed(seed, &["daemon", "traffic", &id]));
            let batches: Vec<Vec<Update>> = (0..POOL_LINES)
                .map(|_| gen_batch(&mut rng, turnstile))
                .collect();
            let lines = batches.iter().map(|b| ingest_line(&id, b)).collect();
            let shards_field = shards.map_or(String::new(), |s| format!(r#","shards":{s}"#));
            let hello = format!(
                r#"{{"cmd":"hello","tenant":"{id}","alg":"{alg}","seed":{tenant_seed},"n":{N}{shards_field}}}"#
            ) + "\n";
            members.push(tenants.len());
            tenants.push(TenantPlan {
                id,
                alg,
                shards,
                weight,
                hello,
                lines,
                batches,
            });
        }
        conns.push(members);
    }
    Plan {
        tenant_seed,
        daemon_seed: derive_seed(seed, &["daemon", "wbd"]),
        conn_seeds: (0..conns.len())
            .map(|c| derive_seed(seed, &["daemon", "schedule", &c.to_string()]))
            .collect(),
        tenants,
        conns,
    }
}

/// One newline-JSON connection with reply timeouts.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let sock: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| std::io::Error::other(format!("bad address {addr}: {e}")))?;
        let w = TcpStream::connect_timeout(&sock, REPLY_TIMEOUT)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))?;
        w.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn {
            w,
            r,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.w.write_all(line.as_bytes())
    }

    /// The next reply line; EOF is an error (the daemon went away).
    fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.r.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    fn call(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        let reply = self.recv()?;
        Json::parse(reply).map_err(std::io::Error::other)
    }
}

fn is_ok(reply: &Json) -> bool {
    matches!(reply.get("ok"), Some(Json::Bool(true)))
}

/// A spawned `wbd`. Dropping it kills and reaps the process if it is
/// still running, so no exit path leaves a daemon behind.
struct Wbd {
    child: Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Wbd {
    fn spawn(bin: &Path, seed: u64) -> std::io::Result<Wbd> {
        let mut child = Command::new(bin)
            .args(["--threads", "1", "--listen", "127.0.0.1:0", "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drain the daemon's stdout for its whole life, so its final
        // metrics line can never block it on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut wbd = Wbd {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        let first = rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| std::io::Error::other("wbd did not report listening"))?;
        wbd.addr = Json::parse(&first)
            .ok()
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| std::io::Error::other(format!("unexpected wbd line {first:?}")))?;
        Ok(wbd)
    }

    /// Ask for a graceful drain on `conn` and wait for the exit; kill
    /// after the timeout.
    fn shutdown(mut self, conn: Option<&mut Conn>) -> bool {
        let asked = conn.is_some_and(|c| c.call("{\"cmd\":\"shutdown\"}\n").is_ok());
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut clean = false;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    clean = asked && status.success();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        self.reap();
        clean
    }

    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Wbd {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Spawn a daemon, open the connections and say every `hello`: the
/// workload's set-up. Returns the daemon, the connections, and how many
/// hellos failed.
fn start(bin: &Path, p: &Plan) -> std::io::Result<(Wbd, Vec<Conn>, u64)> {
    let wbd = Wbd::spawn(bin, p.daemon_seed)?;
    let mut conns = Vec::with_capacity(p.conns.len());
    let mut failed = 0;
    for members in &p.conns {
        let mut conn = Conn::connect(&wbd.addr)?;
        for &t in members {
            failed += u64::from(!is_ok(&conn.call(&p.tenants[t].hello)?));
        }
        conns.push(conn);
    }
    Ok((wbd, conns, failed))
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    failed: u64,
    acked_updates: u64,
    /// Ingest latencies, wall clock.
    ingest_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// Per tenant (index into the plan), the acknowledged pool lines in
    /// order.
    acked: Vec<(usize, Vec<u32>)>,
    /// Per tenant, the final answer as a JSON line.
    finals: Vec<(usize, Option<String>)>,
    first_ingest: Option<Instant>,
    last_reply: Option<Instant>,
}

#[derive(Clone, Copy)]
enum Req {
    Ingest { slot: usize, line: u32 },
    Query { slot: usize },
}

/// Drive one connection closed-loop until `deadline`, then drain and ask
/// each of its tenants a final quiescent `query`.
fn drive(
    conn: &mut Conn,
    p: &Plan,
    c: usize,
    deadline: Instant,
    acked_ingests: &AtomicU64,
    tracer: &mut Tracer,
) -> ConnResult {
    let members = &p.conns[c];
    let tags: Vec<Arc<str>> = members
        .iter()
        .map(|&t| Arc::from(p.tenants[t].id.as_str()))
        .collect();
    let total_weight: u64 = members.iter().map(|&t| p.tenants[t].weight).sum();
    let mut rng = SplitMix64::new(p.conn_seeds[c]);
    let mut next_line = vec![0u32; members.len()];
    let mut since_query = vec![0u32; members.len()];
    let mut res = ConnResult {
        acked: members.iter().map(|&t| (t, Vec::new())).collect(),
        ..ConnResult::default()
    };
    let conn_id = tracer.id();
    let conn_start = Instant::now();
    let mut inflight: std::collections::VecDeque<(Req, Instant)> = Default::default();
    let mut alive = true;
    while alive {
        while alive && inflight.len() < WINDOW && Instant::now() < deadline {
            let mut pick = rng.next_u64() % total_weight;
            let slot = members
                .iter()
                .position(|&t| {
                    let w = p.tenants[t].weight;
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("weights cover the range");
            let req = if since_query[slot] >= QUERY_EVERY {
                since_query[slot] = 0;
                Req::Query { slot }
            } else {
                since_query[slot] += 1;
                let line = next_line[slot];
                next_line[slot] = (line + 1) % POOL_LINES as u32;
                Req::Ingest { slot, line }
            };
            let tenant = &p.tenants[members[slot]];
            let query_line;
            let text = match req {
                Req::Ingest { line, .. } => tenant.lines[line as usize].as_str(),
                Req::Query { .. } => {
                    query_line = format!("{{\"cmd\":\"query\",\"tenant\":\"{}\"}}\n", tenant.id);
                    query_line.as_str()
                }
            };
            let sent = Instant::now();
            res.attempted += 1;
            if conn.send(text).is_err() {
                res.failed += 1;
                alive = false;
                break;
            }
            if matches!(req, Req::Ingest { .. }) && res.first_ingest.is_none() {
                res.first_ingest = Some(sent);
            }
            inflight.push_back((req, sent));
        }
        let Some(&(req, sent)) = inflight.front() else {
            break;
        };
        let ok = match conn.recv() {
            Ok(reply) => Json::parse(reply).is_ok_and(|j| is_ok(&j)),
            Err(_) => {
                alive = false;
                false
            }
        };
        if !alive {
            break;
        }
        inflight.pop_front();
        let now = Instant::now();
        let ms = if ok {
            (now - sent).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        res.failed += u64::from(!ok);
        match req {
            Req::Ingest { slot, line } => {
                res.ingest_ms.push(ms);
                tracer.leaf(conn_id, "daemon.ingest", &tags[slot], sent, now);
                if ok {
                    res.acked_updates +=
                        p.tenants[members[slot]].batches[line as usize].len() as u64;
                    res.acked[slot].1.push(line);
                    acked_ingests.fetch_add(1, Ordering::Relaxed);
                }
            }
            Req::Query { slot } => {
                res.query_ms.push(ms);
                tracer.leaf(conn_id, "daemon.query", &tags[slot], sent, now);
            }
        }
    }
    // Everything still in flight when the daemon went away is unanswered.
    res.failed += inflight.len() as u64;
    for (slot, &t) in members.iter().enumerate() {
        let mut answer = None;
        if alive {
            res.attempted += 1;
            let sent = Instant::now();
            let line = format!("{{\"cmd\":\"query\",\"tenant\":\"{}\"}}\n", p.tenants[t].id);
            match conn.call(&line) {
                Ok(reply) if is_ok(&reply) => {
                    answer = reply.get("answer").map(Json::to_line);
                    let now = Instant::now();
                    tracer.leaf(conn_id, "daemon.final_query", &tags[slot], sent, now);
                    res.last_reply = Some(now);
                }
                Ok(_) => res.failed += 1,
                Err(_) => {
                    res.failed += 1;
                    alive = false;
                }
            }
        }
        res.finals.push((t, answer));
    }
    let tag: Arc<str> = Arc::from(format!("conn{c}"));
    tracer.span(conn_id, 0, "daemon.conn", &tag, conn_start, Instant::now());
    res
}

/// Fetch the daemon's own counters.
fn fetch_metrics(conn: &mut Conn) -> Option<Json> {
    let reply = conn.call("{\"cmd\":\"metrics\"}\n").ok()?;
    reply.get("metrics").cloned()
}

fn metric(m: &Json, path: &[&str]) -> f64 {
    let mut v = m;
    for key in path {
        match v.get(key) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_u64().map_or(0.0, |x| x as f64)
}

/// The in-process twin of tenant `t`, as the daemon builds it.
fn twin(p: &Plan, t: &TenantPlan) -> Option<Tenant> {
    let hello = HelloParams {
        n: Some(N),
        eps: None,
        shards: t.shards,
    };
    Tenant::create(&t.id, t.alg, p.tenant_seed, &hello, SHARDS, DAEMON_CHUNK).ok()
}

/// Run the workload for about `seconds`.
pub fn run(
    seed: u64,
    seconds: f64,
    bin: &Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> std::io::Result<Pass> {
    let p = plan(seed);
    // Set-up: this thread's CPU time spawning the daemon, connecting and
    // saying every hello, plus the daemon's own CPU time up to its last
    // hello reply. Every start-up but the last is killed.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let root: Arc<str> = Arc::from("wbd");
    let mut live = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let cpu = thread_cpu_s();
        let started = start(bin, &p)?;
        let own = thread_cpu_s() - cpu;
        let daemon = process_cpu_s(started.0.child.id())
            .ok_or_else(|| std::io::Error::other("wbd exited during set-up"))?;
        tracer.leaf(0, "daemon.setup", &root, t0, Instant::now());
        setup_s.push(own + daemon);
        live = Some(started);
    }
    let (wbd, mut conns, hello_failed) = live.expect("SETUP_REPS >= 1");
    let pid = wbd.child.id();
    let acked_ingests = AtomicU64::new(0);
    // Per sample, wbd's CPU milliseconds per ingest acknowledged since the
    // last sample.
    let mut ingest_cpu_ms: Vec<f64> = Vec::new();
    let cpu_start = process_cpu_s(pid);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<(ConnResult, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut t = tracer.fork();
                let (p, acked) = (&p, &acked_ingests);
                s.spawn(move || (drive(conn, p, c, deadline, acked, &mut t), t))
            })
            .collect();
        let (mut cpu0, mut n0) = (cpu_start, 0);
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(POLL);
            let n = acked_ingests.load(Ordering::Relaxed);
            if n - n0 < INGESTS_PER_SAMPLE {
                continue;
            }
            let cpu = process_cpu_s(pid);
            if let (Some(a), Some(b)) = (cpu0, cpu) {
                ingest_cpu_ms.push((b - a) * 1e3 / (n - n0) as f64);
            }
            (cpu0, n0) = (cpu, n);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let window_cpu_s = match (cpu_start, process_cpu_s(pid)) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => f64::INFINITY,
    };

    let mut attempted = p.tenants.len() as u64;
    let mut failed = hello_failed;
    let (mut acked_updates, mut ingest_ms, mut query_ms) = (0u64, Vec::new(), Vec::new());
    let mut acked: Vec<Vec<u32>> = vec![Vec::new(); p.tenants.len()];
    let mut finals: Vec<Option<String>> = vec![None; p.tenants.len()];
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for (r, spans) in results {
        tracer.merge(spans);
        attempted += r.attempted;
        failed += r.failed;
        acked_updates += r.acked_updates;
        ingest_ms.extend(r.ingest_ms);
        query_ms.extend(r.query_ms);
        for (t, lines) in r.acked {
            acked[t] = lines;
        }
        for (t, answer) in r.finals {
            finals[t] = answer;
        }
        first = match (first, r.first_ingest) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        last = last.max(r.last_reply);
    }
    let window_s = match (first, last) {
        (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
        _ => f64::INFINITY,
    };
    let wall_mups = acked_updates as f64 / window_s / 1e6;
    let cpu_mups = acked_updates as f64 / window_cpu_s / 1e6;

    attempted += 1;
    let metrics = fetch_metrics(&mut conns[0]);
    let peak = peak_rss_mb(&pid.to_string()).unwrap_or(0.0);
    let mut correct = true;
    match &metrics {
        Some(m) => {
            let accepted = metric(m, &["tenants", "accepted"]);
            let applied = metric(m, &["tenants", "applied"]);
            if accepted != applied || applied != acked_updates as f64 {
                println!(
                    "daemon_mixed: metrics show {applied} applied of {accepted} accepted, \
                     {acked_updates} acknowledged"
                );
                correct = false;
            }
        }
        None => {
            failed += 1;
            correct = false;
        }
    }
    attempted += 1;
    if !wbd.shutdown(conns.first_mut()) {
        println!("daemon_mixed: wbd did not drain and exit cleanly");
        failed += 1;
        correct = false;
    }

    // Correctness, outside the timed region: replay every tenant's
    // acknowledged batches in process and compare final answers.
    let mut mismatched = 0u64;
    for ((t, lines), answer) in p.tenants.iter().zip(&acked).zip(&finals) {
        let replayed = twin(&p, t).and_then(|mut twin| {
            for &line in lines {
                twin.apply_chunk(&t.batches[line as usize]);
            }
            twin.query()
                .ok()
                .map(|a| proto::answer_to_json(&a).to_line())
        });
        if answer.is_none() || replayed != *answer {
            println!(
                "daemon_mixed: tenant {} final answer differs from its replay",
                t.id
            );
            mismatched += 1;
        }
    }
    failed += mismatched;
    correct &= mismatched == 0 && failed == 0;

    let shares: Vec<f64> = p
        .tenants
        .iter()
        .zip(&acked)
        .map(|(t, lines)| {
            lines
                .iter()
                .map(|&l| t.batches[l as usize].len() as f64)
                .sum::<f64>()
                / acked_updates.max(1) as f64
        })
        .collect();
    for (t, share) in p.tenants.iter().zip(&shares) {
        println!(
            "daemon_mixed: tenant {:<16} {:>6.2}% of updates",
            t.id,
            share * 100.0
        );
    }
    let ingest_tail = tail_q(ingest_ms.len());
    let query_tail = tail_q(query_ms.len());
    let cpu_tail = SAMPLE_TAIL.min(tail_q(ingest_cpu_ms.len()));
    println!(
        "daemon_mixed: {acked_updates} updates in {window_s:.3} s wall ({wall_mups:.3} Mups), \
         {window_cpu_s:.3} s of wbd CPU ({cpu_mups:.3} Mups per CPU s); \
         wbd CPU per ingest p50 {:.4} ms p{:.2} {:.4} ms over {} samples",
        median(&ingest_cpu_ms),
        cpu_tail * 100.0,
        quantile(&ingest_cpu_ms, cpu_tail),
        ingest_cpu_ms.len(),
    );
    println!(
        "daemon_mixed: wall latency: ingest p50 {:.4} ms p{:.2} {:.4} ms over {} requests; \
         query p50 {:.4} ms p{:.2} {:.4} ms over {} requests",
        median(&ingest_ms),
        ingest_tail * 100.0,
        quantile(&ingest_ms, ingest_tail),
        ingest_ms.len(),
        median(&query_ms),
        query_tail * 100.0,
        quantile(&query_ms, query_tail),
        query_ms.len(),
    );

    if tracer.enabled() {
        layers.put("daemon.wall_mups", wall_mups, "Mups");
        layers.put("daemon.ingest_p50_ms", median(&ingest_ms), "ms");
        layers.put(
            "daemon.ingest_p99_ms",
            quantile(&ingest_ms, ingest_tail),
            "ms",
        );
        layers.put("daemon.query_p50_ms", median(&query_ms), "ms");
        layers.put("daemon.query_p99_ms", quantile(&query_ms, query_tail), "ms");
        if let Some(m) = &metrics {
            for (name, path) in [
                ("daemon.inbox_stalls", &["tenants", "inbox_stalls"][..]),
                ("daemon.pool.submit_stalls", &["pool", "submit_stalls"]),
                ("daemon.pool.peak_depth", &["pool", "peak_depth"]),
                ("daemon.reactor.pending_ops", &["reactor", "pending_ops"]),
                (
                    "daemon.reactor.deferred_submits",
                    &["reactor", "deferred_submits"],
                ),
                ("daemon.reactor.write_stalls", &["reactor", "write_stalls"]),
                (
                    "daemon.shard_queue_stalls",
                    &["tenants", "shard_queue_stalls"],
                ),
            ] {
                layers.put(name, metric(m, path), "count");
            }
            let pending = metric(m, &["reactor", "pending_ops"]);
            let wakeups = metric(m, &["reactor", "wakeups"]);
            layers.put(
                "daemon.reactor.wakeups_per_pending_op",
                if pending > 0.0 {
                    wakeups / pending
                } else {
                    0.0
                },
                "ratio",
            );
        }
        let measured = Measured {
            shares: &shares,
            wall_mups,
            cpu_us_per_update: window_cpu_s * 1e6 / acked_updates.max(1) as f64,
            cpus_busy: window_cpu_s / window_s,
        };
        attempted += 1;
        if !layer_bench(&p, &measured, tracer, layers) {
            failed += 1;
            correct = false;
        }
    }

    Ok(Pass {
        e2e: E2e {
            setup_s: median(&setup_s),
            peak_rss_mb: peak,
            cpu_mups,
            op_cpu_p50_ms: median(&ingest_cpu_ms),
            op_cpu_tail_ms: quantile(&ingest_cpu_ms, cpu_tail),
        },
        attempted,
        failed,
        correct,
    })
}

/// What the run measured that the attribution check compares against.
struct Measured<'a> {
    /// Each tenant's share of the acknowledged updates.
    shares: &'a [f64],
    /// Acknowledged updates per wall second, in millions.
    wall_mups: f64,
    /// `wbd`'s CPU microseconds per acknowledged update.
    cpu_us_per_update: f64,
    /// `wbd`'s CPU seconds per wall second of the run.
    cpus_busy: f64,
}

/// The daemon's layers replayed in process on the generator's exact
/// lines: wire parse/encode, admission, apply and query per algorithm,
/// and the sharded pipeline alone, each timed on this thread's CPU clock
/// and the median of its repetitions. Then the attribution check. Returns
/// whether it passed.
fn layer_bench(p: &Plan, run: &Measured, tracer: &mut Tracer, layers: &mut Layers) -> bool {
    let lines: Vec<&str> = p
        .tenants
        .iter()
        .flat_map(|t| t.lines.iter().map(|l| l.trim_end()))
        .collect();
    let updates: usize = p.tenants.iter().map(|t| t.batches.len() * BATCH).sum();
    let wire: Arc<str> = Arc::from("wire");

    let parse_s = median_of(5, || {
        let cpu = thread_cpu_s();
        for line in &lines {
            let t0 = Instant::now();
            let req = proto::parse_request(line).expect("generated lines parse");
            std::hint::black_box(req);
            tracer.leaf(0, "wire.parse", &wire, t0, Instant::now());
        }
        thread_cpu_s() - cpu
    });
    let parse_mups = updates as f64 / parse_s / 1e6;
    layers.put("wire.parse.mups", parse_mups, "Mups");
    let values: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("generated lines are JSON"))
        .collect();
    let encode_s = median_of(5, || {
        let cpu = thread_cpu_s();
        for v in &values {
            let t0 = Instant::now();
            std::hint::black_box(v.to_line());
            tracer.leaf(0, "wire.encode", &wire, t0, Instant::now());
        }
        thread_cpu_s() - cpu
    });
    layers.put("wire.encode_us", encode_s / values.len() as f64 * 1e6, "us");
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    layers.put(
        "wire.bytes_per_update",
        bytes as f64 / updates as f64,
        "bytes",
    );

    let validate_s = median_of(5, || {
        let mut secs = 0.0;
        for t in &p.tenants {
            let twin = twin(p, t).expect("tenant constructs");
            let cpu = thread_cpu_s();
            for b in &t.batches {
                twin.validate_batch(b)
                    .expect("generated batches are in model");
            }
            secs += thread_cpu_s() - cpu;
        }
        secs
    });
    let validate_mups = updates as f64 / validate_s / 1e6;
    layers.put("tenant.validate.mups", validate_mups, "Mups");

    // Apply and query per algorithm, four passes over the tenant's pool.
    let passes = 4;
    let mut per_alg: Vec<(&str, f64, f64)> = Vec::new();
    for t in &p.tenants {
        if per_alg.iter().any(|&(a, _, _)| a == t.alg) {
            continue;
        }
        let tag: Arc<str> = Arc::from(t.alg);
        let mut query_us = Vec::new();
        let secs = median_of(3, || {
            let mut twin = twin(p, t).expect("tenant constructs");
            let cpu = thread_cpu_s();
            for _ in 0..passes {
                for b in &t.batches {
                    let t0 = Instant::now();
                    twin.apply_chunk(b);
                    tracer.leaf(0, "tenant.apply", &tag, t0, Instant::now());
                }
            }
            let secs = thread_cpu_s() - cpu;
            let t0 = Instant::now();
            let cpu = thread_cpu_s();
            std::hint::black_box(twin.query().expect("healthy tenant answers"));
            query_us.push((thread_cpu_s() - cpu) * 1e6);
            tracer.leaf(0, "tenant.query", &tag, t0, Instant::now());
            secs
        });
        let mups = (passes * t.batches.len() * BATCH) as f64 / secs / 1e6;
        layers.put(format!("tenant.{}.apply.mups", t.alg), mups, "Mups");
        let query_us = median(&query_us);
        layers.put(format!("tenant.{}.query_us", t.alg), query_us, "us");
        per_alg.push((t.alg, mups, query_us));
    }

    // The sharded pipeline alone, for the sharded algorithms.
    let (mut push_updates, mut push_s, mut merge_us) = (0.0, 0.0, Vec::new());
    for t in p.tenants.iter().filter(|t| t.shards.is_none()) {
        if merge_us.len() == FAST.len() {
            break;
        }
        let params = Params::default()
            .with_n(N)
            .with_seed(derive_seed(p.tenant_seed, &["shard-bench", t.alg]));
        let ctor = |_: usize| registry::get(t.alg, &params);
        let cfg = ShardConfig {
            shards: SHARDS,
            partition: Partition::Hash,
            threads: 1,
            batch: DAEMON_CHUNK,
            master_seed: p.tenant_seed,
        };
        let mut merges = Vec::new();
        push_s += median_of(3, || {
            let mut pipeline = ShardPipeline::new(&ctor, &cfg).expect("mergeable algorithm");
            let cpu = thread_cpu_s();
            for _ in 0..passes {
                for b in &t.batches {
                    pipeline.push(b);
                }
            }
            pipeline.flush();
            let secs = thread_cpu_s() - cpu;
            let cpu = thread_cpu_s();
            std::hint::black_box(pipeline.snapshot_merged(&ctor).expect("merge"));
            merges.push((thread_cpu_s() - cpu) * 1e6);
            secs
        });
        push_updates += (passes * t.batches.len() * BATCH) as f64;
        merge_us.push(median(&merges));
    }
    layers.put("shard.push.mups", push_updates / push_s / 1e6, "Mups");
    layers.put(
        "shard.merge_us",
        merge_us.iter().sum::<f64>() / merge_us.len() as f64,
        "us",
    );

    // The reactor thread parses and admits while the pool worker applies,
    // so the daemon's rate is bounded by the slower of the two. The apply
    // rate is the harmonic mix of per-algorithm rates by each tenant's
    // share of the updates; a tenant's query (merge included) comes once
    // per QUERY_EVERY of its batches.
    let (mut apply_us, mut query_us) = (0.0, 0.0);
    for (t, share) in p.tenants.iter().zip(run.shares) {
        let &(_, mups, q_us) = per_alg
            .iter()
            .find(|&&(a, _, _)| a == t.alg)
            .expect("measured above");
        apply_us += share / mups;
        query_us += share * q_us / (f64::from(QUERY_EVERY) * BATCH as f64);
    }
    let reactor_us = 1.0 / parse_mups + 1.0 / validate_mups;
    let bound = (1.0 / reactor_us).min(1.0 / apply_us);
    let bottleneck = if reactor_us >= apply_us {
        "wire parse and admission (reactor thread)"
    } else {
        "tenant apply (pool worker)"
    };
    // Accounting: the layer costs, added up, against wbd's CPU time per
    // update. What they leave unexplained is the daemon's own work around
    // them: socket reads and writes, epoll, reply encoding, hand-offs
    // between its threads.
    let explained = (reactor_us + apply_us + query_us) / run.cpu_us_per_update;
    let accounted = (EXPLAINED.0..=EXPLAINED.1).contains(&explained);
    println!(
        "attribution: daemon per update: reactor parse+admit {reactor_us:.4} us, pool apply \
         {apply_us:.4} us, query {query_us:.4} us; wbd CPU {:.4} us: the layers explain {:.0}% \
         (accepted {:.0}-{:.0}%): {}",
        run.cpu_us_per_update,
        explained * 100.0,
        EXPLAINED.0 * 100.0,
        EXPLAINED.1 * 100.0,
        if accounted { "PASS" } else { "FAIL" }
    );
    // The bound must hold. Well below it, neither layer kept wbd busy:
    // its threads waited on each other or for a CPU.
    let ratio = run.wall_mups / bound;
    let within_bound = ratio <= EXPLAINED.1;
    let verdict = if ratio >= 0.8 {
        format!("the wall rate is set by {bottleneck}")
    } else {
        format!(
            "neither parse nor apply sets the wall rate: wbd kept {:.2} of 2 CPUs busy and \
             spent the rest waiting, on hand-offs between its threads or for a CPU shared \
             with the load generator",
            run.cpus_busy
        )
    };
    println!(
        "attribution: daemon CPU bottleneck = {bottleneck}, bound {bound:.3} Mups; wall rate \
         {:.3} Mups = {:.0}% of it; {verdict}: {}",
        run.wall_mups,
        ratio * 100.0,
        if within_bound { "PASS" } else { "FAIL" }
    );
    layers.put("attribution.daemon.explained", explained, "ratio");
    layers.put("attribution.daemon.bound_ratio", ratio, "ratio");
    accounted && within_bound
}
