//! Loopback integration: `wbd`'s server core under real concurrency.
//!
//! * 64 concurrent tenants (mixed algorithms, sharded and flat) driven by
//!   8 sessions that each multiplex 8 tenants;
//! * graceful drain loses nothing: the final metrics snapshot shows
//!   `applied == accepted` for every tenant and globally;
//! * the `metrics` payload exposes the new instrumentation — per-tenant
//!   ingest rates and accepted/rejected counters, per-shard loads + skew,
//!   inbox-stall counters, pool depth, session lifecycle counts;
//! * a poisoned tenant lock takes down neither metrics nor other tenants.
//!
//! `wbd` serves through its epoll reactor, so these tests run on Linux.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use wb_daemon::json::Json;
use wb_daemon::server::MAX_THREADS;
use wb_daemon::{DaemonConfig, Server};
use wbstream::core::rng::derive_seed;
use wbstream::core::snap::SnapWriter;

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: SocketAddr) -> Session {
        let stream = TcpStream::connect(addr).expect("connect to wbd");
        Session {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Send one request line, read and parse the one reply line.
    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .expect("send request");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "daemon closed the connection after {line:?}");
        Json::parse(reply.trim_end()).unwrap_or_else(|e| panic!("malformed reply {reply:?}: {e}"))
    }

    fn read_reply(&mut self) -> Json {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "daemon closed the connection");
        Json::parse(reply.trim_end()).unwrap_or_else(|e| panic!("malformed reply {reply:?}: {e}"))
    }

    fn expect_ok(&mut self, line: &str) -> Json {
        let reply = self.roundtrip(line);
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "expected ok reply to {line:?}, got {}",
            reply.to_line()
        );
        reply
    }
}

/// A mixed bag: mergeable (sharded) and unmergeable (flat), insert-only
/// and turnstile.
const ALGS: &[&str] = &[
    "misra_gries",
    "space_saving",
    "count_min",
    "ams_f2",
    "exact_l0",
    "morris",
    "median_morris",
    "robust_hh",
];

fn is_turnstile(alg: &str) -> bool {
    matches!(alg, "ams_f2" | "exact_l0")
}

/// The updates tenant `t` ingests: `per_batch` updates per batch,
/// `batches` batches, deterministic in `t` only.
fn batch_line(tenant: &str, t: u64, batch: u64, per_batch: u64, turnstile: bool) -> String {
    let mut updates = Vec::with_capacity(per_batch as usize);
    for i in 0..per_batch {
        let x = (t * 1_000_003 + batch * 10_007 + i * 101) % 997;
        if turnstile {
            // Mostly inserts with a sprinkle of deletions, well inside the
            // delta budget.
            let delta = if i % 7 == 3 { -1i64 } else { 2 };
            updates.push(format!("[{x},{delta}]"));
        } else {
            updates.push(x.to_string());
        }
    }
    format!(
        "{{\"cmd\":\"ingest\",\"tenant\":\"{tenant}\",\"updates\":[{}]}}",
        updates.join(",")
    )
}

const BATCHES: u64 = 3;
const PER_BATCH: u64 = 200;

#[test]
fn sixty_four_tenants_graceful_drain_loses_nothing() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 4,
        shards: 4,
        chunk: 128,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();

    // 8 sessions x 8 tenants each = 64 concurrent tenants; each session
    // interleaves its tenants' batches to exercise multiplexing.
    let handles: Vec<_> = (0..8u64)
        .map(|s| {
            std::thread::spawn(move || {
                let mut sess = Session::connect(addr);
                let ids: Vec<(String, &str, u64)> = (0..8u64)
                    .map(|k| {
                        let t = s * 8 + k;
                        let alg = ALGS[(t % ALGS.len() as u64) as usize];
                        (format!("tenant-{t:02}"), alg, t)
                    })
                    .collect();
                for (id, alg, _) in &ids {
                    let hello = format!(
                        "{{\"cmd\":\"hello\",\"tenant\":\"{id}\",\"alg\":\"{alg}\",\"seed\":7}}"
                    );
                    let reply = sess.expect_ok(&hello);
                    assert_eq!(reply.get("alg").and_then(Json::as_str), Some(*alg));
                    let shards = reply.get("shards").and_then(Json::as_u64).unwrap();
                    // Mergeable algorithms shard to the daemon default;
                    // unmergeable ones must stay flat.
                    match *alg {
                        "morris" | "median_morris" | "robust_hh" => assert_eq!(shards, 1),
                        _ => assert_eq!(shards, 4, "{alg} should shard"),
                    }
                }
                // Interleave: batch 0 for all tenants, then batch 1, ...
                for b in 0..BATCHES {
                    for (id, alg, t) in &ids {
                        let line = batch_line(id, *t, b, PER_BATCH, is_turnstile(alg));
                        let reply = sess.expect_ok(&line);
                        assert_eq!(
                            reply.get("accepted").and_then(Json::as_u64),
                            Some(PER_BATCH)
                        );
                    }
                    // A mid-stream query per tenant: must see exactly the
                    // updates accepted so far (read-your-writes).
                    for (id, _, _) in &ids {
                        let reply =
                            sess.expect_ok(&format!("{{\"cmd\":\"query\",\"tenant\":\"{id}\"}}"));
                        assert_eq!(
                            reply.get("processed").and_then(Json::as_u64),
                            Some((b + 1) * PER_BATCH),
                            "query must be quiescent for {id}"
                        );
                        assert!(reply.get("answer").is_some());
                        assert!(reply.get("space_bits").and_then(Json::as_u64).is_some());
                    }
                }
                sess.expect_ok("{\"cmd\":\"bye\"}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }

    // Live metrics before the drain: shape-check the new instrumentation.
    // (`closed` bumps just after the bye reply is written, so poll briefly
    // for the 8 session threads to finish bookkeeping.)
    let mut sess = Session::connect(addr);
    let mut metrics = sess.expect_ok("{\"cmd\":\"metrics\"}");
    for _ in 0..200 {
        let closed = metrics
            .get("metrics")
            .and_then(|m| m.get("sessions"))
            .and_then(|s| s.get("closed"))
            .and_then(Json::as_u64);
        if closed == Some(8) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        metrics = sess.expect_ok("{\"cmd\":\"metrics\"}");
    }
    let m = metrics.get("metrics").expect("metrics payload");
    let tenants = m.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("count").and_then(Json::as_u64), Some(64));
    let per_tenant = m.get("per_tenant").and_then(Json::as_arr).unwrap();
    assert_eq!(per_tenant.len(), 64);
    for t in per_tenant {
        assert!(t.get("ingest_rate_ups").is_some(), "per-tenant ingest rate");
        assert!(t.get("inbox_stalls").and_then(Json::as_u64).is_some());
        let shards = t.get("shards").and_then(Json::as_u64).unwrap();
        if shards > 1 {
            let loads = t.get("shard_loads").and_then(Json::as_arr).unwrap();
            assert_eq!(loads.len(), shards as usize);
            let routed: u64 = loads.iter().map(|l| l.as_u64().unwrap()).sum();
            assert_eq!(routed, BATCHES * PER_BATCH, "all updates routed");
            assert!(t.get("shard_skew").is_some(), "per-shard skew exported");
            // Shard pipelines have no queues, so there are no stalls to
            // export.
            assert!(t.get("shard_queue_stalls").is_none());
        } else {
            assert!(
                t.get("shard_loads").is_none(),
                "flat tenants have no shards"
            );
        }
    }
    let pool = m.get("pool").expect("pool stats");
    assert_eq!(pool.get("workers").and_then(Json::as_u64), Some(4));
    assert!(pool.get("submit_stalls").and_then(Json::as_u64).is_some());
    assert_eq!(pool.get("panicked").and_then(Json::as_u64), Some(0));
    let sessions = m.get("sessions").expect("session stats");
    assert_eq!(sessions.get("opened").and_then(Json::as_u64), Some(9));
    assert_eq!(sessions.get("closed").and_then(Json::as_u64), Some(8));

    // The top view renders.
    let top = sess.expect_ok("{\"cmd\":\"top\"}");
    let text = top.get("text").and_then(Json::as_str).unwrap();
    assert!(text.starts_with("wbd  uptime"), "top header: {text:?}");
    assert!(text.contains("TENANT") && text.contains("SKEW"), "{text:?}");

    // Graceful drain via the protocol. The late `hello` is pipelined in
    // the same write as `shutdown` so it deterministically reaches the
    // session before the drain-idle close, and must be a typed refusal —
    // never a disconnect.
    sess.writer
        .write_all(
            b"{\"cmd\":\"shutdown\"}\n\
              {\"cmd\":\"hello\",\"tenant\":\"late\",\"alg\":\"morris\",\"seed\":1}\n",
        )
        .expect("send shutdown + late hello");
    let shutdown_reply = sess.read_reply();
    assert_eq!(shutdown_reply.get("draining"), Some(&Json::Bool(true)));
    let hello_refused = sess.read_reply();
    assert_eq!(
        hello_refused
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("draining"),
        "hello during drain must be a typed refusal: {}",
        hello_refused.to_line()
    );
    let finals = server.wait();
    assert_eq!(finals.get("draining"), Some(&Json::Bool(true)));
    let tenants = finals.get("tenants").expect("tenants rollup");
    let expected_total = 64 * BATCHES * PER_BATCH;
    assert_eq!(
        tenants.get("accepted").and_then(Json::as_u64),
        Some(expected_total)
    );
    assert_eq!(
        tenants.get("applied").and_then(Json::as_u64),
        Some(expected_total),
        "graceful drain must apply every accepted update"
    );
    for t in finals.get("per_tenant").and_then(Json::as_arr).unwrap() {
        assert_eq!(
            t.get("applied"),
            t.get("accepted"),
            "no-loss drain for {}",
            t.to_line()
        );
        assert_eq!(t.get("pending_chunks").and_then(Json::as_u64), Some(0));
        assert_eq!(t.get("failed"), Some(&Json::Bool(false)));
    }
    let sessions = finals.get("sessions").expect("session stats");
    assert_eq!(sessions.get("opened"), sessions.get("closed"));
    let pool = finals.get("pool").expect("pool stats");
    assert_eq!(pool.get("submitted"), pool.get("completed"));
    assert_eq!(pool.get("depth").and_then(Json::as_u64), Some(0));
}

/// Regression: a single ingest batch longer than the inbox can hold
/// (INBOX_CHUNKS = 8 chunks) must not deadlock — the drain job has to be
/// running before the session can block on inbox backpressure.
#[test]
fn ingest_batch_larger_than_the_inbox_completes() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        shards: 1,
        chunk: 8, // 1000 updates = 125 chunks >> 8 inbox slots
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"big\",\"alg\":\"count_min\",\"seed\":3}");
    let updates: Vec<String> = (0..1000u64).map(|i| (i % 31).to_string()).collect();
    let reply = sess.expect_ok(&format!(
        "{{\"cmd\":\"ingest\",\"tenant\":\"big\",\"updates\":[{}]}}",
        updates.join(",")
    ));
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(1000));
    let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"big\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(1000));
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("applied").and_then(Json::as_u64), Some(1000));
}

/// Regression: an item at or above a universe-bounded tenant's `n` used to
/// pass admission and panic the `sis_l0` kernel inside a pool job, which
/// poisoned the tenant's lock and then took down the reactor and the
/// final metrics. Admission now refuses it with a typed `bad_request`, and
/// a delta beyond the turnstile bound with `wrong_model`; the daemon keeps
/// serving every tenant, and each applies what it accepted.
#[test]
fn out_of_universe_item_is_refused_at_admission() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"a\",\"alg\":\"sis_l0\",\"n\":16}");
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"b\",\"alg\":\"count_min\",\"seed\":1}");
    // A delta of i64::MIN is outside the turnstile model (its magnitude
    // overflows the kernels' signed counters): `wrong_model`.
    for (line, kind) in [
        (
            "{\"cmd\":\"ingest\",\"tenant\":\"a\",\"updates\":[[100,1]]}",
            "bad_request",
        ),
        (
            "{\"cmd\":\"ingest\",\"tenant\":\"a\",\"updates\":[[3,1],[16,-1]]}",
            "bad_request",
        ),
        (
            "{\"cmd\":\"ingest\",\"tenant\":\"a\",\"updates\":[[3,-9223372036854775808]]}",
            "wrong_model",
        ),
    ] {
        let reply = sess.roundtrip(line);
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(kind),
            "{line} must be refused: {}",
            reply.to_line()
        );
    }
    // The refused batches left nothing behind: in-universe updates apply,
    // the neighbour tenant is untouched, and a fresh session is served.
    sess.expect_ok("{\"cmd\":\"ingest\",\"tenant\":\"a\",\"updates\":[[3,1],[15,-2]]}");
    sess.expect_ok("{\"cmd\":\"ingest\",\"tenant\":\"b\",\"updates\":[1,2,3]}");
    let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"a\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(2));
    let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"b\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(3));
    let mut fresh = Session::connect(server.addr());
    fresh.expect_ok("{\"cmd\":\"metrics\"}");
    fresh.expect_ok("{\"cmd\":\"bye\"}");
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    let finals = server.wait();
    let per_tenant = finals.get("per_tenant").and_then(Json::as_arr).unwrap();
    assert_eq!(per_tenant.len(), 2);
    for t in per_tenant {
        assert_eq!(t.get("applied"), t.get("accepted"), "{}", t.to_line());
        assert_eq!(t.get("failed"), Some(&Json::Bool(false)), "{}", t.to_line());
    }
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(5));
    assert_eq!(tenants.get("rejected").and_then(Json::as_u64), Some(4));
    let pool = finals.get("pool").expect("pool stats");
    assert_eq!(pool.get("panicked").and_then(Json::as_u64), Some(0));
}

/// `hello` lines whose parameters once panicked tenant construction on
/// the reactor thread (ε = 1e-300), or asked for gigabytes up front (ε =
/// 1e-9, a 2^50-item `sis_l0` universe, 10^8 shards), get typed refusals;
/// the daemon keeps serving and a healthy tenant drains clean.
#[test]
fn hostile_hello_parameters_are_refused_and_the_daemon_keeps_serving() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    for line in [
        r#"{"cmd":"hello","tenant":"a","alg":"misra_gries","eps":1e-300}"#,
        r#"{"cmd":"hello","tenant":"a","alg":"median_morris","eps":1e-300}"#,
        r#"{"cmd":"hello","tenant":"a","alg":"space_saving","eps":1e-9}"#,
        r#"{"cmd":"hello","tenant":"a","alg":"sis_l0","n":1125899906842624}"#,
        r#"{"cmd":"hello","tenant":"a","alg":"sis_l0","n":18446744073709551615}"#,
        r#"{"cmd":"hello","tenant":"s","alg":"count_min","shards":100000000}"#,
    ] {
        let reply = sess.roundtrip(line);
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert!(
            matches!(kind, Some("invalid_parameter" | "bad_request")),
            "{line} must be refused: {}",
            reply.to_line()
        );
    }
    sess.expect_ok(r#"{"cmd":"hello","tenant":"ok","alg":"count_min","seed":1,"shards":2}"#);
    sess.expect_ok(r#"{"cmd":"ingest","tenant":"ok","updates":[1,2,3,1]}"#);
    let reply = sess.expect_ok(r#"{"cmd":"query","tenant":"ok"}"#);
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(4));
    let mut fresh = Session::connect(server.addr());
    fresh.expect_ok(r#"{"cmd":"metrics"}"#);
    fresh.expect_ok(r#"{"cmd":"bye"}"#);
    sess.expect_ok(r#"{"cmd":"bye"}"#);
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("count").and_then(Json::as_u64), Some(1));
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(4));
    assert_eq!(tenants.get("applied"), tenants.get("accepted"));
}

/// A request line with no newline must hit a bounded buffer: the daemon
/// replies with a typed `bad_request` and closes the session instead of
/// growing memory without limit.
#[test]
fn overlong_request_line_is_refused_not_buffered_forever() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    // Stream ~9 MB without a newline (cap is 8 MiB). The daemon may
    // refuse and close while we are still writing, so later writes are
    // allowed to fail.
    let blob = vec![b'['; 1 << 20];
    for _ in 0..9 {
        if sess.writer.write_all(&blob).is_err() {
            break;
        }
    }
    let reply = sess.read_reply();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{}",
        reply.to_line()
    );
    // The daemon closed this session (clean EOF or a reset, depending on
    // how much of the blob it left unread) but keeps serving new ones.
    let mut rest = String::new();
    assert!(
        matches!(sess.reader.read_line(&mut rest), Ok(0) | Err(_)),
        "session must end after the refusal"
    );
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"metrics\"}");
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    server.wait();
}

/// The scripted client must end only on an actual `bye` command, not on
/// any request that merely contains the text "bye" (e.g. a tenant id).
#[test]
fn client_script_survives_a_tenant_named_bye() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let script = "{\"cmd\":\"hello\",\"tenant\":\"bye\",\"alg\":\"morris\",\"seed\":1}\n\
                  {\"cmd\":\"ingest\",\"tenant\":\"bye\",\"updates\":[1,2,3]}\n\
                  {\"cmd\":\"query\",\"tenant\":\"bye\"}\n\
                  {\"cmd\":\"bye\"}\n\
                  # never sent: the session ended on the real bye above\n";
    let mut input = std::io::Cursor::new(script.as_bytes());
    let mut out = Vec::new();
    wb_daemon::client::run_script(
        &server.addr().to_string(),
        &mut input,
        &mut out,
        /* strict */ true,
        /* pipeline */ 1,
    )
    .expect("script passes");
    let replies: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(
        replies.len(),
        4,
        "all four requests must run (no early exit on the 'bye' tenant id): {replies:?}"
    );
    server.begin_drain();
    server.wait();
}

#[test]
fn max_tenants_is_enforced_with_a_typed_error() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        max_tenants: 2,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"a\",\"alg\":\"morris\",\"seed\":1}");
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"b\",\"alg\":\"morris\",\"seed\":1}");
    let reply =
        sess.roundtrip("{\"cmd\":\"hello\",\"tenant\":\"c\",\"alg\":\"morris\",\"seed\":1}");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("max_tenants")
    );
    // Re-hello to an existing tenant is idempotent, not a new tenant.
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"a\",\"alg\":\"morris\",\"seed\":1}");
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    server.wait();
}

/// Regression: a `hello` racing a concurrent drain must not register a
/// tenant after the drain flag flips. The old code checked `draining` only
/// on entry; a drain beginning while the tenant was under construction
/// (outside the registry lock) still inserted it — a tenant the drain
/// would never have flushed. The fix re-checks the flag under the same
/// lock as the insert, so the outcome is a typed `draining` refusal.
///
/// The interleave is forced, not hoped for: the test holds the tenant
/// registry lock, lets the `hello` pass its entry check and block on that
/// lock, flips the drain flag, then releases the lock.
#[test]
fn hello_racing_a_drain_cannot_create_a_tenant() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();
    let shared = std::sync::Arc::clone(server.shared());

    let guard = shared.tenants.lock().unwrap();
    let hello = std::thread::spawn(move || {
        let mut sess = Session::connect(addr);
        sess.roundtrip("{\"cmd\":\"hello\",\"tenant\":\"racer\",\"alg\":\"morris\",\"seed\":1}")
    });
    // Give the hello time to pass its entry-point draining check and block
    // on the registry lock we hold; then the drain begins.
    std::thread::sleep(std::time::Duration::from_millis(200));
    server.begin_drain();
    drop(guard);

    let reply = hello.join().expect("hello session");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("draining"),
        "hello past the drain flip must be refused, got {}",
        reply.to_line()
    );
    assert!(
        shared.tenants.lock().unwrap().is_empty(),
        "no tenant may be registered after the drain flag flips"
    );
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("count").and_then(Json::as_u64), Some(0));
}

/// Ingest deterministically per test: `count` inserts over a small
/// universe, offset so separate halves concatenate to one fixed stream.
fn insert_line(tenant: &str, from: u64, count: u64) -> String {
    let updates: Vec<String> = (from..from + count).map(|i| (i % 97).to_string()).collect();
    format!(
        "{{\"cmd\":\"ingest\",\"tenant\":\"{tenant}\",\"updates\":[{}]}}",
        updates.join(",")
    )
}

/// A thread that panics while holding one tenant's slot lock poisons that
/// mutex. Metrics, `top`, and every other tenant must keep answering, in
/// process and over the wire.
#[test]
fn a_poisoned_tenant_lock_leaves_metrics_and_other_tenants_serving() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok(r#"{"cmd":"hello","tenant":"bad","alg":"misra_gries","seed":1,"shards":2}"#);
    sess.expect_ok(r#"{"cmd":"hello","tenant":"good","alg":"count_min","seed":1,"shards":2}"#);
    sess.expect_ok(&insert_line("bad", 0, 50));
    sess.expect_ok(r#"{"cmd":"query","tenant":"bad"}"#);

    let shared = server.shared();
    let bad = std::sync::Arc::clone(&shared.tenants.lock().unwrap()["bad"]);
    let poisoner = std::thread::spawn(move || {
        let _held = bad.state.lock().unwrap();
        panic!("poisoning tenant 'bad' on purpose");
    });
    assert!(poisoner.join().is_err());
    assert!(shared.tenants.lock().unwrap()["bad"].state.is_poisoned());

    let snap = wb_daemon::metrics::snapshot(shared);
    let tenants = snap.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("count").and_then(Json::as_u64), Some(2));
    let top = wb_daemon::metrics::top_text(shared);
    assert!(top.contains("bad") && top.contains("good"), "{top}");

    sess.expect_ok(&insert_line("good", 0, 40));
    let reply = sess.expect_ok(r#"{"cmd":"query","tenant":"good"}"#);
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(40));
    let metrics = sess.expect_ok(r#"{"cmd":"metrics"}"#);
    let per_tenant = metrics
        .get("metrics")
        .and_then(|m| m.get("per_tenant"))
        .and_then(Json::as_arr)
        .expect("per-tenant metrics");
    assert_eq!(per_tenant.len(), 2);
    sess.expect_ok(r#"{"cmd":"top"}"#);
    sess.expect_ok(r#"{"cmd":"bye"}"#);
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(90));
    assert_eq!(tenants.get("applied"), tenants.get("accepted"));
}

/// The tentpole end-to-end: `snapshot` a mid-stream tenant to disk over
/// the protocol, `restore` it into a *different* daemon process (fresh
/// `Server`), continue the stream there, and land on exactly the answer an
/// uninterrupted run produces. Both a flat (morris — RNG per update) and a
/// sharded (misra_gries) tenant cross the restart.
#[test]
fn protocol_snapshot_restore_continues_across_daemons() {
    let dir = std::env::temp_dir().join(format!("wbd-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let algs = [("flat_t", "morris"), ("shard_t", "misra_gries")];

    // Uninterrupted reference: the full 600-update stream in one daemon.
    let mut reference = std::collections::BTreeMap::new();
    {
        let server = Server::start(DaemonConfig {
            listen: "127.0.0.1:0".into(),
            threads: 2,
            shards: 4,
            chunk: 64,
            ..DaemonConfig::default()
        })
        .expect("start reference daemon");
        let mut sess = Session::connect(server.addr());
        for (tenant, alg) in algs {
            sess.expect_ok(&format!(
                "{{\"cmd\":\"hello\",\"tenant\":\"{tenant}\",\"alg\":\"{alg}\",\"seed\":7,\"n\":1024}}"
            ));
            sess.expect_ok(&insert_line(tenant, 0, 600));
            let reply = sess.expect_ok(&format!("{{\"cmd\":\"query\",\"tenant\":\"{tenant}\"}}"));
            reference.insert(tenant, reply.get("answer").unwrap().to_line());
        }
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }

    // First daemon: half the stream, then snapshot each tenant to disk.
    {
        let server = Server::start(DaemonConfig {
            listen: "127.0.0.1:0".into(),
            threads: 2,
            shards: 4,
            chunk: 64,
            ..DaemonConfig::default()
        })
        .expect("start first daemon");
        let mut sess = Session::connect(server.addr());
        for (tenant, alg) in algs {
            sess.expect_ok(&format!(
                "{{\"cmd\":\"hello\",\"tenant\":\"{tenant}\",\"alg\":\"{alg}\",\"seed\":7,\"n\":1024}}"
            ));
            sess.expect_ok(&insert_line(tenant, 0, 250));
            let reply = sess.expect_ok(&format!(
                "{{\"cmd\":\"snapshot\",\"tenant\":\"{tenant}\",\"path\":\"{}/{tenant}.wbsnap\"}}",
                dir.display()
            ));
            assert_eq!(reply.get("applied").and_then(Json::as_u64), Some(250));
            assert!(reply.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        }
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }

    // Second daemon (different chunk — transport must not matter): restore
    // from disk, finish the stream, compare answers byte-for-byte.
    {
        let server = Server::start(DaemonConfig {
            listen: "127.0.0.1:0".into(),
            threads: 1,
            shards: 4,
            chunk: 17,
            ..DaemonConfig::default()
        })
        .expect("start second daemon");
        let mut sess = Session::connect(server.addr());
        for (tenant, _alg) in algs {
            let reply = sess.expect_ok(&format!(
                "{{\"cmd\":\"restore\",\"path\":\"{}/{tenant}.wbsnap\"}}",
                dir.display()
            ));
            assert_eq!(reply.get("applied").and_then(Json::as_u64), Some(250));
            assert_eq!(
                reply.get("tenant_seed"),
                None,
                "restore echoed the tenant seed"
            );
            // Restoring over a live tenant is refused, typed.
            let dup = sess.roundtrip(&format!(
                "{{\"cmd\":\"restore\",\"path\":\"{}/{tenant}.wbsnap\"}}",
                dir.display()
            ));
            assert_eq!(
                dup.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("tenant_mismatch")
            );
            sess.expect_ok(&insert_line(tenant, 250, 350));
            let reply = sess.expect_ok(&format!("{{\"cmd\":\"query\",\"tenant\":\"{tenant}\"}}"));
            assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(600));
            assert_eq!(
                reply.get("answer").unwrap().to_line(),
                reference[tenant],
                "restored {tenant} must answer exactly as the uninterrupted run"
            );
        }
        // A missing file is a typed snapshot_failed, not a disconnect.
        let missing = sess.roundtrip(&format!(
            "{{\"cmd\":\"restore\",\"path\":\"{}/nope.wbsnap\"}}",
            dir.display()
        ));
        assert_eq!(
            missing
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("snapshot_failed")
        );
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `wbd-tenant` frame for a 4-shard misra_gries tenant whose header
/// claims `batch` updates per staging buffer. Restoring it builds the
/// tenant before reading the (empty) engine bytes.
fn crafted_frame(batch: usize) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_str("wbd-tenant");
    w.put_str("crafted");
    w.put_str("misra_gries");
    w.put_u64(7);
    w.put_u64(derive_seed(7, &["tenant", "crafted"]));
    w.put_u64(1024);
    w.put_f64(0.125);
    w.put_usize(4);
    w.put_usize(batch);
    for _ in 0..5 {
        w.put_u64(0); // accepted, applied, rejected, batches, queries
    }
    w.put_bool(true);
    w.put_bytes(&[]);
    w.finish()
}

/// A snapshot's `batch` field sizes every shard's staging buffer, so an
/// unchecked one of 2^32 would abort `wbd` on allocation and one of 2^60
/// would panic its reactor. The restore must be a typed `snapshot_failed`,
/// the same file in `--state-dir` must be skipped at startup, and the
/// daemon must keep serving a healthy tenant to a clean drain.
#[test]
fn crafted_snapshot_chunk_is_refused_and_the_daemon_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("wbd-crafted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let huge = [1usize << 32, 1 << 60];
    for batch in huge {
        std::fs::write(dir.join(format!("{batch:x}.wbsnap")), crafted_frame(batch))
            .expect("write crafted frame");
    }
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 2,
        state_dir: Some(dir.display().to_string()),
        ..DaemonConfig::default()
    })
    .expect("a daemon with crafted files in --state-dir still starts");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"healthy\",\"alg\":\"misra_gries\",\"seed\":7}");
    sess.expect_ok(&insert_line("healthy", 0, 300));
    for batch in huge {
        let reply = sess.roundtrip(&format!(
            "{{\"cmd\":\"restore\",\"path\":\"{}/{batch:x}.wbsnap\"}}",
            dir.display()
        ));
        let error = reply.get("error").expect("typed error");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("snapshot_failed")
        );
        let msg = error.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains("chunk must be at most"), "{msg}");
    }
    // The reactor survived: the same session and a fresh one both serve.
    sess.expect_ok(&insert_line("healthy", 300, 200));
    let mut other = Session::connect(server.addr());
    let reply = other.expect_ok("{\"cmd\":\"query\",\"tenant\":\"healthy\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(500));
    let metrics = other.expect_ok("{\"cmd\":\"metrics\"}");
    let count = metrics
        .get("metrics")
        .and_then(|m| m.get("tenants"))
        .and_then(|t| t.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(count, Some(1), "neither crafted frame became a tenant");
    other.expect_ok("{\"cmd\":\"bye\"}");
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("rollup");
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(500));
    assert_eq!(tenants.get("applied"), tenants.get("accepted"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--state-dir` persistence: a drained daemon writes every tenant to its
/// state directory and a fresh daemon pointed at the same directory picks
/// them up before accepting — a full restart with no client-side snapshot
/// choreography. The continued stream must again match an uninterrupted
/// run byte-for-byte.
#[test]
fn state_dir_round_trips_tenants_across_restarts() {
    let dir = std::env::temp_dir().join(format!("wbd-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 2,
        shards: 4,
        chunk: 64,
        state_dir: Some(dir.display().to_string()),
        ..DaemonConfig::default()
    };

    // Uninterrupted reference (no persistence involved).
    let reference = {
        let server = Server::start(DaemonConfig {
            state_dir: None,
            ..cfg()
        })
        .expect("start reference daemon");
        let mut sess = Session::connect(server.addr());
        sess.expect_ok(
            "{\"cmd\":\"hello\",\"tenant\":\"durable\",\"alg\":\"space_saving\",\"seed\":11,\"n\":2048}",
        );
        sess.expect_ok(&insert_line("durable", 0, 700));
        let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"durable\"}");
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
        reply.get("answer").unwrap().to_line()
    };

    {
        let server = Server::start(cfg()).expect("start persisted daemon");
        let mut sess = Session::connect(server.addr());
        sess.expect_ok(
            "{\"cmd\":\"hello\",\"tenant\":\"durable\",\"alg\":\"space_saving\",\"seed\":11,\"n\":2048}",
        );
        sess.expect_ok(&insert_line("durable", 0, 300));
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait(); // drain persists to the state dir
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().count() >= 1,
        "drain must leave a snapshot file behind"
    );

    {
        let server = Server::start(cfg()).expect("restart persisted daemon");
        let mut sess = Session::connect(server.addr());
        // The restored tenant answers hello idempotently (same alg + seed)
        // with its state intact — no re-creation.
        sess.expect_ok(
            "{\"cmd\":\"hello\",\"tenant\":\"durable\",\"alg\":\"space_saving\",\"seed\":11,\"n\":2048}",
        );
        let stats = sess.expect_ok("{\"cmd\":\"snapshot-stats\",\"tenant\":\"durable\"}");
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("applied"))
                .and_then(Json::as_u64),
            Some(300),
            "restart must restore mid-stream state: {}",
            stats.to_line()
        );
        sess.expect_ok(&insert_line("durable", 300, 400));
        let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"durable\"}");
        assert_eq!(
            reply.get("answer").unwrap().to_line(),
            reference,
            "stream continued across a restart must answer as uninterrupted"
        );
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `applied` count of `tenant`, via `snapshot-stats`.
fn applied(sess: &mut Session, tenant: &str) -> Option<u64> {
    let stats = sess.expect_ok(&format!(
        "{{\"cmd\":\"snapshot-stats\",\"tenant\":\"{tenant}\"}}"
    ));
    stats
        .get("stats")
        .and_then(|s| s.get("applied"))
        .and_then(Json::as_u64)
}

/// The `--state-dir` load at start-up goes through the same registration
/// as `hello`: a restart under a lower `--max-tenants` restores only that
/// many tenants (the first files in sorted order) and refuses the rest.
#[test]
fn state_dir_restart_under_a_lower_cap_restores_only_that_many() {
    let dir = std::env::temp_dir().join(format!("wbd-state-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |max_tenants| DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        max_tenants,
        state_dir: Some(dir.display().to_string()),
        ..DaemonConfig::default()
    };
    {
        let server = Server::start(cfg(8)).expect("start first daemon");
        let mut sess = Session::connect(server.addr());
        for tenant in ["t0", "t1", "t2"] {
            sess.expect_ok(&format!(
                "{{\"cmd\":\"hello\",\"tenant\":\"{tenant}\",\"alg\":\"morris\",\"seed\":1}}"
            ));
            sess.expect_ok(&insert_line(tenant, 0, 50));
        }
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }
    {
        let server = Server::start(cfg(2)).expect("restart under a lower cap");
        let loaded: Vec<String> = server
            .shared()
            .tenants
            .lock()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        assert_eq!(loaded, ["t0", "t1"], "the cap holds at start-up");
        let mut sess = Session::connect(server.addr());
        assert_eq!(applied(&mut sess, "t1"), Some(50));
        let reply =
            sess.roundtrip("{\"cmd\":\"hello\",\"tenant\":\"t2\",\"alg\":\"morris\",\"seed\":1}");
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("max_tenants")
        );
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second `*.wbsnap` carrying a tenant id already loaded is refused at
/// start-up: an older snapshot that a client wrote into the state
/// directory under a name sorting after the tenant's own file must not
/// replace the newer state the drain persisted.
#[test]
fn older_duplicate_snapshot_in_state_dir_does_not_replace_newer_state() {
    let dir = std::env::temp_dir().join(format!("wbd-state-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        state_dir: Some(dir.display().to_string()),
        ..DaemonConfig::default()
    };
    {
        let server = Server::start(cfg()).expect("start first daemon");
        let mut sess = Session::connect(server.addr());
        sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"dup\",\"alg\":\"misra_gries\",\"seed\":3}");
        sess.expect_ok(&insert_line("dup", 0, 100));
        let reply = sess.expect_ok(&format!(
            "{{\"cmd\":\"snapshot\",\"tenant\":\"dup\",\"path\":\"{}/zz.wbsnap\"}}",
            dir.display()
        ));
        assert_eq!(reply.get("applied").and_then(Json::as_u64), Some(100));
        sess.expect_ok(&insert_line("dup", 100, 200));
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait(); // persists `dup` at 300 applied next to zz.wbsnap
    }
    {
        let server = Server::start(cfg()).expect("restart");
        let mut sess = Session::connect(server.addr());
        assert_eq!(
            applied(&mut sess, "dup"),
            Some(300),
            "the older zz.wbsnap replaced the persisted state"
        );
        sess.expect_ok("{\"cmd\":\"bye\"}");
        server.begin_drain();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Server::start` refuses a pool larger than `MAX_THREADS` before it
/// binds or spawns anything.
#[test]
fn threads_above_the_bound_are_refused_by_start() {
    let refused = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: MAX_THREADS + 1,
        ..DaemonConfig::default()
    });
    match refused {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(_) => panic!("Server::start accepted threads = MAX_THREADS + 1"),
    }
}

/// Requests that trail a `shutdown` must still be served during the
/// drain, in both orderings a real client produces: pipelined (the whole
/// tail — ingest, query, shutdown, bye — goes out in one write, so the
/// trailing requests can sit unread in the kernel buffer behind the
/// parked ingest when the drain begins) and stop-and-wait (an idle
/// session sends `bye` only after the drain has already started). The
/// epoll reactor takes a final nonblocking read before a drain-idle
/// close and keeps idle sessions registered for a grace window; without
/// either, these clients see a broken pipe.
#[test]
fn requests_trailing_a_shutdown_are_served_during_drain() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();

    // Opened (and hello'd) before the drain; it goes idle and must still
    // be answerable after the drain begins.
    let mut stopwait = Session::connect(addr);
    stopwait
        .expect_ok("{\"cmd\":\"hello\",\"tenant\":\"tail-wait\",\"alg\":\"morris\",\"seed\":3}");

    let mut pipelined = Session::connect(addr);
    pipelined
        .expect_ok("{\"cmd\":\"hello\",\"tenant\":\"tail-pipe\",\"alg\":\"morris\",\"seed\":3}");
    // One write for the whole tail: the ingest parks on the pool, so the
    // requests behind it — including the shutdown that starts the drain
    // and the bye behind *that* — arrive while read interest is off. The
    // drain-idle close must read them out instead of discarding them.
    pipelined
        .writer
        .write_all(
            b"{\"cmd\":\"ingest\",\"tenant\":\"tail-pipe\",\"updates\":[1,2,3,4,5]}\n\
              {\"cmd\":\"query\",\"tenant\":\"tail-pipe\"}\n\
              {\"cmd\":\"shutdown\"}\n\
              {\"cmd\":\"bye\"}\n",
        )
        .expect("send pipelined tail");
    let r1 = pipelined.read_reply();
    assert_eq!(
        r1.get("accepted").and_then(Json::as_u64),
        Some(5),
        "{}",
        r1.to_line()
    );
    let r2 = pipelined.read_reply();
    assert_eq!(
        r2.get("processed").and_then(Json::as_u64),
        Some(5),
        "query pipelined behind the ingest must still be answered: {}",
        r2.to_line()
    );
    let r3 = pipelined.read_reply();
    assert_eq!(
        r3.get("draining"),
        Some(&Json::Bool(true)),
        "shutdown must acknowledge the drain: {}",
        r3.to_line()
    );
    let r4 = pipelined.read_reply();
    assert_eq!(r4.get("ok"), Some(&Json::Bool(true)), "{}", r4.to_line());
    let mut rest = String::new();
    assert_eq!(
        pipelined
            .reader
            .read_line(&mut rest)
            .expect("post-bye read"),
        0,
        "session must close cleanly after bye"
    );

    // Stop-and-wait: the daemon is now draining and this session has been
    // idle the whole time; the grace window must keep it open long enough
    // to answer the bye.
    stopwait.expect_ok("{\"cmd\":\"bye\"}");
    let mut rest = String::new();
    assert_eq!(
        stopwait.reader.read_line(&mut rest).expect("post-bye read"),
        0,
        "session must close cleanly after bye"
    );

    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(5));
    assert_eq!(
        tenants.get("applied").and_then(Json::as_u64),
        Some(5),
        "the drain must apply the batch accepted before it began"
    );
}

/// The request decoder on a live daemon: pipelined `ingest` lines that mix
/// bare items and `[item, delta]` pairs with whitespace between every
/// token are each acknowledged with their exact `accepted` count; a line
/// whose element `k` is malformed is refused with `bad_request` naming
/// `updates[k]` and changes nothing; the session keeps serving, and the
/// quiescent answer is the exact L0 of what was accepted.
#[test]
fn pipelined_spaced_ingest_lines_decode_exactly() {
    use std::collections::HashMap;

    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        shards: 2,
        chunk: 16,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"ws\",\"alg\":\"exact_l0\",\"seed\":5}");
    let ws = [" ", "\t", "  ", " \r ", "\t \t"];
    let mut net: HashMap<u64, i64> = HashMap::new();
    let mut lines = Vec::new();
    let mut accepted = Vec::new();
    for b in 0..12u64 {
        let sp = |i: u64| ws[((b * 7 + i) % ws.len() as u64) as usize];
        let mut elems = Vec::new();
        for i in 0..(20 + 9 * b) {
            let item = (b * 31 + i * 17) % 61;
            let (text, delta) = match i % 4 {
                0 | 2 => (item.to_string(), 1),
                1 => {
                    let delta = if i % 8 == 1 { -1 } else { 3 };
                    let (a, c, d, e) = (sp(i), sp(i + 1), sp(i + 2), sp(i + 3));
                    (format!("[{a}{item}{c},{d}{delta}{e}]"), delta)
                }
                _ => (format!("[{item},-2]"), -2),
            };
            *net.entry(item).or_default() += delta;
            elems.push(text);
        }
        let (a, c, d) = (sp(0), sp(1), sp(2));
        lines.push(format!(
            "{a}{{{c}\"cmd\"{d}:{a}\"ingest\"{c},{d}\"tenant\"{a}:{c}\"ws\"{d},{a}\"updates\"{c}:{d}[{a}{}{c}]{d}}}{a}",
            elems.join(&format!("{d},{a}"))
        ));
        accepted.push(elems.len() as u64);
    }
    // Element k of this line is an unsigned item with a fraction: the
    // whole batch is refused before admission.
    let k = 5;
    let bad = (0..9)
        .map(|i| {
            if i == k {
                "7.5".to_string()
            } else {
                format!("[ {i} , 1 ]")
            }
        })
        .collect::<Vec<_>>()
        .join(" , ");
    lines.insert(
        4,
        format!("{{ \"cmd\" : \"ingest\" , \"tenant\" : \"ws\" , \"updates\" : [ {bad} ] }}"),
    );
    let mut pipelined = lines.join("\n");
    pipelined.push('\n');
    sess.writer
        .write_all(pipelined.as_bytes())
        .expect("send pipelined lines");
    for (i, line) in lines.iter().enumerate() {
        let reply = sess.read_reply();
        if i == 4 {
            let error = reply.get("error").expect("the malformed line is refused");
            assert_eq!(
                error.get("kind").and_then(Json::as_str),
                Some("bad_request")
            );
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.starts_with(&format!("updates[{k}]: ")), "{message}");
            continue;
        }
        let want = accepted[if i < 4 { i } else { i - 1 }];
        assert_eq!(
            reply.get("accepted").and_then(Json::as_u64),
            Some(want),
            "{line:?} -> {}",
            reply.to_line()
        );
    }
    let total: u64 = accepted.iter().sum();
    let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"ws\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(total));
    let l0 = net.values().filter(|&&f| f != 0).count() as u64;
    let answer = reply.get("answer").expect("answer");
    assert_eq!(
        answer.get("value").and_then(Json::as_u64),
        Some(l0),
        "{}",
        answer.to_line()
    );
    let reply = sess.expect_ok("{\"cmd\":\"snapshot-stats\",\"tenant\":\"ws\"}");
    let stats = reply.get("stats").expect("tenant stats");
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(total));
    assert_eq!(stats.get("applied").and_then(Json::as_u64), Some(total));
    assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(0));
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(tenants.get("applied").and_then(Json::as_u64), Some(total));
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(total));
}
