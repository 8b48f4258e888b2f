//! The daemon's determinism contract, end to end over loopback:
//!
//! * every tenant's query answer is **byte-identical** to an offline
//!   engine run of the same stream with the same derived seeds
//!   (`derive_seed(base, ["tenant", id])`, then `["ctor"]` / `["game"]`),
//!   flat and sharded alike;
//! * the answers are invariant across server configurations — `--threads
//!   1` vs `4` × transport chunk 64 vs 256 — because per-tenant ordering
//!   plus the engine's chunk-invariance contract make concurrency pure
//!   transport;
//! * protocol-level bad input dies with typed JSON errors, never a
//!   disconnect: unknown algorithm, `n == 0`, unknown tenant, wrong model,
//!   out-of-range delta, hello mismatch, malformed request, over-quota
//!   ingest.
//!
//! `wbd` serves through its epoll reactor, so these tests run on Linux.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use wb_daemon::json::Json;
use wb_daemon::proto::answer_to_json;
use wb_daemon::{DaemonConfig, Server};
use wbstream::core::rng::{derive_seed, TranscriptRng};
use wbstream::engine::registry::{self, Params};
use wbstream::engine::shard::{probe_mergeable, Partition, ShardConfig, ShardPipeline};
use wbstream::engine::Update;

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

    fn expect_error(&mut self, line: &str, kind: &str) -> Json {
        let reply = self.roundtrip(line);
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(false)),
            "{}",
            reply.to_line()
        );
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(kind),
            "expected a '{kind}' error for {line:?}, got {}",
            reply.to_line()
        );
        reply
    }
}

const SEED_BASE: u64 = 1234;
const DAEMON_SHARDS: usize = 4;

/// The determinism fleet: registry name, explicit shard override for
/// `hello`, and whether the stream uses turnstile updates.
const TENANTS: &[(&str, &str, Option<usize>, bool)] = &[
    ("det-mg", "misra_gries", None, false),
    ("det-ss", "space_saving", Some(2), false),
    ("det-cm", "count_min", None, false),
    ("det-l0", "exact_l0", None, true),
    ("det-ams", "ams_f2", Some(3), true),
    ("det-morris", "morris", None, false),
    ("det-mm", "median_morris", None, false),
];

/// The whole per-tenant stream, deterministic in the tenant tag only.
fn stream_for(tag: u64, turnstile: bool) -> Vec<Update> {
    (0..700u64)
        .map(|i| {
            let x = (tag * 999_983 + i * 2_654_435_761) % 1_024;
            if turnstile {
                let delta = if i % 5 == 4 { -2i64 } else { 3 };
                Update::Turnstile { item: x, delta }
            } else {
                Update::Insert(x)
            }
        })
        .collect()
}

fn update_json(u: &Update) -> String {
    match u {
        Update::Insert(x) => x.to_string(),
        Update::Turnstile { item, delta } => format!("[{item},{delta}]"),
    }
}

/// Replicate the daemon's per-tenant run offline: same seed derivation,
/// same flat/sharded decision, same snapshot-merge query path. Returns
/// the answer serialized exactly as the wire protocol would.
fn offline_answer(
    id: &str,
    alg: &str,
    shards_override: Option<usize>,
    updates: &[Update],
    chunk: usize,
) -> String {
    let tenant_seed = derive_seed(SEED_BASE, &["tenant", id]);
    let params = Params::default().with_seed(derive_seed(tenant_seed, &["ctor"]));
    let game_seed = derive_seed(tenant_seed, &["game"]);
    let ctor = |_: usize| registry::get(alg, &params);
    let wanted = shards_override.unwrap_or(DAEMON_SHARDS).max(1);
    let shards = if wanted > 1 && probe_mergeable(&ctor).unwrap() {
        wanted
    } else {
        1
    };
    let answer = if shards > 1 {
        let cfg = ShardConfig {
            shards,
            partition: Partition::Hash,
            threads: 1,
            batch: chunk,
            master_seed: game_seed,
        };
        let mut pipeline = ShardPipeline::new(&ctor, &cfg).unwrap();
        pipeline.push(updates);
        pipeline.snapshot_merged(&ctor).unwrap().query_dyn()
    } else {
        let mut alg = registry::get(alg, &params).unwrap();
        let mut rng = TranscriptRng::from_seed(game_seed);
        alg.process_batch_dyn(updates, &mut rng).unwrap();
        alg.query_dyn()
    };
    answer_to_json(&answer).to_line()
}

/// Run the whole fleet against one server configuration; tenants are
/// driven concurrently (one session each), batches split at `wire_batch`.
/// Returns `(tenant id, answer json, shards)` sorted by id.
fn run_fleet(threads: usize, chunk: usize, wire_batch: usize) -> Vec<(String, String, u64)> {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads,
        shards: DAEMON_SHARDS,
        chunk,
        seed: 42, // irrelevant: every hello declares its own seed base
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();
    let handles: Vec<_> = TENANTS
        .iter()
        .enumerate()
        .map(|(tag, &(id, alg, shards_override, turnstile))| {
            std::thread::spawn(move || {
                let mut sess = Session::connect(addr);
                let shards_field = shards_override
                    .map(|s| format!(",\"shards\":{s}"))
                    .unwrap_or_default();
                let hello = format!(
                    "{{\"cmd\":\"hello\",\"tenant\":\"{id}\",\"alg\":\"{alg}\",\
                     \"seed\":{SEED_BASE}{shards_field}}}"
                );
                let reply = sess.expect_ok(&hello);
                // The tenant's tape derives from its seed, so the reply
                // must not echo it; the client derives it from its own
                // seed base (`offline_answer`).
                assert_eq!(
                    reply.get("tenant_seed"),
                    None,
                    "hello echoed the tenant seed"
                );
                let shards = reply.get("shards").and_then(Json::as_u64).unwrap();
                let updates = stream_for(tag as u64, turnstile);
                for batch in updates.chunks(wire_batch) {
                    let body: Vec<String> = batch.iter().map(update_json).collect();
                    let line = format!(
                        "{{\"cmd\":\"ingest\",\"tenant\":\"{id}\",\"updates\":[{}]}}",
                        body.join(",")
                    );
                    sess.expect_ok(&line);
                }
                let reply = sess.expect_ok(&format!("{{\"cmd\":\"query\",\"tenant\":\"{id}\"}}"));
                assert_eq!(
                    reply.get("processed").and_then(Json::as_u64),
                    Some(updates.len() as u64)
                );
                let answer = reply.get("answer").expect("answer").to_line();
                sess.expect_ok("{\"cmd\":\"bye\"}");
                (id.to_string(), answer, shards)
            })
        })
        .collect();
    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .collect();
    results.sort();
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("rollup");
    assert_eq!(tenants.get("applied"), tenants.get("accepted"));
    results
}

#[test]
fn daemon_answers_match_offline_runs_and_are_config_invariant() {
    // Four deliberately different servers: --threads {1, 4} × transport
    // chunk {64 with small wire batches, 256 with large ones}.
    let run_a = run_fleet(1, 64, 50);
    for (threads, chunk, wire_batch) in [(4, 256, 700), (1, 256, 700), (4, 64, 50)] {
        assert_eq!(
            run_fleet(threads, chunk, wire_batch),
            run_a,
            "daemon answers must be invariant across --threads and chunk sizes \
             (threads {threads}, chunk {chunk})"
        );
    }
    for (tag, &(id, alg, shards_override, turnstile)) in TENANTS.iter().enumerate() {
        let updates = stream_for(tag as u64, turnstile);
        // The offline ShardConfig batch mirrors run_a's chunk; equality
        // with run_b (chunk 256) already proves batch is pure transport.
        let expected = offline_answer(id, alg, shards_override, &updates, 64);
        let (rid, answer, _) = &run_a[run_a
            .binary_search_by(|probe| probe.0.as_str().cmp(id))
            .expect("tenant present")];
        assert_eq!(rid, id);
        assert_eq!(
            *answer, expected,
            "{id} ({alg}): daemon answer must be byte-identical to the offline run"
        );
    }
}

/// A second `hello` that disagrees with a tenant is refused as
/// `tenant_mismatch`, naming both algorithms but neither seed: a first
/// `hello` without `seed` takes the daemon's secret `--seed` as its base.
#[test]
fn tenant_mismatch_names_algorithms_but_no_seed() {
    let (daemon_seed, hello_seed) = (9_081_726_354u64, 5_647_382_910u64);
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        seed: daemon_seed,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"s\",\"alg\":\"misra_gries\"}");
    let cases = [
        (
            format!("{{\"cmd\":\"hello\",\"tenant\":\"s\",\"alg\":\"misra_gries\",\"seed\":{hello_seed}}}"),
            "tenant 's' exists with alg 'misra_gries' (got alg 'misra_gries' and a different seed)",
        ),
        (
            "{\"cmd\":\"hello\",\"tenant\":\"s\",\"alg\":\"morris\"}".to_string(),
            "tenant 's' exists with alg 'misra_gries' (got alg 'morris' and the same seed)",
        ),
    ];
    for (line, want) in cases {
        let reply = sess.expect_error(&line, "tenant_mismatch");
        let msg = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(msg, want);
        let text = reply.to_line();
        for seed in [daemon_seed, hello_seed] {
            assert!(
                !text.contains(&seed.to_string()),
                "{text} prints seed {seed}"
            );
        }
    }
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    server.wait();
}

#[test]
fn protocol_rejections_are_typed_and_keep_the_session_alive() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());

    // Malformed requests: still a reply, still a session.
    sess.expect_error("this is not json", "bad_request");
    sess.expect_error("{\"cmd\":\"frobnicate\"}", "bad_request");
    sess.expect_error(
        "{\"cmd\":\"hello\",\"tenant\":\"\",\"alg\":\"morris\"}",
        "bad_request",
    );
    sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"updates\":[{\"item\":1}]}",
        "bad_request",
    );

    // Unknown algorithm and invalid constructor parameters.
    let err = sess.expect_error(
        "{\"cmd\":\"hello\",\"tenant\":\"t\",\"alg\":\"no_such_alg\",\"seed\":1}",
        "invalid_parameter",
    );
    let msg = err
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("no_such_alg"), "{msg}");
    sess.expect_error(
        "{\"cmd\":\"hello\",\"tenant\":\"t\",\"alg\":\"misra_gries\",\"seed\":1,\"n\":0}",
        "invalid_parameter",
    );

    // Operations on a tenant that never said hello.
    sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"ghost\",\"updates\":[1]}",
        "unknown_tenant",
    );
    sess.expect_error("{\"cmd\":\"query\",\"tenant\":\"ghost\"}", "unknown_tenant");

    // Model violations against a live insert-only tenant: deletions and
    // over-budget deltas are refused all-or-nothing, with the offending
    // index named, and the rejected counter records the whole batch.
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"t\",\"alg\":\"misra_gries\",\"seed\":1}");
    let err = sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"t\",\"updates\":[5,[6,-1]]}",
        "wrong_model",
    );
    let msg = err
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("updates[1]"), "{msg}");
    sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"t\",\"updates\":[[7,1048577]]}",
        "wrong_model",
    );
    let stats = sess.expect_ok("{\"cmd\":\"snapshot-stats\",\"tenant\":\"t\"}");
    let st = stats.get("stats").expect("stats payload");
    assert_eq!(st.get("accepted").and_then(Json::as_u64), Some(0));
    assert_eq!(st.get("rejected").and_then(Json::as_u64), Some(3));

    // Re-hello must redeclare the same identity.
    sess.expect_error(
        "{\"cmd\":\"hello\",\"tenant\":\"t\",\"alg\":\"morris\",\"seed\":1}",
        "tenant_mismatch",
    );
    sess.expect_error(
        "{\"cmd\":\"hello\",\"tenant\":\"t\",\"alg\":\"misra_gries\",\"seed\":2}",
        "tenant_mismatch",
    );

    // The tenant survived every rejection: a clean batch still lands.
    let reply = sess.expect_ok("{\"cmd\":\"ingest\",\"tenant\":\"t\",\"updates\":[1,2,1]}");
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(3));
    let reply = sess.expect_ok("{\"cmd\":\"query\",\"tenant\":\"t\"}");
    assert_eq!(reply.get("processed").and_then(Json::as_u64), Some(3));
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    server.wait();
}

/// `--max-updates-per-tenant`: admission-time quota enforcement. An
/// over-quota batch is refused all-or-nothing with a typed
/// `quota_exceeded` error, the session and tenant survive, the refused
/// batch counts as rejected, and a later batch that fits still lands.
#[test]
fn ingest_quota_is_enforced_with_a_typed_error() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 1,
        max_updates_per_tenant: 10,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let mut sess = Session::connect(server.addr());
    sess.expect_ok("{\"cmd\":\"hello\",\"tenant\":\"q\",\"alg\":\"morris\",\"seed\":1}");
    let reply =
        sess.expect_ok("{\"cmd\":\"ingest\",\"tenant\":\"q\",\"updates\":[1,2,3,4,5,6,7,8]}");
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(8));
    // 8 + 5 > 10: refused whole, with the arithmetic in the message.
    let err = sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"q\",\"updates\":[1,2,3,4,5]}",
        "quota_exceeded",
    );
    let msg = err
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("10-update quota"), "{msg}");
    // The session and the tenant both survived: a batch that fits the
    // remaining headroom lands exactly at the quota...
    let reply = sess.expect_ok("{\"cmd\":\"ingest\",\"tenant\":\"q\",\"updates\":[9,10]}");
    assert_eq!(reply.get("accepted").and_then(Json::as_u64), Some(2));
    // ...and once full, even a single update is refused.
    sess.expect_error(
        "{\"cmd\":\"ingest\",\"tenant\":\"q\",\"updates\":[11]}",
        "quota_exceeded",
    );
    let stats = sess.expect_ok("{\"cmd\":\"snapshot-stats\",\"tenant\":\"q\"}");
    let st = stats.get("stats").expect("stats payload");
    assert_eq!(st.get("accepted").and_then(Json::as_u64), Some(10));
    assert_eq!(st.get("rejected").and_then(Json::as_u64), Some(6));
    sess.expect_ok("{\"cmd\":\"bye\"}");
    server.begin_drain();
    let finals = server.wait();
    let tenants = finals.get("tenants").expect("rollup");
    assert_eq!(tenants.get("applied").and_then(Json::as_u64), Some(10));
    assert_eq!(tenants.get("rejected").and_then(Json::as_u64), Some(6));
}
