//! Reactor soak: 1000 concurrent pipelined sessions against a single
//! epoll reactor thread.
//!
//! Each session owns one tenant and writes its whole conversation after
//! `hello` — two ingests, a query, and `bye` — in **one** pipelined
//! write, then reads the four replies back. The checks are exactly the
//! reactor's contract:
//!
//! * no reply is lost and replies arrive in per-session request order
//!   (positional matching is the pipelining protocol);
//! * all 1000 sessions are registered with the reactor simultaneously
//!   (`reactor.sessions_peak`), i.e. the load is concurrent, not serial;
//! * the graceful drain loses nothing: `applied == accepted` globally.
//!
//! The driver is deliberately single-threaded: phases (connect+hello all,
//! write all, read all) force every session to be open at once without
//! needing 1000 client threads. Linux-only, like the epoll reactor it
//! loads.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use wb_daemon::json::Json;
use wb_daemon::{DaemonConfig, Server};

const SESSIONS: usize = 1000;
const FIRST_BATCH: u64 = 60;
const SECOND_BATCH: u64 = 40;

fn read_json(reader: &mut BufReader<TcpStream>, what: &str) -> Json {
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("read reply");
    assert!(n > 0, "daemon closed the connection before {what}");
    Json::parse(reply.trim_end()).unwrap_or_else(|e| panic!("malformed {what} {reply:?}: {e}"))
}

fn expect_ok(reply: &Json, what: &str) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{what}: {}",
        reply.to_line()
    );
}

/// The ingest line for session `s`: `count` inserts over a small universe,
/// offset so the two batches concatenate to one fixed 100-update stream.
fn ingest_line(tenant: &str, s: u64, from: u64, count: u64) -> String {
    let updates: Vec<String> = (from..from + count)
        .map(|i| ((s * 131 + i * 2_654_435_761) % 509).to_string())
        .collect();
    format!(
        "{{\"cmd\":\"ingest\",\"tenant\":\"{tenant}\",\"updates\":[{}]}}",
        updates.join(",")
    )
}

#[test]
fn thousand_pipelined_sessions_on_one_reactor_thread() {
    let server = Server::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        threads: 2,
        shards: 1,
        chunk: 64,
        ..DaemonConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();

    // Phase 1: open every session and say hello. Reading each hello reply
    // before moving on guarantees the session is registered with the
    // reactor, so by the end of the loop all 1000 coexist.
    let mut sessions: Vec<(BufReader<TcpStream>, TcpStream, String)> = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let tenant = format!("soak-{s:04}");
        writer
            .write_all(
                format!(
                    "{{\"cmd\":\"hello\",\"tenant\":\"{tenant}\",\"alg\":\"morris\",\"seed\":5}}\n"
                )
                .as_bytes(),
            )
            .expect("send hello");
        let reply = read_json(&mut reader, "hello reply");
        expect_ok(&reply, &tenant);
        sessions.push((reader, writer, tenant));
    }

    // All 1000 sessions are live right now: the daemon must say so.
    {
        let stream = TcpStream::connect(addr).expect("connect metrics session");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(b"{\"cmd\":\"metrics\"}\n{\"cmd\":\"bye\"}\n")
            .expect("send metrics");
        let reply = read_json(&mut reader, "metrics reply");
        expect_ok(&reply, "metrics");
        let m = reply.get("metrics").expect("metrics payload");
        let active = m
            .get("sessions")
            .and_then(|s| s.get("active"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(active >= SESSIONS as u64, "only {active} sessions active");
        let registered = m
            .get("reactor")
            .and_then(|r| r.get("registered"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            registered >= SESSIONS as u64,
            "only {registered} sessions registered with the reactor"
        );
        read_json(&mut reader, "bye reply");
    }

    // Phase 2: every session writes its entire remaining conversation in
    // one pipelined block — the reactor parks ingests mid-line-buffer and
    // must still answer strictly in order.
    for (s, (_, writer, tenant)) in sessions.iter_mut().enumerate() {
        let block = format!(
            "{}\n{}\n{{\"cmd\":\"query\",\"tenant\":\"{tenant}\"}}\n{{\"cmd\":\"bye\"}}\n",
            ingest_line(tenant, s as u64, 0, FIRST_BATCH),
            ingest_line(tenant, s as u64, FIRST_BATCH, SECOND_BATCH),
        );
        writer.write_all(block.as_bytes()).expect("send block");
    }

    // Phase 3: read the four replies per session. Positional matching IS
    // the pipelining contract — any lost, duplicated, or reordered reply
    // shows up as the wrong `accepted`/`processed` value here.
    for (s, (reader, _, tenant)) in sessions.iter_mut().enumerate() {
        let r1 = read_json(reader, "first ingest reply");
        expect_ok(&r1, tenant);
        assert_eq!(
            r1.get("accepted").and_then(Json::as_u64),
            Some(FIRST_BATCH),
            "session {s}"
        );
        let r2 = read_json(reader, "second ingest reply");
        expect_ok(&r2, tenant);
        assert_eq!(
            r2.get("accepted").and_then(Json::as_u64),
            Some(SECOND_BATCH),
            "session {s}"
        );
        let r3 = read_json(reader, "query reply");
        expect_ok(&r3, tenant);
        assert_eq!(
            r3.get("processed").and_then(Json::as_u64),
            Some(FIRST_BATCH + SECOND_BATCH),
            "session {s}: query must be quiescent and ordered after both ingests"
        );
        let r4 = read_json(reader, "bye reply");
        expect_ok(&r4, tenant);
        // bye closes the session server-side: next read must be EOF.
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("post-bye read"),
            0,
            "session {s} must close after bye"
        );
    }

    server.begin_drain();
    let finals = server.wait();
    let total = (SESSIONS as u64) * (FIRST_BATCH + SECOND_BATCH);
    let tenants = finals.get("tenants").expect("tenants rollup");
    assert_eq!(
        tenants.get("count").and_then(Json::as_u64),
        Some(SESSIONS as u64)
    );
    assert_eq!(tenants.get("accepted").and_then(Json::as_u64), Some(total));
    assert_eq!(
        tenants.get("applied").and_then(Json::as_u64),
        Some(total),
        "graceful drain must apply every accepted update"
    );
    assert_eq!(tenants.get("rejected").and_then(Json::as_u64), Some(0));
    let sessions_m = finals.get("sessions").expect("session stats");
    assert_eq!(sessions_m.get("opened"), sessions_m.get("closed"));
    let reactor = finals.get("reactor").expect("reactor stats");
    assert!(
        reactor.get("sessions_peak").and_then(Json::as_u64).unwrap() >= SESSIONS as u64,
        "the reactor must have held all sessions concurrently: {}",
        reactor.to_line()
    );
    assert_eq!(
        reactor.get("registered").and_then(Json::as_u64),
        Some(0),
        "every session deregistered by the end of the drain"
    );
    assert_eq!(
        reactor.get("write_queue_bytes").and_then(Json::as_u64),
        Some(0),
        "no bytes may remain queued after the drain"
    );
}
