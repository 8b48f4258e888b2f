//! `wbd` refuses out-of-range and unknown flags before it binds: each case
//! must exit with status 2, name the flag on stderr, and print no
//! `listening` event. A daemon that serves instead is polled for a few
//! seconds, then killed, and the case fails.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use wb_daemon::server::MAX_THREADS;
use wb_engine::shard::{MAX_CHUNK, MAX_SHARDS};

/// Run `wbd --listen 127.0.0.1:0 ARGS` and assert it exits 2 naming `flag`.
fn refused_before_binding(args: &[&str], flag: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wbd"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wbd");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll wbd").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let out = child.wait_with_output().expect("reap wbd");
            panic!(
                "wbd {args:?} kept running instead of exiting 2; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect wbd output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "wbd {args:?}; stderr: {stderr}");
    assert!(
        stderr.contains(flag),
        "wbd {args:?} did not name {flag}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "wbd {args:?} bound a socket: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn threads_above_the_bound_exit_2() {
    refused_before_binding(&["--threads", &(MAX_THREADS + 1).to_string()], "--threads");
}

#[test]
fn shards_outside_their_range_exit_2() {
    refused_before_binding(&["--shards", "0"], "--shards");
    refused_before_binding(&["--shards", &(MAX_SHARDS + 1).to_string()], "--shards");
}

#[test]
fn chunk_outside_its_range_exits_2() {
    refused_before_binding(&["--chunk", "0"], "--chunk");
    refused_before_binding(&["--chunk", &(MAX_CHUNK + 1).to_string()], "--chunk");
}

#[test]
fn unknown_flag_exits_2() {
    refused_before_binding(&["--bogus"], "--bogus");
}
