//! Experiment binaries refuse bad flags and report failures by exit status:
//! a typo such as `--quikc`, or a flag the runner does not have such as the
//! tournament's `--chunk`, must exit with status 2 (and name the flag)
//! instead of running the full-scale workload, and a JSON report that
//! cannot be written must exit with status 1. The tournament binary
//! refuses shard counts and chunks outside the engine's bounds the same way.

use std::process::Command;
use wb_engine::shard::{MAX_CHUNK, MAX_SHARDS};

/// `--chunk` is a tournament flag: the experiment runner ingests each game
/// row in its declared batch, so the flag is unknown here, at any value.
#[test]
fn unknown_flag_exits_2_without_running() {
    for args in [&["--quikc"][..], &["--quick", "--chunk", "0"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_e1_hh_space"))
            .args(args)
            .output()
            .expect("spawn exp_e1_hh_space");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| **a != "--quick").unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "flag not named: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "a table was printed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn unwritable_json_report_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e1_hh_space"))
        .args(["--quick", "--json", "/nonexistent-dir/r.jsonl"])
        .output()
        .expect("spawn exp_e1_hh_space");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("r.jsonl"), "path not named: {stderr}");
}

/// Each sharded cell builds `--shards` instances with a `--chunk`-update
/// staging buffer apiece, so the tournament refuses values outside
/// `[1, MAX]` before it runs a cell, as `wbd` does.
#[test]
fn tournament_refuses_shards_and_chunk_outside_the_bounds() {
    for (flag, value) in [
        ("--shards", 0),
        ("--shards", MAX_SHARDS + 1),
        ("--chunk", 0),
        ("--chunk", MAX_CHUNK + 1),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tournament"))
            .args(["--quick", flag, &value.to_string()])
            .output()
            .expect("spawn tournament");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "flag not named: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "the tournament started: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
