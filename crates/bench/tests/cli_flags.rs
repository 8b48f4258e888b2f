//! Experiment binaries refuse bad flags and report failures by exit status:
//! a typo such as `--quikc` or `--chunk 0` must exit with status 2 (and
//! name the flag) instead of running the full-scale workload, and a JSON
//! report that cannot be written must exit with status 1.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_without_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e1_hh_space"))
        .arg("--quikc")
        .output()
        .expect("spawn exp_e1_hh_space");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--quikc"), "flag not named: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "a table was printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
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

#[test]
fn zero_chunk_exits_2_without_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e1_hh_space"))
        .args(["--quick", "--chunk", "0"])
        .output()
        .expect("spawn exp_e1_hh_space");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--chunk"), "flag not named: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "a table was printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
