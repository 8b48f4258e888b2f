//! Experiment binaries refuse unknown flags: a typo such as `--quikc` must
//! exit with status 2 and name the flag, not run the full-scale workload.

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
