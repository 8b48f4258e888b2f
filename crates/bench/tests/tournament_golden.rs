//! Golden-report test for the tournament: the JSON-lines report of
//! `tournament --quick` (master seed 42), flat and at `--shards 4`, is
//! pinned to committed files in exactly the bytes `--json` writes. Every
//! cell's verdict, round count, check count and space then stays tied to
//! the build that recorded them — a drift in the game loop, a kernel, a
//! generator or a referee fails here even when it is deterministic across
//! thread counts.
//!
//! To regenerate after an *intentional* report change:
//!
//! ```text
//! WB_REGEN_GOLDEN=1 cargo test -p bench --test tournament_golden
//! ```

use wb_engine::tournament::{run_tournament, TournamentConfig};

fn check_golden(shards: usize, file: &str) {
    let cfg = TournamentConfig {
        threads: 2,
        shards,
        ..TournamentConfig::default().quick()
    };
    assert_eq!(
        cfg.master_seed, 42,
        "--quick runs at the default master seed"
    );
    let actual = run_tournament(&cfg, None).unwrap().json_lines().join("\n") + "\n";

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file);
    if std::env::var_os("WB_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map_or_else(
                || "line counts differ".to_string(),
                |(a, g)| format!("first differing line\n  got:    {a}\n  golden: {g}"),
            );
        panic!(
            "tournament --quick report (shards {shards}) drifted from {}: {first}\n\
             if intentional, regenerate with \
             WB_REGEN_GOLDEN=1 cargo test -p bench --test tournament_golden",
            path.display()
        );
    }
}

#[test]
fn quick_tournament_report_matches_golden() {
    check_golden(1, "tournament_quick.jsonl");
}

#[test]
fn quick_sharded_tournament_report_matches_golden() {
    check_golden(4, "tournament_quick_shards4.jsonl");
}
