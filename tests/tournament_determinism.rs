//! Satellite of the tournament tentpole: the JSON report of a tournament
//! run must be **byte-identical** across thread counts for the same master
//! seed. Every cell's random tapes derive from
//! `(master_seed, alg, adversary, workload, role)` and the pool reassembles
//! results in submission order, so scheduling freedom must be invisible.

use wb_engine::tournament::{run_tournament, CellVerdict, TournamentConfig};

/// Full registry cross-product at smoke scale, pinned master seed.
fn config(threads: usize) -> TournamentConfig {
    let mut cfg = TournamentConfig::default().quick();
    cfg.master_seed = 0xDEC0DE;
    cfg.threads = threads;
    // Smaller than --quick: three full cross-products run in this test.
    cfg.prelude_m = 192;
    cfg.rounds = 96;
    cfg.batch = 64;
    cfg
}

#[test]
fn tournament_reports_are_byte_identical_across_thread_counts() {
    let report_1 = run_tournament(&config(1), None).unwrap();
    let report_4 = run_tournament(&config(4), None).unwrap();
    let report_8 = run_tournament(&config(8), None).unwrap();

    // The full cross-product ran each time.
    let expected_cells = config(1).cell_count();
    assert!(expected_cells >= 12 * 5 * 5, "registry shrank?");
    assert_eq!(report_1.cells.len(), expected_cells);
    assert_eq!(report_4.cells.len(), expected_cells);
    assert_eq!(report_8.cells.len(), expected_cells);
    assert_eq!(report_4.threads, 4);
    assert_eq!(report_8.threads, 8);

    // Byte-identical sorted JSON reports, regardless of worker count.
    let json_1 = report_1.json_lines().join("\n");
    let json_4 = report_4.json_lines().join("\n");
    let json_8 = report_8.json_lines().join("\n");
    assert!(!json_1.is_empty());
    assert_eq!(json_1, json_4, "1 vs 4 threads diverged");
    assert_eq!(json_1, json_8, "1 vs 8 threads diverged");
}

#[test]
fn sharded_tournament_reports_are_byte_identical_across_thread_counts() {
    // Sharded ingestion's determinism contract: with the prelude split
    // across 4 shard instances, the JSON report stays a pure function of
    // the configuration for --threads 1 / 4 / 8.
    let sharded = |threads: usize| {
        let mut cfg = config(threads);
        cfg.shards = 4;
        cfg
    };
    let json_1 = run_tournament(&sharded(1), None)
        .unwrap()
        .json_lines()
        .join("\n");
    let json_4 = run_tournament(&sharded(4), None)
        .unwrap()
        .json_lines()
        .join("\n");
    let json_8 = run_tournament(&sharded(8), None)
        .unwrap()
        .json_lines()
        .join("\n");
    assert!(!json_1.is_empty());
    assert_eq!(json_1, json_4, "sharded: 1 vs 4 threads diverged");
    assert_eq!(json_1, json_8, "sharded: 1 vs 8 threads diverged");
    assert!(json_1.contains(r#""shards":4"#));
    // No cell may error out under sharding: unmergeable algorithms fall
    // back to flat single-stream ingestion instead of failing.
    for report in [run_tournament(&sharded(2), None).unwrap()] {
        for cell in &report.cells {
            assert_ne!(
                cell.verdict,
                CellVerdict::Error,
                "{} vs {} on {} errored under sharding: {}",
                cell.alg,
                cell.adversary,
                cell.workload,
                cell.detail
            );
        }
    }
}

#[test]
fn tournament_is_reproducible_for_the_same_master_seed_only() {
    let mut other_seed = config(2);
    other_seed.master_seed = 0xBEEF;
    let a = run_tournament(&config(2), None)
        .unwrap()
        .json_lines()
        .join("\n");
    let b = run_tournament(&other_seed, None)
        .unwrap()
        .json_lines()
        .join("\n");
    // Seeds differ in every line (they embed the derived per-cell seed).
    assert_ne!(a, b, "master seed must perturb the report");
}

#[test]
fn tournament_cells_carry_real_outcomes() {
    let report = run_tournament(&config(3), None).unwrap();
    // Every cell either played rounds or explains why it could not.
    for cell in &report.cells {
        match cell.verdict {
            CellVerdict::Survived => {
                assert!(cell.rounds > 0, "{} survived 0 rounds", cell.alg);
                assert!(cell.detail.is_empty());
            }
            CellVerdict::Violated { round } => {
                assert!(round >= 1 && round <= cell.rounds + 1);
                assert!(!cell.detail.is_empty());
            }
            CellVerdict::Incompatible => assert!(!cell.detail.is_empty()),
            CellVerdict::Error => panic!(
                "cell {} vs {} on {} errored: {}",
                cell.alg, cell.adversary, cell.workload, cell.detail
            ),
        }
        assert!(cell.peak_space_bits >= cell.final_space_bits || cell.rounds == 0);
    }
    // The turnstile algorithms play every workload; insertion-only ones
    // record churn as incompatible rather than erroring.
    let incompatible = report
        .cells
        .iter()
        .filter(|c| c.verdict == CellVerdict::Incompatible)
        .count();
    assert!(incompatible > 0, "churn x insertion-only must be recorded");
    assert!(report
        .cells
        .iter()
        .filter(|c| c.alg == "exact_l0")
        .all(|c| c.verdict == CellVerdict::Survived));
}
