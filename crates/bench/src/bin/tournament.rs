//! `tournament` — play every registered algorithm against every adversary
//! on every workload, in parallel, with bit-reproducible reports.
//!
//! ```text
//! tournament [--threads N] [--shards S] [--prelude-m M] [--chunk C]
//!            [--quick] [--seed S] [--json <path|->] [--cells]
//!            [--resume PATH] [--checkpoint-every N]
//!            [--alg KEY]... [--adversary KEY]... [--workload KEY]...
//! ```
//!
//! * `--threads N` — worker threads (default: one per core). Reports are
//!   byte-identical for every `N`.
//! * `--shards S` — partition each cell's workload prelude across `S`
//!   shard instances and merge them in a deterministic reduction tree
//!   (mergeable algorithms only; the rest keep flat ingestion). Reports
//!   stay byte-identical across thread counts for any fixed `S`.
//! * `--prelude-m M` — length of each cell's oblivious prelude
//!   (underscores allowed: `10_000_000`). The prelude is *streamed* in
//!   `--chunk`-sized pulls, so memory stays O(threads × chunk) no matter
//!   how large `M` is. Overrides the `--quick` prelude when both are
//!   given.
//! * `--chunk C` — prelude chunk size (default 4096). Pure transport: the
//!   report is byte-identical for every `C`.
//! * `--quick` — smoke-scale cell sizes (CI mode); the cross-product stays
//!   full.
//! * `--seed S` — master seed; each cell's tapes derive from
//!   `(S, alg, adversary, workload, role)` and can be replayed alone.
//! * `--json <path|->` — write the sorted JSON-lines report (timing-free).
//! * `--cells` — print every cell, not just the per-algorithm summary.
//! * `--resume PATH` — checkpoint file for `run_tournament`. Completed
//!   cells found in the file are reused; in-flight cells continue from
//!   their latest mid-prelude frame; progress is persisted back to PATH
//!   (atomic tmp+rename) as cells finish. A killed run restarted with the same
//!   flags produces a report byte-identical to an uninterrupted one. A
//!   file that cannot be read, or was taken under other flags, exits 1.
//! * `--checkpoint-every N` — also capture a mid-prelude frame every `N`
//!   prelude updates per cell (flat ingestion only), so even a single
//!   giant cell survives a kill without restarting its prelude. Requires
//!   `--resume`. Frames are chunk-invariant: `--chunk` never changes them.
//! * `--alg/--adversary/--workload` — restrict a dimension (repeatable).

use wb_engine::experiment::write_json_report;
use wb_engine::registry;
use wb_engine::tournament::{run_tournament, CheckpointConfig, TournamentConfig, WORKLOADS};

fn main() {
    let mut quick = false;
    let mut show_cells = false;
    let mut json: Option<String> = None;
    let mut threads = 0usize;
    let mut shards = 1usize;
    let mut prelude_m: Option<u64> = None;
    let mut chunk: Option<usize> = None;
    let mut seed = 42u64;
    let mut resume: Option<String> = None;
    let mut checkpoint_every = 0u64;
    let mut algs: Vec<String> = Vec::new();
    let mut adversaries: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            // Refuse a following flag as the value: `--json --quick` must
            // error, not swallow `--quick` as the path.
            match args.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--cells" => show_cells = true,
            "--json" => json = Some(value("--json")),
            "--threads" => threads = parse(&value("--threads"), "--threads"),
            "--shards" => {
                shards = parse(&value("--shards"), "--shards");
                if shards == 0 {
                    eprintln!("--shards must be >= 1");
                    std::process::exit(2);
                }
            }
            "--prelude-m" => prelude_m = Some(parse(&value("--prelude-m"), "--prelude-m")),
            "--chunk" => {
                chunk = Some(parse(&value("--chunk"), "--chunk"));
                if chunk == Some(0) {
                    eprintln!("--chunk must be >= 1");
                    std::process::exit(2);
                }
            }
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--resume" => resume = Some(value("--resume")),
            "--checkpoint-every" => {
                checkpoint_every = parse(&value("--checkpoint-every"), "--checkpoint-every");
            }
            "--alg" => algs.push(value("--alg")),
            "--adversary" => adversaries.push(value("--adversary")),
            "--workload" => workloads.push(value("--workload")),
            other => {
                eprintln!(
                    "unknown flag '{other}' (known: --quick, --cells, --json, --threads, \
                     --shards, --prelude-m, --chunk, --seed, --resume, --checkpoint-every, \
                     --alg, --adversary, --workload)"
                );
                std::process::exit(2);
            }
        }
    }

    let mut cfg = TournamentConfig::default();
    if quick {
        cfg = cfg.quick();
    }
    cfg.master_seed = seed;
    cfg.threads = threads;
    cfg.shards = shards;
    if let Some(m) = prelude_m {
        cfg.prelude_m = m; // after quick(): an explicit -m wins
    }
    if let Some(c) = chunk {
        cfg.batch = c;
    }
    if !algs.is_empty() {
        validate(&algs, &registry::names(), "algorithm");
        cfg.algs = algs;
    }
    if !adversaries.is_empty() {
        validate(&adversaries, &registry::adversary_names(), "adversary");
        cfg.adversaries = adversaries;
    }
    if !workloads.is_empty() {
        validate(&workloads, WORKLOADS, "workload");
        cfg.workloads = workloads;
    }
    if checkpoint_every > 0 && resume.is_none() {
        eprintln!("--checkpoint-every requires --resume PATH (the checkpoint file)");
        std::process::exit(2);
    }

    println!(
        "tournament: {} algorithms x {} adversaries x {} workloads = {} cells, \
         prelude m = {} streamed in chunks of {}, master seed {}{}{}",
        cfg.algs.len(),
        cfg.adversaries.len(),
        cfg.workloads.len(),
        cfg.cell_count(),
        cfg.prelude_m,
        cfg.batch,
        cfg.master_seed,
        if cfg.shards > 1 {
            format!("  [sharded prelude: {} shards]", cfg.shards)
        } else {
            String::new()
        },
        if quick { "  [--quick]" } else { "" },
    );

    // Cell panics are caught by run_cell and reported as error cells; quiet
    // the default hook so worker backtraces don't interleave with tables.
    // (Binary-only: the library never touches process-global panic state.)
    std::panic::set_hook(Box::new(|_| {}));
    let ckpt = resume.as_ref().map(|path| CheckpointConfig {
        path: path.into(),
        every: checkpoint_every,
    });
    let report = match run_tournament(&cfg, ckpt.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            let _ = std::panic::take_hook();
            eprintln!(
                "could not resume from {}: {e}",
                resume.as_deref().unwrap_or_default()
            );
            std::process::exit(1);
        }
    };
    let _ = std::panic::take_hook();
    report.print_summary();
    if show_cells {
        report.print_cells();
    } else {
        let failures = report.failures();
        if !failures.is_empty() {
            println!("\nviolations and errors ({}):", failures.len());
            for c in failures {
                println!(
                    "  {} vs {} on {} [{}] round {}: {}",
                    c.alg,
                    c.adversary,
                    c.workload,
                    c.verdict.label(),
                    c.rounds,
                    c.detail
                );
            }
        }
    }
    println!(
        "\n{} cells in {} ms on {} thread{} (per-cell seeds derive from master seed {})",
        report.cells.len(),
        report.wall_millis,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
        report.master_seed,
    );

    if let Some(path) = json {
        write_json_report(&path, &report.json_lines());
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    // Underscore separators are allowed: `--prelude-m 10_000_000`.
    value.replace('_', "").parse().unwrap_or_else(|_| {
        eprintln!("{flag}: could not parse '{value}'");
        std::process::exit(2);
    })
}

fn validate(chosen: &[String], known: &[&str], what: &str) {
    for key in chosen {
        if !known.contains(&key.as_str()) {
            eprintln!("unknown {what} '{key}' (known: {})", known.join(", "));
            std::process::exit(2);
        }
    }
}
