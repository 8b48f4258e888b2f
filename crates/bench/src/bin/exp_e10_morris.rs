//! E10 (Lemma 2.1): Morris counters under adaptive white-box adversaries.
//!
//! Claim shape: across many seeds, an adversary that watches the exponents
//! and stops at the "worst" moment cannot push the failure rate above the
//! oblivious one; space grows ~log log m. The adaptive games run through
//! the engine's builder with the real
//! [`wb_core::referee::ApproxCountReferee`].

use wb_core::game::FnAdversary;
use wb_core::referee::ApproxCountReferee;
use wb_core::rng::RandTranscript;
use wb_core::stream::InsertOnly;
use wb_engine::experiment::{run_cli, ExperimentSpec, GameRow, Metric, Row, RunCtx, Section};
use wb_engine::registry::Params;
use wb_engine::{Game, RefereeSpec, WorkloadSpec};
use wb_sketch::MedianMorris;

fn adaptive_row(log_m: u32) -> Row {
    Row::custom(format!("2^{log_m}"), move |ctx: &RunCtx| {
        let m = ctx.cap(1 << log_m, 1 << 11);
        let games = ctx.trials(20, 4);
        let mut survived = 0;
        let mut peak = 0;
        for seed in 0..games {
            // White-box adversary: stop when the copies disagree the most.
            let adversary = FnAdversary::new(
                move |t: u64, alg: &MedianMorris, _tr: &RandTranscript, _l: Option<&f64>| {
                    let exps: Vec<u64> = alg.counters().iter().map(|c| c.exponent()).collect();
                    let spread = exps.iter().max().unwrap() - exps.iter().min().unwrap();
                    if t >= m || (t > m / 2 && spread >= 8) {
                        None
                    } else {
                        Some(InsertOnly(0))
                    }
                },
            );
            let report = Game::new(MedianMorris::new(0.2, 9))
                .adversary(adversary)
                .referee(ApproxCountReferee::new(0.5))
                .max_rounds(m)
                .seed(3000 + seed)
                .run();
            if report.survived() {
                survived += 1;
            }
            peak = peak.max(report.result.peak_space_bits);
        }
        vec![games.to_string(), survived.to_string(), peak.to_string()]
    })
}

fn main() {
    let mut adaptive = Section::new(
        "E10a: adaptive-stopping adversary vs MedianMorris(0.2, 9), eps tol 0.5",
        &["m", "games", "survived", "peak bits"],
        12,
    );
    for log_m in [12u32, 14, 16] {
        adaptive = adaptive.row(adaptive_row(log_m));
    }

    let mut single = Section::new(
        "E10b: single-counter space vs stream length (log log m growth); a = 0.125",
        &["m", "estimate", "space bits", "ok"],
        12,
    );
    for log_m in [10u32, 14, 18, 22, 26] {
        single = single.row(Row::game(
            GameRow::new(
                format!("2^{log_m}"),
                "morris",
                // MorrisCounter::new(eps, delta) sets a = 2·eps²·delta; the
                // classic a = 0.125 base is eps = 0.5, delta = 0.25.
                Params {
                    eps: 0.5,
                    delta: 0.25,
                    ..Params::default()
                },
                WorkloadSpec::Cycle {
                    items: 1,
                    m: 1 << log_m,
                },
                RefereeSpec::Accept,
            )
            .seed(log_m as u64)
            .batch(4096)
            .metrics(&[Metric::Answer, Metric::SpaceBits, Metric::Ok]),
        ));
    }

    run_cli(
        ExperimentSpec::new("e10", "Morris counters vs adaptive stopping")
            .section(adaptive)
            .section(single)
            .note(
                "E10a: the adaptive stopper wins no more often than oblivious chance.\n\
                 E10b: bits grow by ~0.5 per doubling of log m — the log log m curve\n\
                 (a single counter has no amplification, so the referee is Accept here;\n\
                 E10a carries the refereed guarantee).",
            ),
    );
}
