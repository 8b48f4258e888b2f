//! Cross-crate integration: every major algorithm of the paper survives
//! the white-box game against adaptive adversaries, driven through the
//! engine's fluent builder (`wb_engine::Game`).

use wbstream::core::game::FnAdversary;
use wbstream::core::referee::{ApproxCountReferee, HeavyHitterReferee, L0SandwichReferee};
use wbstream::core::rng::{RandTranscript, TranscriptRng};
use wbstream::core::space::SpaceUsage;
use wbstream::core::stream::{InsertOnly, StreamAlg, Turnstile};
use wbstream::engine::erased::{
    run_erased, run_source_erased, DynStreamAlg, FnDynAdversary, Update,
};
use wbstream::engine::referee::RefereeSpec;
use wbstream::engine::workload::SliceSource;
use wbstream::engine::Game;
use wbstream::sketch::hhh::{HhhReferee, RadixHierarchy, RobustHHH};
use wbstream::sketch::l0::{MatrixMode, SisL0Estimator};
use wbstream::sketch::{MedianMorris, MisraGries, RobustL1HeavyHitters};

#[test]
fn morris_survives_transcript_aware_adversary() {
    // The adversary reads the exponent of every Morris copy from the
    // white-box view and stops at the "worst-looking" moment; the referee
    // checks every prefix anyway.
    let adv = FnAdversary::new(
        |t: u64, alg: &MedianMorris, tr: &RandTranscript, _last: Option<&f64>| {
            // Exercise all transcript accessors while deciding.
            let _ = (tr.seed(), tr.draws(), tr.last());
            let spread = alg
                .counters()
                .iter()
                .map(|c| c.exponent())
                .max()
                .unwrap_or(0)
                - alg
                    .counters()
                    .iter()
                    .map(|c| c.exponent())
                    .min()
                    .unwrap_or(0);
            // Stop when copies disagree maximally (an "unlucky" state).
            if t > 10_000 && spread >= 6 {
                None
            } else {
                Some(InsertOnly(0))
            }
        },
    );
    let report = Game::new(MedianMorris::new(0.2, 9))
        .adversary(adv)
        .referee(ApproxCountReferee::new(0.5))
        .max_rounds(60_000)
        .seed(1001)
        .run();
    assert!(report.survived(), "{:?}", report.result.failure);
}

#[test]
fn robust_hh_survives_output_feedback_adversary() {
    // The adversary uses the last *output* (legal even in the black-box
    // model) plus the internal sampling state to steer mass away from
    // reported items — coverage of the genuinely heavy item must persist.
    let n = 1u64 << 12;
    let m = 1u64 << 14;
    let mut cursor = 100u64;
    let adv = FnAdversary::new(
        move |t: u64,
              _alg: &RobustL1HeavyHitters,
              _tr: &RandTranscript,
              last: Option<&Vec<(u64, f64)>>| {
            if t >= m {
                return None;
            }
            if t.is_multiple_of(2) {
                return Some(InsertOnly(3)); // heavy item, 50%
            }
            // Avoid every currently reported item.
            let reported: Vec<u64> = last
                .map(|l| l.iter().map(|&(i, _)| i).collect())
                .unwrap_or_default();
            while reported.contains(&cursor) {
                cursor = 100 + (cursor + 1) % (n - 100);
            }
            let item = cursor;
            cursor = 100 + (cursor + 1) % (n - 100);
            Some(InsertOnly(item))
        },
    );
    let (report, alg) = Game::new(RobustL1HeavyHitters::new(n, 0.125))
        .adversary(adv)
        .referee(HeavyHitterReferee::new(0.125, 0.125).with_grace(64))
        .max_rounds(m)
        .seed(1002)
        .play();
    assert!(report.survived(), "{:?}", report.result.failure);
    assert!(alg
        .heavy_hitters()
        .iter()
        .any(|&(i, est)| i == 3 && est > 0.3 * m as f64));
}

#[test]
fn sis_l0_survives_deletion_storm_adversary() {
    // Adversary inserts blocks then deletes exactly the coordinates whose
    // chunk sketches it can see are nonzero — maximal turnstile churn.
    let n = 1u64 << 10;
    let mut seed_rng = TranscriptRng::from_seed(1003);
    let alg = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut seed_rng);
    let factor = alg.approximation_factor() as f64;
    let adv = FnAdversary::new(
        move |t: u64, _alg: &SisL0Estimator, _tr: &RandTranscript, _last: Option<&u64>| {
            if t > 4096 {
                return None;
            }
            let base = (t / 256) * 131;
            Some(if t.is_multiple_of(2) {
                Turnstile::insert((base + t * 7) % n)
            } else {
                Turnstile::delete((base + (t - 1) * 7) % n)
            })
        },
    );
    let report = Game::new(alg)
        .adversary(adv)
        .referee(L0SandwichReferee::new(factor))
        .max_rounds(4096)
        .seed(1004)
        .run();
    assert!(report.survived(), "{:?}", report.result.failure);
}

#[test]
fn robust_hhh_survives_scripted_ddos_in_game() {
    let h = RadixHierarchy::new(8, 2);
    let m = 16_000u64;
    let script: Vec<InsertOnly> = (0..m)
        .map(|t| {
            InsertOnly(match t % 10 {
                0..=3 => 0xAB01,
                4..=6 => 0xCD00 | (t % 256),
                _ => (t.wrapping_mul(2654435761)) & 0xFFFF,
            })
        })
        .collect();
    let report = Game::new(RobustHHH::new(h, 0.05, 0.25))
        .script(script)
        .referee(
            HhhReferee::new(h, 0.25, 0.10)
                .with_grace(1024)
                .with_stride(1009),
        )
        .max_rounds(m)
        .seed(1005)
        .run();
    assert!(report.survived(), "{:?}", report.result.failure);
}

#[test]
fn peak_space_tracks_the_heaviest_epoch() {
    // The report's peak-space accounting must be ≥ final space, and it must
    // equal the maximum over every round of an independent replay: the same
    // script, one update at a time, on a fresh instance with the same seed.
    let n = 1u64 << 10;
    let script: Vec<InsertOnly> = (0..4096u64).map(|t| InsertOnly(t % 8)).collect();
    let report = Game::new(RobustL1HeavyHitters::new(n, 0.25))
        .script(script.clone())
        .referee(HeavyHitterReferee::new(0.25, 0.25).with_grace(32))
        .seed(1006)
        .run();
    assert!(report.survived());
    assert_eq!(report.checks, 4096);
    assert!(report.result.peak_space_bits >= report.result.final_space_bits);

    let mut oracle = RobustL1HeavyHitters::new(n, 0.25);
    let mut rng = TranscriptRng::from_seed(1006);
    let mut peak = oracle.space_bits();
    for u in &script {
        oracle.process(u, &mut rng);
        peak = peak.max(oracle.space_bits());
    }
    assert_eq!(peak, report.result.peak_space_bits);
    assert_eq!(oracle.space_bits(), report.result.final_space_bits);
}

/// Everything a game's outcome is made of: rounds, checks, first failure
/// round, peak and final space, and the final Misra–Gries table.
type Outcome = (u64, u64, Option<u64>, u64, u64, Vec<(u64, u64)>);

fn outcome(report: &wbstream::engine::GameReport, alg: &MisraGries) -> Outcome {
    let r = &report.result;
    (
        r.rounds,
        report.checks,
        r.failure.as_ref().map(|f| f.round),
        r.peak_space_bits,
        r.final_space_bits,
        alg.entries(),
    )
}

fn erased_outcome(report: &wbstream::engine::GameReport, alg: &dyn DynStreamAlg) -> Outcome {
    let mg = alg
        .as_any()
        .downcast_ref::<MisraGries>()
        .expect("MisraGries");
    outcome(report, mg)
}

#[test]
fn typed_and_erased_games_agree_on_scripts_and_adversaries() {
    // The typed builder and the erased drivers play one round protocol:
    // the same algorithm, stream, referee and seed must give the same
    // report and final state through either door, in a configuration the
    // algorithm survives (enough counters) and one it fails (too few).
    let n = 1u64 << 10;
    let (eps, seed) = (0.125, 9);
    let script: Vec<u64> = (0..600u64)
        .map(|t| [1, 2, t % 97 + 3][t as usize % 3])
        .collect();
    let spec = RefereeSpec::HeavyHitters {
        eps,
        tol: eps,
        phi: None,
        grace: 0,
    };
    let mut survived = [false, false];
    for counters in [16, 1] {
        for chunk in [1, 7, 64] {
            let (typed, alg) = Game::new(MisraGries::with_counters(counters, n))
                .script(script.iter().map(|&i| InsertOnly(i)).collect())
                .referee(HeavyHitterReferee::new(eps, eps))
                .batch(chunk)
                .seed(seed)
                .play();
            let updates: Vec<Update> = script.iter().map(|&i| Update::Insert(i)).collect();
            let mut erased: Box<dyn DynStreamAlg> =
                Box::new(MisraGries::with_counters(counters, n));
            let report = run_source_erased(
                erased.as_mut(),
                &mut SliceSource::new(&updates),
                spec.build().as_mut(),
                chunk,
                seed,
            )
            .unwrap();
            assert_eq!(
                outcome(&typed, &alg),
                erased_outcome(&report, erased.as_ref()),
                "{counters} counters, chunk {chunk}"
            );
            survived[usize::from(typed.survived())] = true;
        }

        // A state-reading adversary: a heavy item every other round, else
        // the smallest item the table does not track.
        let pick = |t: u64, mg: &MisraGries| {
            let tracked: Vec<u64> = mg.entries().iter().map(|&(i, _)| i).collect();
            if t.is_multiple_of(2) {
                1
            } else {
                (2..).find(|i| !tracked.contains(i)).unwrap()
            }
        };
        let (typed, alg) = Game::new(MisraGries::with_counters(counters, n))
            .adversary(FnAdversary::new(
                |t, mg: &MisraGries, _tr: &RandTranscript, _last: Option<&Vec<(u64, f64)>>| {
                    Some(InsertOnly(pick(t, mg)))
                },
            ))
            .referee(HeavyHitterReferee::new(eps, eps))
            .max_rounds(500)
            .seed(seed)
            .play();
        let mut adversary = FnDynAdversary::new(|t, alg: &dyn DynStreamAlg, _tr, _last| {
            let mg = alg
                .as_any()
                .downcast_ref::<MisraGries>()
                .expect("MisraGries");
            Some(Update::Insert(pick(t, mg)))
        });
        let mut erased: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(counters, n));
        let report = run_erased(
            erased.as_mut(),
            &mut adversary,
            spec.build().as_mut(),
            500,
            seed,
        )
        .unwrap();
        assert_eq!(
            outcome(&typed, &alg),
            erased_outcome(&report, erased.as_ref()),
            "{counters} counters, adversary"
        );
        survived[usize::from(typed.survived())] = true;
    }
    assert_eq!(survived, [true, true], "both verdicts must be exercised");
}
