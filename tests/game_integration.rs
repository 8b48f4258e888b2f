//! Cross-crate integration: every major algorithm of the paper survives
//! the white-box game against adaptive adversaries, driven through the
//! engine's fluent builder (`wb_engine::Game`).

use wbstream::core::game::FnAdversary;
use wbstream::core::referee::{ApproxCountReferee, HeavyHitterReferee, L0SandwichReferee};
use wbstream::core::rng::{RandTranscript, TranscriptRng};
use wbstream::core::space::SpaceUsage;
use wbstream::core::stream::{InsertOnly, StreamAlg, Turnstile};
use wbstream::engine::Game;
use wbstream::sketch::hhh::{HhhReferee, RadixHierarchy, RobustHHH};
use wbstream::sketch::l0::{MatrixMode, SisL0Estimator};
use wbstream::sketch::{MedianMorris, RobustL1HeavyHitters};

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
