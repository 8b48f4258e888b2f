//! Workspace smoke test: the facade re-exports must resolve and compose.
//!
//! Exercises one object from each of the three foundational layers through
//! the `wbstream` facade paths (not the `wb_*` crates directly): a `core`
//! game driving a `sketch` Morris counter, and a `crypto` SIS sketch applied
//! end-to-end.

use wbstream::core::game::{FnReferee, Verdict};
use wbstream::core::rng::TranscriptRng;
use wbstream::core::space::SpaceUsage;
use wbstream::core::stream::InsertOnly;
use wbstream::crypto::sis::{is_sis_solution, SisMatrix, SisParams};
use wbstream::engine::Game;
use wbstream::sketch::MorrisCounter;

#[test]
fn core_game_drives_a_sketch_morris_counter() {
    let m: u64 = 4096;
    let alg = MorrisCounter::new(0.5, 0.01);
    let script: Vec<InsertOnly> = (0..m).map(InsertOnly).collect();
    // Generous referee: the game plumbing is under test, not Lemma 2.1's
    // constants — only rule out wildly wrong estimates.
    let referee = FnReferee::new(|t: u64, est: &f64| {
        if t < 64 || (*est >= t as f64 / 100.0 && *est <= t as f64 * 100.0) {
            Verdict::Correct
        } else {
            Verdict::violation(format!("estimate {est} far from true count {t}"))
        }
    });
    let (report, alg) = Game::new(alg)
        .script(script)
        .referee(referee)
        .max_rounds(m)
        .seed(42)
        .play();
    assert!(report.survived(), "Morris counter lost the white-box game");
    assert!(alg.space_bits() <= 64, "Morris state must stay word-sized");
    assert!(alg.estimate() > 0.0);
}

#[test]
fn crypto_sis_sketch_composes_with_core_rng() {
    let params = SisParams {
        d: 4,
        w: 12,
        q: 1_000_003,
        beta_inf: 8,
    };
    params.validate().expect("valid SIS parameters");

    let mut rng = TranscriptRng::from_seed(7);
    let matrix = SisMatrix::random_explicit(params, &mut rng);

    // Sketch a short vector and its negation: linearity means the sum
    // sketches to zero, and the zero vector is never a SIS *solution*
    // (solutions must be nonzero).
    let x: Vec<i64> = (0..12).map(|i| (i % 5) as i64 - 2).collect();
    let sketch = matrix.apply(&x);
    assert_eq!(sketch.len(), 4);
    assert!(sketch.iter().all(|&v| v < params.q));

    let zero = vec![0i64; 12];
    assert_eq!(matrix.apply(&zero), vec![0u64; 4]);
    assert!(!is_sis_solution(&matrix, &zero));
}

#[test]
fn facade_modules_all_resolve() {
    // One symbol per facade module: a compile-time check that every
    // re-exported crate is wired into the workspace DAG.
    let _ = wbstream::strings::period(&[1u64, 2, 1, 2]);
    let _ = wbstream::linalg::ZqMatrix::zero(2, 2, 97);
    let _ = wbstream::graph::VertexArrival::new(3, [0u64, 1]);
    let _ = wbstream::lowerbounds::ExactCounter;
}
