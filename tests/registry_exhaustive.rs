//! Satellite of the tournament tentpole: every algorithm in the registry
//! must be *playable* against every registered adversary — constructible
//! from its `(name, Params)` pair and able to complete at least one round
//! of the erased white-box game. Catches an algorithm added to the
//! registry but unplayable against some adversary (wrong update model,
//! universe assert, constructor panic).

use wb_engine::erased::run_erased;
use wb_engine::referee::RefereeSpec;
use wb_engine::registry::{self, Params};

#[test]
fn every_algorithm_plays_every_adversary() {
    let params = Params::default().with_n(1 << 10).with_m(64);
    let algs = registry::names();
    let adversaries = registry::adversary_names();
    assert!(algs.len() >= 12, "registry shrank to {}", algs.len());
    assert!(
        adversaries.len() >= 5,
        "only {} adversaries",
        adversaries.len()
    );

    for alg_name in &algs {
        for adv_name in &adversaries {
            let mut alg = registry::get(alg_name, &params)
                .unwrap_or_else(|e| panic!("{alg_name}: construction failed: {e}"));
            let mut adv = registry::adversary(adv_name, &params)
                .unwrap_or_else(|e| panic!("{adv_name}: construction failed: {e}"));
            // Accept-all referee: this test measures playability, not the
            // correctness guarantee (the tournament measures that).
            let mut referee = RefereeSpec::Accept.build();
            let report = run_erased(alg.as_mut(), adv.as_mut(), referee.as_mut(), 64, 3)
                .unwrap_or_else(|e| panic!("{alg_name} vs {adv_name}: {e}"));
            assert!(
                report.result.rounds >= 1,
                "{alg_name} vs {adv_name} completed zero rounds"
            );
            assert!(report.survived(), "{alg_name} vs {adv_name} under Accept");
        }
    }
}

#[test]
fn erased_games_are_send() {
    // Compile-time satellite of the Send audit: a fully erased game
    // (algorithm + adversary + referee) must be movable to a worker thread.
    fn assert_send<T: Send>(_: &T) {}
    let params = Params::default().with_n(1 << 10).with_m(16);
    let alg = registry::get("robust_hh", &params).unwrap();
    let adv = registry::adversary("hh_evader", &params).unwrap();
    let referee = RefereeSpec::Accept.build();
    assert_send(&alg);
    assert_send(&adv);
    assert_send(&referee);
    std::thread::spawn(move || {
        let (mut alg, mut adv, mut referee) = (alg, adv, referee);
        run_erased(alg.as_mut(), adv.as_mut(), referee.as_mut(), 8, 1).unwrap()
    })
    .join()
    .unwrap();
}

#[test]
fn out_of_universe_items_are_refused_without_unwinding() {
    // Hostile items through the erased layer: an algorithm that declares a
    // universe refuses them with `Err` before applying anything; one that
    // declares none accepts them. Neither may unwind.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wb_core::rng::TranscriptRng;
    use wb_engine::erased::Update;

    let n: u64 = 1 << 10;
    let params = Params::default().with_n(n);
    // (hostile?, a single `process_dyn` update, else a batch)
    let mut cases: Vec<(bool, Option<Update>, Vec<Update>)> = Vec::new();
    for item in [n, u64::MAX] {
        cases.push((true, Some(Update::Insert(item)), Vec::new()));
        cases.push((true, None, vec![Update::Insert(item)]));
    }
    cases.push((false, None, Vec::new()));
    let mixed = [0, n - 1, u64::MAX, 1].map(Update::Insert).to_vec();
    cases.push((true, None, mixed));

    for name in registry::names() {
        let declared = registry::get(name, &params).unwrap().universe_dyn();
        assert!(
            declared.is_none_or(|bound| bound == n),
            "{name}: universe {declared:?} is not n = {n}"
        );
        for (hostile, one, batch) in &cases {
            let what = format!("{one:?} / batch {batch:?}");
            let mut alg = registry::get(name, &params).unwrap();
            let mut rng = TranscriptRng::from_seed(7);
            alg.process_dyn(&Update::Insert(0), &mut rng).unwrap();
            let before = alg.snapshot_dyn().unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| match one {
                Some(u) => alg.process_dyn(u, &mut rng),
                None => alg.process_batch_dyn(batch, &mut rng),
            }))
            .unwrap_or_else(|_| panic!("{name}: {what} unwound"));
            if *hostile && declared.is_some() {
                let err = outcome.expect_err(&format!("{name}: {what} was accepted"));
                assert!(err.to_string().contains("universe"), "{name}: {err}");
                assert_eq!(
                    alg.snapshot_dyn().unwrap(),
                    before,
                    "{name}: refused {what} changed the state"
                );
            } else {
                outcome.unwrap_or_else(|e| panic!("{name}: {what} refused: {e}"));
            }
        }
    }
}
