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
    let algs = registry::names();
    let adversaries = registry::adversary_names();
    assert!(algs.len() >= 12, "registry shrank to {}", algs.len());
    assert!(
        adversaries.len() >= 5,
        "only {} adversaries",
        adversaries.len()
    );

    // n = 7 is smaller than the items several generators emit, so every
    // scripted adversary must fold its stream into the universe.
    for n in [1 << 10, 7] {
        let params = Params::default().with_n(n).with_m(64);
        for alg_name in &algs {
            for adv_name in &adversaries {
                let mut alg = registry::get(alg_name, &params)
                    .unwrap_or_else(|e| panic!("{alg_name} at n = {n}: construction failed: {e}"));
                let mut adv = match registry::adversary(adv_name, &params) {
                    Ok(adv) => adv,
                    // The evader's documented refusal: it needs room to
                    // evade into.
                    Err(e) if *adv_name == "hh_evader" && n < 16 => {
                        assert!(e.to_string().contains("n >= 16"), "{e}");
                        continue;
                    }
                    Err(e) => panic!("{adv_name} at n = {n}: construction failed: {e}"),
                };
                // Accept-all referee: this test measures playability, not
                // the correctness guarantee (the tournament measures that).
                let mut referee = RefereeSpec::Accept.build();
                let report = run_erased(alg.as_mut(), adv.as_mut(), referee.as_mut(), 64, 3)
                    .unwrap_or_else(|e| panic!("{alg_name} vs {adv_name} at n = {n}: {e}"));
                assert!(
                    report.result.rounds >= 1,
                    "{alg_name} vs {adv_name} at n = {n} completed zero rounds"
                );
                assert!(
                    report.survived(),
                    "{alg_name} vs {adv_name} at n = {n} under Accept"
                );
            }
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

#[test]
fn hostile_params_are_refused_without_unwinding() {
    // Parameters that once panicked a constructor: δ so small that the
    // Morris base offset 2ε²δ underflows to zero at the smallest ε, and a
    // zero horizon for the fixed-horizon samplers. Every algorithm that
    // reads the parameter refuses it with `Err`; no algorithm unwinds.
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let base = Params::default().with_n(1 << 10);
    let delta_readers = ["bern_mg", "bernoulli_hh", "morris"];
    let mut cases: Vec<(String, Params, &[&str])> = Vec::new();
    for delta in [5e-324, f64::MIN_POSITIVE, 1e-300, 0.0] {
        cases.push((
            format!("eps 2^-16, delta {delta:e}"),
            base.clone().with_eps(1.0 / 65536.0).with_delta(delta),
            &delta_readers,
        ));
    }
    cases.push((
        "m_guess 0".to_string(),
        base.clone().with_m_guess(0),
        &["bern_mg", "bernoulli_hh"],
    ));

    for (what, params, readers) in &cases {
        for name in readers.iter() {
            let got = catch_unwind(AssertUnwindSafe(|| registry::get(name, params).is_ok()))
                .unwrap_or_else(|_| panic!("{name} unwound at {what}"));
            assert!(!got, "{name} accepted {what}");
        }
    }
    // The floor itself is accepted, and a constructed counter is usable.
    let floor = base.with_eps(1.0 / 65536.0).with_delta(1.0 / 2f64.powi(64));
    for name in delta_readers {
        let mut alg = registry::get(name, &floor).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut rng = wb_core::rng::TranscriptRng::from_seed(1);
        alg.process_dyn(&wb_engine::erased::Update::Insert(3), &mut rng)
            .unwrap();
        let _ = alg.query_dyn();
    }
}

#[test]
fn extreme_turnstile_deltas_are_refused_without_unwinding() {
    // Deltas at the edges of `i64` through the erased layer, one update
    // and inside a batch: out of every model, so every algorithm refuses
    // them with `Err`, leaves its state as it was, and never unwinds (an
    // `i64::MIN` delta once overflowed turnstile counters). The model's
    // pre-validation agrees with the refusal.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wb_core::rng::TranscriptRng;
    use wb_engine::erased::Update;

    let params = Params::default().with_n(1 << 10);
    for name in registry::names() {
        for delta in [i64::MIN, i64::MIN + 1, i64::MAX] {
            let hostile = Update::Turnstile { item: 1, delta };
            for batched in [false, true] {
                let what = format!("delta {delta} (batched: {batched})");
                let mut alg = registry::get(name, &params).unwrap();
                assert!(!alg.model_dyn().accepts(&hostile), "{name}: {what}");
                let mut rng = TranscriptRng::from_seed(7);
                alg.process_dyn(&Update::Insert(0), &mut rng).unwrap();
                let before = alg.snapshot_dyn().unwrap();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if batched {
                        alg.process_batch_dyn(&[Update::Insert(2), hostile], &mut rng)
                    } else {
                        alg.process_dyn(&hostile, &mut rng)
                    }
                }))
                .unwrap_or_else(|_| panic!("{name}: {what} unwound"));
                assert!(outcome.is_err(), "{name}: {what} was accepted");
                assert_eq!(
                    alg.snapshot_dyn().unwrap(),
                    before,
                    "{name}: refused {what} changed the state"
                );
            }
        }
    }
}

#[test]
fn huge_batches_match_a_chunked_feed_without_unwinding() {
    // One batch of the largest chunk (`shard::MAX_CHUNK`
    // updates) and one update longer, fed through every algorithm in one
    // `process_batch_dyn` call and one `process_dyn` call per update. Each
    // feed must return (never unwind), and end in the outcome, answer and
    // snapshot of the same updates fed in 1024-update chunks. All of them
    // are in the algorithm's model, so every feed is accepted.
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wb_core::rng::TranscriptRng;
    use wb_engine::erased::{DynStreamAlg, Update};
    use wb_engine::shard::MAX_CHUNK;

    let n: u64 = 1 << 10;
    let params = Params::default().with_n(n);
    type Feed = fn(&mut dyn DynStreamAlg, &[Update], &mut TranscriptRng) -> Result<(), String>;
    let batched: Feed = |alg, updates, rng| {
        alg.process_batch_dyn(updates, rng)
            .map_err(|e| e.to_string())
    };
    let scalar: Feed = |alg, updates, rng| {
        updates
            .iter()
            .try_for_each(|u| alg.process_dyn(u, rng))
            .map_err(|e| e.to_string())
    };
    let chunked: Feed = |alg, updates, rng| {
        updates
            .chunks(1024)
            .try_for_each(|c| alg.process_batch_dyn(c, rng))
            .map_err(|e| e.to_string())
    };
    for name in registry::names() {
        let deletions = registry::get(name, &params)
            .unwrap()
            .model_dyn()
            .accepts(&Update::Turnstile { item: 1, delta: -1 });
        for len in [MAX_CHUNK, MAX_CHUNK + 1] {
            let updates: Vec<Update> = (0..len as u64)
                .map(|i| {
                    let item = i.wrapping_mul(0x9e37_79b9) % n;
                    match (deletions, i % 3) {
                        (true, 0) => Update::Turnstile { item, delta: -1 },
                        (true, _) => Update::Turnstile { item, delta: 2 },
                        (false, _) => Update::Insert(item),
                    }
                })
                .collect();
            let run = |feed: Feed, how: &str| {
                let mut alg = registry::get(name, &params).unwrap();
                let mut rng = TranscriptRng::from_seed(11);
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| feed(alg.as_mut(), &updates, &mut rng)))
                        .unwrap_or_else(|_| panic!("{name}: {how} feed of {len} unwound"));
                (outcome.is_ok(), alg.query_dyn(), alg.snapshot_dyn().ok())
            };
            let reference = run(chunked, "chunked");
            assert!(reference.0, "{name}: in-model updates refused");
            for (feed, how) in [(batched, "batched"), (scalar, "scalar")] {
                assert!(
                    run(feed, how) == reference,
                    "{name}: {how} feed of {len} differs from the chunked feed"
                );
            }
        }
    }
}
