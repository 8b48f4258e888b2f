//! The fluent game builder — the single typed entry point for driving a
//! white-box adversarial game.
//!
//! ```
//! use wb_engine::Game;
//! use wb_core::game::{FnReferee, Verdict};
//! use wb_core::stream::InsertOnly;
//! use wb_sketch::MisraGries;
//!
//! let script: Vec<InsertOnly> = (0..500).map(|t| InsertOnly(t % 4)).collect();
//! let report = Game::new(MisraGries::new(0.1, 1 << 10))
//!     .script(script)
//!     .referee(FnReferee::new(|_t, _out: &Vec<(u64, f64)>| Verdict::Correct))
//!     .seed(7)
//!     .run();
//! assert!(report.survived());
//! assert_eq!(report.result.rounds, 500);
//! assert_eq!(report.checks, 500);
//! ```
//!
//! Every game reports through one [`GameReport`] (first violation, rounds,
//! peak and final space, and the number of referee checks). A fixed
//! oblivious script enters through [`Game::script`] and is ingested in
//! [`Game::batch`]-sized chunks; adaptive adversaries enter through
//! [`Game::adversary`].

use crate::report::GameReport;
use crate::round::Round;
use wb_core::game::{Referee, Verdict, WhiteBoxAdversary};
use wb_core::rng::RandTranscript;
use wb_core::space::SpaceUsage;
use wb_core::stream::StreamAlg;

/// Default round cap when [`Game::max_rounds`] is not called: generous for
/// experiments, finite so an adversary that never stops cannot hang a run.
pub const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// Placeholder adversary for a builder whose stream source has not been
/// chosen yet (or is a script): it ends the stream immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl<A: StreamAlg> WhiteBoxAdversary<A> for NoAdversary {
    fn next_update(
        &mut self,
        _t: u64,
        _alg: &A,
        _transcript: &RandTranscript,
        _last_output: Option<&A::Output>,
    ) -> Option<A::Update> {
        None
    }
}

/// Referee that accepts every answer — the default until
/// [`Game::referee`] is called (throughput and attack-demo runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl<A: StreamAlg> Referee<A> for AcceptAll {
    fn observe(&mut self, _update: &A::Update) {}

    fn check(&mut self, _t: u64, _output: &A::Output) -> Verdict {
        Verdict::Correct
    }
}

enum Driver<U, Adv> {
    Adversary(Adv),
    Script(Vec<U>),
}

/// Fluent builder for one white-box adversarial game.
///
/// The stream comes from one of two drivers: an adaptive white-box
/// adversary ([`Game::adversary`], one update and one check per round) or
/// a materialized oblivious script ([`Game::script`], ingested in
/// [`Game::batch`]-sized chunks with one check per chunk). Both are played
/// by the engine's one round protocol, which the erased drivers play too.
/// Long oblivious streams that should not be materialized go through the
/// erased layer's pull-based
/// [`run_source_erased`](crate::erased::run_source_erased) instead.
///
/// `Game::new(alg)` starts with no adversary (empty stream), an accept-all
/// referee, [`DEFAULT_MAX_ROUNDS`], seed 0, and batch size 1. Each setter
/// returns the builder; [`Game::run`] plays the game and returns a
/// [`GameReport`]; [`Game::play`] additionally hands back the algorithm for
/// post-game inspection.
pub struct Game<A: StreamAlg, Adv, R> {
    alg: A,
    driver: Driver<A::Update, Adv>,
    referee: R,
    max_rounds: u64,
    seed: u64,
    batch: usize,
}

impl<A: StreamAlg> Game<A, NoAdversary, AcceptAll> {
    /// Start building a game around `alg`.
    pub fn new(alg: A) -> Self {
        Game {
            alg,
            driver: Driver::Adversary(NoAdversary),
            referee: AcceptAll,
            max_rounds: DEFAULT_MAX_ROUNDS,
            seed: 0,
            batch: 1,
        }
    }
}

impl<A: StreamAlg, Adv, R> Game<A, Adv, R> {
    /// Set the white-box adversary (the adaptive stream source).
    pub fn adversary<Adv2>(self, adversary: Adv2) -> Game<A, Adv2, R>
    where
        Adv2: WhiteBoxAdversary<A>,
    {
        Game {
            alg: self.alg,
            driver: Driver::Adversary(adversary),
            referee: self.referee,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Use a fixed, oblivious update script as the stream source. Script
    /// games may ingest in batches ([`Game::batch`]) through the
    /// algorithms' optimized [`StreamAlg::process_batch`] path.
    pub fn script(self, updates: Vec<A::Update>) -> Game<A, NoAdversary, R> {
        Game {
            alg: self.alg,
            driver: Driver::Script(updates),
            referee: self.referee,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Set the referee holding ground truth.
    pub fn referee<R2>(self, referee: R2) -> Game<A, Adv, R2>
    where
        R2: Referee<A>,
    {
        Game {
            alg: self.alg,
            driver: self.driver,
            referee,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Cap the number of rounds (default [`DEFAULT_MAX_ROUNDS`]).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Set the algorithm's public random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chunk size for script-mode batched ingestion (default 1 — check
    /// after every update, exactly the per-round game). Ignored for
    /// adaptive adversaries, which force one update per round by nature.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl<A, Adv, R> Game<A, Adv, R>
where
    A: StreamAlg + SpaceUsage,
    Adv: WhiteBoxAdversary<A>,
    R: Referee<A>,
{
    /// Play the game, returning the structured report.
    pub fn run(self) -> GameReport {
        self.play().0
    }

    /// Play the game, returning the report and the final algorithm state
    /// (for post-game inspection of answers or internals).
    pub fn play(self) -> (GameReport, A) {
        let Game {
            mut alg,
            driver,
            mut referee,
            max_rounds,
            seed,
            batch,
        } = self;
        let mut round = Round::new(alg.space_bits(), seed);
        match driver {
            Driver::Adversary(mut adversary) => {
                let Ok(()) =
                    round.play_rounds(&mut alg, &mut referee, max_rounds, |t, alg, tr, last| {
                        adversary.next_update(t, alg, tr, last)
                    });
            }
            Driver::Script(updates) => {
                let total = updates.len().min(max_rounds as usize);
                for chunk in updates[..total].chunks(batch) {
                    let Ok(()) = round.ingest(&mut alg, &mut referee, chunk);
                    if round.check(&alg, &mut referee).is_none() {
                        break;
                    }
                }
            }
        }
        (round.finish(alg.space_bits()), alg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::game::{FnAdversary, FnReferee};
    use wb_core::referee::HeavyHitterReferee;
    use wb_core::rng::TranscriptRng;
    use wb_core::space::bits_for_count;
    use wb_core::stream::InsertOnly;
    use wb_sketch::{MisraGries, RobustL1HeavyHitters};

    struct ExactCounter(u64);
    impl StreamAlg for ExactCounter {
        type Update = InsertOnly;
        type Output = u64;
        fn process(&mut self, _u: &InsertOnly, _rng: &mut TranscriptRng) {
            self.0 += 1;
        }
        fn query(&self) -> u64 {
            self.0
        }
    }
    impl SpaceUsage for ExactCounter {
        fn space_bits(&self) -> u64 {
            bits_for_count(self.0)
        }
    }

    /// A "leaky" randomized counter that double-counts whenever the item
    /// equals its current pad, then redraws the pad — a toy showing the
    /// white-box view in action: only a state-observing adversary can hit
    /// the trap reliably.
    struct LeakyCounter {
        count: u64,
        pad: u64,
    }
    impl StreamAlg for LeakyCounter {
        type Update = InsertOnly;
        type Output = u64;
        fn process(&mut self, u: &InsertOnly, rng: &mut TranscriptRng) {
            self.count += if u.0 == self.pad % 1000 { 2 } else { 1 };
            self.pad = rng.next_u64();
        }
        fn query(&self) -> u64 {
            self.count
        }
    }
    impl SpaceUsage for LeakyCounter {
        fn space_bits(&self) -> u64 {
            bits_for_count(self.count) + 64
        }
    }

    fn count_referee() -> FnReferee<impl FnMut(u64, &u64) -> Verdict> {
        FnReferee::new(|t: u64, out: &u64| {
            if *out == t {
                Verdict::Correct
            } else {
                Verdict::violation(format!("expected {t}, got {out}"))
            }
        })
    }

    #[test]
    fn exact_counter_survives_a_script_that_ends_early() {
        let report = Game::new(ExactCounter(0))
            .script(vec![InsertOnly(0); 100])
            .referee(count_referee())
            .max_rounds(1_000)
            .seed(1)
            .run();
        assert!(report.survived());
        assert_eq!(report.result.rounds, 100);
        assert_eq!(report.checks, 100);
        assert!(report.result.peak_space_bits >= bits_for_count(100));
    }

    #[test]
    fn white_box_adversary_beats_leaky_counter() {
        // The adversary reads the pad from the algorithm's state and sends
        // exactly the item that triggers the double count.
        let report = Game::new(LeakyCounter { count: 0, pad: 0 })
            .adversary(FnAdversary::new(
                |_t, alg: &LeakyCounter, _tr: &RandTranscript, _last: Option<&u64>| {
                    Some(InsertOnly(alg.pad % 1000))
                },
            ))
            .referee(count_referee())
            .max_rounds(1_000)
            .seed(2)
            .run();
        // The pad is drawn during round 1, so the exploit lands at once.
        let failure = report.result.failure.expect("the state leak is exploited");
        assert!(failure.round <= 10, "exploit landed at {}", failure.round);
    }

    #[test]
    fn blind_adversary_misses_leaky_counter_trap() {
        // The same trap exists, but a script cannot see the pad: hitting
        // `pad % 1000` blindly is a 1/1000-per-round event, and with this
        // fixed seed 20 blind rounds never hit it.
        let report = Game::new(LeakyCounter { count: 0, pad: 0 })
            .script(vec![InsertOnly(1); 20])
            .referee(count_referee())
            .max_rounds(20)
            .seed(3)
            .run();
        assert!(report.survived());
        assert_eq!(report.result.rounds, 20);
    }

    #[test]
    fn builder_stops_at_first_violation() {
        let report = Game::new(ExactCounter(0))
            .script(vec![InsertOnly(0); 100])
            .referee(FnReferee::new(|_t, out: &u64| {
                if *out <= 5 {
                    Verdict::Correct
                } else {
                    Verdict::violation("count exceeded 5")
                }
            }))
            .max_rounds(100)
            .run();
        assert_eq!(report.result.rounds, 6);
        assert_eq!(report.result.failure.as_ref().unwrap().round, 6);
    }

    #[test]
    fn script_mode_with_batching_matches_per_round_final_state() {
        let script: Vec<InsertOnly> = (0..512u64).map(|t| InsertOnly(t % 7)).collect();
        let (r1, a1) = Game::new(MisraGries::new(0.2, 1 << 10))
            .script(script.clone())
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(5)
            .play();
        let (r2, a2) = Game::new(MisraGries::new(0.2, 1 << 10))
            .script(script)
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(5)
            .batch(64)
            .play();
        assert!(r1.survived() && r2.survived());
        assert_eq!(r1.result.rounds, r2.result.rounds);
        assert_eq!(a1.entries(), a2.entries());
        assert_eq!(r1.checks, 512);
        assert_eq!(r2.checks, 8);
    }

    #[test]
    fn white_box_adversary_through_builder() {
        // The builder preserves the full white-box view: an adversary
        // reading the answering instance's tracked items still works.
        let (report, alg) = Game::new(RobustL1HeavyHitters::new(1 << 10, 0.25))
            .adversary(FnAdversary::new(
                |_t,
                 alg: &RobustL1HeavyHitters,
                 _tr: &RandTranscript,
                 _l: Option<&Vec<(u64, f64)>>| {
                    let tracked = alg.answering().inner().entries();
                    Some(InsertOnly(if tracked.is_empty() { 1 } else { 2 }))
                },
            ))
            .referee(HeavyHitterReferee::new(0.25, 0.25).with_grace(32))
            .max_rounds(2_000)
            .seed(11)
            .play();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
        assert_eq!(report.result.rounds, 2_000);
        assert!(alg.t_hat() > 0.0);
    }

    #[test]
    fn default_driver_plays_zero_rounds() {
        let report = Game::new(ExactCounter(0)).run();
        assert_eq!(report.result.rounds, 0);
        assert!(report.survived());
    }
}
