//! The paper's round protocol, written once for typed and erased games.
//!
//! At each time step the adversary reads the algorithm's whole state and
//! the public tape and picks an update; the referee observes it, the
//! algorithm ingests it on the game tape, and the answer is judged and
//! recorded, the game stopping at the first violation. [`Round`] holds the
//! tape, the report and the update count `t`, and every driver — the typed
//! [`Game`](crate::Game), the erased loops and the tournament's cells —
//! composes its steps. [`Player`] is the one seam between a [`StreamAlg`]
//! judged by a [`Referee`] and a [`DynStreamAlg`] judged by a
//! [`DynReferee`]. The algorithm and referee stay with the caller, so a
//! driver can swap the state between steps (the tournament's sharded
//! prelude hands back a merged instance).

use crate::erased::{Answer, DynStreamAlg, Update};
use crate::referee::DynReferee;
use crate::report::GameReport;
use std::convert::Infallible;
use wb_core::game::{Referee, Verdict};
use wb_core::rng::{RandTranscript, TranscriptRng};
use wb_core::space::SpaceUsage;
use wb_core::stream::StreamAlg;
use wb_core::WbError;

/// An algorithm as one side of the round protocol, judged by an `R`.
pub(crate) trait Player<R: ?Sized> {
    type Update;
    type Answer;
    /// Why an update was refused (typed algorithms refuse none).
    type Error;

    /// The referee observes `chunk`, then the batched kernel ingests it.
    fn ingest(
        &mut self,
        referee: &mut R,
        chunk: &[Self::Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), Self::Error>;

    /// The referee observes one update, then the algorithm ingests it.
    fn step(
        &mut self,
        referee: &mut R,
        update: &Self::Update,
        rng: &mut TranscriptRng,
    ) -> Result<(), Self::Error>;

    /// The space in use, the answer, and the referee's verdict at `t`.
    fn judge(&self, referee: &mut R, t: u64) -> (u64, Self::Answer, Verdict);
}

impl<A, R> Player<R> for A
where
    A: StreamAlg + SpaceUsage,
    R: Referee<A>,
{
    type Update = A::Update;
    type Answer = A::Output;
    type Error = Infallible;

    fn ingest(
        &mut self,
        referee: &mut R,
        chunk: &[A::Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), Infallible> {
        for update in chunk {
            referee.observe(update);
        }
        self.process_batch(chunk, rng);
        Ok(())
    }

    fn step(
        &mut self,
        referee: &mut R,
        update: &A::Update,
        rng: &mut TranscriptRng,
    ) -> Result<(), Infallible> {
        referee.observe(update);
        self.process(update, rng);
        Ok(())
    }

    fn judge(&self, referee: &mut R, t: u64) -> (u64, A::Output, Verdict) {
        let space = self.space_bits();
        let output = self.query();
        let verdict = referee.check(t, &output);
        (space, output, verdict)
    }
}

/// A refused erased update surfaces as `process_dyn`/`process_batch_dyn`'s
/// own error.
impl Player<dyn DynReferee + '_> for dyn DynStreamAlg + '_ {
    type Update = Update;
    type Answer = Answer;
    type Error = WbError;

    fn ingest(
        &mut self,
        referee: &mut (dyn DynReferee + '_),
        chunk: &[Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError> {
        referee.observe_batch(chunk);
        self.process_batch_dyn(chunk, rng)
    }

    fn step(
        &mut self,
        referee: &mut (dyn DynReferee + '_),
        update: &Update,
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError> {
        referee.observe(update);
        self.process_dyn(update, rng)
    }

    fn judge(&self, referee: &mut (dyn DynReferee + '_), t: u64) -> (u64, Answer, Verdict) {
        let space = self.space_bits_dyn();
        let answer = self.query_dyn();
        let verdict = referee.check(t, &answer);
        (space, answer, verdict)
    }
}

/// One game in flight: the algorithm's public random tape, the report
/// accumulator and the update count `t`.
pub(crate) struct Round {
    pub(crate) rng: TranscriptRng,
    pub(crate) report: GameReport,
    pub(crate) t: u64,
}

impl Round {
    /// A game on the tape seeded by `seed`, for an algorithm that starts
    /// at `space` bits.
    pub(crate) fn new(space: u64, seed: u64) -> Self {
        Round {
            rng: TranscriptRng::from_seed(seed),
            report: GameReport::new(space, 0),
            t: 0,
        }
    }

    /// Ingest `chunk` on the game tape; `t` advances only if the algorithm
    /// accepted it.
    pub(crate) fn ingest<R: ?Sized, P: Player<R> + ?Sized>(
        &mut self,
        alg: &mut P,
        referee: &mut R,
        chunk: &[P::Update],
    ) -> Result<(), P::Error> {
        alg.ingest(referee, chunk, &mut self.rng)?;
        self.t += chunk.len() as u64;
        Ok(())
    }

    /// Query the algorithm, check the answer at `t` and record the check:
    /// the answer if the referee accepted it, `None` at a violation.
    pub(crate) fn check<R: ?Sized, P: Player<R> + ?Sized>(
        &mut self,
        alg: &P,
        referee: &mut R,
    ) -> Option<P::Answer> {
        let (space, answer, verdict) = alg.judge(referee, self.t);
        self.report.record_check(self.t, space, &verdict);
        verdict.is_correct().then_some(answer)
    }

    /// Up to `rounds` adaptive rounds (numbered from 1 for the adversary,
    /// which sees the algorithm, the transcript and the last answer), one
    /// update and one check each, stopping when the adversary does or at
    /// the first violation.
    pub(crate) fn play_rounds<R: ?Sized, P: Player<R> + ?Sized>(
        &mut self,
        alg: &mut P,
        referee: &mut R,
        rounds: u64,
        mut adversary: impl FnMut(u64, &P, &RandTranscript, Option<&P::Answer>) -> Option<P::Update>,
    ) -> Result<(), P::Error> {
        let mut last = None;
        for round in 1..=rounds {
            let Some(update) = adversary(round, alg, self.rng.transcript(), last.as_ref()) else {
                break;
            };
            alg.step(referee, &update, &mut self.rng)?;
            self.t += 1;
            match self.check(alg, referee) {
                Some(answer) => last = Some(answer),
                None => break,
            }
        }
        Ok(())
    }

    /// Seal the report at `t` with the algorithm's final `space`.
    pub(crate) fn finish(mut self, space: u64) -> GameReport {
        self.report.finish(self.t, space);
        self.report
    }
}
