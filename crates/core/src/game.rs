//! The white-box adversarial game (§1 of the paper).
//!
//! A game instance is a loop over rounds `t = 1, 2, …, m`:
//!
//! 1. the [`WhiteBoxAdversary`] computes update `u_t` from the algorithm's
//!    entire current state (it receives `&A` — every field of the algorithm
//!    struct), the full randomness transcript, and the last answer;
//! 2. the [`StreamAlg`] processes `u_t`, drawing fresh public randomness;
//! 3. the algorithm answers the fixed query; a [`Referee`] holding exact
//!    ground truth checks it. The adversary wins if any answer is wrong.
//!
//! The loop itself is driven by the fluent `Game` builder in the
//! `wb-engine` crate; it reports a [`GameResult`]: the first violation (if
//! any), the number of rounds survived, and the peak space used.

use crate::rng::RandTranscript;
use crate::stream::StreamAlg;

/// The referee's judgement of one answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The answer satisfies the query's correctness guarantee.
    Correct,
    /// The answer violates the guarantee; the description is recorded in the
    /// game result.
    Violation(String),
}

impl Verdict {
    /// Shorthand for a violation with a message.
    pub fn violation(msg: impl Into<String>) -> Self {
        Verdict::Violation(msg.into())
    }

    /// `true` iff the verdict is [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }
}

/// An adversary in the white-box model: it sees the whole algorithm.
pub trait WhiteBoxAdversary<A: StreamAlg> {
    /// Produce the update for round `t` (1-indexed), or `None` to end the
    /// stream. `alg` is the algorithm *after* round `t-1`; `transcript` is
    /// the complete public record of its randomness; `last_output` is the
    /// answer after round `t-1` (`None` at `t = 1`).
    fn next_update(
        &mut self,
        t: u64,
        alg: &A,
        transcript: &RandTranscript,
        last_output: Option<&A::Output>,
    ) -> Option<A::Update>;
}

/// Ground-truth correctness checker for a query.
///
/// The referee is the *experimenter*, not a player: it may use unbounded
/// space (e.g. an exact frequency vector) to decide whether each streamed
/// answer meets the guarantee claimed by the theorem under test.
pub trait Referee<A: StreamAlg> {
    /// Observe the update that is about to be processed.
    fn observe(&mut self, update: &A::Update);
    /// Judge the algorithm's answer after round `t`.
    fn check(&mut self, t: u64, output: &A::Output) -> Verdict;
}

/// A recorded violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Round (1-indexed) at which the first wrong answer appeared.
    pub round: u64,
    /// Referee's description of the violation.
    pub description: String,
}

/// Outcome of one white-box game.
#[derive(Debug, Clone)]
pub struct GameResult {
    /// Rounds actually played (the adversary may stop early).
    pub rounds: u64,
    /// First violation, if the adversary won.
    pub failure: Option<Failure>,
    /// Largest `space_bits()` observed across the game.
    pub peak_space_bits: u64,
    /// `space_bits()` after the final round.
    pub final_space_bits: u64,
}

impl GameResult {
    /// `true` iff the algorithm was correct at every round.
    pub fn survived(&self) -> bool {
        self.failure.is_none()
    }
}

/// An adversary defined by a closure over the full white-box view.
pub struct FnAdversary<F> {
    f: F,
}

impl<F> FnAdversary<F> {
    /// Wrap `f` as an adversary.
    pub fn new(f: F) -> Self {
        FnAdversary { f }
    }
}

impl<A, F> WhiteBoxAdversary<A> for FnAdversary<F>
where
    A: StreamAlg,
    F: FnMut(u64, &A, &RandTranscript, Option<&A::Output>) -> Option<A::Update>,
{
    fn next_update(
        &mut self,
        t: u64,
        alg: &A,
        transcript: &RandTranscript,
        last_output: Option<&A::Output>,
    ) -> Option<A::Update> {
        (self.f)(t, alg, transcript, last_output)
    }
}

/// Adapter for a **black-box** adversary: the wrapped closure sees only
/// the round index and the previous output — the interface of the
/// black-box adversarial streaming model the paper contrasts with. The
/// type system enforces the restriction (the closure is never given `&A`
/// or the transcript), so experiments can run the *same* algorithm under
/// both adversary classes and compare outcomes.
pub struct BlackBoxAdversary<F> {
    f: F,
}

impl<F> BlackBoxAdversary<F> {
    /// Wrap `f` as an output-only adversary.
    pub fn new(f: F) -> Self {
        BlackBoxAdversary { f }
    }
}

impl<A, F> WhiteBoxAdversary<A> for BlackBoxAdversary<F>
where
    A: StreamAlg,
    F: FnMut(u64, Option<&A::Output>) -> Option<A::Update>,
{
    fn next_update(
        &mut self,
        t: u64,
        _alg: &A,
        _transcript: &RandTranscript,
        last_output: Option<&A::Output>,
    ) -> Option<A::Update> {
        (self.f)(t, last_output)
    }
}

/// A referee defined by a closure on `(round, output)`, for queries whose
/// correctness is a pure function of the round index (e.g. exact counting).
pub struct FnReferee<F> {
    f: F,
}

impl<F> FnReferee<F> {
    /// Wrap `f` as a referee.
    pub fn new(f: F) -> Self {
        FnReferee { f }
    }
}

impl<A, F> Referee<A> for FnReferee<F>
where
    A: StreamAlg,
    F: FnMut(u64, &A::Output) -> Verdict,
{
    fn observe(&mut self, _update: &A::Update) {}

    fn check(&mut self, t: u64, output: &A::Output) -> Verdict {
        (self.f)(t, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Correct.is_correct());
        assert!(!Verdict::violation("x").is_correct());
    }
}
