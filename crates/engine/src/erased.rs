//! The object-safe algorithm layer.
//!
//! The typed [`StreamAlg`] trait is fully monomorphized: every algorithm
//! picks its own `Update` and `Output` types, which is ideal for the game
//! loop but blocks runtime algorithm selection — a binary cannot hold "some
//! algorithm chosen by name" without a common object type. This module
//! provides that type:
//!
//! * [`Update`] — a closed enum over the two stream models the paper
//!   studies (insertion-only and turnstile);
//! * [`Answer`] — a closed enum over the query-answer shapes the workspace
//!   algorithms produce (heavy-hitter lists, scalar estimates, counts);
//! * [`DynStreamAlg`] — an object-safe mirror of
//!   `StreamAlg + SpaceUsage + Snapshot`, blanket-implemented for every
//!   algorithm whose update type converts from [`Update`] and whose output
//!   converts into [`Answer`] — i.e. all `u64`-universe sketches get
//!   `Box<dyn DynStreamAlg>` for free. In the white-box model the whole
//!   state is public, so every erased algorithm can write it out: the
//!   [`Snapshot`] bound is checked by the compiler, not by convention;
//! * [`DynAdversary`] / erased drive loops ([`run_source_erased`],
//!   [`run_erased`]) so registries and experiment runners can play the
//!   white-box game without knowing concrete types. The round protocol
//!   itself — observe, ingest on the game tape, check, record, stop at the
//!   first violation — is written once, in a crate-internal round core
//!   the typed [`Game`](crate::Game) shares; these loops and the
//!   [tournament](crate::tournament)'s cells are compositions of its
//!   steps. The source-driven loop is the one erased ingestion path for
//!   oblivious streams: it pulls chunks from an [`UpdateSource`] into one
//!   reused buffer, so memory stays O(chunk) no matter how long the
//!   stream is. A materialized script enters it through
//!   [`SliceSource`](crate::workload::SliceSource).

use crate::referee::DynReferee;
use crate::report::GameReport;
use crate::round::Round;
use crate::workload::UpdateSource;
use std::any::Any;
use wb_core::merge::MergeError;
use wb_core::rng::{RandTranscript, TranscriptRng};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::space::SpaceUsage;
use wb_core::stream::{InsertOnly, StreamAlg, Turnstile};
use wb_core::WbError;

/// Largest positive turnstile delta an insertion-only algorithm will expand
/// into repeated unit insertions. The **per-update** bound is the only
/// rejection rule — so whether a stream is in-model never depends on how
/// it was chunked. The batched path additionally uses this as its
/// *segment* budget: a batch whose total expansion would exceed it is
/// processed in several bounded `process_batch` segments (bit-identical by
/// the batching contract) instead of materializing the whole expansion,
/// bounding the work and memory of one erased call.
pub const MAX_DELTA_EXPANSION: u64 = 1 << 16;

/// Largest turnstile delta magnitude a turnstile algorithm accepts (2^32).
/// Kernels add deltas into `i64` counters, multiply them by ±1 signs and
/// sum them per batch; at this bound a daemon chunk of up to 2^16 updates
/// sums below 2^48 in magnitude, far from overflow, while `i64::MIN` (whose
/// negation overflows) and its neighbours are refused as out of model.
pub const MAX_TURNSTILE_DELTA: u64 = 1 << 32;

/// A stream update in either of the paper's update models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// One occurrence of an item (insertion-only model).
    Insert(u64),
    /// A signed frequency change (turnstile model).
    Turnstile {
        /// Universe element, 0-indexed.
        item: u64,
        /// Signed change to the item's frequency.
        delta: i64,
    },
}

impl Update {
    /// The item the update touches.
    pub fn item(&self) -> u64 {
        match *self {
            Update::Insert(i) => i,
            Update::Turnstile { item, .. } => item,
        }
    }

    /// The signed frequency change the update applies.
    pub fn delta(&self) -> i64 {
        match *self {
            Update::Insert(_) => 1,
            Update::Turnstile { delta, .. } => delta,
        }
    }

    /// The same update with its item folded into the universe `[0, n)` by
    /// `item % n`, shape and delta preserved. Universe-bounded algorithms
    /// (e.g. `sis_l0`) assert `item < n`, while generators like `ddos`
    /// emit raw 32-bit addresses; folding is the one deterministic rule
    /// both the registry's scripted adversaries and the tournament apply,
    /// so ground truth and algorithm always see the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`. The registry and tournament reject `n == 0` at
    /// construction time, so reaching this with an empty universe is a
    /// harness bug, not a stream property.
    pub fn fold_into(self, n: u64) -> Update {
        assert!(n > 0, "fold_into requires a nonempty universe (n >= 1)");
        match self {
            Update::Insert(item) => Update::Insert(item % n),
            Update::Turnstile { item, delta } => Update::Turnstile {
                item: item % n,
                delta,
            },
        }
    }
}

impl From<InsertOnly> for Update {
    fn from(u: InsertOnly) -> Self {
        Update::Insert(u.0)
    }
}

impl From<Turnstile> for Update {
    fn from(u: Turnstile) -> Self {
        Update::Turnstile {
            item: u.item,
            delta: u.delta,
        }
    }
}

/// The stream model an algorithm's native update type lives in — the
/// erased, queryable form of "which [`Update`]s does this algorithm
/// accept?". Lets a server validate a batch *before* handing it to an
/// asynchronous ingest path (where a model-mismatch [`WbError`] could no
/// longer be reported to the request that caused it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamModel {
    /// Insertion-only: deletions are out of model; positive multi-unit
    /// deltas expand into repeated insertions up to
    /// [`MAX_DELTA_EXPANSION`].
    InsertOnly,
    /// Turnstile: every signed update with `|delta|` at most
    /// [`MAX_TURNSTILE_DELTA`] is in model.
    Turnstile,
}

impl StreamModel {
    /// Stable lowercase label for reports and protocol messages.
    pub fn label(&self) -> &'static str {
        match self {
            StreamModel::InsertOnly => "insert_only",
            StreamModel::Turnstile => "turnstile",
        }
    }

    /// Whether `u` is inside this model: exactly the updates the model's
    /// [`FromUpdate::from_update_weighted`] converts, so a caller can
    /// pre-validate without constructing anything or touching algorithm
    /// state.
    pub fn accepts(&self, u: &Update) -> bool {
        match self {
            StreamModel::InsertOnly => InsertOnly::from_update_weighted(u).is_some(),
            StreamModel::Turnstile => Turnstile::from_update_weighted(u).is_some(),
        }
    }
}

/// Conversion from the erased [`Update`] into an algorithm's native update
/// type. Returns `None` when the update is outside the algorithm's model
/// (e.g. a deletion offered to an insertion-only sketch).
pub trait FromUpdate: Sized + Clone {
    /// The model this update type accepts, as data.
    fn model() -> StreamModel;

    /// Convert into `(update, repeat)`: the native update plus how many
    /// times it must be processed, or `None` to reject it as
    /// model-incompatible. Insertion-only types expand a positive
    /// multi-unit turnstile delta into `delta` unit insertions (bounded by
    /// [`MAX_DELTA_EXPANSION`]) instead of spuriously rejecting it.
    fn from_update_weighted(u: &Update) -> Option<(Self, u64)>;

    /// Branch-free conversion for the common case: the native update plus
    /// a flag that is `true` exactly when
    /// [`FromUpdate::from_update_weighted`] returns `Some((x, 1))`, with
    /// the same `x`. When the flag is `false` the update is meaningless and
    /// the caller falls back to the weighted conversion.
    fn from_update_unit(u: &Update) -> (Self, bool);
}

impl FromUpdate for InsertOnly {
    fn model() -> StreamModel {
        StreamModel::InsertOnly
    }

    /// Any positive delta is `delta` insertions; zero, negative, or
    /// absurdly large deltas stay out-of-model.
    fn from_update_weighted(u: &Update) -> Option<(Self, u64)> {
        match *u {
            Update::Insert(i) => Some((InsertOnly(i), 1)),
            Update::Turnstile { item, delta } if delta >= 1 => {
                let w = delta as u64;
                (w <= MAX_DELTA_EXPANSION).then_some((InsertOnly(item), w))
            }
            Update::Turnstile { .. } => None,
        }
    }

    fn from_update_unit(u: &Update) -> (Self, bool) {
        (InsertOnly(u.item()), u.delta() == 1)
    }
}

impl FromUpdate for Turnstile {
    fn model() -> StreamModel {
        StreamModel::Turnstile
    }

    /// Any update whose delta magnitude is at most [`MAX_TURNSTILE_DELTA`],
    /// processed once.
    fn from_update_weighted(u: &Update) -> Option<(Self, u64)> {
        match *u {
            Update::Insert(i) => Some((Turnstile::insert(i), 1)),
            Update::Turnstile { item, delta } => (delta.unsigned_abs() <= MAX_TURNSTILE_DELTA)
                .then_some((Turnstile { item, delta }, 1)),
        }
    }

    fn from_update_unit(u: &Update) -> (Self, bool) {
        let (item, delta) = (u.item(), u.delta());
        (
            Turnstile { item, delta },
            delta.unsigned_abs() <= MAX_TURNSTILE_DELTA,
        )
    }
}

/// A query answer in one of the shapes the workspace algorithms produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `(item, estimate)` pairs — heavy-hitter style answers.
    Items(Vec<(u64, f64)>),
    /// A real-valued estimate (Morris counters, F2, inner products).
    Scalar(f64),
    /// An integer answer (L0, victim estimates, rank bits).
    Count(u64),
}

impl Answer {
    /// The `(item, estimate)` list, if this is an [`Answer::Items`].
    pub fn as_items(&self) -> Option<&[(u64, f64)]> {
        match self {
            Answer::Items(v) => Some(v),
            _ => None,
        }
    }

    /// The scalar value: `Scalar` directly, `Count` widened, `Items` `None`.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Answer::Scalar(x) => Some(*x),
            Answer::Count(c) => Some(*c as f64),
            Answer::Items(_) => None,
        }
    }

    /// The integer value, if this is an [`Answer::Count`].
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Answer::Count(c) => Some(*c),
            _ => None,
        }
    }

    /// Compact rendering for experiment-table cells.
    pub fn cell(&self) -> String {
        match self {
            Answer::Items(v) => format!("{} items", v.len()),
            Answer::Scalar(x) => format!("{x:.1}"),
            Answer::Count(c) => c.to_string(),
        }
    }
}

/// Conversion from an algorithm's native output into the erased [`Answer`].
pub trait IntoAnswer {
    /// Wrap the output in the matching [`Answer`] variant.
    fn into_answer(self) -> Answer;
}

impl IntoAnswer for Vec<(u64, f64)> {
    fn into_answer(self) -> Answer {
        Answer::Items(self)
    }
}

impl IntoAnswer for f64 {
    fn into_answer(self) -> Answer {
        Answer::Scalar(self)
    }
}

impl IntoAnswer for u64 {
    fn into_answer(self) -> Answer {
        Answer::Count(self)
    }
}

/// Refuse `updates` if any item lies outside the universe `[0, n)` of
/// the algorithm `name` — the kernel would panic on it.
fn check_universe(name: &str, updates: &[Update], n: u64) -> Result<(), WbError> {
    match updates.iter().find(|u| u.item() >= n) {
        Some(u) => Err(WbError::invalid(format!(
            "{name} cannot ingest item {} (outside the universe [0, {n}))",
            u.item()
        ))),
        None => Ok(()),
    }
}

/// Object-safe mirror of `StreamAlg + SpaceUsage + Snapshot`.
///
/// Blanket-implemented for every snapshotable algorithm whose update type
/// implements [`FromUpdate`] and whose output implements [`IntoAnswer`]; the
/// [`registry`](crate::registry) hands out `Box<dyn DynStreamAlg>` built
/// from string keys. Method names carry a `_dyn` suffix so calls through
/// `Box<dyn DynStreamAlg>` never shadow the typed inherent methods.
///
/// `Send` is a supertrait: erased games are the unit of work of the
/// [tournament](crate::tournament) thread pool, so a boxed algorithm must
/// be movable to a worker thread. Every algorithm in the workspace is plain
/// owned data (no `Rc`, no interior mutability), so the bound is free; an
/// algorithm that genuinely cannot be `Send` would need its own non-erased
/// harness rather than a registry entry.
pub trait DynStreamAlg: Send {
    /// Ingest one erased update. Errors if the update is outside the
    /// algorithm's stream model (e.g. a deletion into an insertion-only
    /// sketch) or its item is outside the algorithm's universe
    /// ([`DynStreamAlg::universe_dyn`]); neither case panics.
    fn process_dyn(&mut self, update: &Update, rng: &mut TranscriptRng) -> Result<(), WbError>;

    /// Ingest a batch of erased updates through the algorithm's
    /// (possibly hand-optimized) [`StreamAlg::process_batch`] path.
    ///
    /// Outcomes are **chunk-invariant**: whether a stream is in-model (and
    /// the final state when it is) never depends on how callers chunked
    /// it. On a wrong-model error, updates from earlier internal segments
    /// of the same call may already be applied (heavy-delta expansions are
    /// processed in bounded segments); callers treat a failed instance as
    /// discarded, never as rolled back. An item outside the universe
    /// anywhere in the batch is refused before any update is applied.
    ///
    /// A batch of unit updates (each converting to one native update, as
    /// [`FromUpdate::from_update_unit`] reports) is converted in one
    /// branch-free pass and handed to `process_batch` in one call; any
    /// other batch takes the weighted loop, which expands, segments and
    /// rejects it.
    fn process_batch_dyn(
        &mut self,
        updates: &[Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError>;

    /// Answer the fixed query.
    fn query_dyn(&self) -> Answer;

    /// Bit-level space accounting (see [`SpaceUsage`]).
    fn space_bits_dyn(&self) -> u64;

    /// Bare type name (see [`StreamAlg::name`]).
    fn name_dyn(&self) -> &'static str;

    /// The stream model this algorithm's update type accepts — so callers
    /// holding only the erased object (a registry-built server tenant) can
    /// validate updates synchronously before an asynchronous ingest.
    fn model_dyn(&self) -> StreamModel;

    /// The universe bound `n` of an algorithm that requires every item to
    /// lie in `[0, n)` (see [`StreamAlg::universe`]), for the same kind of
    /// synchronous pre-validation; `None` when any item is accepted.
    fn universe_dyn(&self) -> Option<u64> {
        None
    }

    /// Fold a sibling instance's state into this one — the erased mirror of
    /// [`StreamAlg::merge_from`]. Type equality is downcast-checked:
    /// offering a different concrete type is [`MergeError::TypeMismatch`],
    /// an algorithm without a sound merge is [`MergeError::Unmergeable`],
    /// and same-type instances built with different parameters are
    /// [`MergeError::Incompatible`]. The sharded ingestion pipeline
    /// ([`crate::shard`]) is built on this method.
    fn merge_dyn(&mut self, other: &dyn DynStreamAlg) -> Result<(), MergeError>;

    /// Serialize the algorithm's mutable state into a self-describing
    /// snapshot frame: `magic | version | name | state`. The embedded name
    /// lets [`DynStreamAlg::restore_dyn`] reject a frame taken from a
    /// different algorithm before touching any state. The blanket
    /// implementation cannot fail.
    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError>;

    /// Restore state from a frame produced by [`DynStreamAlg::snapshot_dyn`]
    /// on an instance constructed with the same parameters and construction
    /// seed. Validates the embedded algorithm name, delegates payload
    /// validation to the concrete [`Snapshot::restore`], and rejects
    /// trailing bytes. On error the state may be partially overwritten;
    /// callers discard the instance.
    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError>;

    /// The concrete algorithm, for white-box adversaries that downcast to
    /// inspect internal state through the erased interface.
    fn as_any(&self) -> &dyn Any;
}

impl<A> DynStreamAlg for A
where
    A: StreamAlg + SpaceUsage + Snapshot + Send + 'static,
    A::Update: FromUpdate,
    A::Output: IntoAnswer,
{
    fn process_dyn(&mut self, update: &Update, rng: &mut TranscriptRng) -> Result<(), WbError> {
        if let Some(n) = self.universe() {
            check_universe(self.name(), std::slice::from_ref(update), n)?;
        }
        let (u, repeat) = A::Update::from_update_weighted(update).ok_or_else(|| {
            WbError::invalid(format!(
                "{} cannot ingest {update:?} (wrong stream model)",
                self.name()
            ))
        })?;
        for _ in 0..repeat {
            self.process(&u, rng);
        }
        Ok(())
    }

    fn process_batch_dyn(
        &mut self,
        updates: &[Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError> {
        // One check per batch, before anything is applied; algorithms
        // without a universe bound pay nothing per update.
        if let Some(n) = self.universe() {
            check_universe(self.name(), updates, n)?;
        }
        // One branch-free pass: a batch of unit updates is the converted
        // batch itself, handed to the kernel in one call — exactly the
        // call the weighted loop below makes for it, since `extra` stays 0.
        let mut all_unit = true;
        let mut converted: Vec<A::Update> = Vec::with_capacity(updates.len());
        converted.extend(updates.iter().map(|update| {
            let (u, unit) = A::Update::from_update_unit(update);
            all_unit &= unit;
            u
        }));
        if all_unit {
            self.process_batch(&converted, rng);
            return Ok(());
        }
        converted.clear();
        let mut extra = 0u64;
        for update in updates {
            let (u, repeat) = A::Update::from_update_weighted(update).ok_or_else(|| {
                WbError::invalid(format!(
                    "{} cannot ingest a batch containing wrong-model updates",
                    self.name()
                ))
            })?;
            // Keep the materialized expansion bounded without making the
            // outcome chunk-dependent: once the accumulated expansion would
            // blow the segment budget, flush what we have (chunking is
            // bit-identical by the process_batch contract) and continue.
            // The only rejection is the per-update bound inside
            // from_update_weighted, so a stream's validity never depends
            // on how callers chunked it.
            if extra + (repeat - 1) > MAX_DELTA_EXPANSION && !converted.is_empty() {
                self.process_batch(&converted, rng);
                converted.clear();
                extra = 0;
            }
            extra += repeat - 1;
            for _ in 1..repeat {
                converted.push(u.clone());
            }
            converted.push(u);
        }
        self.process_batch(&converted, rng);
        Ok(())
    }

    fn query_dyn(&self) -> Answer {
        self.query().into_answer()
    }

    fn space_bits_dyn(&self) -> u64 {
        self.space_bits()
    }

    fn name_dyn(&self) -> &'static str {
        self.name()
    }

    fn model_dyn(&self) -> StreamModel {
        A::Update::model()
    }

    fn universe_dyn(&self) -> Option<u64> {
        self.universe()
    }

    fn merge_dyn(&mut self, other: &dyn DynStreamAlg) -> Result<(), MergeError> {
        let other = other
            .as_any()
            .downcast_ref::<A>()
            .ok_or(MergeError::TypeMismatch {
                left: self.name(),
                right: other.name_dyn(),
            })?;
        self.merge_from(other)
    }

    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        w.put_str(self.name());
        Snapshot::snap(self, &mut w);
        Ok(w.finish())
    }

    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes)?;
        let found = r.take_str()?;
        if found != self.name() {
            return Err(SnapError::mismatch(self.name(), found));
        }
        Snapshot::restore(self, &mut r)?;
        r.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Object-safe white-box adversary over the erased algorithm interface.
///
/// The adversary still sees everything: the erased algorithm reference
/// (with [`DynStreamAlg::as_any`] for concrete-state inspection), the full
/// randomness transcript, and the last answer.
///
/// `Send` is a supertrait so an erased game (algorithm, adversary, referee)
/// can cross a thread boundary as one unit — see the
/// [tournament](crate::tournament) runner.
pub trait DynAdversary: Send {
    /// Produce the update for round `t` (1-indexed), or `None` to stop.
    fn next_update(
        &mut self,
        t: u64,
        alg: &dyn DynStreamAlg,
        transcript: &RandTranscript,
        last: Option<&Answer>,
    ) -> Option<Update>;
}

/// A [`DynAdversary`] that replays an [`UpdateSource`] one update per
/// round, pulling chunks lazily into a small reused buffer — the streaming
/// replacement for materializing a generator's whole script up front (the
/// registry's scripted adversaries are built on this).
pub struct StreamDynAdversary<S> {
    source: S,
    buf: Vec<Update>,
    pos: usize,
}

/// Chunk size of the adversary's internal pull buffer: adversaries serve
/// one update per round, so a small buffer amortizes the pull without
/// holding a meaningful slice of the stream.
const ADVERSARY_CHUNK: usize = 256;

impl<S: UpdateSource + Send> StreamDynAdversary<S> {
    /// Replay `source` in order, then stop.
    pub fn new(source: S) -> Self {
        StreamDynAdversary {
            source,
            buf: Vec::with_capacity(ADVERSARY_CHUNK),
            pos: 0,
        }
    }
}

impl<S: UpdateSource + Send> DynAdversary for StreamDynAdversary<S> {
    fn next_update(
        &mut self,
        _t: u64,
        _alg: &dyn DynStreamAlg,
        _transcript: &RandTranscript,
        _last: Option<&Answer>,
    ) -> Option<Update> {
        if self.pos >= self.buf.len() {
            self.pos = 0;
            if self.source.next_chunk(&mut self.buf) == 0 {
                return None;
            }
        }
        let u = self.buf[self.pos];
        self.pos += 1;
        Some(u)
    }
}

/// A [`DynAdversary`] defined by a closure over the full erased view.
pub struct FnDynAdversary<F> {
    f: F,
}

impl<F> FnDynAdversary<F>
where
    F: FnMut(u64, &dyn DynStreamAlg, &RandTranscript, Option<&Answer>) -> Option<Update> + Send,
{
    /// Wrap `f` as an erased adversary.
    pub fn new(f: F) -> Self {
        FnDynAdversary { f }
    }
}

impl<F> DynAdversary for FnDynAdversary<F>
where
    F: FnMut(u64, &dyn DynStreamAlg, &RandTranscript, Option<&Answer>) -> Option<Update> + Send,
{
    fn next_update(
        &mut self,
        t: u64,
        alg: &dyn DynStreamAlg,
        transcript: &RandTranscript,
        last: Option<&Answer>,
    ) -> Option<Update> {
        (self.f)(t, alg, transcript, last)
    }
}

/// Drives an oblivious [`UpdateSource`] through an erased algorithm with
/// batched ingestion: chunks of up to `chunk` updates are pulled into one
/// reused buffer (memory stays O(chunk) for any stream length), the
/// referee observes every update, the algorithm ingests each chunk through
/// its optimized [`StreamAlg::process_batch`] path, and the query is
/// checked at every chunk boundary (with `chunk = 1` this is exactly the
/// per-round game).
pub fn run_source_erased(
    alg: &mut dyn DynStreamAlg,
    source: &mut dyn UpdateSource,
    referee: &mut dyn DynReferee,
    chunk: usize,
    seed: u64,
) -> Result<GameReport, WbError> {
    let chunk = chunk.max(1);
    let mut round = Round::new(alg.space_bits_dyn(), seed);
    let mut buf: Vec<Update> = Vec::with_capacity(chunk);
    while source.next_chunk(&mut buf) > 0 {
        round.ingest(alg, referee, &buf)?;
        if round.check(alg, referee).is_none() {
            break;
        }
    }
    Ok(round.finish(alg.space_bits_dyn()))
}

/// Drives an adaptive erased adversary through the per-round white-box game:
/// one update and one check per round, for up to `max_rounds` rounds or
/// until the adversary stops or the referee finds a violation.
pub fn run_erased(
    alg: &mut dyn DynStreamAlg,
    adversary: &mut dyn DynAdversary,
    referee: &mut dyn DynReferee,
    max_rounds: u64,
    seed: u64,
) -> Result<GameReport, WbError> {
    let mut round = Round::new(alg.space_bits_dyn(), seed);
    round.play_rounds(alg, referee, max_rounds, |t, alg, tr, last| {
        adversary.next_update(t, alg, tr, last)
    })?;
    Ok(round.finish(alg.space_bits_dyn()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::referee::RefereeSpec;
    use crate::workload::SliceSource;
    use wb_sketch::{MisraGries, SpaceSaving};

    #[test]
    fn update_conversions() {
        assert_eq!(
            InsertOnly::from_update_weighted(&Update::Insert(4)),
            Some((InsertOnly(4), 1))
        );
        assert_eq!(
            InsertOnly::from_update_weighted(&Update::Turnstile { item: 4, delta: 1 }),
            Some((InsertOnly(4), 1))
        );
        assert_eq!(
            InsertOnly::from_update_weighted(&Update::Turnstile { item: 4, delta: -1 }),
            None
        );
        assert_eq!(
            Turnstile::from_update_weighted(&Update::Insert(9)),
            Some((Turnstile::insert(9), 1))
        );
        assert_eq!(Update::Insert(3).delta(), 1);
        assert_eq!(Update::Turnstile { item: 3, delta: -2 }.item(), 3);
    }

    #[test]
    fn erased_alg_processes_and_answers() {
        let mut alg: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut rng = TranscriptRng::from_seed(1);
        for _ in 0..10 {
            alg.process_dyn(&Update::Insert(7), &mut rng).unwrap();
        }
        assert_eq!(alg.name_dyn(), "MisraGries");
        let items = alg.query_dyn();
        assert_eq!(items.as_items().unwrap(), &[(7, 10.0)]);
        assert!(alg.space_bits_dyn() > 0);
        // Downcast through the white-box window.
        let mg = alg.as_any().downcast_ref::<MisraGries>().unwrap();
        assert_eq!(mg.estimate(7), 10);
    }

    #[test]
    fn positive_deltas_expand_to_repeated_inserts() {
        // Regression: delta > 1 used to be rejected as model-incompatible,
        // spuriously marking insert-only algorithms incompatible in
        // tournament cells fed by weighted generators.
        let mut expanded: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut repeated: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut rng_a = TranscriptRng::from_seed(5);
        let mut rng_b = TranscriptRng::from_seed(5);
        expanded
            .process_dyn(&Update::Turnstile { item: 9, delta: 7 }, &mut rng_a)
            .unwrap();
        for _ in 0..7 {
            repeated
                .process_dyn(&Update::Insert(9), &mut rng_b)
                .unwrap();
        }
        assert_eq!(expanded.query_dyn(), repeated.query_dyn());

        // The batched path expands identically.
        let mut batched: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut rng_c = TranscriptRng::from_seed(5);
        batched
            .process_batch_dyn(
                &[
                    Update::Turnstile { item: 9, delta: 3 },
                    Update::Turnstile { item: 9, delta: 4 },
                ],
                &mut rng_c,
            )
            .unwrap();
        assert_eq!(batched.query_dyn(), repeated.query_dyn());

        // Zero, negative, and oversized deltas stay out-of-model.
        for delta in [0i64, -1, (MAX_DELTA_EXPANSION + 1) as i64] {
            assert!(
                expanded
                    .process_dyn(&Update::Turnstile { item: 1, delta }, &mut rng_a)
                    .is_err(),
                "delta {delta} must be rejected"
            );
        }
        // A multi-unit delta converts with its weight (never silently
        // dropped).
        assert_eq!(
            InsertOnly::from_update_weighted(&Update::Turnstile { item: 9, delta: 7 }),
            Some((InsertOnly(9), 7))
        );
        // Expansion totals beyond MAX_DELTA_EXPANSION are processed in
        // bounded segments, never rejected: in-model/out-of-model is a
        // per-update property, so it cannot depend on how a stream was
        // chunked (the tournament's --chunk invariance relies on this).
        let near_cap = Update::Turnstile {
            item: 1,
            delta: MAX_DELTA_EXPANSION as i64,
        };
        assert!(batched.process_batch_dyn(&[near_cap], &mut rng_c).is_ok());
        let mut wide: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut narrow: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let mut rng_d = TranscriptRng::from_seed(5);
        let mut rng_e = TranscriptRng::from_seed(5);
        wide.process_batch_dyn(&[near_cap, near_cap], &mut rng_d)
            .unwrap();
        narrow.process_batch_dyn(&[near_cap], &mut rng_e).unwrap();
        narrow.process_batch_dyn(&[near_cap], &mut rng_e).unwrap();
        assert_eq!(wide.query_dyn(), narrow.query_dyn());
        // Turnstile algorithms still receive the delta untouched.
        assert_eq!(
            Turnstile::from_update_weighted(&Update::Turnstile { item: 2, delta: 5 }),
            Some((Turnstile { item: 2, delta: 5 }, 1))
        );
    }

    /// Every update shape the conversions distinguish: unit, weighted,
    /// zero, negative, and each delta bound with its neighbour.
    fn update_shapes() -> [Update; 12] {
        [
            Update::Insert(3),
            Update::Turnstile { item: 3, delta: 1 },
            Update::Turnstile { item: 3, delta: 7 },
            Update::Turnstile { item: 3, delta: 0 },
            Update::Turnstile { item: 3, delta: -2 },
            Update::Turnstile {
                item: 3,
                delta: MAX_DELTA_EXPANSION as i64,
            },
            Update::Turnstile {
                item: 3,
                delta: MAX_DELTA_EXPANSION as i64 + 1,
            },
            Update::Turnstile {
                item: 3,
                delta: MAX_TURNSTILE_DELTA as i64,
            },
            Update::Turnstile {
                item: 3,
                delta: -(MAX_TURNSTILE_DELTA as i64),
            },
            Update::Turnstile {
                item: 3,
                delta: MAX_TURNSTILE_DELTA as i64 + 1,
            },
            Update::Turnstile {
                item: 3,
                delta: i64::MIN,
            },
            Update::Turnstile {
                item: 3,
                delta: i64::MAX,
            },
        ]
    }

    #[test]
    fn stream_model_accepts_mirrors_weighted_conversion() {
        // model().accepts(u) must agree with from_update_weighted(u) on
        // every update shape — it is the pre-validation servers rely on
        // before handing a batch to an asynchronous ingest path.
        for u in &update_shapes() {
            assert_eq!(
                InsertOnly::model().accepts(u),
                InsertOnly::from_update_weighted(u).is_some(),
                "{u:?}"
            );
            assert_eq!(
                Turnstile::model().accepts(u),
                Turnstile::from_update_weighted(u).is_some(),
                "{u:?}"
            );
        }
        let mg: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        assert_eq!(mg.model_dyn(), StreamModel::InsertOnly);
        assert_eq!(mg.model_dyn().label(), "insert_only");
        assert_eq!(StreamModel::Turnstile.label(), "turnstile");
    }

    #[test]
    fn unit_conversion_mirrors_weighted_conversion() {
        // from_update_unit(u) flags exactly the updates from_update_weighted
        // converts with weight 1, and converts them to the same update —
        // process_batch_dyn's one-pass path relies on both.
        fn check<T: FromUpdate + PartialEq + std::fmt::Debug>(u: &Update) {
            let (x, unit) = T::from_update_unit(u);
            match T::from_update_weighted(u) {
                Some((y, 1)) => {
                    assert!(unit, "{u:?} is a unit update");
                    assert_eq!(x, y, "{u:?}");
                }
                _ => assert!(!unit, "{u:?} is not a unit update"),
            }
        }
        for u in &update_shapes() {
            check::<InsertOnly>(u);
            check::<Turnstile>(u);
        }
    }

    #[test]
    fn merge_dyn_downcast_checks_type_equality() {
        let mut mg: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        let ss: Box<dyn DynStreamAlg> = Box::new(SpaceSaving::with_counters(4, 1 << 10));
        assert_eq!(
            mg.merge_dyn(ss.as_ref()),
            Err(MergeError::TypeMismatch {
                left: "MisraGries",
                right: "SpaceSaving",
            })
        );
        // Same type merges through the erased interface.
        let mut rng = TranscriptRng::from_seed(6);
        let mut other: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(4, 1 << 10));
        for i in 0..10 {
            other.process_dyn(&Update::Insert(i % 2), &mut rng).unwrap();
        }
        mg.merge_dyn(other.as_ref()).unwrap();
        let merged = mg.as_any().downcast_ref::<MisraGries>().unwrap();
        assert_eq!(merged.processed(), 10);
    }

    #[test]
    fn merge_dyn_reports_unmergeable_algorithms() {
        use wb_sketch::MorrisCounter;
        let mut a: Box<dyn DynStreamAlg> = Box::new(MorrisCounter::new(0.5, 0.25));
        let b: Box<dyn DynStreamAlg> = Box::new(MorrisCounter::new(0.5, 0.25));
        assert_eq!(
            a.merge_dyn(b.as_ref()),
            Err(MergeError::unmergeable("MorrisCounter"))
        );
    }

    #[test]
    #[should_panic(expected = "nonempty universe")]
    fn fold_into_zero_universe_panics() {
        // Regression: n = 0 used to be clamped to 1, silently collapsing
        // the whole universe onto item 0.
        let _ = Update::Insert(7).fold_into(0);
    }

    #[test]
    fn erased_alg_rejects_wrong_model() {
        let mut alg: Box<dyn DynStreamAlg> = Box::new(SpaceSaving::with_counters(4, 1 << 10));
        let mut rng = TranscriptRng::from_seed(2);
        let bad = Update::Turnstile { item: 1, delta: -3 };
        assert!(alg.process_dyn(&bad, &mut rng).is_err());
        assert!(alg
            .process_batch_dyn(&[Update::Insert(1), bad], &mut rng)
            .is_err());
    }

    #[test]
    fn script_runner_checks_via_referee() {
        let mut alg: Box<dyn DynStreamAlg> = Box::new(MisraGries::new(0.1, 1 << 10));
        let script: Vec<Update> = (0..500u64).map(|t| Update::Insert(t % 5)).collect();
        let mut referee = RefereeSpec::HeavyHitters {
            eps: 0.1,
            tol: 0.1,
            phi: None,
            grace: 0,
        }
        .build();
        let report = run_source_erased(
            alg.as_mut(),
            &mut SliceSource::new(&script),
            referee.as_mut(),
            64,
            7,
        )
        .unwrap();
        assert!(report.result.survived());
        assert_eq!(report.result.rounds, 500);
        assert_eq!(report.checks, 500u64.div_ceil(64));
    }

    #[test]
    fn source_runner_matches_script_runner() {
        use crate::workload::WorkloadSpec;
        let spec = WorkloadSpec::Zipf {
            n: 1 << 10,
            m: 2000,
            heavy: 4,
            seed: 11,
        };
        let referee_spec = RefereeSpec::HeavyHitters {
            eps: 0.125,
            tol: 0.125,
            phi: None,
            grace: 32,
        };
        let script = spec.generate();
        let mut a: Box<dyn DynStreamAlg> = Box::new(MisraGries::new(0.125, 1 << 10));
        let mut b: Box<dyn DynStreamAlg> = Box::new(MisraGries::new(0.125, 1 << 10));
        let mut ref_a = referee_spec.clone().build();
        let mut ref_b = referee_spec.build();
        let ra = run_source_erased(
            a.as_mut(),
            &mut SliceSource::new(&script),
            ref_a.as_mut(),
            128,
            3,
        )
        .unwrap();
        let rb = run_source_erased(b.as_mut(), &mut spec.stream(), ref_b.as_mut(), 128, 3).unwrap();
        assert_eq!(ra.result.rounds, rb.result.rounds);
        assert_eq!(ra.checks, rb.checks);
        assert_eq!(a.query_dyn(), b.query_dyn());
        assert_eq!(a.space_bits_dyn(), b.space_bits_dyn());
    }

    #[test]
    fn stream_adversary_replays_the_source_in_order() {
        use crate::workload::WorkloadSpec;
        let spec = WorkloadSpec::Uniform {
            n: 1 << 8,
            m: 700,
            seed: 5,
        };
        let expected = spec.generate();
        let mut adv = StreamDynAdversary::new(spec.stream());
        let alg: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(2, 1 << 8));
        let rng = TranscriptRng::from_seed(0);
        let mut got = Vec::new();
        let mut t = 0;
        while let Some(u) = adv.next_update(t, alg.as_ref(), rng.transcript(), None) {
            got.push(u);
            t += 1;
        }
        assert_eq!(got, expected);
        // Exhausted sources stay exhausted.
        assert!(adv
            .next_update(t, alg.as_ref(), rng.transcript(), None)
            .is_none());
    }

    #[test]
    fn adaptive_erased_adversary_downcasts() {
        // A white-box adversary that reads the Misra–Gries table through
        // as_any and always sends an unmonitored item.
        let mut alg: Box<dyn DynStreamAlg> = Box::new(MisraGries::with_counters(3, 1 << 10));
        let mut adv = FnDynAdversary::new(|_t, alg, _tr, _last| {
            let mg = alg.as_any().downcast_ref::<MisraGries>().expect("MG");
            let tracked: Vec<u64> = mg.entries().iter().map(|&(i, _)| i).collect();
            Some(Update::Insert(
                (0..).find(|i| !tracked.contains(i)).unwrap(),
            ))
        });
        let mut referee = RefereeSpec::Accept.build();
        let report = run_erased(alg.as_mut(), &mut adv, referee.as_mut(), 50, 3).unwrap();
        assert!(report.result.survived());
        assert_eq!(report.result.rounds, 50);
        // Every round sent a fresh unmonitored item, so no counter exceeds 1.
        let mg = alg.as_any().downcast_ref::<MisraGries>().unwrap();
        assert!(mg.entries().iter().all(|&(_, c)| c <= 1));
    }
}
