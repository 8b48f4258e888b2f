//! # wb-core — the white-box adversarial data stream model
//!
//! This crate implements the model introduced in *"The White-Box Adversarial
//! Data Stream Model"* (Ajtai, Braverman, Jayram, Silwal, Sun, Woodruff,
//! Zhou; PODS 2022). The model is a two-player game between a streaming
//! algorithm [`StreamAlg`] and a [`WhiteBoxAdversary`]:
//!
//! 1. the adversary computes the next stream update from **all** previous
//!    internal states of the algorithm and **all** randomness it has used;
//! 2. the algorithm ingests the update, drawing fresh random bits;
//! 3. the algorithm answers the fixed query, and the adversary observes the
//!    answer, the new internal state and the new random bits.
//!
//! The adversary wins if the algorithm ever answers incorrectly. Unlike the
//! black-box adversarial model there is **no hidden state whatsoever** — not
//! even a secret key.
//!
//! The crate provides:
//!
//! * [`game`] — the adversary/referee traits and game results (games are
//!   driven through the fluent builder in the `wb-engine` crate); the
//!   algorithm value itself is handed to the adversary by shared
//!   reference, which is the strongest possible reading of "observes the
//!   entire internal state";
//! * [`rng`] — deterministic, fully transparent randomness: every word the
//!   algorithm draws is appended to a public transcript
//!   ([`rng::RandTranscript`]) that the adversary can read, and the seed
//!   itself is public;
//! * [`space`] — bit-level space accounting ([`space::SpaceUsage`]): the
//!   paper's theorems count bits of model state, so every algorithm in the
//!   workspace reports an information-theoretically honest encoding size;
//! * [`stream`] — update and stream types (insertion-only, turnstile) and
//!   the exact [`stream::FrequencyVector`] used as ground truth by referees;
//! * [`merge`] — the typed [`MergeError`]s behind sharded ingestion
//!   (`wb_engine::shard`, through [`stream::StreamAlg::merge_from`]): which
//!   summaries can absorb a sibling instance, and why the rest refuse;
//! * [`snap`] — the versioned, length-prefixed snapshot codec
//!   ([`snap::Snapshot`]) behind checkpoint/resume: white-box state is
//!   public by definition, so persisting it verbatim is model-faithful;
//! * [`referee`] — reusable correctness referees for common query types.
//!
//! # Quick example
//!
//! Implement the two core traits, then drive the game through the engine's
//! fluent builder (`wb_engine::Game`) — or skip the types entirely and
//! pick a workspace algorithm by name from `wb_engine::registry`:
//!
//! ```
//! use wb_core::game::{FnReferee, Verdict};
//! use wb_core::rng::TranscriptRng;
//! use wb_core::space::SpaceUsage;
//! use wb_core::stream::{InsertOnly, StreamAlg};
//! use wb_engine::Game;
//!
//! /// A trivial exact counter: deterministic, hence white-box robust.
//! struct ExactCounter(u64);
//! impl StreamAlg for ExactCounter {
//!     type Update = InsertOnly;
//!     type Output = u64;
//!     fn process(&mut self, _u: &InsertOnly, _rng: &mut TranscriptRng) { self.0 += 1; }
//!     fn query(&self) -> u64 { self.0 }
//! }
//! impl SpaceUsage for ExactCounter {
//!     fn space_bits(&self) -> u64 { wb_core::space::bits_for_count(self.0) }
//! }
//!
//! let report = Game::new(ExactCounter(0))
//!     .script((0..100).map(InsertOnly).collect())
//!     .referee(FnReferee::new(|t: u64, out: &u64| {
//!         if *out == t { Verdict::Correct } else { Verdict::violation("count mismatch") }
//!     }))
//!     .seed(7)
//!     .run();
//! assert!(report.survived());
//!
//! // Runtime selection: the same game over the erased registry interface.
//! use wb_engine::registry::{self, Params};
//! let mut named = registry::get("misra_gries", &Params::default()).unwrap();
//! assert_eq!(named.name_dyn(), "MisraGries");
//! ```
//!
//! The builder returns a `GameReport` whose `.result` field is the
//! [`GameResult`]; use `.play()` instead of `.run()` to get the final
//! algorithm state back alongside the report.

pub mod error;
pub mod game;
pub mod merge;
pub mod referee;
pub mod rng;
pub mod snap;
pub mod space;
pub mod stream;

pub use error::WbError;
pub use game::{GameResult, Referee, Verdict, WhiteBoxAdversary};
pub use merge::MergeError;
pub use rng::{RandTranscript, TranscriptRng};
pub use snap::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use space::SpaceUsage;
pub use stream::{FrequencyVector, InsertOnly, StreamAlg, Turnstile};
