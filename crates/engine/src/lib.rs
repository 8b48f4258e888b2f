//! # wb-engine — the unified way to drive white-box adversarial games
//!
//! Every algorithm in the workspace is played through this crate, whether
//! the caller knows its concrete type or only its name:
//!
//! * [`Game`] — the fluent, typed game driver:
//!   `Game::new(alg).adversary(a).referee(r).max_rounds(m).seed(s).run()`.
//!   Every game ends in one [`GameReport`] (first violation, rounds, peak
//!   and final space, referee checks). An adaptive adversary enters through
//!   [`Game::adversary`]; a materialized oblivious script enters through
//!   [`Game::script`] + [`Game::batch`] and is ingested through the
//!   algorithms' optimized `process_batch` paths.
//! * [`erased`] — the object-safe layer: an [`Update`] enum over the
//!   paper's two stream models, an [`Answer`] enum over the query shapes,
//!   and [`DynStreamAlg`], blanket-implemented for every
//!   `StreamAlg + SpaceUsage + Snapshot` whose types convert — so
//!   `Box<dyn DynStreamAlg>` is free for all `u64`-universe sketches, and
//!   every erased algorithm can write out its public state. Its drivers —
//!   the pull-based `run_source_erased` (a materialized script enters
//!   through [`SliceSource`]) and the adaptive `run_erased` — and both
//!   phases of each tournament cell play the one round protocol that
//!   [`Game`] plays too.
//! * [`registry`] — string-keyed construction
//!   (`registry::get("robust_hh", &params)`) of algorithms and
//!   adversaries, for binaries, tests, and servers that select at runtime.
//! * [`experiment`] — the declarative [`ExperimentSpec`] runner behind
//!   every `exp_e*` binary: workload × algorithm × metrics → table +
//!   JSON-lines report, with real referees, a `--quick` smoke mode, and
//!   rows executed in parallel on the engine [`pool`] (`--threads N`).
//! * [`tournament`] — the full registry cross-product (algorithm ×
//!   adversary × workload) played in parallel with per-cell seeds derived
//!   from one master seed: a systematic robustness evaluation whose JSON
//!   report is byte-identical across thread counts.
//! * [`shard`] — sharded ingestion: route one logical stream across `S`
//!   instances (hash or round-robin) and fold the states back together
//!   with `DynStreamAlg::merge_dyn` in a deterministic reduction tree. One
//!   core, [`ShardPipeline`], serves every caller on the caller's thread:
//!   a per-shard ingest step and one route-and-stage step. Only
//!   algorithms that override `StreamAlg::merge_from` participate; the rest
//!   refuse with a typed `MergeError`.
//! * [`workload`] — one generator per named workload (the declarative
//!   [`WorkloadSpec`]) and the **pull-based streaming layer**
//!   ([`workload::UpdateSource`] / [`WorkloadSpec::stream`]) every
//!   ingestion path above is built on: chunks are generated lazily into a
//!   caller-owned reused buffer, so memory is O(chunk) for any stream
//!   length and tournament runs at `--prelude-m 10_000_000` are
//!   wall-clock-bound, not RAM-bound.
//! * [`pool`] — the hand-rolled work-queue thread pool (std only) behind
//!   both runners, returning results in submission order.
//!
//! # Example: typed builder
//!
//! ```
//! use wb_engine::Game;
//! use wb_core::referee::HeavyHitterReferee;
//! use wb_core::stream::InsertOnly;
//! use wb_sketch::RobustL1HeavyHitters;
//!
//! let script: Vec<InsertOnly> = (0..2_000).map(|t| InsertOnly(t % 5)).collect();
//! let report = Game::new(RobustL1HeavyHitters::new(1 << 12, 0.25))
//!     .script(script)
//!     .referee(HeavyHitterReferee::new(0.25, 0.25).with_grace(64))
//!     .seed(7)
//!     .run();
//! assert!(report.survived());
//! ```
//!
//! # Example: registry + batched ingestion
//!
//! ```
//! use wb_engine::erased::{run_source_erased, Update};
//! use wb_engine::referee::RefereeSpec;
//! use wb_engine::registry::{self, Params};
//! use wb_engine::workload::SliceSource;
//!
//! let mut alg = registry::get("misra_gries", &Params::default()).unwrap();
//! let script: Vec<Update> = (0..4_096).map(|t| Update::Insert(t % 8)).collect();
//! let mut referee = RefereeSpec::HeavyHitters {
//!     eps: 0.125, tol: 0.125, phi: None, grace: 0,
//! }.build();
//! let mut source = SliceSource::new(&script);
//! let report = run_source_erased(alg.as_mut(), &mut source, referee.as_mut(), 256, 1).unwrap();
//! assert!(report.survived());
//! ```

pub mod builder;
pub mod erased;
pub mod experiment;
pub mod pool;
pub mod referee;
pub mod registry;
pub mod report;
mod round;
pub mod shard;
pub mod tournament;
pub mod workload;

pub use builder::{AcceptAll, Game, NoAdversary};
pub use erased::{Answer, DynAdversary, DynStreamAlg, StreamModel, Update};
pub use experiment::{ExperimentSpec, GameRow, Metric, Row, RunCtx, RunnerConfig, Section};
pub use pool::{PoolStats, WorkerPool};
pub use referee::{DynReferee, RefereeSpec};
pub use report::GameReport;
pub use shard::{
    ingest_sharded_source, merge_reduce, Partition, ShardConfig, ShardPipeline, ShardStats,
    ShardedIngest,
};
pub use tournament::{
    run_tournament, AlgSummary, CellReport, CellVerdict, TournamentConfig, TournamentReport,
};
pub use workload::{
    FoldSource, InspectSource, SliceSource, UpdateSource, WorkloadSpec, WorkloadStream,
    DEFAULT_CHUNK,
};
