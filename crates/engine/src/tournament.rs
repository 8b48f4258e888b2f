//! Tournament mode: every algorithm vs every adversary on every workload.
//!
//! The white-box model is defined by the *interaction* of an algorithm with
//! an adversary that sees its full state; a dozen hand-picked pairings in
//! the `exp_e*` binaries do not measure robustness breadth. This module
//! enumerates the full registry cross-product — algorithm × adversary ×
//! workload — and plays every cell as an erased game on the hand-rolled
//! [`pool`], aggregating verdicts into a [`TournamentReport`].
//!
//! **Cell anatomy.** Each cell first ingests an *oblivious prelude* drawn
//! from the named workload generator — the algorithm's state is preloaded
//! with realistic traffic — and then the named adversary plays the
//! adaptive per-round white-box game against that warm state. One game
//! tape spans both phases, so the adversary sees the full randomness
//! transcript, prelude included. Both phases are steps of the engine's one
//! round protocol, the same one the typed [`Game`](crate::Game) and the
//! erased drivers ([`crate::erased`]) play; the cell adds only its own
//! policies — one check at the end of the prelude, mid-prelude
//! checkpoint frames, the first offending offset of an incompatible
//! stream, and the sharded prelude.
//!
//! **Streaming prelude.** The prelude is never materialized: chunks of
//! `batch` updates are pulled from [`WorkloadSpec::stream`] into one
//! reused buffer (flat mode) or routed through the bounded chunk queues of
//! [`crate::shard`] (sharded mode), so a cell's memory is O(batch + n)
//! regardless of `prelude_m` — `--prelude-m 10_000_000` and beyond is a
//! matter of wall-clock, not RAM. The chunk size is pure transport: the
//! referee observes every update but checks the answer once, at the **end
//! of the prelude** (then after every adaptive round as before), so the
//! JSON report is byte-identical across `--chunk` values as well as across
//! thread counts. An incompatible pairing reports the offset of the first
//! offending update (probed per update after the chunk-level error, hence
//! also chunk-size-independent) without ever retaining the stream — as a
//! logical *stream offset* in flat mode (with `rounds` = updates accepted
//! before it), and as the failing shard's *shard-local offset* in sharded
//! mode (the shard subsequences are themselves deterministic; nothing was
//! merged, so `rounds` stays 0 there).
//!
//! **Determinism.** The cell's random tapes are derived with
//! [`derive_seed`]`(master, [alg, adversary, workload, role])` for the
//! four roles `"ctor"` (constructor randomness), `"adversary"` (scripted
//! adversary streams), `"workload"` (the prelude generator), and `"game"`
//! (the algorithm's in-game tape). A cell is therefore a pure function of
//! `(master_seed, alg, adversary, workload, sizes)` — independent of which
//! worker thread runs it, of how many threads exist, and of every other
//! cell. [`TournamentReport::json_lines`] is byte-identical across thread
//! counts, and any single cell can be replayed in isolation for a citation.
//!
//! **Universe folding.** All cell traffic lies in `[0, n)`, because
//! universe-bounded algorithms (e.g. `sis_l0`) reject out-of-universe items
//! while the `ddos` generator emits raw 32-bit addresses: the prelude is
//! folded by `item % n` ([`FoldSource`]), and so is every registry
//! adversary's scripted stream (the adaptive `hh_evader` stays inside
//! `[0, n)` by construction). Folding happens before the referee or the
//! algorithm sees an update, so ground truth stays exact.

use crate::erased::{DynStreamAlg, Update};
use crate::experiment::json_escape;
use crate::pool::{self, Job};
use crate::referee::{DynReferee, RefereeSpec};
use crate::registry::{self, Params};
use crate::report::{header, row};
use crate::round::Round;
use crate::shard::{self, Partition, ShardConfig};
use crate::workload::{FoldSource, InspectSource, UpdateSource, WorkloadSpec, WorkloadStream};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use wb_core::rng::derive_seed;
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::WbError;

/// The workload dimensions of the cross-product: every named generator in
/// [`crate::workload`].
pub const WORKLOADS: &[&str] = &["zipf", "ddos", "churn", "uniform", "cycle"];

/// Configuration of one tournament run.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Master seed every per-cell seed is derived from.
    pub master_seed: u64,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Algorithm registry keys (defaults to the whole registry).
    pub algs: Vec<String>,
    /// Adversary registry keys (defaults to all of them).
    pub adversaries: Vec<String>,
    /// Workload names (defaults to [`WORKLOADS`]).
    pub workloads: Vec<String>,
    /// Universe size; all cell traffic is folded into `[0, n)`.
    pub n: u64,
    /// Length of the oblivious workload prelude each cell ingests.
    pub prelude_m: u64,
    /// Adaptive adversary rounds after the prelude.
    pub rounds: u64,
    /// Prelude chunk size — pure transport (`--chunk`): it bounds the
    /// cell's resident stream slice and never affects the report (the
    /// referee checks at the end of the prelude, not at chunk boundaries).
    pub batch: usize,
    /// Shard instances the prelude is partitioned across (`1` = classic
    /// single-stream ingestion). With `S > 1`, mergeable algorithms ingest
    /// the prelude as `S` hash-partitioned shards merged in a
    /// deterministic reduction tree (see [`crate::shard`]); unmergeable
    /// algorithms fall back to the flat single-stream path — keeping their
    /// full prelude randomness transcript visible to the phase-2 adversary
    /// — so every cell stays playable and reports stay byte-identical
    /// across thread counts.
    pub shards: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            master_seed: 42,
            threads: 0,
            algs: registry::names().iter().map(|s| s.to_string()).collect(),
            adversaries: registry::adversary_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            workloads: WORKLOADS.iter().map(|s| s.to_string()).collect(),
            n: 1 << 12,
            prelude_m: 1 << 13,
            rounds: 1 << 12,
            batch: crate::workload::DEFAULT_CHUNK,
            shards: 1,
        }
    }
}

impl TournamentConfig {
    /// Smoke-scale sizes for CI and tests; the cross-product stays full.
    pub fn quick(mut self) -> Self {
        self.n = 1 << 10;
        self.prelude_m = 512;
        self.rounds = 256;
        self.batch = 128;
        self
    }

    /// Number of cells the cross-product enumerates.
    pub fn cell_count(&self) -> usize {
        self.algs.len() * self.adversaries.len() * self.workloads.len()
    }
}

/// Outcome class of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// The referee accepted every checked answer.
    Survived,
    /// First referee violation, at this cumulative 1-indexed round.
    Violated {
        /// Round of the first violation.
        round: u64,
    },
    /// The pairing is outside the algorithm's stream model (e.g. `churn`
    /// deletions offered to an insertion-only sketch) — recorded, not an
    /// error: the cross-product is exhaustive by design.
    Incompatible,
    /// Construction failed or the cell panicked.
    Error,
}

impl CellVerdict {
    /// Stable lowercase label used in tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CellVerdict::Survived => "survived",
            CellVerdict::Violated { .. } => "violated",
            CellVerdict::Incompatible => "incompatible",
            CellVerdict::Error => "error",
        }
    }
}

/// Result of one `(algorithm, adversary, workload)` cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Algorithm registry key.
    pub alg: String,
    /// Adversary registry key.
    pub adversary: String,
    /// Workload name (the prelude generator).
    pub workload: String,
    /// Shard instances the prelude was configured to spread across.
    pub shards: usize,
    /// The derived per-cell game seed (`role = "game"`), for replay.
    pub seed: u64,
    /// Outcome class.
    pub verdict: CellVerdict,
    /// Violation / error description (empty when survived).
    pub detail: String,
    /// Updates ingested (prelude + adaptive rounds). For incompatible
    /// cells: the updates accepted before the first offending one in flat
    /// mode, `0` in sharded mode (nothing was merged).
    pub rounds: u64,
    /// Referee checks performed.
    pub checks: u64,
    /// Peak `space_bits()` across the cell.
    pub peak_space_bits: u64,
    /// `space_bits()` after the final round.
    pub final_space_bits: u64,
    /// Wall time of the cell. Informational only — deliberately **not**
    /// part of [`CellReport::json_line`], which must be bit-reproducible.
    pub millis: u128,
}

impl CellReport {
    /// One JSON object describing the cell. Contains no timing and no
    /// machine-dependent fields: byte-identical across runs and thread
    /// counts for the same configuration.
    pub fn json_line(&self) -> String {
        let fail_round = match self.verdict {
            CellVerdict::Violated { round } => round.to_string(),
            _ => "null".to_string(),
        };
        format!(
            concat!(
                r#"{{"alg":"{}","adversary":"{}","workload":"{}","shards":{},"seed":{},"#,
                r#""verdict":"{}","fail_round":{},"rounds":{},"checks":{},"#,
                r#""peak_space_bits":{},"final_space_bits":{},"detail":"{}"}}"#
            ),
            json_escape(&self.alg),
            json_escape(&self.adversary),
            json_escape(&self.workload),
            self.shards,
            self.seed,
            self.verdict.label(),
            fail_round,
            self.rounds,
            self.checks,
            self.peak_space_bits,
            self.final_space_bits,
            json_escape(&self.detail),
        )
    }
}

/// Per-algorithm rollup across all its cells.
#[derive(Debug, Clone)]
pub struct AlgSummary {
    /// Algorithm registry key.
    pub alg: String,
    /// Cells played.
    pub cells: usize,
    /// Cells where the referee accepted everything.
    pub survived: usize,
    /// Cells with a referee violation.
    pub violated: usize,
    /// Model-incompatible pairings.
    pub incompatible: usize,
    /// Construction failures / panics.
    pub errors: usize,
    /// Earliest violation round across cells, if any.
    pub first_fail_round: Option<u64>,
    /// Peak space across all cells.
    pub peak_space_bits: u64,
}

/// Aggregated outcome of a tournament run.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// The master seed the run derived every cell seed from.
    pub master_seed: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// One report per cell, in cross-product enumeration order
    /// (algorithm-major, then adversary, then workload).
    pub cells: Vec<CellReport>,
    /// Total wall time of the run.
    pub wall_millis: u128,
}

impl TournamentReport {
    /// JSON-lines report, sorted lexicographically — the canonical
    /// byte-reproducible artifact (no timing, no thread count).
    pub fn json_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.cells.iter().map(CellReport::json_line).collect();
        lines.sort();
        lines
    }

    /// Per-algorithm rollups, in cell enumeration order.
    pub fn summaries(&self) -> Vec<AlgSummary> {
        let mut out: Vec<AlgSummary> = Vec::new();
        for cell in &self.cells {
            if out.last().map(|s| s.alg.as_str()) != Some(cell.alg.as_str()) {
                out.push(AlgSummary {
                    alg: cell.alg.clone(),
                    cells: 0,
                    survived: 0,
                    violated: 0,
                    incompatible: 0,
                    errors: 0,
                    first_fail_round: None,
                    peak_space_bits: 0,
                });
            }
            let s = out.last_mut().expect("pushed above");
            s.cells += 1;
            s.peak_space_bits = s.peak_space_bits.max(cell.peak_space_bits);
            match cell.verdict {
                CellVerdict::Survived => s.survived += 1,
                CellVerdict::Violated { round } => {
                    s.violated += 1;
                    s.first_fail_round = Some(s.first_fail_round.map_or(round, |r| r.min(round)));
                }
                CellVerdict::Incompatible => s.incompatible += 1,
                CellVerdict::Error => s.errors += 1,
            }
        }
        out
    }

    /// Cells that ended in a referee violation or an error.
    pub fn failures(&self) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| matches!(c.verdict, CellVerdict::Violated { .. } | CellVerdict::Error))
            .collect()
    }

    /// Print the per-algorithm robustness table.
    pub fn print_summary(&self) {
        println!("\nper-algorithm robustness (cells = adversary x workload pairings)\n");
        header(
            &[
                "alg",
                "cells",
                "survived",
                "violated",
                "incompat",
                "error",
                "first fail",
                "peak bits",
            ],
            12,
        );
        for s in self.summaries() {
            println!(
                "{}",
                row(
                    &[
                        s.alg.clone(),
                        s.cells.to_string(),
                        s.survived.to_string(),
                        s.violated.to_string(),
                        s.incompatible.to_string(),
                        s.errors.to_string(),
                        s.first_fail_round
                            .map_or("-".to_string(), |r| r.to_string()),
                        s.peak_space_bits.to_string(),
                    ],
                    12,
                )
            );
        }
    }

    /// Print every cell (verbose; `--cells` in the binary).
    pub fn print_cells(&self) {
        println!("\nall cells\n");
        header(
            &[
                "alg",
                "adversary",
                "workload",
                "verdict",
                "rounds",
                "checks",
                "peak bits",
                "ms",
            ],
            12,
        );
        for c in &self.cells {
            println!(
                "{}",
                row(
                    &[
                        c.alg.clone(),
                        c.adversary.clone(),
                        c.workload.clone(),
                        c.verdict.label().to_string(),
                        c.rounds.to_string(),
                        c.checks.to_string(),
                        c.peak_space_bits.to_string(),
                        c.millis.to_string(),
                    ],
                    12,
                )
            );
        }
    }
}

/// The prelude workload for a named dimension, sized for one cell.
///
/// The Zipf head has 8 items, shrunk to `n / 2` in a smaller universe so
/// the uniform noise tail `[heavy, n)` is never empty; `zipf` needs
/// `n >= 2`.
pub fn workload_spec(name: &str, n: u64, m: u64, seed: u64) -> Result<WorkloadSpec, WbError> {
    Ok(match name {
        "zipf" if n < 2 => {
            return Err(WbError::invalid(
                "the zipf workload needs n >= 2 (one head and one tail item)",
            ))
        }
        "zipf" => WorkloadSpec::Zipf {
            n,
            m,
            heavy: 8.min(n / 2),
            seed,
        },
        "ddos" => WorkloadSpec::Ddos { m, seed },
        "churn" => WorkloadSpec::Churn {
            n,
            // waves * (wave + wave/2) ≈ m updates.
            waves: (m / 96).max(1),
            wave: 64,
            seed,
        },
        "uniform" => WorkloadSpec::Uniform { n, m, seed },
        "cycle" => WorkloadSpec::Cycle { items: 8, m },
        other => {
            return Err(WbError::invalid(format!(
                "unknown workload '{other}' (known: {})",
                WORKLOADS.join(", ")
            )))
        }
    })
}

/// The referee that checks the guarantee each registry algorithm actually
/// claims. Algorithms whose fixed query has no stream-level guarantee shape
/// (`count_min`'s victim estimate, `ams_f2`'s F2 moment) run under
/// [`RefereeSpec::Accept`] — their cells measure survival of ingestion, not
/// a correctness bound.
pub fn referee_for(alg: &str, p: &Params) -> RefereeSpec {
    match alg {
        "misra_gries" | "space_saving" | "robust_hh" | "bern_mg" | "bernoulli_hh" => {
            RefereeSpec::HeavyHitters {
                eps: p.eps,
                tol: p.eps,
                phi: None,
                grace: 64,
            }
        }
        // The (φ,ε) guarantee: coverage at φ·‖f‖₁ (not ε — the compressed
        // summary only promises φ-heavy items), with the false-positive
        // floor; same calibration as exp_e2.
        "phi_eps_hh" => RefereeSpec::HeavyHitters {
            eps: p.phi,
            tol: 0.1,
            phi: Some(p.phi),
            grace: 256,
        },
        "morris" | "median_morris" => RefereeSpec::ApproxCount { eps: 0.5 },
        "exact_l0" => RefereeSpec::L0Sandwich { factor: 1.0 },
        "sis_l0" => RefereeSpec::L0Sandwich {
            factor: (p.n as f64).powf(p.l0_eps).ceil(),
        },
        _ => RefereeSpec::Accept,
    }
}

/// Checkpointing policy for a tournament run: the optional second argument
/// of [`run_tournament`] (`--resume` / `--checkpoint-every` in the
/// `tournament` binary).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file. Written atomically (tmp + rename) after every cell
    /// completion and every mid-prelude frame, so a SIGKILL at any moment
    /// leaves either the previous or the next consistent checkpoint.
    pub path: PathBuf,
    /// Updates between mid-prelude frames within each cell (`0` =
    /// cell-granular only: finished cells persist, a killed cell restarts
    /// from its beginning).
    pub every: u64,
}

/// The semantic identity of a tournament run: everything that shapes the
/// report. `batch` and `threads` are deliberately excluded — they are pure
/// transport, and a checkpoint taken at `--chunk 1024 --threads 4` must
/// resume under `--chunk 4096 --threads 1` with a byte-identical report.
/// The leading tag names the layout of the cell frames a checkpoint
/// embeds and is bumped whenever that layout changes, so an older
/// checkpoint is refused up front instead of failing cell by cell.
fn config_fingerprint(cfg: &TournamentConfig) -> String {
    format!(
        "v2;seed={};n={};prelude_m={};rounds={};shards={};algs={};adversaries={};workloads={}",
        cfg.master_seed,
        cfg.n,
        cfg.prelude_m,
        cfg.rounds,
        cfg.shards.max(1),
        cfg.algs.join(","),
        cfg.adversaries.join(","),
        cfg.workloads.join(","),
    )
}

type CellKey = (String, String, String);

/// On-disk checkpoint state: which cells finished (their full reports) and
/// the latest mid-prelude frame of each in-flight cell.
struct CkptStore {
    fingerprint: String,
    path: PathBuf,
    completed: BTreeMap<CellKey, CellReport>,
    inflight: BTreeMap<CellKey, Vec<u8>>,
}

fn snap_cell_report(w: &mut SnapWriter, c: &CellReport) {
    w.put_str(&c.alg);
    w.put_str(&c.adversary);
    w.put_str(&c.workload);
    w.put_usize(c.shards);
    w.put_u64(c.seed);
    match c.verdict {
        CellVerdict::Survived => w.put_u8(0),
        CellVerdict::Violated { round } => {
            w.put_u8(1);
            w.put_u64(round);
        }
        CellVerdict::Incompatible => w.put_u8(2),
        CellVerdict::Error => w.put_u8(3),
    }
    w.put_str(&c.detail);
    w.put_u64(c.rounds);
    w.put_u64(c.checks);
    w.put_u64(c.peak_space_bits);
    w.put_u64(c.final_space_bits);
}

fn take_cell_report(r: &mut SnapReader<'_>) -> Result<CellReport, SnapError> {
    let (alg, adversary, workload) = (r.take_str()?, r.take_str()?, r.take_str()?);
    let shards = r.take_usize()?;
    let seed = r.take_u64()?;
    let verdict = match r.take_u8()? {
        0 => CellVerdict::Survived,
        1 => CellVerdict::Violated {
            round: r.take_u64()?,
        },
        2 => CellVerdict::Incompatible,
        3 => CellVerdict::Error,
        other => return Err(SnapError::corrupt(format!("unknown cell verdict {other}"))),
    };
    Ok(CellReport {
        alg,
        adversary,
        workload,
        shards,
        seed,
        verdict,
        detail: r.take_str()?,
        rounds: r.take_u64()?,
        checks: r.take_u64()?,
        peak_space_bits: r.take_u64()?,
        final_space_bits: r.take_u64()?,
        // Wall time is not reproducible and not part of the JSON artifact;
        // restored cells report zero.
        millis: 0,
    })
}

impl CkptStore {
    /// The store at `ckpt.path`, or an empty one if the file does not exist.
    fn open(cfg: &TournamentConfig, ckpt: &CheckpointConfig) -> Result<Self, WbError> {
        let fingerprint = config_fingerprint(cfg);
        if !ckpt.path.exists() {
            return Ok(CkptStore {
                fingerprint,
                path: ckpt.path.clone(),
                completed: BTreeMap::new(),
                inflight: BTreeMap::new(),
            });
        }
        let bytes = std::fs::read(&ckpt.path)
            .map_err(|e| WbError::invalid(format!("read {}: {e}", ckpt.path.display())))?;
        CkptStore::parse(&bytes, &fingerprint, &ckpt.path)
    }

    fn serialize(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_str(&self.fingerprint);
        w.put_usize(self.completed.len());
        for report in self.completed.values() {
            snap_cell_report(&mut w, report);
        }
        w.put_usize(self.inflight.len());
        for ((alg, adv, wl), frame) in &self.inflight {
            w.put_str(alg);
            w.put_str(adv);
            w.put_str(wl);
            w.put_bytes(frame);
        }
        w.finish()
    }

    fn parse(bytes: &[u8], expected_fingerprint: &str, path: &Path) -> Result<Self, WbError> {
        let corrupt =
            |e: SnapError| WbError::invalid(format!("checkpoint {}: {e}", path.display()));
        let mut r = SnapReader::new(bytes).map_err(corrupt)?;
        let fingerprint = r.take_str().map_err(corrupt)?;
        if fingerprint != expected_fingerprint {
            return Err(WbError::invalid(format!(
                "checkpoint {} was taken under a different configuration\n  checkpoint: {fingerprint}\n  requested:  {expected_fingerprint}",
                path.display()
            )));
        }
        let mut completed = BTreeMap::new();
        for _ in 0..r.take_usize().map_err(corrupt)? {
            let report = take_cell_report(&mut r).map_err(corrupt)?;
            let key = (
                report.alg.clone(),
                report.adversary.clone(),
                report.workload.clone(),
            );
            completed.insert(key, report);
        }
        let mut inflight = BTreeMap::new();
        for _ in 0..r.take_usize().map_err(corrupt)? {
            let key = (
                r.take_str().map_err(corrupt)?,
                r.take_str().map_err(corrupt)?,
                r.take_str().map_err(corrupt)?,
            );
            inflight.insert(key, r.take_bytes().map_err(corrupt)?);
        }
        r.finish().map_err(corrupt)?;
        Ok(CkptStore {
            fingerprint,
            path: path.to_path_buf(),
            completed,
            inflight,
        })
    }

    /// Atomic persist: write to `<path>.tmp`, then rename over `path` — a
    /// kill mid-write leaves the previous checkpoint intact.
    fn persist(&self) {
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, self.serialize()).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// Run the full cross-product on the pool and aggregate the report.
///
/// With a checkpoint, progress is kill-safe: completed cells and
/// mid-prelude frames of in-flight cells persist to `ckpt.path`, and a rerun
/// pointed at the same file continues where the killed run stopped. The
/// final report is **byte-identical** to an uninterrupted run of the same
/// configuration (each cell is a pure function of its coordinates, and
/// mid-prelude frames capture the full cell state at chunk-invariant
/// offsets), so checkpointing never perturbs the artifact — only the
/// wall-clock cost of getting there. Only reading the checkpoint can fail:
/// without one the result is always `Ok`.
pub fn run_tournament(
    cfg: &TournamentConfig,
    ckpt: Option<&CheckpointConfig>,
) -> Result<TournamentReport, WbError> {
    let start = Instant::now();
    let store = ckpt
        .map(|ckpt| CkptStore::open(cfg, ckpt).map(Mutex::new))
        .transpose()?;

    let mut coords: Vec<CellKey> = Vec::with_capacity(cfg.cell_count());
    for alg in &cfg.algs {
        for adversary in &cfg.adversaries {
            for workload in &cfg.workloads {
                coords.push((alg.clone(), adversary.clone(), workload.clone()));
            }
        }
    }
    let done = |key: &CellKey| {
        store
            .as_ref()
            .is_some_and(|s| s.lock().unwrap().completed.contains_key(key))
    };
    let jobs: Vec<Job<CellReport>> = coords
        .iter()
        .filter(|key| !done(key))
        .cloned()
        .map(|key| -> Job<CellReport> {
            let store = store.as_ref();
            Box::new(move || {
                let (alg, adversary, workload) = &key;
                let (Some(ckpt), Some(store)) = (ckpt, store) else {
                    return run_cell(cfg, alg, adversary, workload);
                };
                let resume_frame = store.lock().unwrap().inflight.get(&key).cloned();
                let sink = |frame: Vec<u8>| {
                    let mut s = store.lock().unwrap();
                    s.inflight.insert(key.clone(), frame);
                    s.persist();
                };
                let ctx = CellCkptCtx {
                    every: ckpt.every,
                    resume: resume_frame.as_deref(),
                    sink: &sink,
                };
                let report = run_cell_resumable(cfg, alg, adversary, workload, Some(&ctx));
                let mut s = store.lock().unwrap();
                s.inflight.remove(&key);
                s.completed.insert(key.clone(), report.clone());
                s.persist();
                report
            })
        })
        .collect();
    let threads = pool::effective_threads(cfg.threads);
    let fresh = pool::run_ordered(jobs, threads);

    // With a store, assemble in enumeration order from the (now complete)
    // store: it also holds the cells a previous run finished.
    let cells = match store {
        None => fresh,
        Some(store) => {
            let completed = store.into_inner().unwrap().completed;
            coords.iter().map(|key| completed[key].clone()).collect()
        }
    };
    Ok(TournamentReport {
        master_seed: cfg.master_seed,
        threads,
        cells,
        wall_millis: start.elapsed().as_millis(),
    })
}

/// Run one cell, converting panics into an [`CellVerdict::Error`] report so
/// a single misbehaving pairing cannot take down the whole tournament.
pub fn run_cell(cfg: &TournamentConfig, alg: &str, adversary: &str, workload: &str) -> CellReport {
    run_cell_resumable(cfg, alg, adversary, workload, None)
}

/// Mid-prelude checkpoint hookup for one cell: how often to cut a frame,
/// an optional frame to resume from, and where finished frames go.
struct CellCkptCtx<'a> {
    /// Updates between mid-prelude frames (`0` = no mid-cell frames; the
    /// cell still checkpoints at completion via the tournament store).
    every: u64,
    /// Frame from a previous (killed) run of this exact cell.
    resume: Option<&'a [u8]>,
    /// Receives each newly cut frame.
    sink: &'a (dyn Fn(Vec<u8>) + Sync),
}

fn run_cell_resumable(
    cfg: &TournamentConfig,
    alg: &str,
    adversary: &str,
    workload: &str,
    ckpt: Option<&CellCkptCtx<'_>>,
) -> CellReport {
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        play_cell(cfg, alg, adversary, workload, ckpt)
    }));
    let mut report = outcome.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        let mut r = blank_cell(cfg, alg, adversary, workload);
        r.verdict = CellVerdict::Error;
        r.detail = format!("panicked: {msg}");
        r
    });
    report.millis = start.elapsed().as_millis();
    report
}

fn blank_cell(cfg: &TournamentConfig, alg: &str, adversary: &str, workload: &str) -> CellReport {
    CellReport {
        alg: alg.to_string(),
        adversary: adversary.to_string(),
        workload: workload.to_string(),
        shards: cfg.shards.max(1),
        seed: derive_seed(cfg.master_seed, &[alg, adversary, workload, "game"]),
        verdict: CellVerdict::Error,
        detail: String::new(),
        rounds: 0,
        checks: 0,
        peak_space_bits: 0,
        final_space_bits: 0,
        millis: 0,
    }
}

/// Serialize one in-flight cell: stream position, algorithm, game tape,
/// referee ground truth, prelude generator, and the report accumulator.
/// Everything a resumed cell needs to continue draw-for-draw.
fn capture_cell_frame(
    game: &Round,
    alg: &dyn DynStreamAlg,
    referee: &dyn DynReferee,
    source: &FoldSource<WorkloadStream>,
) -> Result<Vec<u8>, SnapError> {
    let mut w = SnapWriter::new();
    w.put_u64(game.t);
    w.put_bytes(&alg.snapshot_dyn()?);
    game.rng.snap(&mut w);
    w.put_bytes(&referee.snapshot_dyn()?);
    source.snap(&mut w);
    game.report.snap(&mut w);
    Ok(w.finish())
}

/// Restore a [`capture_cell_frame`] frame into a freshly constructed cell
/// (same config, same coordinates), stream position included.
fn restore_cell_frame(
    frame: &[u8],
    game: &mut Round,
    alg: &mut dyn DynStreamAlg,
    referee: &mut dyn DynReferee,
    source: &mut FoldSource<WorkloadStream>,
) -> Result<(), SnapError> {
    let mut r = SnapReader::new(frame)?;
    game.t = r.take_u64()?;
    alg.restore_dyn(&r.take_bytes()?)?;
    game.rng.restore(&mut r)?;
    referee.restore_dyn(&r.take_bytes()?)?;
    source.restore(&mut r)?;
    game.report.restore(&mut r)?;
    r.finish()
}

fn play_cell(
    cfg: &TournamentConfig,
    alg_name: &str,
    adv_name: &str,
    wl_name: &str,
    ckpt: Option<&CellCkptCtx<'_>>,
) -> CellReport {
    let mut cell = blank_cell(cfg, alg_name, adv_name, wl_name);
    let error = |mut cell: CellReport, detail: String| {
        cell.verdict = CellVerdict::Error;
        cell.detail = detail;
        cell
    };

    if cfg.n == 0 {
        return error(
            cell,
            "universe size n must be >= 1 (a zero universe has no items)".to_string(),
        );
    }
    let n = cfg.n;
    let ctor_seed = derive_seed(cfg.master_seed, &[alg_name, adv_name, wl_name, "ctor"]);
    let adv_seed = derive_seed(cfg.master_seed, &[alg_name, adv_name, wl_name, "adversary"]);
    let wl_seed = derive_seed(cfg.master_seed, &[alg_name, adv_name, wl_name, "workload"]);
    let game_seed = cell.seed;

    let mut params = Params::default().with_n(n).with_seed(ctor_seed);
    // Fixed-horizon algorithms must budget for the whole cell.
    params.m_guess = cfg.prelude_m + cfg.rounds;
    let ctor = |_: usize| registry::get(alg_name, &params);
    let mut alg = match ctor(0) {
        Ok(a) => a,
        Err(e) => return error(cell, e.to_string()),
    };
    let adv_params = {
        let mut p = params.clone().with_m(cfg.rounds);
        p.seed = adv_seed;
        p
    };
    let mut adv = match registry::adversary(adv_name, &adv_params) {
        Ok(a) => a,
        Err(e) => return error(cell, e.to_string()),
    };
    let spec = match workload_spec(wl_name, n, cfg.prelude_m, wl_seed) {
        Ok(spec) => spec,
        Err(e) => return error(cell, e.to_string()),
    };
    let mut referee = referee_for(alg_name, &params).build();

    let batch = cfg.batch.max(1);
    let shards = cfg.shards.max(1);
    // Mergeability gates the sharded path; unmergeable algorithms take the
    // flat path below.
    let use_sharded = shards > 1
        && match shard::probe_mergeable(&ctor) {
            Ok(mergeable) => mergeable,
            Err(e) => return error(cell, e.to_string()),
        };
    // One game tape spans both phases: the adversary sees the prelude's
    // transcript. The prelude is checked once, at its end, in both modes —
    // the chunk size is pure transport and must not leak into the report.
    let mut game = Round::new(alg.space_bits_dyn(), game_seed);

    let prelude = if use_sharded {
        // Phase 1, sharded: the referee observes the stream in original
        // order (teed off the producer's chunks) while the algorithm state
        // is assembled from hash-partitioned shard ingests merged in a
        // deterministic reduction tree (shard tapes derive from the cell's
        // game seed, so the report stays a pure function of the cell
        // coordinates). The answer is checked once, at the merge point —
        // mid-shard answers are undefined for the global stream. Every
        // mergeable algorithm ingests deterministically (constructor-only
        // randomness), so the phase-2 transcript handed to the adversary —
        // empty at prelude end — matches flat mode exactly; unmergeable
        // (randomized) algorithms take the flat path below and keep their
        // full prelude randomness transcript. If the fallback or a replay
        // is ever needed, the source is simply re-created from the spec —
        // a stream is a pure function of its seed, so nothing is cloned.
        let shard_cfg = ShardConfig {
            shards,
            partition: Partition::Hash,
            threads: 1, // cells already parallelize on the tournament pool
            batch,
            master_seed: game_seed,
        };
        let referee = referee.as_mut();
        let mut source = InspectSource::new(FoldSource::new(spec.stream(), n), |chunk| {
            referee.observe_batch(chunk)
        });
        shard::ingest_sharded_source(&ctor, &mut source, &shard_cfg)
            .map(|out| {
                alg = out.merged;
                game.t = out.stats.total();
            })
            .map_err(|e| e.to_string())
    } else {
        // Phase 1: oblivious workload prelude, streamed chunk by chunk
        // through one reused buffer — O(batch) memory for any prelude_m.
        let mut source = FoldSource::new(spec.stream(), n);
        if let Some(frame) = ckpt.and_then(|c| c.resume) {
            if let Err(e) = restore_cell_frame(
                frame,
                &mut game,
                alg.as_mut(),
                referee.as_mut(),
                &mut source,
            ) {
                return error(cell, format!("corrupt cell checkpoint: {e}"));
            }
        }
        flat_prelude(
            &mut game,
            alg.as_mut(),
            referee.as_mut(),
            &mut source,
            batch,
            ckpt,
        )
    };

    // Phase 2: adaptive per-round white-box game against the warm state.
    let outcome = prelude.and_then(|()| {
        if game.check(alg.as_ref(), referee.as_mut()).is_some() {
            game.play_rounds(
                alg.as_mut(),
                referee.as_mut(),
                cfg.rounds,
                |t, alg, tr, last| adv.next_update(t, alg, tr, last),
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    });

    let report = game.finish(alg.space_bits_dyn());
    (cell.verdict, cell.detail) = match (outcome, &report.result.failure) {
        (Err(msg), _) => (CellVerdict::Incompatible, msg),
        (Ok(()), Some(f)) => (
            CellVerdict::Violated { round: f.round },
            f.description.clone(),
        ),
        (Ok(()), None) => (CellVerdict::Survived, String::new()),
    };
    cell.rounds = report.result.rounds;
    cell.checks = report.checks;
    cell.peak_space_bits = report.result.peak_space_bits;
    cell.final_space_bits = report.result.final_space_bits;
    cell
}

/// The flat prelude: every chunk of `source` through [`Round::ingest`],
/// cutting a checkpoint frame at every multiple of the context's `every`.
/// An incompatible update ends it with the stream offset of the first
/// offending update, and `t` counts the updates before it — the per-update
/// semantics, independent of the chunk size.
fn flat_prelude(
    game: &mut Round,
    alg: &mut dyn DynStreamAlg,
    referee: &mut dyn DynReferee,
    source: &mut FoldSource<WorkloadStream>,
    batch: usize,
    ckpt: Option<&CellCkptCtx<'_>>,
) -> Result<(), String> {
    let frames = ckpt.filter(|c| c.every > 0);
    let mut buf: Vec<Update> = Vec::with_capacity(batch);
    loop {
        if let Some(&CellCkptCtx { every, .. }) = frames {
            // Cut pulls at checkpoint boundaries so frames land at exact
            // multiples of `every` regardless of --chunk. The state at
            // update t is chunk-invariant by the batching contract, so the
            // extra cut changes nothing else — and the frames themselves
            // are chunk-invariant too.
            let next = (game.t / every + 1) * every;
            let want = batch
                .min(usize::try_from(next - game.t).unwrap_or(batch))
                .max(1);
            if buf.capacity() != want {
                buf = Vec::with_capacity(want);
            }
        }
        if source.next_chunk(&mut buf) == 0 {
            return Ok(());
        }
        if let Err(e) = game.ingest(alg, referee, &buf) {
            game.t = shard::locate_failure(alg, &buf, &mut game.rng, game.t);
            return Err(format!(
                "{e} (first offending update at stream offset {})",
                game.t
            ));
        }
        if let Some(c) = frames.filter(|c| game.t.is_multiple_of(c.every)) {
            // Every erased algorithm and referee writes its state out; a
            // capture that still fails skips this frame, and a resume
            // replays the cell from its last frame (or from scratch).
            if let Ok(frame) = capture_cell_frame(game, alg, referee, source) {
                (c.sink)(frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> TournamentConfig {
        let mut cfg = TournamentConfig::default().quick();
        cfg.master_seed = 7;
        cfg.threads = threads;
        cfg.algs = vec!["misra_gries".into(), "count_min".into(), "exact_l0".into()];
        cfg.adversaries = vec!["cycle".into(), "hh_evader".into()];
        cfg.workloads = vec!["uniform".into(), "churn".into()];
        cfg.prelude_m = 128;
        cfg.rounds = 64;
        cfg.batch = 32;
        cfg
    }

    #[test]
    fn tiny_tournament_is_deterministic_across_thread_counts() {
        let one = run_tournament(&tiny(1), None).unwrap();
        let three = run_tournament(&tiny(3), None).unwrap();
        assert_eq!(one.cells.len(), 3 * 2 * 2);
        assert_eq!(one.json_lines(), three.json_lines());
        assert_eq!(three.threads, 3);
    }

    #[test]
    fn model_mismatch_is_incompatible_not_error() {
        let cfg = tiny(1);
        let cell = run_cell(&cfg, "misra_gries", "cycle", "churn");
        assert_eq!(cell.verdict, CellVerdict::Incompatible, "{}", cell.detail);
        assert!(cell.detail.contains("stream model") || cell.detail.contains("wrong-model"));
        // The turnstile reference algorithm ingests churn fine.
        let ok = run_cell(&cfg, "exact_l0", "cycle", "churn");
        assert_eq!(ok.verdict, CellVerdict::Survived, "{}", ok.detail);
        assert!(ok.rounds >= cfg.rounds, "prelude + adaptive rounds");
    }

    #[test]
    fn unknown_names_become_error_cells() {
        let cfg = tiny(1);
        assert_eq!(
            run_cell(&cfg, "no_such_alg", "cycle", "uniform").verdict,
            CellVerdict::Error
        );
        assert_eq!(
            run_cell(&cfg, "misra_gries", "no_such_adv", "uniform").verdict,
            CellVerdict::Error
        );
        assert_eq!(
            run_cell(&cfg, "misra_gries", "cycle", "no_such_wl").verdict,
            CellVerdict::Error
        );
    }

    #[test]
    fn json_lines_are_sorted_and_time_free() {
        let report = run_tournament(&tiny(2), None).unwrap();
        let lines = report.json_lines();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
        for line in &lines {
            assert!(!line.contains("millis"), "timing must stay out: {line}");
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn sharded_tournament_is_deterministic_across_thread_counts() {
        let sharded = |threads| {
            let mut cfg = tiny(threads);
            cfg.shards = 4;
            cfg
        };
        let one = run_tournament(&sharded(1), None).unwrap();
        let three = run_tournament(&sharded(3), None).unwrap();
        assert_eq!(one.json_lines(), three.json_lines());
        for line in one.json_lines() {
            assert!(line.contains(r#""shards":4"#), "line: {line}");
        }
        // Sharding must not manufacture failures: the mergeable
        // deterministic summary and the unmergeable fallback both survive
        // the compatible pairings they survive unsharded.
        let flat = run_tournament(&tiny(1), None).unwrap();
        for (s, f) in one.cells.iter().zip(&flat.cells) {
            assert_eq!((s.alg.clone(), s.verdict), (f.alg.clone(), f.verdict));
        }
    }

    #[test]
    fn reports_are_byte_identical_across_chunk_sizes() {
        // The chunk size is pure transport: flat and sharded cells must
        // produce the same JSON for any --chunk value.
        let with_batch = |batch: usize, shards: usize| {
            let mut cfg = tiny(2);
            cfg.batch = batch;
            cfg.shards = shards;
            cfg
        };
        for shards in [1usize, 4] {
            let a = run_tournament(&with_batch(16, shards), None)
                .unwrap()
                .json_lines();
            let b = run_tournament(&with_batch(64, shards), None)
                .unwrap()
                .json_lines();
            let c = run_tournament(&with_batch(4096, shards), None)
                .unwrap()
                .json_lines();
            assert_eq!(a, b, "shards {shards}: chunk 16 vs 64 diverged");
            assert_eq!(a, c, "shards {shards}: chunk 16 vs 4096 diverged");
        }
    }

    #[test]
    fn incompatible_detail_reports_a_chunk_invariant_offset() {
        // misra_gries cannot ingest churn deletions; the detail must name
        // the stream offset of the first offending update, and that offset
        // must not depend on the transport chunk size.
        let offset_with_batch = |batch: usize| {
            let mut cfg = tiny(1);
            cfg.batch = batch;
            let cell = run_cell(&cfg, "misra_gries", "cycle", "churn");
            assert_eq!(cell.verdict, CellVerdict::Incompatible, "{}", cell.detail);
            let (_, tail) = cell
                .detail
                .split_once("stream offset ")
                .unwrap_or_else(|| panic!("no offset in detail: {}", cell.detail));
            tail.trim_end_matches(')').parse::<u64>().unwrap()
        };
        let fine = offset_with_batch(8);
        let coarse = offset_with_batch(512);
        assert_eq!(fine, coarse, "offset depends on chunk size");
        // churn emits `wave` insertions before its first deletion.
        assert_eq!(fine, 64);
    }

    #[test]
    fn zero_universe_reports_error_cells() {
        let mut cfg = tiny(1);
        cfg.n = 0;
        let cell = run_cell(&cfg, "misra_gries", "cycle", "uniform");
        assert_eq!(cell.verdict, CellVerdict::Error);
        assert!(cell.detail.contains("universe"), "{}", cell.detail);
    }

    #[test]
    fn summaries_partition_the_cells() {
        let report = run_tournament(&tiny(1), None).unwrap();
        let summaries = report.summaries();
        assert_eq!(summaries.len(), 3);
        for s in &summaries {
            assert_eq!(s.cells, 4);
            assert_eq!(s.cells, s.survived + s.violated + s.incompatible + s.errors);
        }
        let total: usize = summaries.iter().map(|s| s.cells).sum();
        assert_eq!(total, report.cells.len());
    }

    #[test]
    fn cell_seeds_are_distinct_per_coordinate() {
        let cfg = tiny(1);
        let a = run_cell(&cfg, "misra_gries", "cycle", "uniform").seed;
        let b = run_cell(&cfg, "misra_gries", "cycle", "cycle").seed;
        let c = run_cell(&cfg, "misra_gries", "hh_evader", "uniform").seed;
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mid_prelude_frames_resume_byte_identically_and_are_chunk_invariant() {
        // Cut frames every 48 updates (not a multiple of the 32-update
        // batch) across a 128-update prelude; a cell resumed from any
        // frame must produce the same JSON as the uninterrupted cell, and
        // the frames themselves must not depend on the transport chunk.
        let with_batch = |batch: usize| {
            let mut cfg = tiny(1);
            cfg.batch = batch;
            cfg
        };
        let noop = |_: Vec<u8>| {};
        for (alg, adv, wl) in [
            ("misra_gries", "cycle", "uniform"),
            ("count_min", "hh_evader", "uniform"),
            ("exact_l0", "cycle", "churn"),
        ] {
            let frames_a = Mutex::new(Vec::<Vec<u8>>::new());
            let cfg_a = with_batch(32);
            let full = run_cell_resumable(
                &cfg_a,
                alg,
                adv,
                wl,
                Some(&CellCkptCtx {
                    every: 48,
                    resume: None,
                    sink: &|f| frames_a.lock().unwrap().push(f),
                }),
            );
            let frames_a = frames_a.into_inner().unwrap();
            assert!(!frames_a.is_empty(), "{alg}: no frames cut");

            let frames_b = Mutex::new(Vec::<Vec<u8>>::new());
            run_cell_resumable(
                &with_batch(128),
                alg,
                adv,
                wl,
                Some(&CellCkptCtx {
                    every: 48,
                    resume: None,
                    sink: &|f| frames_b.lock().unwrap().push(f),
                }),
            );
            assert_eq!(
                frames_a,
                frames_b.into_inner().unwrap(),
                "{alg}: frames depend on the chunk size"
            );

            for frame in &frames_a {
                let resumed = run_cell_resumable(
                    &cfg_a,
                    alg,
                    adv,
                    wl,
                    Some(&CellCkptCtx {
                        every: 48,
                        resume: Some(frame),
                        sink: &noop,
                    }),
                );
                assert_eq!(resumed.json_line(), full.json_line(), "{alg} resumed");
            }
        }
    }

    #[test]
    fn checkpointed_tournament_matches_and_resumes_partial_files() {
        let dir = std::env::temp_dir().join(format!("wb_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tournament.ckpt");
        let _ = std::fs::remove_file(&path);

        let cfg = tiny(2);
        let uninterrupted = run_tournament(&cfg, None).unwrap().json_lines();
        let ck = CheckpointConfig {
            path: path.clone(),
            every: 50,
        };
        let fresh = run_tournament(&cfg, Some(&ck)).unwrap();
        assert_eq!(fresh.json_lines(), uninterrupted);
        assert!(path.exists(), "checkpoint file written");

        // A rerun over the finished file serves everything from cache.
        let cached = run_tournament(&cfg, Some(&ck)).unwrap();
        assert_eq!(cached.json_lines(), uninterrupted);

        // Simulate a kill: drop half the completed cells from the file and
        // resume — the rerun replays only the dropped cells and the report
        // stays byte-identical.
        let bytes = std::fs::read(&path).unwrap();
        let mut store = CkptStore::parse(&bytes, &config_fingerprint(&cfg), &path).unwrap();
        let keys: Vec<CellKey> = store.completed.keys().cloned().collect();
        for key in keys.iter().step_by(2) {
            store.completed.remove(key);
        }
        store.persist();
        let resumed = run_tournament(&cfg, Some(&ck)).unwrap();
        assert_eq!(resumed.json_lines(), uninterrupted);

        // A different configuration refuses the file.
        let mut other = cfg.clone();
        other.master_seed += 1;
        let err = run_tournament(&other, Some(&ck));
        assert!(err.is_err(), "fingerprint mismatch must be rejected");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn checkpoint_with_older_frame_tag_is_refused() {
        // A checkpoint written before the cell-frame layout changed carries
        // the `v1;` tag. Resuming from it must fail up front with the
        // typed error, not replay its in-flight frames cell by cell.
        let dir = std::env::temp_dir().join(format!("wb_ckpt_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tournament.ckpt");
        let cfg = tiny(1);
        let current = config_fingerprint(&cfg);
        assert!(current.starts_with("v2;"), "{current}");
        let mut inflight = BTreeMap::new();
        inflight.insert(
            ("misra_gries".into(), "cycle".into(), "uniform".into()),
            b"pre-change cell frame".to_vec(),
        );
        CkptStore {
            fingerprint: current.replacen("v2;", "v1;", 1),
            path: path.clone(),
            completed: BTreeMap::new(),
            inflight,
        }
        .persist();
        let ck = CheckpointConfig {
            path: path.clone(),
            every: 50,
        };
        match run_tournament(&cfg, Some(&ck)) {
            Err(WbError::InvalidParameter(msg)) => {
                assert!(msg.contains("different configuration"), "{msg}");
                assert!(msg.contains("checkpoint: v1;"), "{msg}");
            }
            other => panic!(
                "old checkpoint not refused: {:?}",
                other.map(|r| r.cells.len())
            ),
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn workload_spec_rejects_unknown_names() {
        assert!(workload_spec("nope", 1 << 10, 100, 1).is_err());
        for name in WORKLOADS {
            let spec = workload_spec(name, 1 << 10, 96, 1).unwrap();
            assert!(!spec.generate().is_empty(), "{name}");
            // The dimension name round-trips through the spec's label, so
            // WORKLOADS, workload_spec, and WorkloadSpec::label agree.
            assert_eq!(spec.label(), *name);
        }
        // A fixed 8-item Zipf head would leave no noise tail below n = 9;
        // the head shrinks instead, and every item stays in the universe.
        assert!(workload_spec("zipf", 1, 96, 1).is_err());
        for n in 2..=9 {
            let items = workload_spec("zipf", n, 500, 3).unwrap().generate();
            assert!(items.iter().all(|u| u.item() < n), "n = {n}");
        }
    }
}
