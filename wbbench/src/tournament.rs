//! `tournament`: the paper's adaptive setting, on one worker.
//!
//! The full default cross-product (12 algorithms × 5 adversaries × 5
//! workloads, default sizes, master seed = the run seed) is played cell by
//! cell through `tournament::run_cell` on the calling thread — exactly what
//! `run_tournament` does with one pool worker, but with every cell timed
//! on its own on the thread's CPU clock. One worker because two workers
//! on two cores measured ±12% against ±1.5% for one. The run plays one
//! pass per [`SECONDS_PER_PASS`] of its length (at least one) and each
//! cell reports the median of its passes; every later pass must reproduce
//! the first pass's report exactly.
//!
//! Set-up is the construction each cell performs before its first update
//! (algorithm, adversary, referee, prelude generator), repeated and timed
//! on its own. The traced run plays its pass through timing decorators
//! over the public `DynStreamAlg`/`DynAdversary`/`DynReferee` traits,
//! aggregated per algorithm and adversary, and checks that every cell
//! reaches the same verdict as the untraced `run_cell` pass.

use crate::stats::{
    fnv1a, geomean, median, median_of, peak_rss_mb, quantile, tail_q, thread_cpu_s,
};
use crate::trace::Tracer;
use crate::{E2e, Layers, Pass};
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use wb_core::game::Verdict;
use wb_core::merge::MergeError;
use wb_core::rng::{derive_seed, RandTranscript, TranscriptRng};
use wb_core::snap::SnapError;
use wb_core::WbError;
use wb_engine::registry::{self, Params};
use wb_engine::tournament::{
    referee_for, run_cell, workload_spec, CellReport, CellVerdict, TournamentConfig,
    TournamentReport,
};
use wb_engine::workload::{FoldSource, UpdateSource};
use wb_engine::{
    Answer, DynAdversary, DynReferee, DynStreamAlg, GameReport, StreamModel, Update, WorkloadSpec,
};

/// Run length per tournament pass. A fixed pass count, not a deadline,
/// so every run does the same work.
const SECONDS_PER_PASS: f64 = 20.0;
/// Set-up repetitions; set-up time reports their median.
const SETUP_REPS: usize = 21;

fn config(seed: u64) -> TournamentConfig {
    TournamentConfig {
        master_seed: seed,
        threads: 1,
        ..TournamentConfig::default()
    }
}

fn coords(cfg: &TournamentConfig) -> Vec<(String, String, String)> {
    let mut out = Vec::with_capacity(cfg.cell_count());
    for alg in &cfg.algs {
        for adversary in &cfg.adversaries {
            for workload in &cfg.workloads {
                out.push((alg.clone(), adversary.clone(), workload.clone()));
            }
        }
    }
    out
}

/// Everything a cell constructs before its first update, derived exactly
/// as `run_cell` derives it.
struct CellSetup {
    alg: Box<dyn DynStreamAlg>,
    adversary: Box<dyn DynAdversary>,
    referee: Box<dyn DynReferee>,
    spec: WorkloadSpec,
    game_seed: u64,
}

impl CellSetup {
    fn build(cfg: &TournamentConfig, alg: &str, adv: &str, wl: &str) -> Result<Self, WbError> {
        let role = |r: &str| derive_seed(cfg.master_seed, &[alg, adv, wl, r]);
        let mut params = Params::default().with_n(cfg.n).with_seed(role("ctor"));
        params.m_guess = cfg.prelude_m + cfg.rounds;
        let mut adv_params = params.clone().with_m(cfg.rounds);
        adv_params.seed = role("adversary");
        Ok(CellSetup {
            alg: registry::get(alg, &params)?,
            adversary: registry::adversary(adv, &adv_params)?,
            referee: referee_for(alg, &params).build(),
            spec: workload_spec(wl, cfg.n, cfg.prelude_m, role("workload"))?,
            game_seed: role("game"),
        })
    }
}

/// The untraced passes' results: what the traced pass is checked
/// against, and where `tournament.<alg>.cell_s` comes from.
pub struct Reference {
    reports: Vec<CellReport>,
    /// Each cell's `run_cell` CPU seconds, median over passes.
    cell_s: Vec<f64>,
}

/// Play every cell `passes` times through `run_cell`, each call timed on
/// the thread's CPU clock. Returns the first pass's reports, each cell's
/// median time, and how many later reports differed from the first.
fn run_cells(
    cfg: &TournamentConfig,
    cells: &[(String, String, String)],
    tags: &[Arc<str>],
    passes: usize,
    tracer: &mut Tracer,
) -> (Reference, u64) {
    let root: Arc<str> = Arc::from("tournament");
    let mut reports: Vec<CellReport> = Vec::with_capacity(cells.len());
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); cells.len()];
    let mut drifted = 0u64;
    for pass in 1..=passes {
        let pass_id = tracer.id();
        let pass_start = Instant::now();
        for (i, (a, adv, wl)) in cells.iter().enumerate() {
            let t0 = Instant::now();
            let cpu = thread_cpu_s();
            let report = run_cell(cfg, a, adv, wl);
            times[i].push(thread_cpu_s() - cpu);
            tracer.leaf(pass_id, "tournament.cell", &tags[i], t0, Instant::now());
            match reports.get(i) {
                None => reports.push(report),
                Some(first) if first.json_line() != report.json_line() => {
                    println!("tournament: pass {pass} changed the report of {}", tags[i]);
                    drifted += 1;
                }
                Some(_) => {}
            }
        }
        tracer.span(
            pass_id,
            0,
            "tournament.pass",
            &root,
            pass_start,
            Instant::now(),
        );
    }
    let cell_s = times.iter().map(|t| median(t)).collect();
    (Reference { reports, cell_s }, drifted)
}

/// Play the whole tournament once per [`SECONDS_PER_PASS`] of `seconds`,
/// at least once. A traced run instead plays one pass through the timing
/// decorators and checks it against `reference`, the untraced passes'
/// results, which it first makes with one untraced pass if there are none.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    reference: &mut Option<Reference>,
) -> Pass {
    let cfg = config(seed);
    let cells = coords(&cfg);
    let setup_s = median_of(SETUP_REPS, || {
        let t = thread_cpu_s();
        for (a, adv, wl) in &cells {
            std::hint::black_box(CellSetup::build(&cfg, a, adv, wl).ok());
        }
        thread_cpu_s() - t
    });
    let tags: Vec<Arc<str>> = cells
        .iter()
        .map(|(a, adv, wl)| Arc::from(format!("{a}/{adv}/{wl}")))
        .collect();

    let (mut attempted, mut failed) = (0u64, 0u64);
    if !tracer.enabled() || reference.is_none() {
        let passes = if tracer.enabled() {
            1
        } else {
            ((seconds / SECONDS_PER_PASS).round() as usize).max(1)
        };
        let (r, drifted) = run_cells(&cfg, &cells, &tags, passes, &mut Tracer::new(false));
        let errors = r
            .reports
            .iter()
            .filter(|x| x.verdict == CellVerdict::Error)
            .count();
        attempted += (cells.len() * passes) as u64;
        failed += (errors * passes) as u64 + drifted;
        *reference = Some(r);
    }
    let r = reference.as_ref().expect("made above");
    let peak = peak_rss_mb("self").unwrap_or(0.0);

    let updates: u64 = r.reports.iter().map(|x| x.rounds).sum();
    let mut verdicts: BTreeMap<&str, u64> = BTreeMap::new();
    for x in &r.reports {
        *verdicts.entry(x.verdict.label()).or_default() += 1;
    }
    let report = TournamentReport {
        master_seed: cfg.master_seed,
        threads: 1,
        cells: r.reports.clone(),
        wall_millis: (r.cell_s.iter().sum::<f64>() * 1e3) as u128,
    };
    let digest = fnv1a(report.json_lines().join("\n").as_bytes());

    // The measured pass: `run_cell` untraced, the decorated replay traced.
    let cell_s = if tracer.enabled() {
        let (cpu, disagreements) = replay_timed(&cfg, &r.reports, &tags, tracer, layers);
        attempted += cells.len() as u64;
        failed += disagreements;
        let mut per_alg: BTreeMap<&str, f64> = BTreeMap::new();
        for (x, s) in r.reports.iter().zip(&r.cell_s) {
            *per_alg.entry(x.alg.as_str()).or_default() += s;
        }
        for (alg, s) in per_alg {
            layers.put(format!("tournament.{alg}.cell_s"), s, "s");
        }
        cpu
    } else {
        r.cell_s.clone()
    };
    let total_s: f64 = cell_s.iter().sum();
    println!(
        "tournament: {} cells, tournament_s {total_s:.4} CPU s (sum of cells), {updates} updates, \
         verdicts {verdicts:?}, report digest {digest:016x}",
        cells.len()
    );
    // The typical cell: each algorithm's median cell, then the geometric
    // mean across algorithms, so every algorithm weighs the same. (The
    // median of all 300 falls where seeds reshuffle cells of different
    // algorithms; it spread 23% across seeds.) The tail is over all cells:
    // the slowest algorithm's cells.
    let mut per_alg: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (x, s) in r.reports.iter().zip(&cell_s) {
        per_alg.entry(x.alg.as_str()).or_default().push(s * 1e3);
    }
    let alg_p50: Vec<f64> = per_alg.values().map(|ms| median(ms)).collect();
    let cell_ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
    let tail = tail_q(cell_ms.len());
    println!(
        "tournament: cell CPU time over {} cells, tail = p{:.2}",
        cell_ms.len(),
        tail * 100.0
    );
    Pass {
        e2e: E2e {
            setup_s,
            peak_rss_mb: peak,
            cpu_mups: updates as f64 / total_s / 1e6,
            op_cpu_p50_ms: geomean(&alg_p50),
            op_cpu_tail_ms: quantile(&cell_ms, tail),
        },
        attempted,
        failed,
        correct: failed == 0,
    }
}

/// Calls and total nanoseconds of one decorated method.
#[derive(Clone, Copy, Default)]
struct Acc {
    calls: u64,
    ns: u64,
}

impl Acc {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    fn plus(self, o: Acc) -> Acc {
        Acc {
            calls: self.calls + o.calls,
            ns: self.ns + o.ns,
        }
    }

    fn mean_ns(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Times per-round `process_dyn` and `query_dyn`; forwards everything
/// else. `as_any` forwards too, so white-box adversaries still downcast
/// to the concrete algorithm.
struct TimedAlg {
    inner: Box<dyn DynStreamAlg>,
    process: Acc,
    query: Cell<Acc>,
}

impl DynStreamAlg for TimedAlg {
    fn process_dyn(&mut self, update: &Update, rng: &mut TranscriptRng) -> Result<(), WbError> {
        let t = Instant::now();
        let r = self.inner.process_dyn(update, rng);
        self.process.add(t);
        r
    }

    fn process_batch_dyn(
        &mut self,
        updates: &[Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError> {
        self.inner.process_batch_dyn(updates, rng)
    }

    fn query_dyn(&self) -> Answer {
        let t = Instant::now();
        let a = self.inner.query_dyn();
        let mut acc = self.query.get();
        acc.add(t);
        self.query.set(acc);
        a
    }

    fn space_bits_dyn(&self) -> u64 {
        self.inner.space_bits_dyn()
    }

    fn name_dyn(&self) -> &'static str {
        self.inner.name_dyn()
    }

    fn model_dyn(&self) -> StreamModel {
        self.inner.model_dyn()
    }

    fn merge_dyn(&mut self, other: &dyn DynStreamAlg) -> Result<(), MergeError> {
        self.inner.merge_dyn(other)
    }

    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
        self.inner.snapshot_dyn()
    }

    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_dyn(bytes)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Times `next_update`.
struct TimedAdversary {
    inner: Box<dyn DynAdversary>,
    next: Acc,
}

impl DynAdversary for TimedAdversary {
    fn next_update(
        &mut self,
        t: u64,
        alg: &dyn DynStreamAlg,
        transcript: &RandTranscript,
        last: Option<&Answer>,
    ) -> Option<Update> {
        let start = Instant::now();
        let u = self.inner.next_update(t, alg, transcript, last);
        self.next.add(start);
        u
    }
}

/// Times per-round `check`.
struct TimedReferee {
    inner: Box<dyn DynReferee>,
    check: Acc,
}

impl DynReferee for TimedReferee {
    fn observe(&mut self, update: &Update) {
        self.inner.observe(update)
    }

    fn observe_batch(&mut self, updates: &[Update]) {
        self.inner.observe_batch(updates)
    }

    fn check(&mut self, t: u64, answer: &Answer) -> Verdict {
        let start = Instant::now();
        let v = self.inner.check(t, answer);
        self.check.add(start);
        v
    }

    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
        self.inner.snapshot_dyn()
    }

    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_dyn(bytes)
    }
}

/// What a replayed cell ended with, in `run_cell`'s terms.
struct Replayed {
    verdict: &'static str,
    checks: u64,
    rounds: u64,
}

/// Play one cell the way `run_cell` plays it on the flat path (prelude
/// streamed in `cfg.batch` chunks and checked once at its end, then the
/// per-round adaptive game), through the decorated trait objects.
fn play(
    cfg: &TournamentConfig,
    alg: &mut TimedAlg,
    adv: &mut TimedAdversary,
    referee: &mut TimedReferee,
    spec: &WorkloadSpec,
    game_seed: u64,
) -> Replayed {
    let n = cfg.n;
    let mut rng = TranscriptRng::from_seed(game_seed);
    let mut game = GameReport::new(alg.space_bits_dyn(), 1 + cfg.rounds);
    let mut source = FoldSource::new(spec.stream(), n);
    let mut buf: Vec<Update> = Vec::with_capacity(cfg.batch.max(1));
    let mut t = 0u64;
    let mut incompatible = false;
    while source.next_chunk(&mut buf) > 0 {
        referee.observe_batch(&buf);
        if alg.process_batch_dyn(&buf, &mut rng).is_err() {
            incompatible = true;
            break;
        }
        t += buf.len() as u64;
    }
    if !incompatible {
        let space = alg.space_bits_dyn();
        let answer = alg.query_dyn();
        let verdict = referee.check(t, &answer);
        game.record_check(t, space, &verdict);
    }
    if !incompatible && game.result.failure.is_none() {
        let mut last = None;
        for round in 1..=cfg.rounds {
            let update = match adv.next_update(round, &*alg, rng.transcript(), last.as_ref()) {
                Some(u) => u.fold_into(n),
                None => break,
            };
            referee.observe(&update);
            if alg.process_dyn(&update, &mut rng).is_err() {
                incompatible = true;
                break;
            }
            t += 1;
            let space = alg.space_bits_dyn();
            let answer = alg.query_dyn();
            let verdict = referee.check(t, &answer);
            game.record_check(t, space, &verdict);
            if !verdict.is_correct() {
                break;
            }
            last = Some(answer);
        }
    }
    let verdict = if incompatible {
        CellVerdict::Incompatible
    } else if let Some(f) = &game.result.failure {
        CellVerdict::Violated { round: f.round }
    } else {
        CellVerdict::Survived
    };
    Replayed {
        verdict: verdict.label(),
        checks: game.checks,
        rounds: t,
    }
}

/// Replay every cell through the timing decorators and put the
/// per-round `game.*` layer metrics. Returns each cell's CPU seconds
/// (set-up plus play) and how many replays disagreed with `run_cell`'s
/// report.
fn replay_timed(
    cfg: &TournamentConfig,
    reports: &[CellReport],
    tags: &[Arc<str>],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> (Vec<f64>, u64) {
    let root: Arc<str> = Arc::from("tournament");
    let pass_id = tracer.id();
    let pass_start = Instant::now();
    let mut by_alg: BTreeMap<String, [Acc; 3]> = BTreeMap::new();
    let mut by_adv: BTreeMap<String, Acc> = BTreeMap::new();
    let mut cell_s = Vec::with_capacity(reports.len());
    let mut disagreements = 0u64;
    for (r, tag) in reports.iter().zip(tags) {
        let t0 = Instant::now();
        let cpu = thread_cpu_s();
        let Ok(setup) = CellSetup::build(cfg, &r.alg, &r.adversary, &r.workload) else {
            cell_s.push(thread_cpu_s() - cpu);
            disagreements += u64::from(r.verdict != CellVerdict::Error);
            continue;
        };
        let mut alg = TimedAlg {
            inner: setup.alg,
            process: Acc::default(),
            query: Cell::new(Acc::default()),
        };
        let mut adv = TimedAdversary {
            inner: setup.adversary,
            next: Acc::default(),
        };
        let mut referee = TimedReferee {
            inner: setup.referee,
            check: Acc::default(),
        };
        let got = play(
            cfg,
            &mut alg,
            &mut adv,
            &mut referee,
            &setup.spec,
            setup.game_seed,
        );
        cell_s.push(thread_cpu_s() - cpu);
        tracer.leaf(pass_id, "tournament.cell", tag, t0, Instant::now());
        // An incompatible cell's `rounds` is the offending update's exact
        // offset, which `run_cell` locates by a per-update probe; the
        // replay only needs the verdict there.
        let same = got.verdict == r.verdict.label()
            && got.checks == r.checks
            && (got.verdict == "incompatible" || got.rounds == r.rounds);
        if !same {
            disagreements += 1;
            println!(
                "tournament: replay of {}/{}/{} disagrees: {} {} checks {} rounds vs run_cell {} {} checks {} rounds",
                r.alg, r.adversary, r.workload, got.verdict, got.checks, got.rounds,
                r.verdict.label(), r.checks, r.rounds
            );
        }
        let e = by_alg.entry(r.alg.clone()).or_default();
        e[0] = e[0].plus(alg.process);
        e[1] = e[1].plus(alg.query.get());
        e[2] = e[2].plus(referee.check);
        let a = by_adv.entry(r.adversary.clone()).or_default();
        *a = a.plus(adv.next);
    }
    tracer.span(
        pass_id,
        0,
        "tournament.pass",
        &root,
        pass_start,
        Instant::now(),
    );
    for (alg, [process, query, check]) in &by_alg {
        layers.put(format!("game.{alg}.process_ns"), process.mean_ns(), "ns");
        layers.put(format!("game.{alg}.query_ns"), query.mean_ns(), "ns");
        layers.put(format!("game.{alg}.check_ns"), check.mean_ns(), "ns");
    }
    for (adv, next) in &by_adv {
        layers.put(format!("game.{adv}.next_ns"), next.mean_ns(), "ns");
    }
    println!(
        "tournament: decorated replay of {} cells, {disagreements} disagreements with run_cell",
        reports.len()
    );
    (cell_s, disagreements)
}
