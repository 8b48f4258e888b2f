//! E12 — ablations of Algorithm 2's design choices (DESIGN.md §5).
//!
//! (a) **Two-guess ladder vs a single fixed guess**: a lone `BernMG`
//!     provisioned for guess `M` over-samples once the true stream runs
//!     64× past `M` — its counters blow past the sample budget and the
//!     space advantage evaporates; the ladder retires instances instead.
//! (b) **Morris-triggered epochs vs an exact `log m`-bit trigger**: the
//!     only job of the Morris counter is crossing detection; swapping in
//!     an exact counter reproduces near-identical epoch schedules at a
//!     `log m` vs `log log m` price — measured here. The composite
//!     trigger+ladder pairs are wrapped as `StreamAlg`s and driven by the
//!     engine, not by hand-rolled loops.

use wb_core::rng::TranscriptRng;
use wb_core::space::{bits_for_count, SpaceUsage};
use wb_core::stream::{InsertOnly, StreamAlg};
use wb_engine::experiment::{run_cli, ExperimentSpec, Row, RunCtx, Section};
use wb_engine::{Game, WorkloadSpec};
use wb_sketch::epochs::GuessLadder;
use wb_sketch::{BernMG, MedianMorris, RobustL1HeavyHitters};

const N: u64 = 1 << 14;
const EPS: f64 = 0.125;

fn script(m: u64) -> Vec<InsertOnly> {
    WorkloadSpec::Cycle { items: 8, m }
        .generate()
        .iter()
        .map(|u| InsertOnly(u.item()))
        .collect()
}

fn single_vs_ladder_row(log_m: u32) -> Row {
    Row::custom(format!("2^{log_m}"), move |ctx: &RunCtx| {
        let m = ctx.cap(1 << log_m, 1 << 11);
        let seed = 1200 + log_m as u64;
        let (_, single) = Game::new(BernMG::new(N, 1 << 12, EPS, 0.01))
            .script(script(m))
            .batch(512)
            .seed(seed)
            .play();
        let (_, ladder) = Game::new(RobustL1HeavyHitters::new(N, EPS))
            .script(script(m))
            .batch(512)
            .seed(seed)
            .play();
        vec![
            single.space_bits().to_string(),
            ladder.space_bits().to_string(),
            single.sampled().to_string(),
            format!("epoch {}", ladder.epoch()),
        ]
    })
}

/// Ablation composite: a guess ladder driven by a pluggable length
/// trigger, wrapped as a `StreamAlg` so the engine can drive it.
struct TriggeredLadder<T> {
    trigger: T,
    ladder: GuessLadder<BernMG, Box<dyn Fn(u64) -> BernMG + Send + Sync>>,
}

impl<T> TriggeredLadder<T> {
    fn new(trigger: T) -> Self {
        TriggeredLadder {
            trigger,
            ladder: GuessLadder::new(16.0 / EPS, Box::new(|g| BernMG::new(N, g, EPS / 2.0, 0.01))),
        }
    }
}

/// A stream-length estimator a [`TriggeredLadder`] advances on.
trait Trigger {
    fn bump(&mut self, rng: &mut TranscriptRng);
    fn estimate(&self) -> f64;
    fn bits(&self) -> u64;
}

/// The paper's choice: a median-of-7 Morris counter.
struct MorrisTrigger(MedianMorris);
impl Trigger for MorrisTrigger {
    fn bump(&mut self, rng: &mut TranscriptRng) {
        self.0.increment(rng);
    }
    fn estimate(&self) -> f64 {
        self.0.estimate()
    }
    fn bits(&self) -> u64 {
        self.0.space_bits()
    }
}

/// The ablation: an exact `log m`-bit counter.
struct ExactTrigger(u64);
impl Trigger for ExactTrigger {
    fn bump(&mut self, _rng: &mut TranscriptRng) {
        self.0 += 1;
    }
    fn estimate(&self) -> f64 {
        self.0 as f64
    }
    fn bits(&self) -> u64 {
        bits_for_count(self.0)
    }
}

impl<T: Trigger> StreamAlg for TriggeredLadder<T> {
    type Update = InsertOnly;
    type Output = u32;

    fn process(&mut self, update: &InsertOnly, rng: &mut TranscriptRng) {
        self.trigger.bump(rng);
        for inst in self.ladder.live_mut() {
            inst.insert(update.0, rng);
        }
        self.ladder.advance(self.trigger.estimate());
    }

    /// The fixed query: the current epoch index.
    fn query(&self) -> u32 {
        self.ladder.epoch()
    }
}

impl<T: Trigger> SpaceUsage for TriggeredLadder<T> {
    fn space_bits(&self) -> u64 {
        self.trigger.bits() + self.ladder.space_bits()
    }
}

fn trigger_row(log_m: u32) -> Row {
    Row::custom(format!("2^{log_m}"), move |ctx: &RunCtx| {
        let m = ctx.cap(1 << log_m, 1 << 11);
        let seed = 1250 + log_m as u64;
        let (_, morris) = Game::new(TriggeredLadder::new(MorrisTrigger(MedianMorris::new(
            EPS / 16.0,
            7,
        ))))
        .script(script(m))
        .batch(512)
        .seed(seed)
        .play();
        let (_, exact) = Game::new(TriggeredLadder::new(ExactTrigger(0)))
            .script(script(m))
            .batch(512)
            .seed(seed)
            .play();
        let (em, ee) = (morris.query(), exact.query());
        vec![
            morris.trigger.bits().to_string(),
            exact.trigger.bits().to_string(),
            (em.abs_diff(ee) <= 1).to_string(),
        ]
    })
}

fn main() {
    let mut single = Section::new(
        format!("E12a: single fixed guess (2^12) vs the two-guess ladder (eps = {EPS})"),
        &[
            "m",
            "single bits",
            "ladder bits",
            "single samples",
            "ladder lead",
        ],
        14,
    );
    for log_m in [12u32, 15, 18] {
        single = single.row(single_vs_ladder_row(log_m));
    }

    let mut trigger = Section::new(
        "E12b: epoch trigger — Morris vs exact counter",
        &["m", "morris bits", "exact bits", "epochs agree"],
        14,
    );
    for log_m in [12u32, 16, 20] {
        trigger = trigger.row(trigger_row(log_m));
    }

    run_cli(
        ExperimentSpec::new("e12", "Algorithm 2 design ablations")
            .section(single)
            .section(trigger)
            .note(
                "E12a: the single instance's sample count (and counter bits) grow\n\
                 linearly once the stream passes its guess; the ladder's stay bounded\n\
                 per epoch.",
            )
            .note(
                "E12b honest ablation finding: at word scales the 7-copy (1±ε/16)\n\
                 Morris trigger costs MORE bits than the exact log m counter — its\n\
                 constant dominates until m is astronomical; the asymptotic slopes\n\
                 (Θ(log log m) vs Θ(log m)) are what the paper's headline term counts.\n\
                 Epoch schedules agree up to ±1 either way — the trigger choice does\n\
                 not affect correctness.",
            ),
    );
}
