//! E2 (Theorem 1.2): `(φ,ε)`-heavy hitters with CRHF-compressed ids.
//!
//! Claim shape: the per-counter identifier cost drops from `log n` to
//! `hash_bits ≈ max(2 log T, collision floor)`; full ids are kept only for
//! the `O(1/φ)` reported candidates. Correctness ("ok") is the real
//! `(φ, ε)` referee verdict — every `φ`-heavy item reported, nothing below
//! `(φ−ε)·L1` reported — checked round by round in an engine-driven game.

use wb_core::referee::HeavyHitterReferee;
use wb_core::rng::TranscriptRng;
use wb_core::space::SpaceUsage;
use wb_core::stream::InsertOnly;
use wb_engine::experiment::{run_cli, ExperimentSpec, Row, RunCtx, Section};
use wb_engine::{Game, WorkloadSpec};
use wb_sketch::{PhiEpsHeavyHitters, RobustL1HeavyHitters};

const N: u64 = 1 << 62; // wide universe: full ids are 62 bits
const M: u64 = 1 << 15;
const PHI: f64 = 0.20;
const EPS: f64 = 0.125;

fn script(m: u64) -> Vec<InsertOnly> {
    WorkloadSpec::Zipf {
        n: N,
        m,
        heavy: 4,
        seed: 77,
    }
    .generate()
    .iter()
    .map(|u| InsertOnly(u.item()))
    .collect()
}

fn phi_eps_row(log_t: u32) -> Row {
    Row::custom(format!("2^{log_t}"), move |ctx: &RunCtx| {
        let m = ctx.cap(M, 1 << 11);
        let mut ctor_rng = TranscriptRng::from_seed(500 + log_t as u64);
        let alg = PhiEpsHeavyHitters::new(N, PHI, EPS, 1u64 << log_t, &mut ctor_rng);
        let hash_bits = alg.hash_bits();
        let (report, alg) = Game::new(alg)
            .script(script(m))
            .referee(
                HeavyHitterReferee::new(PHI, 0.1)
                    .with_phi(PHI)
                    .with_grace(256),
            )
            .batch(128)
            .seed(500 + log_t as u64)
            .play();
        vec![
            hash_bits.to_string(),
            alg.space_bits().to_string(),
            alg.report().len().to_string(),
            report.survived().to_string(),
        ]
    })
}

fn main() {
    let mut section = Section::new(
        format!("n = 2^62, m = 2^15, phi = {PHI}, eps = {EPS}; ok = (phi,eps) referee verdict"),
        &["T budget", "hash bits", "space bits", "reported", "ok"],
        12,
    );
    for log_t in [8u32, 12, 16, 19] {
        section = section.row(phi_eps_row(log_t));
    }
    // Reference: the Thm 1.1 algorithm stores full 62-bit ids per counter.
    let reference = Row::custom("full ids", |ctx: &RunCtx| {
        let m = ctx.cap(M, 1 << 11);
        let (_, plain) = Game::new(RobustL1HeavyHitters::new(N, EPS))
            .script(script(m))
            .batch(128)
            .seed(600)
            .play();
        vec![
            "-".into(),
            plain.space_bits().to_string(),
            plain.heavy_hitters().len().to_string(),
            "-".into(),
        ]
    });
    run_cli(
        ExperimentSpec::new("e2", "CRHF-compressed (phi,eps)-heavy hitters")
            .section(section.row(reference))
            .note(
                "the hash-compressed dictionary trades full id bits for 2·log T digest\n\
                 bits (Thm 1.2); the 'full ids' row is the Thm 1.1 reference instance.",
            ),
    );
}
