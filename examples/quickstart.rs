//! Quickstart: drive the paper's robust heavy-hitters algorithm
//! (Theorem 1.1 / Algorithm 2) through the engine's fluent game builder,
//! then rerun it by registry name over the erased interface.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wbstream::core::game::FnAdversary;
use wbstream::core::referee::HeavyHitterReferee;
use wbstream::core::rng::RandTranscript;
use wbstream::core::space::SpaceUsage;
use wbstream::core::stream::InsertOnly;
use wbstream::engine::erased::run_source_erased;
use wbstream::engine::registry::{self, Params};
use wbstream::engine::{Game, RefereeSpec, SliceSource, Update};
use wbstream::sketch::{MisraGries, RobustL1HeavyHitters};

fn main() {
    let n = 1u64 << 16; // universe size
    let m = 1u64 << 17; // stream length
    let eps = 0.125;

    // A white-box adversary: it reads the algorithm's internal Misra–Gries
    // table every round and sends items the summary is *not* monitoring,
    // interleaved with one genuinely heavy item.
    let mut evader = 1000u64;
    let adversary = FnAdversary::new(
        move |t: u64,
              alg: &RobustL1HeavyHitters,
              transcript: &RandTranscript,
              _last: Option<&Vec<(u64, f64)>>| {
            if t > m {
                return None;
            }
            if t == 1 {
                println!("adversary sees: draws so far={}", transcript.draws());
            }
            if t.is_multiple_of(3) {
                Some(InsertOnly(7)) // the heavy item (1/3 of the stream)
            } else {
                let tracked: Vec<u64> = alg
                    .answering()
                    .inner()
                    .entries()
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                while tracked.contains(&evader) {
                    evader = 1000 + (evader + 1) % (n - 1000);
                }
                let item = evader;
                evader = 1000 + (evader + 1) % (n - 1000);
                Some(InsertOnly(item))
            }
        },
    );

    // The fluent builder: algorithm under test, adversary, and a referee
    // holding exact ground truth.
    let (report, alg) = Game::new(RobustL1HeavyHitters::new(n, eps))
        .adversary(adversary)
        .referee(HeavyHitterReferee::new(eps, eps).with_grace(64))
        .max_rounds(m)
        .seed(0xC0FFEE)
        .play();

    println!("rounds played:      {}", report.result.rounds);
    println!("survived:           {}", report.survived());
    println!("peak space:         {} bits", report.result.peak_space_bits);
    println!(
        "final space:        {} bits",
        report.result.final_space_bits
    );
    println!("referee checks:     {}", report.checks);
    println!("epoch reached:      {}", alg.epoch());
    println!(
        "Morris t̂:           {:.0} (true {})",
        alg.t_hat(),
        report.result.rounds
    );

    println!("\nreported heavy hitters (item, estimate):");
    for (item, est) in alg.heavy_hitters() {
        if est > 0.05 * m as f64 {
            println!(
                "  item {item:>6}: {est:>10.0}  (truth for 7: {:.0})",
                m as f64 / 3.0
            );
        }
    }

    // Compare with the deterministic Misra–Gries baseline's space.
    let mut mg = MisraGries::new(eps, n);
    for t in 0..m {
        mg.insert(if t % 3 == 0 { 7 } else { 1000 + t % 1000 });
    }
    println!(
        "\nspace: robust {} bits vs deterministic Misra–Gries {} bits \
         (the gap grows with log m — see experiment E1)",
        alg.space_bits(),
        mg.space_bits()
    );

    // The same game family, selected by *name* through the registry and
    // driven over the erased interface with batched ingestion: this is how
    // the experiment runner and future servers pick algorithms at runtime.
    let mut named = registry::get("robust_hh", &Params::default().with_n(n).with_eps(eps))
        .expect("registered algorithm");
    let script: Vec<Update> = (0..m)
        .map(|t| Update::Insert(if t % 3 == 0 { 7 } else { 1000 + t % 1000 }))
        .collect();
    let mut referee = RefereeSpec::HeavyHitters {
        eps,
        tol: eps,
        phi: None,
        grace: 64,
    }
    .build();
    let erased_report = run_source_erased(
        named.as_mut(),
        &mut SliceSource::new(&script),
        referee.as_mut(),
        1024,
        0xC0FFEE,
    )
    .expect("insertion stream fits the model");
    println!(
        "\nregistry run: {} over {} updates in {} batches — survived: {}",
        named.name_dyn(),
        erased_report.result.rounds,
        erased_report.checks,
        erased_report.survived()
    );

    assert!(report.survived(), "Theorem 1.1 held up");
    assert!(erased_report.survived(), "Theorem 1.1 held up (erased run)");
}
