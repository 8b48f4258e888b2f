//! Zipf draw-identity regression: the precomputed inverse-CDF sampler
//! behind `WorkloadSpec::Zipf` must reproduce the **historical per-draw
//! linear CDF walk** byte-for-byte. The walk is reimplemented here, from
//! the public `TranscriptRng` API alone, exactly as the scalar
//! `zipf_stream` generator shipped it before the sampler existed: per draw, one `bernoulli(0.7)` coin, then either a
//! `next_f64() * total` head walk over the `1/(i+1)` weights (with the
//! rounded `u -= w` subtraction chain) or `heavy + below(n - heavy)` for
//! the tail. Any divergence — in items, word counts, or the public
//! transcript — is a white-box model break, not just a perf bug.

use wbstream::core::rng::TranscriptRng;
use wbstream::engine::{Update, UpdateSource, WorkloadSpec};

/// The items of the production zipf stream.
fn zipf_stream(n: u64, m: u64, heavy: u64, seed: u64) -> Vec<u64> {
    let spec = WorkloadSpec::Zipf { n, m, heavy, seed };
    spec.generate().iter().map(Update::item).collect()
}

/// The historical generator, frozen: this is the exact draw sequence every
/// committed bench point and pinned game seed was produced with.
fn zipf_stream_reference(n: u64, m: u64, heavy: u64, seed: u64) -> Vec<u64> {
    let mut rng = TranscriptRng::from_seed(seed);
    let weights: Vec<f64> = (0..heavy).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..m)
        .map(|_| {
            if rng.bernoulli(0.7) {
                let mut u = rng.next_f64() * total;
                let mut item = heavy - 1;
                for (i, w) in weights.iter().enumerate() {
                    if u < *w {
                        item = i as u64;
                        break;
                    }
                    u -= w;
                }
                item
            } else {
                heavy + rng.below(n - heavy)
            }
        })
        .collect()
}

#[test]
fn zipf_stream_matches_historical_walk_on_pinned_seeds() {
    // Includes the bench spec's exact cell (n = 2^12 … 2^16, heavy = 64,
    // seed = 97) and degenerate heads.
    for &(n, heavy, seed) in &[
        (1u64 << 16, 64u64, 97u64),
        (1 << 12, 64, 97),
        (1 << 16, 8, 1),
        (1 << 10, 1, 42),
        (1 << 10, 16, 3),
        (257, 8, 11),
    ] {
        let m = 30_000;
        assert_eq!(
            zipf_stream(n, m, heavy, seed),
            zipf_stream_reference(n, m, heavy, seed),
            "n={n} heavy={heavy} seed={seed}"
        );
    }
}

#[test]
fn zipf_stream_matches_walk_at_head_boundaries() {
    // Item boundaries are where the inverse-CDF table could be off by one
    // ulp: hammer a sampler whose head nearly fills the universe (every
    // draw lands on or near a threshold) and one with a pow2-free tail.
    for &(n, heavy) in &[(70u64, 64u64), (65, 64), ((1 << 11) + 1, 2048), (3, 2)] {
        for seed in 0..8u64 {
            let m = 8_000;
            assert_eq!(
                zipf_stream(n, m, heavy, seed),
                zipf_stream_reference(n, m, heavy, seed),
                "n={n} heavy={heavy} seed={seed}"
            );
        }
    }
}

#[test]
fn zipf_chunked_stream_matches_materialized_across_chunk_sizes() {
    let (n, m, heavy, seed) = (1u64 << 14, 20_000u64, 64u64, 97u64);
    let spec = WorkloadSpec::Zipf { n, m, heavy, seed };
    let reference: Vec<Update> = zipf_stream_reference(n, m, heavy, seed)
        .into_iter()
        .map(Update::Insert)
        .collect();
    assert_eq!(spec.generate(), reference);
    for &chunk in &[1usize, 7, 4096] {
        let mut source = spec.stream();
        let mut got: Vec<Update> = Vec::with_capacity(m as usize);
        // `next_chunk` fills up to the buffer's capacity per pull.
        let mut buf = Vec::with_capacity(chunk);
        while source.next_chunk(&mut buf) > 0 {
            got.extend_from_slice(&buf);
        }
        assert_eq!(got, reference, "chunk {chunk}");
    }
}
