//! Update throughput and query latency for the heavy-hitters algorithms
//! (Theorem 1.1 / 2.2 / 1.2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wb_core::rng::TranscriptRng;
use wb_engine::WorkloadSpec;
use wb_sketch::{MisraGries, PhiEpsHeavyHitters, RobustL1HeavyHitters};

/// `m` zipf items over `[n]` with an 8-item head.
fn zipf(n: u64, m: u64, seed: u64) -> Vec<u64> {
    let spec = WorkloadSpec::Zipf {
        n,
        m,
        heavy: 8,
        seed,
    };
    spec.generate().iter().map(|u| u.item()).collect()
}

fn bench_updates(c: &mut Criterion) {
    let n = 1u64 << 16;
    let stream = zipf(n, 1 << 14, 7);
    let mut group = c.benchmark_group("hh_update_16k");
    group.sample_size(20);

    group.bench_function("misra_gries", |b| {
        b.iter(|| {
            let mut mg = MisraGries::new(0.125, n);
            for &item in &stream {
                mg.insert(black_box(item));
            }
            black_box(mg.entries().len())
        })
    });

    group.bench_function("robust_hh_alg2", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(1);
            let mut alg = RobustL1HeavyHitters::new(n, 0.125);
            for &item in &stream {
                alg.insert(black_box(item), &mut rng);
            }
            black_box(alg.heavy_hitters().len())
        })
    });

    group.bench_function("phi_eps_hh_thm12", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(2);
            let mut alg = PhiEpsHeavyHitters::new(1 << 40, 0.25, 0.125, 1 << 12, &mut rng);
            for &item in &stream {
                alg.insert(black_box(item), &mut rng);
            }
            black_box(alg.report().len())
        })
    });
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let n = 1u64 << 16;
    let stream = zipf(n, 1 << 14, 9);
    let mut rng = TranscriptRng::from_seed(3);
    let mut alg = RobustL1HeavyHitters::new(n, 0.125);
    for &item in &stream {
        alg.insert(item, &mut rng);
    }
    c.bench_function("hh_query_robust", |b| {
        b.iter(|| black_box(alg.heavy_hitters()))
    });
}

criterion_group!(benches, bench_updates, bench_query);
criterion_main!(benches);
