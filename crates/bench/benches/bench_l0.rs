//! Throughput for L0 estimation (Theorem 1.5): oracle vs explicit matrix
//! vs the exact baseline, on turnstile churn.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wb_core::rng::TranscriptRng;
use wb_engine::WorkloadSpec;
use wb_sketch::l0::{ExactL0, MatrixMode, SisL0Estimator};

fn bench_l0(c: &mut Criterion) {
    let n = 1u64 << 12;
    let stream = WorkloadSpec::Churn {
        n,
        waves: 8,
        wave: 256,
        seed: 13,
    }
    .generate();
    let mut group = c.benchmark_group("l0_update_3k");
    group.sample_size(15);

    group.bench_function("sis_random_oracle", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(5);
            let mut alg = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::RandomOracle, &mut rng);
            for u in &stream {
                alg.update(black_box(u.item()), u.delta());
            }
            black_box(alg.answer())
        })
    });

    group.bench_function("sis_explicit", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(6);
            let mut alg = SisL0Estimator::new(n, 0.5, 0.25, MatrixMode::Explicit, &mut rng);
            for u in &stream {
                alg.update(black_box(u.item()), u.delta());
            }
            black_box(alg.answer())
        })
    });

    group.bench_function("exact_baseline", |b| {
        b.iter(|| {
            let mut alg = ExactL0::new(n);
            for u in &stream {
                alg.update(black_box(u.item()), u.delta());
            }
            black_box(alg.l0())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_l0);
criterion_main!(benches);
