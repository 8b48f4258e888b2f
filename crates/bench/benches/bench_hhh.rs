//! Throughput for hierarchical heavy hitters (Theorems 2.11 / 2.14).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wb_core::rng::TranscriptRng;
use wb_engine::WorkloadSpec;
use wb_sketch::hhh::{HierarchicalSpaceSaving, RadixHierarchy, RobustHHH};

/// `m` synthetic DDoS addresses.
fn ddos(m: u64, seed: u64) -> Vec<u64> {
    let spec = WorkloadSpec::Ddos { m, seed };
    spec.generate().iter().map(|u| u.item()).collect()
}

fn bench_hhh(c: &mut Criterion) {
    let stream = ddos(1 << 14, 11);
    let h = RadixHierarchy::ipv4();
    let mut group = c.benchmark_group("hhh_update_16k");
    group.sample_size(15);

    group.bench_function("tms12_deterministic", |b| {
        b.iter(|| {
            let mut alg = HierarchicalSpaceSaving::new(h, 0.05, 0.2);
            for &ip in &stream {
                alg.insert(black_box(ip));
            }
            black_box(alg.solve(0.2).len())
        })
    });

    group.bench_function("robust_alg4", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(4);
            let mut alg = RobustHHH::new(h, 0.05, 0.2);
            for &ip in &stream {
                alg.insert(black_box(ip), &mut rng);
            }
            black_box(alg.solve().len())
        })
    });
    group.finish();
}

fn bench_hhh_query(c: &mut Criterion) {
    let stream = ddos(1 << 14, 12);
    let h = RadixHierarchy::ipv4();
    let mut alg = HierarchicalSpaceSaving::new(h, 0.05, 0.2);
    for &ip in &stream {
        alg.insert(ip);
    }
    c.bench_function("hhh_solve", |b| b.iter(|| black_box(alg.solve(0.2))));
}

criterion_group!(benches, bench_hhh, bench_hhh_query);
criterion_main!(benches);
