//! Per-item vs batched ingestion throughput for the sketches with
//! hand-optimized `process_batch` overrides (plus the referee's
//! `FrequencyVector` ground truth). The batched path must be measurably
//! faster on at least one sketch — this bench is the acceptance gauge for
//! the engine's batched-ingestion wiring.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wb_core::rng::TranscriptRng;
use wb_core::stream::{FrequencyVector, InsertOnly, StreamAlg};
use wb_engine::WorkloadSpec;
use wb_sketch::count_min::CountMin;
use wb_sketch::{MisraGries, SpaceSaving};

const M: u64 = 1 << 15;
const BATCH: usize = 1 << 10;

fn workload() -> Vec<InsertOnly> {
    let spec = WorkloadSpec::Zipf {
        n: 1 << 16,
        m: M,
        heavy: 8,
        seed: 97,
    };
    spec.generate()
        .iter()
        .map(|u| InsertOnly(u.item()))
        .collect()
}

fn bench_ingestion(c: &mut Criterion) {
    let stream = workload();

    let mut g = c.benchmark_group("count_min_8x1024");
    g.bench_function("per_item", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(1);
            let mut cm = CountMin::new(8, 1024, &mut rng);
            for u in &stream {
                cm.process(u, &mut rng);
            }
            black_box(cm.estimate(0))
        })
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(1);
            let mut cm = CountMin::new(8, 1024, &mut rng);
            for chunk in stream.chunks(BATCH) {
                cm.process_batch(chunk, &mut rng);
            }
            black_box(cm.estimate(0))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("misra_gries_eps_1_64");
    g.bench_function("per_item", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(2);
            let mut mg = MisraGries::new(1.0 / 64.0, 1 << 16);
            for u in &stream {
                mg.process(u, &mut rng);
            }
            black_box(mg.entries().len())
        })
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(2);
            let mut mg = MisraGries::new(1.0 / 64.0, 1 << 16);
            for chunk in stream.chunks(BATCH) {
                mg.process_batch(chunk, &mut rng);
            }
            black_box(mg.entries().len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("space_saving_eps_1_64");
    g.bench_function("per_item", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(3);
            let mut ss = SpaceSaving::new(1.0 / 64.0, 1 << 16);
            for u in &stream {
                ss.process(u, &mut rng);
            }
            black_box(ss.entries().len())
        })
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut rng = TranscriptRng::from_seed(3);
            let mut ss = SpaceSaving::new(1.0 / 64.0, 1 << 16);
            for chunk in stream.chunks(BATCH) {
                ss.process_batch(chunk, &mut rng);
            }
            black_box(ss.entries().len())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("frequency_vector_truth");
    g.bench_function("per_item", |b| {
        b.iter(|| {
            let mut f = FrequencyVector::new();
            for u in &stream {
                f.insert(u.0);
            }
            black_box(f.l1())
        })
    });
    g.bench_function("batched", |b| {
        let items: Vec<u64> = stream.iter().map(|u| u.0).collect();
        b.iter(|| {
            let mut f = FrequencyVector::new();
            for chunk in items.chunks(BATCH) {
                f.insert_batch(chunk);
            }
            black_box(f.l1())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ingestion);
criterion_main!(benches);
