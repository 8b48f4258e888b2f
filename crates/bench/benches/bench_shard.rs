//! Sharded vs single-stream ingestion throughput for the
//! `wb_engine::shard` path. Measures one logical stream ingested (a)
//! single-stream through `process_batch_dyn` and (b) partitioned across 4
//! shard instances and merged, both on the caller's thread: the (a)→(b)
//! gap is the routing, staging and merge overhead of sharding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wb_core::rng::TranscriptRng;
use wb_engine::registry::{self, Params};
use wb_engine::shard::{ingest_sharded_source, Partition, ShardConfig};
use wb_engine::{SliceSource, Update, WorkloadSpec};

const M: u64 = 1 << 18;
const BATCH: usize = 1 << 10;

fn workload(n: u64) -> Vec<Update> {
    WorkloadSpec::Zipf {
        n,
        m: M,
        heavy: 8,
        seed: 97,
    }
    .generate()
}

fn bench_sharded_ingestion(c: &mut Criterion) {
    let params = Params::default().with_n(1 << 12);
    let stream = workload(params.n);

    for alg in ["count_min", "misra_gries", "space_saving"] {
        let mut g = c.benchmark_group(&format!("shard_{alg}"));
        g.bench_function("single_stream", |b| {
            b.iter(|| {
                let mut a = registry::get(alg, &params).unwrap();
                let mut rng = TranscriptRng::from_seed(1);
                for chunk in stream.chunks(BATCH) {
                    a.process_batch_dyn(chunk, &mut rng).unwrap();
                }
                black_box(a.query_dyn())
            })
        });
        g.bench_function("shards_4", |b| {
            b.iter(|| {
                let cfg = ShardConfig {
                    shards: 4,
                    partition: Partition::Hash,
                    threads: 1,
                    batch: BATCH,
                    master_seed: 1,
                };
                let out = ingest_sharded_source(
                    &|_| registry::get(alg, &params),
                    &mut SliceSource::new(&stream),
                    &cfg,
                )
                .unwrap();
                black_box(out.merged.query_dyn())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_sharded_ingestion);
criterion_main!(benches);
