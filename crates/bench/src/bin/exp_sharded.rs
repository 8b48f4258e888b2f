//! `exp_sharded` — merged-vs-single-stream accuracy of sharded ingestion.
//!
//! For every mergeable registry algorithm, the same workload is ingested
//! once as a single stream and once partitioned across `S ∈ {2, 4, 8}`
//! shard instances (both partition rules), then merged in the engine's
//! deterministic reduction tree. The table reports the answer drift
//! between the merged and single-stream states (zero for the linear
//! sketches, within the merge error bound for the counter summaries) and
//! whether the merged answer still satisfies the algorithm's referee
//! guarantee, plus the routing spread (max per-shard load and skew =
//! max/mean) from the pipeline's [`wb_engine::shard::ShardStats`]. All
//! cells are deterministic — throughput lives in the `bench_shard`
//! criterion bench, not here — so the JSON report stays byte-identical
//! across runs and thread counts.

use wb_core::rng::TranscriptRng;
use wb_engine::experiment::{run_cli, ExperimentSpec, Row, RunnerConfig, Section};
use wb_engine::registry::{self, Params};
use wb_engine::shard::{ingest_sharded_source, probe_mergeable, Partition, ShardConfig};
use wb_engine::tournament::referee_for;
use wb_engine::{Answer, Update, WorkloadSpec};

/// Mergeable registry algorithms, in registry order: every name whose
/// fresh instances trial-merge under `p`.
fn mergeable_algs(p: &Params) -> Vec<&'static str> {
    registry::names()
        .into_iter()
        .filter(|&alg| probe_mergeable(&|_| registry::get(alg, p)).expect("registry"))
        .collect()
}

/// Largest pointwise answer difference between two erased answers.
fn answer_drift(merged: &Answer, single: &Answer) -> f64 {
    match (merged, single) {
        (Answer::Items(a), Answer::Items(b)) => {
            let est = |list: &[(u64, f64)], item: u64| {
                list.iter()
                    .find(|&&(i, _)| i == item)
                    .map_or(0.0, |&(_, e)| e)
            };
            a.iter()
                .chain(b.iter())
                .map(|&(item, _)| (est(a, item) - est(b, item)).abs())
                .fold(0.0, f64::max)
        }
        _ => (merged.as_scalar().unwrap_or(0.0) - single.as_scalar().unwrap_or(0.0)).abs(),
    }
}

fn main() {
    let params = Params::default().with_n(1 << 10).with_eps(0.125);
    let mut section = Section::new(
        "zipf workload; drift = max |merged estimate - single-stream estimate|; \
         ok = referee verdict on the merged answer",
        &["alg x shards", "partition", "drift", "ok", "loads", "skew"],
        16,
    );
    for alg in mergeable_algs(&params) {
        let referee = referee_for(alg, &params);
        for shards in [2usize, 4, 8] {
            for partition in [Partition::Hash, Partition::RoundRobin] {
                let params = params.clone();
                let referee = referee.clone();
                section = section.row(Row::custom(format!("{alg} x{shards}"), move |ctx| {
                    let m = ctx.cap(1 << 15, RunnerConfig::QUICK_CAP);
                    let spec = WorkloadSpec::Zipf {
                        n: params.n,
                        m,
                        heavy: 8,
                        seed: 1789,
                    };
                    // Ground truth (single-stream state + referee) needs the
                    // materialized stream; the sharded path streams the same
                    // spec through the shard pipeline.
                    let updates: Vec<Update> = spec.generate();
                    let ctor = |_: usize| registry::get(alg, &params);
                    let cfg = ShardConfig {
                        shards,
                        partition,
                        threads: 1,
                        batch: 512,
                        master_seed: 97,
                    };
                    let mut single = registry::get(alg, &params).expect("registry");
                    let mut rng = TranscriptRng::from_seed(cfg.shard_seed(0));
                    for chunk in updates.chunks(cfg.batch) {
                        single.process_batch_dyn(chunk, &mut rng).expect("model");
                    }
                    let out = ingest_sharded_source(&ctor, &mut spec.stream(), &cfg)
                        .expect("sharded ingest");
                    let merged_answer = out.merged.query_dyn();
                    let drift = answer_drift(&merged_answer, &single.query_dyn());
                    let mut ref_ = referee.build();
                    ref_.observe_batch(&updates);
                    let ok = ref_.check(m, &merged_answer).is_correct();
                    vec![
                        partition.label().to_string(),
                        format!("{drift:.1}"),
                        ok.to_string(),
                        format!("max {}", out.stats.max_load()),
                        format!("{:.2}", out.stats.skew()),
                    ]
                }));
            }
        }
    }
    run_cli(
        ExperimentSpec::new(
            "sharded",
            "sharded ingestion: merged vs single-stream accuracy (throughput: bench_shard)",
        )
        .section(section)
        .note(
            "linear sketches (count_min, ams_f2, exact_l0) must show drift 0.0 — their merge\n\
             is exact; counter summaries drift within the mergeable-summaries error bound\n\
             and must still pass their referee. The white-box adversary sees every shard.",
        ),
    );
}
