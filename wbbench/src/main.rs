//! `wbbench` — one benchmark for the whole wbstream system.
//!
//! ```text
//! wbbench --workload offline_registry|tournament|daemon_mixed
//!         --seed N --seconds S --trace 0|1 --wbd PATH [--out DIR]
//! ```
//!
//! With `--trace 0` the run measures one workload with tracing off and
//! prints its end-to-end metrics, all timed on CPU clocks. With `--trace 1` it measures the named
//! workload twice at half the length, untraced then traced (their ratio
//! is `trace.overhead_ratio`), runs the other two workloads traced at a
//! quarter of the length so every layer is covered, and prints every
//! per-layer metric; spans go to `DIR/trace-<workload>-<seed>.jsonl`.
//! Either way the last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Usage errors and a daemon that cannot start exit non-zero without it.

mod daemon;
mod offline;
mod stats;
mod tournament;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order a traced run covers them.
const WORKLOADS: &[&str] = &["offline_registry", "tournament", "daemon_mixed"];

/// The end-to-end metrics every workload reports, all timed on CPU clocks
/// (see `stats::thread_cpu_s`). What each means per workload is in the
/// README.
pub struct E2e {
    /// CPU time of set-up before the first timed call (median of
    /// repetitions).
    pub setup_s: f64,
    /// Peak RSS of the process doing the work.
    pub peak_rss_mb: f64,
    /// Millions of updates per CPU second of the process doing the work.
    pub cpu_mups: f64,
    /// Median CPU time of the workload's unit operation.
    pub op_cpu_p50_ms: f64,
    /// Tail CPU time of that operation (p99, or the highest percentile with
    /// ten samples beyond it).
    pub op_cpu_tail_ms: f64,
}

/// One measured pass over one workload.
pub struct Pass {
    pub e2e: E2e,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check of the pass held.
    pub correct: bool,
}

/// Per-layer metrics, in the order they were measured.
#[derive(Default)]
pub struct Layers(Vec<(String, f64, &'static str)>);

impl Layers {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wbd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut wbd) = (None, None, None, None, None);
    let mut out = PathBuf::from(".bench_build/wbbench");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--wbd" => wbd = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        wbd: wbd.ok_or("--wbd is required")?,
        out,
    })
}

fn run_one(
    workload: &str,
    a: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    reference: &mut Option<tournament::Reference>,
) -> std::io::Result<Pass> {
    println!(
        "== {workload} (seed {}, {seconds} s, trace {})",
        a.seed,
        u8::from(tracer.enabled())
    );
    Ok(match workload {
        "offline_registry" => offline::run(a.seed, seconds, tracer, layers),
        "tournament" => tournament::run(a.seed, seconds, tracer, layers, reference),
        "daemon_mixed" => daemon::run(a.seed, seconds, &a.wbd, tracer, layers)?,
        other => unreachable!("validated workload {other}"),
    })
}

/// A JSON number with every digit; non-finite values (a failed request's
/// latency) saturate so the line stays valid JSON.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wbbench: {e}");
            eprintln!(
                "usage: wbbench --workload {} --seed N --seconds S --trace 0|1 --wbd PATH [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut layers = Layers::default();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut absorb = |p: &Pass| {
        correct &= p.correct;
        attempted += p.attempted;
        failed += p.failed;
    };
    let result = (|| -> std::io::Result<()> {
        // A traced run compares the named workload untraced and traced at
        // half length each, so that it stays as long as about two runs.
        let own = if a.trace {
            (a.seconds / 2.0).max(1.0)
        } else {
            a.seconds
        };
        let mut off = Tracer::new(false);
        let mut reference = None;
        let untraced = run_one(&a.workload, &a, own, &mut off, &mut layers, &mut reference)?;
        absorb(&untraced);
        if !a.trace {
            let e = &untraced.e2e;
            for (name, value, unit) in [
                ("setup_s", e.setup_s, "s"),
                ("peak_rss_mb", e.peak_rss_mb, "MiB"),
                ("cpu_mups", e.cpu_mups, "Mups"),
                ("op_cpu_p50_ms", e.op_cpu_p50_ms, "ms"),
                ("op_cpu_tail_ms", e.op_cpu_tail_ms, "ms"),
            ] {
                metrics.push((name.to_string(), value, unit));
            }
            return Ok(());
        }
        let mut tracer = Tracer::new(true);
        let traced = run_one(
            &a.workload,
            &a,
            own,
            &mut tracer,
            &mut layers,
            &mut reference,
        )?;
        absorb(&traced);
        for &other in WORKLOADS.iter().filter(|&&w| w != a.workload) {
            let pass = run_one(
                other,
                &a,
                (a.seconds / 4.0).max(1.0),
                &mut tracer,
                &mut layers,
                &mut reference,
            )?;
            absorb(&pass);
        }
        layers.put(
            "trace.overhead_ratio",
            untraced.e2e.cpu_mups / traced.e2e.cpu_mups,
            "ratio",
        );
        println!("trace: span summary (name: count, total ms, self ms)");
        for (name, (count, total, own)) in tracer.summary() {
            println!("trace:   {name:<20} {count:>8} {total:>12.3} {own:>12.3}");
        }
        let path = a.out.join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
        tracer.write(&path)?;
        println!("trace: spans written to {}", path.display());
        metrics.append(&mut layers.0);
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("wbbench: {}: {e}", a.workload);
        return ExitCode::FAILURE;
    }
    println!(
        "{}: correct {correct}, attempted {attempted}, failed {failed}, failed_ratio {}",
        a.workload,
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, num(*value))
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        attempted.max(1),
        body.join(",")
    );
    ExitCode::SUCCESS
}
