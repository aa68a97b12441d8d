//! Criterion bench: telemetry overhead on the batch compile path.
//!
//! Three configurations over the same batch of jobs:
//!
//! - `batch_disabled` — the default no-op sink ([`Telemetry::disabled`]); every
//!   instrumentation call is an `Option` check that branches away. This
//!   must sit within noise of the pre-telemetry engine.
//! - `batch_enabled` — a live [`Collector`]: spans, cache events, and histogram
//!   records all land, bounding what full tracing costs.
//! - `single_disabled` — the disabled sink on one worker, the sequential
//!   baseline.
//!
//! Every configuration uses a cache that keeps nothing
//! (`max_entries: Some(0)`), so each iteration measures real compiles, not
//! cache hits.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use paulihedral::ir::PauliIR;
use ph_engine::{BatchEngine, CacheConfig, Collector, CompileJob, Pipeline, Target, Telemetry};
use workloads::suite;

/// A batch engine whose cache keeps nothing.
fn uncached() -> BatchEngine {
    BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_cache_config(CacheConfig {
        max_entries: Some(0),
        ..CacheConfig::unbounded()
    })
}

fn jobs_for(irs: &[(String, PauliIR)]) -> Vec<CompileJob> {
    irs.iter()
        .map(|(name, ir)| CompileJob::named(name.clone(), ir.clone()))
        .collect()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let irs: Vec<(String, PauliIR)> = ["Ising-1D", "Heisen-1D", "Rand-20-0.3"]
        .iter()
        .map(|&n| (n.to_string(), suite::generate(n).ir))
        .collect();

    group.bench_function("batch_disabled", |b| {
        let engine = uncached();
        b.iter(|| engine.compile_all(jobs_for(&irs)));
    });

    group.bench_function("batch_enabled", |b| {
        b.iter(|| {
            // A fresh collector per iteration so the event buffer does not
            // grow unboundedly across samples.
            let collector = Arc::new(Collector::new());
            let engine = uncached().with_telemetry(Telemetry::attached(Arc::clone(&collector)));
            engine.compile_all(jobs_for(&irs))
        });
    });

    group.bench_function("single_disabled", |b| {
        let engine = uncached().with_threads(1);
        b.iter(|| engine.compile_all(jobs_for(&irs)));
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
