//! The Paulihedral compilation engine: an explicit pass manager, a
//! content-addressed compilation cache, and a multi-threaded batch driver.
//!
//! The core crate exposes the one-shot [`paulihedral::compile`]; this crate
//! wraps the same scheduling/synthesis machinery in the driver subsystem a
//! serving deployment needs:
//!
//! 1. **Pass manager** ([`pass`], [`pipeline`]): compilation is a
//!    [`Pipeline`] of [`Pass`]es over a [`CompileUnit`] (Pauli IR → layers
//!    → circuit). Each pass is individually timed and its circuit-metric
//!    deltas recorded into a [`CompileReport`] — the §7 "adaptive pass
//!    management" sketch made concrete.
//! 2. **Compilation cache** ([`cache`]): results are keyed by a canonical
//!    FNV-1a fingerprint of (IR, pipeline configuration, target), so
//!    repeated Trotter steps and re-compiled suite benchmarks are served
//!    from memory. The memory tier is a bounded LRU ([`CacheConfig`]), an
//!    optional disk tier ([`persist`]) survives process restarts, and
//!    concurrent misses on one key are coalesced into a single compile.
//!    Hit/miss/eviction/byte counters surface in [`CacheStats`].
//! 3. **Batch driver** ([`batch`]): [`BatchEngine::compile_all`] spreads a
//!    `Vec` of jobs across a `std::thread` worker pool (no external
//!    runtime), preserving job order and sharing one cache.
//! 4. **Compile service** ([`serve`], [`proto`]): a TCP front-end over the
//!    batch engine speaking newline-delimited JSON — bounded work queue
//!    with backpressure, per-request deadlines, panic isolation, graceful
//!    drain, and reports streamed back as each job finishes. `phc serve` /
//!    `phc submit` let multiple processes share one `--cache-dir`.
//!    [`client::Client`] is the resilient side of the wire: connect/read
//!    timeouts, bounded reconnects with jittered backoff, and idempotent
//!    re-submission of unanswered jobs.
//! 5. **Fault injection** ([`fault`]): a deterministic, seeded harness
//!    that injects failures through the real I/O seams — disk-tier
//!    reads/writes (errors, torn writes, bit-flips), worker compiles
//!    (panics, delays), and connection writes (drops, truncation,
//!    stalls). Off by default and zero-cost when off; the chaos suite
//!    and `phc --fault-plan` turn it on. The disk tier degrades to
//!    memory-only after repeated I/O errors and heals on re-probe
//!    ([`CacheStats::disk_disabled`]); the server's watchdog turns stuck
//!    compiles into typed `watchdog_timeout` answers.
//! 6. **Telemetry** ([`ph_telemetry`], attached via
//!    [`Engine::with_telemetry`] / [`BatchEngine::with_telemetry`]): spans
//!    for every batch, job, request, and pass; cache events mirroring the
//!    [`CacheStats`] counters; and latency histograms — exportable as a
//!    JSONL stream or a Chrome/Perfetto trace. The default sink is a
//!    no-op, so uninstrumented compiles pay effectively nothing.
//!
//! ```
//! use ph_engine::{BatchEngine, CompileJob, Pipeline, Target};
//! use paulihedral::parse::parse_program;
//!
//! let ir = parse_program("{(ZZY, 0.5), 1.0}; {(ZZI, 0.3), 1.0};")?;
//! // One worker runs the jobs in order, so "b" finds "a" in the cache.
//! let engine = BatchEngine::new(Pipeline::auto(), Target::FaultTolerant).with_threads(1);
//! let results = engine.compile_all(vec![
//!     CompileJob::named("a", ir.clone()),
//!     CompileJob::named("b", ir), // identical → served from cache
//! ]);
//! assert!(results[1].outcome.as_ref().unwrap().report.cache_hit);
//! assert_eq!(engine.engine().cache_stats().hits, 1);
//! # Ok::<(), paulihedral::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod engine;
pub mod fault;
pub mod pass;
pub mod persist;
pub mod pipeline;
pub mod proto;
pub mod report;
pub mod serve;
pub mod unit;

/// The workspace's one JSON writer and parser (escaping, value rendering,
/// and recursive-descent reading for the wire protocol), shared by the
/// `phc` batch report, the compile service, and the telemetry exporters.
/// Re-exported from [`ph_telemetry::json`] so the engine's consumers need
/// no extra dependency edge.
pub mod json {
    pub use ph_telemetry::json::*;
}

pub use batch::{BatchEngine, BatchResult, CompileJob};
pub use cache::{CacheConfig, CacheOutcome, CacheStats, CompileCache};
pub use client::{Client, ClientConfig, ClientError, ClientStats, Connection};
pub use engine::{Engine, EngineOutput};
pub use fault::{Fault, FaultCounters, FaultPlan};
pub use pass::{FusionPass, Pass, PassContext, PeepholePass, SchedulePass, SynthesisPass, Target};
pub use ph_telemetry::{Collector, MetricsSnapshot, Telemetry};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use proto::{CompileRequest, Request};
pub use report::{CompileReport, PassRecord};
pub use serve::{ServeConfig, ServeStats, Server, ServerHandle};
pub use unit::CompileUnit;
