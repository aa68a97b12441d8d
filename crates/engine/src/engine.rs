//! The single-program engine: validate → cache lookup → pipeline →
//! cache fill, with full per-pass instrumentation.

use std::sync::Arc;

use paulihedral::ir::PauliIR;
use paulihedral::synth::par::{Intra, ShardObserver};
use paulihedral::{validate, CompileError, Compiled, Scheduler};
use ph_telemetry::Telemetry;

use crate::cache::{
    fingerprint_ir, CacheConfig, CacheEntry, CacheOutcome, CacheStats, CompileCache, Fingerprint,
};
use crate::fault::{Fault, WorkerFault};
use crate::pass::{PassContext, Target};
use crate::pipeline::Pipeline;
use crate::report::{CompileReport, PassRecord};
use crate::unit::CompileUnit;

/// What one compilation returns: the (shared) artifact and its report.
#[derive(Clone, Debug)]
pub struct EngineOutput {
    /// The compiled kernel. `Arc` because cache hits share one allocation.
    pub compiled: Arc<Compiled>,
    /// Per-pass instrumentation for this request.
    pub report: CompileReport,
}

/// A compilation engine: one pipeline, one default target, one cache.
///
/// Every request — [`Engine::compile`], [`Engine::compile_with`], a
/// [`crate::BatchEngine`] job or a [`crate::Server`] request — runs the
/// same path: the worker fault seam, validation, a cache lookup keyed by
/// (IR, pipeline, target), the pipeline on a miss, and panic isolation
/// around all of it. A cache that keeps nothing is
/// `CacheConfig { max_entries: Some(0), .. }`.
///
/// The engine is `Sync` — `&Engine` is all the batch driver's worker
/// threads need.
#[derive(Debug)]
pub struct Engine {
    pipeline: Pipeline,
    target: Target,
    cache: CompileCache,
    telemetry: Telemetry,
    intra_threads: usize,
    fault: Fault,
}

/// Wraps each parallel synthesis shard in a `shard:<stage>` telemetry
/// span. Shards run on scoped worker threads with fresh span stacks, so
/// each shard shows up as a per-thread row in the exported trace.
struct ShardSpans<'t> {
    telemetry: &'t Telemetry,
}

impl ShardObserver for ShardSpans<'_> {
    fn shard(&self, stage: &str, shard: usize, work: &mut dyn FnMut()) {
        let span = self
            .telemetry
            .span_with(format!("shard:{stage}"), vec![("shard", shard.into())]);
        work();
        drop(span);
    }
}

impl Engine {
    /// An engine with an unbounded, memory-only cache (see
    /// [`Engine::with_cache_config`] for bounds and a disk tier).
    pub fn new(pipeline: Pipeline, target: Target) -> Engine {
        Engine {
            pipeline,
            target,
            cache: CompileCache::new(),
            telemetry: Telemetry::disabled(),
            intra_threads: 1,
            fault: Fault::disabled(),
        }
    }

    /// Sets the intra-compile worker budget for the synthesis pass: `1`
    /// (the default) keeps synthesis sequential, `0` uses one worker per
    /// available CPU, any other value is taken literally. Direct compiles
    /// use it as is; batch jobs and service requests clamp it to their
    /// share of the machine ([`crate::BatchEngine::intra_budget`]). Purely
    /// a wall-clock knob — the artifact is bit-identical for every
    /// setting, so it is excluded from cache keys and cached artifacts
    /// stay shareable across settings. Builder-style.
    pub fn with_intra_threads(mut self, intra_threads: usize) -> Engine {
        self.intra_threads = intra_threads;
        self
    }

    /// The configured intra-compile worker budget (see
    /// [`Engine::with_intra_threads`]).
    pub fn intra_threads(&self) -> usize {
        self.intra_threads
    }

    /// Replaces the cache with an empty one using `config` (entry/byte
    /// budgets and an optional persistent directory). Builder-style; call
    /// before the first compilation.
    pub fn with_cache_config(mut self, config: CacheConfig) -> Engine {
        self.cache = CompileCache::with_config(config);
        self.cache.set_telemetry(self.telemetry.clone());
        self.cache.set_fault(self.fault.clone());
        self
    }

    /// Attaches a fault-injection handle ([`crate::fault`]) to the engine
    /// and its cache: compiles consult the worker seam (injected panics
    /// and delays), the disk tier consults the disk seam. Builder-style;
    /// the default [`Fault::disabled`] handle injects nothing and costs
    /// one `Option` check per site.
    pub fn with_fault(mut self, fault: Fault) -> Engine {
        self.cache.set_fault(fault.clone());
        self.fault = fault;
        self
    }

    /// The engine's fault-injection handle (disabled unless
    /// [`Engine::with_fault`] attached one).
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Attaches a telemetry handle: one span per request (`compile`) and
    /// per pass (the pass's name), cache events on the shared cache, and
    /// latency histograms (`compile.total_ns`, `pass.<name>_ns`).
    /// Builder-style; the default is the zero-cost
    /// [`Telemetry::disabled`] sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Engine {
        self.cache.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The engine's telemetry handle (disabled unless
    /// [`Engine::with_telemetry`] attached one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The engine's default target.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Cache hit/miss/eviction/byte counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache's configuration (budgets, disk tier, degradation knobs).
    pub fn cache_config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Compiles one program against the default target.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for an empty program or an unusable SC
    /// device (see [`paulihedral::validate`]), and
    /// [`CompileError::Panicked`] when anything under the compile path
    /// panics.
    pub fn compile(&self, ir: &PauliIR) -> Result<EngineOutput, CompileError> {
        self.compile_with(ir, None, None)
    }

    /// Compiles one program with optional per-request target and
    /// scheduler overrides, using the engine's intra-compile knob.
    ///
    /// Concurrent calls with the same request key compile once: one
    /// caller runs the pipeline while the rest wait and share its `Arc`
    /// (counted in [`CacheStats::coalesced`]).
    ///
    /// # Errors
    ///
    /// See [`Engine::compile`].
    pub fn compile_with(
        &self,
        ir: &PauliIR,
        target: Option<&Target>,
        scheduler: Option<Scheduler>,
    ) -> Result<EngineOutput, CompileError> {
        self.run(ir, target, scheduler, self.intra_threads)
    }

    /// The one compile path under [`Engine::compile_with`], the batch
    /// driver and the compile service, with an explicit intra-compile
    /// worker budget (the batch driver and the service divide the machine
    /// between concurrent jobs with [`crate::BatchEngine::intra_budget`]).
    ///
    /// Every request goes through the cache and is panic-isolated: a
    /// panicking pass (or a bug anywhere under the compile path) is caught
    /// and returned as [`CompileError::Panicked`] instead of unwinding into
    /// the caller, so one bad job cannot tear down a worker thread. The
    /// single-flight cache's failure-handover path already treats a
    /// leader's unwind as a retryable failure, so coalesced waiters are
    /// unaffected.
    pub(crate) fn run(
        &self,
        ir: &PauliIR,
        target: Option<&Target>,
        scheduler: Option<Scheduler>,
        intra_threads: usize,
    ) -> Result<EngineOutput, CompileError> {
        // `&Engine` + `&PauliIR` are only conditionally unwind-safe, but
        // the shared state they reach (the cache) is designed for it: its
        // critical sections swap complete values and its locks recover
        // from poisoning, so observing post-panic state is sound.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The worker fault seam sits at the very top of the compile
            // path: an injected panic unwinds exactly like an organic pass
            // bug would, and an injected delay models a slow compile
            // without touching the passes.
            match self.fault.worker() {
                WorkerFault::Panic => panic!("injected fault: worker panic"),
                WorkerFault::Delay(d) => std::thread::sleep(d),
                WorkerFault::None => {}
            }
            // The request span both traces the compile and is its timer:
            // its wall time becomes `CompileReport::total`.
            let span = self.telemetry.span("compile");
            let target = target.unwrap_or(&self.target);
            validate(ir, &target.as_backend())?;
            let observer = ShardSpans {
                telemetry: &self.telemetry,
            };
            let mut intra = Intra::new(intra_threads);
            if self.telemetry.is_enabled() {
                intra = intra.with_observer(&observer);
            }
            let ctx = PassContext {
                target,
                scheduler_override: scheduler,
                intra,
            };
            let key = self.request_key(ir, &ctx);
            let (entry, outcome) = self
                .cache
                .get_or_compute(key, || self.execute(ir, &ctx, key))?;
            let mut report = entry.report;
            report.cache_hit = outcome != CacheOutcome::Compiled;
            report.total = span.finish();
            self.telemetry
                .record_duration("compile.total_ns", report.total);
            Ok(EngineOutput {
                compiled: entry.compiled,
                report,
            })
        }))
        // `as_ref` reaches the payload itself; `&payload` would coerce the
        // `Box` into the `dyn Any` and every downcast below would miss.
        .unwrap_or_else(|payload| Err(CompileError::Panicked(panic_message(payload.as_ref()))))
    }

    /// Runs the pipeline over a fresh unit (the cache-miss path).
    fn execute(
        &self,
        ir: &PauliIR,
        ctx: &PassContext<'_>,
        key: u64,
    ) -> Result<CacheEntry, CompileError> {
        let span = self.telemetry.span("pipeline");
        let mut unit = CompileUnit::new(ir.clone());
        let mut records: Vec<PassRecord> = Vec::with_capacity(self.pipeline.passes().len());
        for pass in self.pipeline.passes() {
            let before = unit.stats();
            // The pass span is also the pass timer (a failing pass still
            // records its end event when the guard drops).
            let pass_span = self.telemetry.span(pass.name());
            let note = pass.run(&mut unit, ctx)?;
            let wall = pass_span.finish();
            self.telemetry
                .record_duration(&format!("pass.{}_ns", pass.name()), wall);
            records.push(PassRecord {
                name: pass.name().to_string(),
                wall,
                before,
                after: unit.stats(),
                note,
            });
        }
        Ok(CacheEntry {
            compiled: Arc::new(unit.into_compiled()),
            report: CompileReport {
                passes: records,
                total: span.finish(),
                cache_hit: false,
                key,
            },
        })
    }

    /// The content-addressed key of a request: canonical hashes of the IR,
    /// the pipeline signature (with overrides applied), and the target.
    fn request_key(&self, ir: &PauliIR, ctx: &PassContext<'_>) -> u64 {
        let mut h = Fingerprint::new();
        fingerprint_ir(ir, &mut h);
        h.write_str(&self.pipeline.signature(ctx));
        ctx.target.fingerprint(&mut h);
        h.finish()
    }
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` payloads cover `panic!`, `assert!`, `unwrap`, and friends).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
