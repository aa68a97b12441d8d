//! The multi-threaded batch driver.
//!
//! A plain `std::thread` worker pool (the build environment has no
//! registry access, so no rayon): jobs are pulled off a shared atomic
//! counter and results land in their original slots, so output order is
//! deterministic regardless of interleaving. Workers share the engine's
//! compilation cache, so duplicate jobs inside one batch are compiled
//! once.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use paulihedral::ir::PauliIR;
use paulihedral::{CompileError, Scheduler};
use ph_telemetry::Telemetry;

use crate::engine::{Engine, EngineOutput};
use crate::fault::Fault;
use crate::pass::Target;
use crate::pipeline::Pipeline;

/// One unit of batch work.
#[derive(Clone, Debug)]
pub struct CompileJob {
    /// Label carried into the result (file name, benchmark name, …).
    pub name: String,
    /// The program.
    pub ir: PauliIR,
    /// Target override; `None` uses the engine's default target.
    pub target: Option<Target>,
    /// Scheduler override; `None` uses the pipeline's configured pass.
    pub scheduler: Option<Scheduler>,
}

impl CompileJob {
    /// A job against the engine's default target and pipeline scheduler.
    pub fn named(name: impl Into<String>, ir: PauliIR) -> CompileJob {
        CompileJob {
            name: name.into(),
            ir,
            target: None,
            scheduler: None,
        }
    }

    /// Sets a per-job target.
    pub fn on_target(mut self, target: Target) -> CompileJob {
        self.target = Some(target);
        self
    }

    /// Sets a per-job scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> CompileJob {
        self.scheduler = Some(scheduler);
        self
    }
}

/// One job's outcome, in the batch's original order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The job's label.
    pub name: String,
    /// The compiled artifact and report, or why the job was rejected.
    pub outcome: Result<EngineOutput, CompileError>,
    /// Wall time this job spent inside a worker (queue wait excluded).
    pub wall: Duration,
    /// How long the job sat in the queue before a worker picked it up
    /// (time from batch start to job start).
    pub queue_wait: Duration,
}

/// A worker pool over an [`Engine`].
#[derive(Debug)]
pub struct BatchEngine {
    engine: Engine,
    threads: usize,
}

impl BatchEngine {
    /// A batch engine sized to the machine
    /// (`std::thread::available_parallelism`, min 1).
    pub fn new(pipeline: Pipeline, target: Target) -> BatchEngine {
        let threads = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        BatchEngine {
            engine: Engine::new(pipeline, target),
            threads,
        }
    }

    /// Overrides the worker count (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> BatchEngine {
        self.threads = threads.max(1);
        self
    }

    /// Sets the underlying engine's intra-compile knob (see
    /// [`Engine::with_intra_threads`]): the worker budget each job may use
    /// for its synthesis pass (`0` = one per CPU, default `1` =
    /// sequential). Batch jobs and service requests clamp it with
    /// [`BatchEngine::intra_budget`], so a wide pool on a small machine
    /// never oversubscribes.
    pub fn with_intra_threads(mut self, intra_threads: usize) -> BatchEngine {
        self.engine = self.engine.with_intra_threads(intra_threads);
        self
    }

    /// Replaces the shared cache with an empty one using `config`
    /// (entry/byte budgets, optional persistent directory). Builder-style;
    /// call before the first batch.
    pub fn with_cache_config(mut self, config: crate::cache::CacheConfig) -> BatchEngine {
        self.engine = self.engine.with_cache_config(config);
        self
    }

    /// Attaches a fault-injection handle to the underlying engine (see
    /// [`Engine::with_fault`]): worker jobs consult the worker seam, the
    /// shared cache's disk tier consults the disk seam.
    pub fn with_fault(mut self, fault: Fault) -> BatchEngine {
        self.engine = self.engine.with_fault(fault);
        self
    }

    /// Attaches a telemetry handle to the underlying engine (see
    /// [`Engine::with_telemetry`]); the batch driver additionally emits
    /// one `batch` span per [`BatchEngine::compile_all`], one
    /// `job:<name>` span per job (queue wait in its args), and the
    /// `batch.job_wall_ns` / `batch.queue_wait_ns` histograms.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> BatchEngine {
        self.engine = self.engine.with_telemetry(telemetry);
        self
    }

    /// The underlying engine (cache statistics, one-off compiles).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers [`BatchEngine::compile_all`] will actually spawn for a
    /// batch of `jobs` jobs: never more threads than jobs.
    pub fn worker_count(&self, jobs: usize) -> usize {
        self.threads.min(jobs)
    }

    /// The intra-compile worker budget each of `jobs` concurrent jobs
    /// actually gets: the engine's knob (`0` resolved to the CPU count)
    /// clamped to `max(1, cpus / workers)`, the machine share left over by
    /// the job-level pool. [`BatchEngine::compile_all`] passes the batch
    /// size; the compile service passes its worker count.
    pub fn intra_budget(&self, jobs: usize) -> usize {
        let cpus = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let requested = match self.engine.intra_threads() {
            0 => cpus,
            t => t,
        };
        requested.min((cpus / self.worker_count(jobs).max(1)).max(1))
    }

    /// Compiles every job, fanning out across the worker pool. Results
    /// come back in job order; per-job failures are values, not batch
    /// failures — including panics, which are caught per job
    /// ([`CompileError::Panicked`]) so one bad job can neither kill its
    /// worker thread nor abort the rest of the batch.
    pub fn compile_all(&self, jobs: Vec<CompileJob>) -> Vec<BatchResult> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.worker_count(jobs.len());
        let intra_budget = self.intra_budget(jobs.len());
        let telemetry = self.engine.telemetry();
        let batch_span = telemetry.span_with(
            "batch",
            vec![
                ("jobs", jobs.len().into()),
                ("workers", workers.into()),
                ("intra_budget", intra_budget.into()),
            ],
        );
        let batch_start = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchResult>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    // Time spent queued: from batch start until a worker
                    // picked the job up (invisible to the in-worker wall).
                    let queue_wait = batch_start.elapsed();
                    let job_span = telemetry.span_with(
                        format!("job:{}", job.name),
                        vec![(
                            "queue_wait_us",
                            u64::try_from(queue_wait.as_micros())
                                .unwrap_or(u64::MAX)
                                .into(),
                        )],
                    );
                    let outcome =
                        self.engine
                            .run(&job.ir, job.target.as_ref(), job.scheduler, intra_budget);
                    let wall = job_span.finish();
                    telemetry.record_duration("batch.job_wall_ns", wall);
                    telemetry.record_duration("batch.queue_wait_ns", queue_wait);
                    *slots[i].lock().expect("batch slot poisoned") = Some(BatchResult {
                        name: job.name.clone(),
                        outcome,
                        wall,
                        queue_wait,
                    });
                });
            }
        });
        drop(batch_span);

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch slot poisoned")
                    .expect("every job slot filled before scope exit")
            })
            .collect()
    }
}
